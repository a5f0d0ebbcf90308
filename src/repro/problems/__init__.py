"""Concrete problems from the paper, expressed in the input/output model.

Each problem class provides the domain enumeration, the dependency mapping,
closed-form |I| / |O| counts, the coverage bound g(q), and the closed-form
lower bound on replication rate where the paper derives one.
"""

from repro.problems.grouping import GroupByAggregationProblem
from repro.problems.hamming import HammingDistanceProblem, hamming_g
from repro.problems.joins import (
    JoinQuery,
    MultiwayJoinProblem,
    NaturalJoinProblem,
    RelationSchema,
    star_join_replication_lower_bound,
)
from repro.problems.matmul import MatrixMultiplicationProblem, matmul_g
from repro.problems.subgraphs import (
    SampleGraph,
    SampleGraphProblem,
    TwoPathProblem,
)
from repro.problems.triangles import TriangleProblem, triangle_g
from repro.problems.wordcount import WordCountProblem

__all__ = [
    "GroupByAggregationProblem",
    "HammingDistanceProblem",
    "JoinQuery",
    "MatrixMultiplicationProblem",
    "MultiwayJoinProblem",
    "NaturalJoinProblem",
    "RelationSchema",
    "SampleGraph",
    "SampleGraphProblem",
    "TriangleProblem",
    "TwoPathProblem",
    "WordCountProblem",
    "hamming_g",
    "matmul_g",
    "star_join_replication_lower_bound",
    "triangle_g",
]
