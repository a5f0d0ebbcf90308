"""Programmatic regeneration of Table 1 and Table 2 of the paper.

Each row couples the symbolic formulas printed in the paper with callables
that evaluate them for concrete parameters.  Table 1 evaluates each
problem class's own ``lower_bound`` (:mod:`repro.problems` is the one home
of every lower bound); Table 2 evaluates :mod:`repro.analysis.upper_bounds`
and the Shares closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.analysis import upper_bounds
from repro.problems import (
    HammingDistanceProblem,
    JoinQuery,
    MatrixMultiplicationProblem,
    MultiwayJoinProblem,
    SampleGraph,
    SampleGraphProblem,
    TriangleProblem,
    TwoPathProblem,
)
from repro.schemas.join_shares import chain_join_replication_upper_bound


@dataclass(frozen=True)
class Table1Row:
    """One row of Table 1: problem, |I|, |O|, g(q), and the lower bound."""

    problem: str
    num_inputs: str
    num_outputs: str
    g_formula: str
    lower_bound_formula: str
    evaluate: Callable[[float], float]

    def as_dict(self) -> Dict[str, str]:
        return {
            "Problem": self.problem,
            "|I|": self.num_inputs,
            "|O|": self.num_outputs,
            "g(q)": self.g_formula,
            "Lower bound on r": self.lower_bound_formula,
        }


@dataclass(frozen=True)
class Table2Row:
    """One row of Table 2: problem and its representative upper bound."""

    problem: str
    upper_bound_formula: str
    evaluate: Callable[[float], float]

    def as_dict(self) -> Dict[str, str]:
        return {
            "Problem": self.problem,
            "Upper bound on r": self.upper_bound_formula,
        }


def table1_rows(
    b: int = 20,
    n_triangle: int = 1000,
    n_sample: int = 1000,
    sample_nodes: int = 4,
    n_two_path: int = 1000,
    n_join: int = 100,
    join_attributes: int = 4,
    join_rho: float = 2.0,
    n_matmul: int = 100,
) -> List[Table1Row]:
    """Build Table 1 with concrete parameters for numeric evaluation.

    The symbolic columns match the paper exactly; ``evaluate(q)`` is the
    ``lower_bound`` of the row's problem built with the chosen parameters.
    """
    return [
        Table1Row(
            problem=f"Hamming-Distance-1, b-bit strings (b={b})",
            num_inputs="2^b",
            num_outputs="(b/2)·2^b",
            g_formula="(q/2)·log2 q",
            lower_bound_formula="b / log2 q",
            evaluate=HammingDistanceProblem(b).lower_bound,
        ),
        Table1Row(
            problem=f"Triangle-Finding, n nodes (n={n_triangle})",
            num_inputs="n²/2",
            num_outputs="n³/6",
            g_formula="(√2/3)·q^(3/2)",
            lower_bound_formula="n / √(2q)",
            evaluate=TriangleProblem(n_triangle).lower_bound,
        ),
        Table1Row(
            problem=(
                f"Sample graph (s={sample_nodes} nodes) in Alon class "
                f"(n={n_sample})"
            ),
            num_inputs="C(n,2)",
            num_outputs="n^s",
            g_formula="q^(s/2)",
            lower_bound_formula="(n/√q)^(s-2)",
            evaluate=SampleGraphProblem(
                n_sample, SampleGraph.clique(sample_nodes)
            ).lower_bound,
        ),
        Table1Row(
            problem=f"2-Paths in n-node graph (n={n_two_path})",
            num_inputs="C(n,2)",
            num_outputs="n³/2",
            g_formula="C(q,2)",
            lower_bound_formula="2n/q",
            evaluate=TwoPathProblem(n_two_path).lower_bound,
        ),
        Table1Row(
            problem=(
                f"Multiway join ({join_attributes} vars, ρ={join_rho}, "
                f"n={n_join})"
            ),
            num_inputs="N·C(n,2)",
            num_outputs="C(n,m)",
            g_formula="q^ρ",
            lower_bound_formula="n^(m-2) / q^(ρ-1)",
            evaluate=MultiwayJoinProblem(
                JoinQuery.chain(join_attributes - 1), n_join, rho=join_rho
            ).lower_bound,
        ),
        Table1Row(
            problem=f"n×n Matrix Multiplication (n={n_matmul})",
            num_inputs="2n²",
            num_outputs="n²",
            g_formula="q²/(4n²)",
            lower_bound_formula="2n²/q",
            evaluate=MatrixMultiplicationProblem(n_matmul).lower_bound,
        ),
    ]


def table2_rows(
    b: int = 20,
    n_triangle: int = 1000,
    m_sample: int = 100_000,
    sample_nodes: int = 4,
    n_two_path: int = 1000,
    n_chain: int = 100,
    chain_relations: int = 3,
    star_fact_size: float = 1.0e6,
    star_dimension_size: float = 1.0e3,
    star_dimensions: int = 3,
    n_matmul: int = 100,
) -> List[Table2Row]:
    """Build Table 2 with concrete parameters for numeric evaluation."""
    return [
        Table2Row(
            problem=f"Hamming-Distance-1, b-bit strings (b={b})",
            upper_bound_formula="b / log2 q",
            evaluate=lambda q: upper_bounds.hamming1_upper_bound(b, q),
        ),
        Table2Row(
            problem=f"Triangle-Finding, n nodes (n={n_triangle})",
            upper_bound_formula="O(n/√(2q))",
            evaluate=lambda q: upper_bounds.triangle_upper_bound(n_triangle, q),
        ),
        Table2Row(
            problem=(
                f"Sample graph (s={sample_nodes} nodes) in Alon class "
                f"(m={m_sample} edges)"
            ),
            upper_bound_formula="O((√(m/q))^(s-2))",
            evaluate=lambda q: upper_bounds.alon_upper_bound_edges(m_sample, sample_nodes, q),
        ),
        Table2Row(
            problem=f"2-Paths in n-node graph (n={n_two_path})",
            upper_bound_formula="O(2n/q)",
            evaluate=lambda q: upper_bounds.two_path_upper_bound(n_two_path, q),
        ),
        Table2Row(
            problem=(
                f"Chain join, N={chain_relations} relations (n={n_chain}); "
                f"star join N={star_dimensions} dims (f={star_fact_size:g}, "
                f"d0={star_dimension_size:g})"
            ),
            upper_bound_formula="chain: (n/√q)^(N-1); star: Nd0(Nd0/q)^(N-1)/(f+Nd0)",
            evaluate=lambda q: chain_join_replication_upper_bound(n_chain, q, chain_relations),
        ),
        Table2Row(
            problem=f"n×n Matrix Multiplication (n={n_matmul})",
            upper_bound_formula="2n²/q for q >= 2n",
            evaluate=lambda q: upper_bounds.matmul_upper_bound(n_matmul, q),
        ),
    ]


def format_table(rows: Sequence[Table1Row | Table2Row], q_values: Sequence[float]) -> str:
    """Render a table (symbolic columns plus numeric evaluation per q) as text."""
    lines: List[str] = []
    for row in rows:
        lines.append(" | ".join(f"{key}: {value}" for key, value in row.as_dict().items()))
        numeric = ", ".join(
            f"r(q={q:g})={_fmt(row.evaluate(q))}" for q in q_values
        )
        lines.append(f"    {numeric}")
    return "\n".join(lines)


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "inf"
    if value >= 100 or value == int(value):
        return f"{value:.0f}"
    return f"{value:.3f}"
