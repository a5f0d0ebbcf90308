"""Report generation and a small command-line interface.

``python -m repro.reports <command>`` regenerates the paper's headline
artifacts as plain-text reports without going through pytest:

* ``table1`` / ``table2`` — the two summary tables: each row couples the
  paper's symbolic formulas with a callable evaluating them, Table 1 through
  each problem class's ``lower_bound`` and Table 2 through the closed forms
  in :mod:`repro.schemas`;
* ``hamming`` — the Figure 1 tradeoff with the Splitting dots;
* ``matmul`` — the one-phase vs two-phase communication comparison;
* ``cost``  — the Section 1.2 optimal-reducer-size sweep.

The module also provides the formatting helpers the examples and benchmarks
share, so reports look identical everywhere.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence

from repro.core import ClusterCostModel
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
from repro.schemas import (
    alon_upper_bound_edges,
    chain_join_replication_upper_bound,
    hamming1_upper_bound,
    matmul_upper_bound,
    one_phase_total_communication,
    splitting_points,
    triangle_upper_bound,
    two_path_upper_bound,
    two_phase_total_communication,
)


# ----------------------------------------------------------------------
# Tables 1 and 2
# ----------------------------------------------------------------------
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
            evaluate=lambda q: hamming1_upper_bound(b, q),
        ),
        Table2Row(
            problem=f"Triangle-Finding, n nodes (n={n_triangle})",
            upper_bound_formula="O(n/√(2q))",
            evaluate=lambda q: triangle_upper_bound(n_triangle, q),
        ),
        Table2Row(
            problem=(
                f"Sample graph (s={sample_nodes} nodes) in Alon class "
                f"(m={m_sample} edges)"
            ),
            upper_bound_formula="O((√(m/q))^(s-2))",
            evaluate=lambda q: alon_upper_bound_edges(m_sample, sample_nodes, q),
        ),
        Table2Row(
            problem=f"2-Paths in n-node graph (n={n_two_path})",
            upper_bound_formula="O(2n/q)",
            evaluate=lambda q: two_path_upper_bound(n_two_path, q),
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
            evaluate=lambda q: matmul_upper_bound(n_matmul, q),
        ),
    ]


# ----------------------------------------------------------------------
# Formatting
# ----------------------------------------------------------------------
def format_value(value: object) -> str:
    """Human-friendly rendering of report cells."""
    if isinstance(value, float):
        if value == float("inf"):
            return "inf"
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1e6:
            return f"{value:.3e}"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3f}"
    return str(value)


def render_table(title: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned text table with a title banner."""
    materialized = [[format_value(cell) for cell in row] for row in rows]
    widths = [len(column) for column in header]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [f"=== {title} ==="]
    lines.append("  ".join(name.ljust(widths[index]) for index, name in enumerate(header)))
    lines.append("  ".join("-" * widths[index] for index in range(len(header))))
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Report builders
# ----------------------------------------------------------------------
def table1_report(q_values: Sequence[float] = (2 ** 4, 2 ** 8, 2 ** 12, 2 ** 16)) -> str:
    """Table 1 with the lower bound evaluated at a reducer-size sweep."""
    rows = []
    for row in table1_rows():
        cells = list(row.as_dict().values())
        cells.extend(row.evaluate(float(q)) for q in q_values)
        rows.append(cells)
    header = ["Problem", "|I|", "|O|", "g(q)", "Lower bound on r"] + [
        f"r(q=2^{int(math.log2(q))})" for q in q_values
    ]
    return render_table("Table 1: lower bounds on replication rate", header, rows)


def table2_report(q_values: Sequence[float] = (2 ** 6, 2 ** 10, 2 ** 14)) -> str:
    """Table 2 with the upper bound evaluated at a reducer-size sweep."""
    rows = []
    for row in table2_rows():
        cells = list(row.as_dict().values())
        cells.extend(row.evaluate(float(q)) for q in q_values)
        rows.append(cells)
    header = ["Problem", "Upper bound on r"] + [
        f"r(q=2^{int(math.log2(q))})" for q in q_values
    ]
    return render_table("Table 2: representative upper bounds on replication rate", header, rows)


def hamming_tradeoff_report(b: int = 24) -> str:
    """Figure 1: the hyperbola and the Splitting-algorithm dots."""
    problem = HammingDistanceProblem(b)
    rows = []
    for c, log_q, rate in splitting_points(b):
        rows.append([c, log_q, rate, problem.lower_bound(2.0 ** log_q)])
    return render_table(
        f"Figure 1: Hamming-distance-1 tradeoff, b={b}",
        ["c (segments)", "log2 q", "Splitting r", "lower bound b/log2 q"],
        rows,
    )


def matmul_report(n: int = 1000, q_values: Sequence[float] = (1e4, 1e5, 1e6, 4e6)) -> str:
    """Section 6.3: one-phase vs two-phase total communication."""
    rows = []
    for q in q_values:
        one = one_phase_total_communication(n, q)
        two = two_phase_total_communication(n, q)
        rows.append([q, one, two, "two-phase" if two < one else "one-phase"])
    return render_table(
        f"Section 6.3: matrix multiplication communication, n={n} (crossover at q=n^2={n * n:,})",
        ["q", "one-phase 4n^4/q", "two-phase 4n^3/sqrt(q)", "winner"],
        rows,
    )


def cost_report(
    b: int = 24,
    prices: Sequence[float] = (0.1, 1.0, 10.0, 100.0, 1000.0),
    processing_rate: float = 1.0,
) -> str:
    """Section 1.2: the cost-optimal reducer size as network prices change."""
    problem = HammingDistanceProblem(b)
    rows = []
    for price in prices:
        model = ClusterCostModel(communication_rate=price, processing_rate=processing_rate)
        best = model.optimal_q_continuous(
            problem.replication_lower_bound, q_min=2.0, q_max=2.0 ** b
        )
        rows.append([price, processing_rate, best.q, math.log2(best.q), best.replication_rate, best.total])
    return render_table(
        f"Section 1.2: optimal reducer size per communication price (Hamming-1, b={b})",
        ["a (comm)", "b (proc)", "optimal q", "log2 q", "r", "total cost"],
        rows,
    )


def algorithm_catalog_report(b: int = 24) -> str:
    """The concrete algorithms on the Fig. 1 plane, one row per dot."""
    problem = HammingDistanceProblem(b)
    rows = []
    for c, log_q, rate in splitting_points(b):
        q = 2.0 ** log_q
        rows.append([f"splitting(c={c})", q, rate, problem.lower_bound(q)])
    return render_table(
        f"Known algorithms on the tradeoff plane (b={b})",
        ["algorithm", "q", "r", "lower bound at q"],
        rows,
    )


REPORTS: Dict[str, Callable[[], str]] = {
    "table1": table1_report,
    "table2": table2_report,
    "hamming": hamming_tradeoff_report,
    "matmul": matmul_report,
    "cost": cost_report,
    "catalog": algorithm_catalog_report,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: print one or all reports."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.reports",
        description="Regenerate the paper's tables and headline figures as text reports.",
    )
    parser.add_argument(
        "report",
        nargs="?",
        default="all",
        choices=sorted(REPORTS) + ["all"],
        help="which report to print (default: all)",
    )
    arguments = parser.parse_args(argv)
    names = sorted(REPORTS) if arguments.report == "all" else [arguments.report]
    output = []
    for name in names:
        output.append(REPORTS[name]())
    print("\n\n".join(output))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    sys.exit(main())
