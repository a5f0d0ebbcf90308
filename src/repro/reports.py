"""Report generation and a small command-line interface.

``python -m repro.reports <command>`` regenerates the paper's headline
artifacts as plain-text reports without going through pytest:

* ``table1`` / ``table2`` — the two summary tables;
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
from typing import Callable, Dict, Iterable, List, Sequence

from repro.analysis.tables import table1_rows, table2_rows
from repro.core import AlgorithmPoint, ClusterCostModel, LowerBoundRecipe, TradeoffCurve
from repro.problems import HammingDistanceProblem
from repro.schemas import (
    one_phase_total_communication,
    splitting_points,
    two_phase_total_communication,
)


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
    curve = TradeoffCurve.from_recipe(LowerBoundRecipe.from_problem(HammingDistanceProblem(b)))
    rows = []
    for price in prices:
        model = ClusterCostModel(communication_rate=price, processing_rate=processing_rate)
        best = curve.optimize_cost(model, q_min=2.0, q_max=2.0 ** b)
        rows.append([price, processing_rate, best.q, math.log2(best.q), best.replication_rate, best.total])
    return render_table(
        f"Section 1.2: optimal reducer size per communication price (Hamming-1, b={b})",
        ["a (comm)", "b (proc)", "optimal q", "log2 q", "r", "total cost"],
        rows,
    )


def algorithm_catalog_report(b: int = 24) -> str:
    """The concrete algorithms on the Fig. 1 plane, one row per dot."""
    problem = HammingDistanceProblem(b)
    curve = TradeoffCurve(problem_name=problem.name, lower_bound=problem.lower_bound)
    rows = []
    for c, log_q, rate in splitting_points(b):
        point = AlgorithmPoint(f"splitting(c={c})", q=2.0 ** log_q, replication_rate=rate)
        curve.add_algorithm(point)
        rows.append([point.name, point.q, point.replication_rate, curve.lower_bound_at(point.q)])
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
