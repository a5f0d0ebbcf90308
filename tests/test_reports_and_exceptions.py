"""Unit tests for the reports CLI module and the exception hierarchy."""

from __future__ import annotations

import os

import pytest

from repro import reports
from repro.exceptions import (
    BoundDerivationError,
    ConfigurationError,
    ExecutionError,
    InvalidJobError,
    ProblemDomainError,
    ReducerCapacityExceededError,
    ReproError,
    SchemaViolationError,
    UncoveredOutputError,
)

# Generated with `PYTHONPATH=src python -m repro.reports > tests/goldens/paper_reports.txt`.
GOLDEN_REPORTS = os.path.join(os.path.dirname(__file__), "goldens", "paper_reports.txt")


class TestExceptionHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for error_type in (
            ConfigurationError,
            SchemaViolationError,
            ReducerCapacityExceededError,
            UncoveredOutputError,
            ExecutionError,
            InvalidJobError,
            BoundDerivationError,
            ProblemDomainError,
        ):
            assert issubclass(error_type, ReproError)

    def test_capacity_error_is_schema_violation(self):
        assert issubclass(ReducerCapacityExceededError, SchemaViolationError)
        assert issubclass(UncoveredOutputError, SchemaViolationError)

    def test_invalid_job_is_execution_error(self):
        assert issubclass(InvalidJobError, ExecutionError)

    def test_capacity_error_message_and_fields(self):
        error = ReducerCapacityExceededError("r7", assigned=12, limit=10)
        assert error.reducer_id == "r7"
        assert error.assigned == 12 and error.limit == 10
        assert "12" in str(error) and "q=10" in str(error)

    def test_uncovered_output_message_and_fields(self):
        error = UncoveredOutputError(("a", "b"), missing_count=3)
        assert error.output == ("a", "b")
        assert "3 uncovered" in str(error)


class TestReportBuilders:
    def test_table1_report_contains_all_problems(self):
        text = reports.table1_report()
        for fragment in ("Hamming", "Triangle", "Alon", "2-Paths", "Multiway", "Matrix"):
            assert fragment in text

    def test_table2_report_contains_bounds(self):
        text = reports.table2_report()
        assert "Upper bound" in text
        assert "b / log2 q" in text

    def test_hamming_report_lists_all_divisors(self):
        text = reports.hamming_tradeoff_report(b=12)
        assert text.count("\n") >= 6 + 2  # 6 divisors of 12 plus header lines

    def test_matmul_report_shows_crossover(self):
        text = reports.matmul_report(n=100, q_values=(1e3, 1e4, 1e5))
        assert "two-phase" in text
        assert "one-phase" in text
        assert "crossover at q=n^2" in text

    def test_cost_report_rows(self):
        text = reports.cost_report(b=16, prices=(1.0, 100.0))
        assert "optimal q" in text
        assert text.count("\n") >= 4

    def test_catalog_report(self):
        text = reports.algorithm_catalog_report(b=8)
        assert "splitting(c=1)" in text
        assert "splitting(c=8)" in text

    def test_format_value(self):
        assert reports.format_value(float("inf")) == "inf"
        assert reports.format_value(float("nan")) == "nan"
        assert reports.format_value(1234.0) == "1,234"
        assert reports.format_value(2.5e7) == "2.500e+07"
        assert reports.format_value(1.5) == "1.500"
        assert reports.format_value("text") == "text"

    def test_render_table_alignment(self):
        text = reports.render_table("T", ["a", "bbbb"], [[1, 2.0], ["xxx", "y"]])
        lines = text.splitlines()
        assert lines[0] == "=== T ==="
        assert len(lines) == 5  # title, header, separator, two data rows
        # All data lines have equal width.
        assert len(lines[2]) == len(lines[1])


class TestReportsCli:
    def test_main_single_report(self, capsys):
        exit_code = reports.main(["table1"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Table 1" in captured.out
        assert "Table 2" not in captured.out

    def test_main_all_reports(self, capsys):
        exit_code = reports.main([])
        captured = capsys.readouterr()
        assert exit_code == 0
        for fragment in ("Table 1", "Table 2", "Figure 1", "Section 6.3", "Section 1.2"):
            assert fragment in captured.out

    def test_main_all_reports_match_golden(self, capsys):
        """Every printed number of every report, pinned byte for byte."""
        reports.main([])
        with open(GOLDEN_REPORTS, encoding="utf-8") as handle:
            assert capsys.readouterr().out == handle.read()

    def test_main_rejects_unknown_report(self):
        with pytest.raises(SystemExit):
            reports.main(["not-a-report"])
