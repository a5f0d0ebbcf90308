"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
import threading

import pytest

from repro.mapreduce import (
    BatchEncodingError,
    ClusterConfig,
    MapReduceEngine,
)
from repro.obs import MetricsRegistry
from repro.pipeline.execute import RoundWork
from repro.problems import (
    HammingDistanceProblem,
    MatrixMultiplicationProblem,
    TriangleProblem,
    TwoPathProblem,
)

from bound_oracle import check_size_bound


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--full-sweep",
        action="store_true",
        help="run all 78 seeded bound-first planning and Shares census cases, "
        "not the tier-1 stride, "
        "both triangle reducer oracles on benchmark-sized graphs, the "
        "model-domain below-curve sweep at domain size 8, and the "
        "admission-queue order property test on 5 000 sequences, not 200",
    )


@pytest.fixture(scope="module")
def size_bound_checks():
    """From first use to the end of the module, every size bound a
    ``SizeEstimator`` draws must equal the pre-``size_bound`` registry's
    (``bound_oracle``); yields the list of checked decisions."""
    with pytest.MonkeyPatch.context() as patch:
        yield check_size_bound(patch)


@pytest.fixture
def engine() -> MapReduceEngine:
    """A default simulated engine (4 workers, no capacity enforcement)."""
    return MapReduceEngine()


@pytest.fixture
def strict_engine() -> MapReduceEngine:
    """An engine that raises when a reducer exceeds its declared capacity."""
    return MapReduceEngine(ClusterConfig(num_workers=4, enforce_capacity=True))


@pytest.fixture
def hamming6() -> HammingDistanceProblem:
    """Hamming-distance-1 problem on 6-bit strings (64 inputs, 192 outputs)."""
    return HammingDistanceProblem(6)


@pytest.fixture
def hamming8() -> HammingDistanceProblem:
    """Hamming-distance-1 problem on 8-bit strings (256 inputs)."""
    return HammingDistanceProblem(8)


@pytest.fixture
def triangles10() -> TriangleProblem:
    """Triangle problem over a 10-node domain."""
    return TriangleProblem(10)


@pytest.fixture
def two_paths8() -> TwoPathProblem:
    """2-path problem over an 8-node domain."""
    return TwoPathProblem(8)


@pytest.fixture
def matmul4() -> MatrixMultiplicationProblem:
    """4x4 matrix-multiplication problem (32 inputs, 16 outputs)."""
    return MatrixMultiplicationProblem(4)


@pytest.fixture
def rng() -> random.Random:
    """A seeded random generator for deterministic sampled instances."""
    return random.Random(20260614)


@pytest.fixture
def hold_rounds(monkeypatch):
    """``hold_rounds(from_index=0)``: gate real pipeline rounds on an event.

    Every round with ``index >= from_index`` waits on the returned event
    before it executes.  A test that needs a service state to land while
    rounds are mid-flight (rounds queued behind a running one, a close
    sweeping them) waits for that state and then sets the event, instead
    of assuming planning or execution is slow enough for the state to
    occur.  Set on teardown.
    """
    gate = threading.Event()
    run_round = RoundWork.execute

    def hold(from_index: int = 0) -> threading.Event:
        def gated_execute(work):
            if work.index >= from_index:
                assert gate.wait(timeout=60), "round gate never released"
            return run_round(work)

        monkeypatch.setattr(RoundWork, "execute", gated_execute)
        return gate

    yield hold
    gate.set()


#: Both planes of the execution core.
EXECUTION_CELLS = ("records", "batches")


class ExecutionCell:
    """One plane: its registry and its engines.

    The record cell is the oracle; the batch cell must reproduce its
    outputs, metrics and errors exactly.  Each cell counts into its own
    collecting registry so a test can see which plane a run really took.
    """

    def __init__(self, plane: str) -> None:
        self.plane = plane
        self.registry = MetricsRegistry()

    def engine(self, shuffle_factory=None, **config) -> MapReduceEngine:
        return MapReduceEngine(
            ClusterConfig(
                data_plane="columnar" if self.plane == "batches" else "records",
                metrics=self.registry,
                **config,
            ),
            shuffle_factory=shuffle_factory,
        )

    def declined(self) -> dict:
        """``plane_declined_total`` so far, as ``{reason: count}``."""
        series = self.registry.snapshot().get("plane_declined_total", {"series": []})
        return {row["labels"]["reason"]: int(row["value"]) for row in series["series"]}

    def expected_decline(self, job, inputs):
        """The reason this cell must decline ``job`` over ``inputs``, or None."""
        if self.plane == "records":
            return None
        if job.batch_kernel is None:
            return "no-kernel"
        if job.combiner is not None:
            return "combiner"
        try:
            job.batch_kernel.encode(list(inputs))
        except BatchEncodingError:
            return "encoding"
        return None

    def run(self, job, inputs, shuffle_factory=None, **config):
        """Run one job in this cell, asserting the plane it took."""
        before = self.declined()
        result = self.engine(shuffle_factory, **config).run(job, inputs)
        reason = self.expected_decline(job, inputs)
        expected = dict(before)
        if reason is not None:
            expected[reason] = expected.get(reason, 0) + 1
        assert self.declined() == expected
        return result


@pytest.fixture
def make_cell():
    """``make_cell(plane)``.

    Asking twice for the same plane returns the same object, so the
    examples of a hypothesis test share one cell and its registry.
    """
    cells = {}

    def make(plane: str) -> ExecutionCell:
        if plane not in cells:
            cells[plane] = ExecutionCell(plane)
        return cells[plane]

    return make


@pytest.fixture(params=EXECUTION_CELLS)
def execution_cell(request, make_cell) -> ExecutionCell:
    """Each plane in turn."""
    return make_cell(request.param)


class CellMatrix:
    """Run one job on both planes and hold the batch plane to the record
    oracle."""

    def __init__(self, make_cell) -> None:
        self._make_cell = make_cell

    def cells(self) -> list:
        """Both cells, the record oracle first."""
        return [self._make_cell(plane) for plane in EXECUTION_CELLS]

    @staticmethod
    def assert_identical(oracle, result) -> None:
        """The bit-identity contract: outputs AND every metric reported."""
        assert result.outputs == oracle.outputs
        assert result.metrics == oracle.metrics
        assert result.metrics.summary() == oracle.metrics.summary()

    def run(self, job, inputs, shuffle_factory=None, **config):
        """The oracle's result, after asserting every other cell equals it."""
        oracle, *others = self.cells()
        expected = oracle.run(job, inputs, shuffle_factory, **config)
        for cell in others:
            self.assert_identical(
                expected, cell.run(job, inputs, shuffle_factory, **config)
            )
        return expected

    def error(self, job, make_inputs, **config) -> BaseException:
        """The oracle's error, after asserting every other cell raises the
        same type with the same message."""
        raised = []
        for cell in self.cells():
            with pytest.raises(Exception) as info:
                cell.engine(**config).run(job, make_inputs())
            raised.append(info.value)
        for error in raised[1:]:
            assert (type(error), str(error)) == (type(raised[0]), str(raised[0]))
        return raised[0]


@pytest.fixture
def cell_matrix(make_cell) -> CellMatrix:
    return CellMatrix(make_cell)
