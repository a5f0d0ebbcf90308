"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
import threading

import pytest

from repro.mapreduce import ClusterConfig, MapReduceEngine
from repro.pipeline.execute import RoundWork
from repro.problems import (
    HammingDistanceProblem,
    MatrixMultiplicationProblem,
    TriangleProblem,
    TwoPathProblem,
)


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
