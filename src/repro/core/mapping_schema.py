"""Mapping schemas (Section 2.2): assignments of inputs to reducers.

A mapping schema for a problem and a reducer-size limit ``q`` assigns a set
of inputs to each reducer subject to two constraints:

1. no reducer is assigned more than ``q`` inputs;
2. every output is *covered* — at least one reducer receives all of that
   output's inputs.

The figure of merit is the replication rate ``r = (Σ_i q_i) / |I|``.

Two representations are provided:

* :class:`MappingSchema` — an explicit assignment, fully materialized, that
  can be validated exhaustively and executed on the simulated engine;
* :class:`SchemaFamily` — a parameterized algorithm (e.g. "Splitting with c
  segments") that can *build* an explicit schema for small domains and also
  report its closed-form replication rate for large ones.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.core.problem import InputId, OutputId, Problem
from repro.exceptions import (
    ConfigurationError,
    ReducerCapacityExceededError,
    SchemaViolationError,
    UncoveredOutputError,
)

ReducerId = Hashable


@dataclass
class ValidationReport:
    """Result of validating a mapping schema against its problem.

    Attributes
    ----------
    valid:
        True when both constraints hold.
    overfull_reducers:
        Reducers whose assigned-input count exceeds ``q``, with their sizes.
    uncovered_outputs:
        Outputs not covered by any reducer (possibly truncated; see
        ``uncovered_truncated``).
    uncovered_truncated:
        True if the list of uncovered outputs was cut short for brevity.
    """

    valid: bool
    q: Optional[int]
    overfull_reducers: Dict[ReducerId, int] = field(default_factory=dict)
    uncovered_outputs: List[OutputId] = field(default_factory=list)
    uncovered_truncated: bool = False

    def raise_if_invalid(self) -> None:
        """Raise the most specific :class:`SchemaViolationError` available."""
        if self.valid:
            return
        if self.overfull_reducers:
            reducer_id, size = next(iter(self.overfull_reducers.items()))
            raise ReducerCapacityExceededError(reducer_id, size, self.q or 0)
        if self.uncovered_outputs:
            raise UncoveredOutputError(
                self.uncovered_outputs[0], len(self.uncovered_outputs)
            )
        raise SchemaViolationError("mapping schema is invalid")


class MappingSchema:
    """An explicit assignment of inputs to reducers for a given problem."""

    def __init__(
        self,
        problem: Problem,
        q: Optional[int] = None,
        assignments: Optional[Mapping[ReducerId, Iterable[InputId]]] = None,
        name: str = "mapping-schema",
    ) -> None:
        if q is not None and q <= 0:
            raise ConfigurationError(f"q must be positive, got {q}")
        self.problem = problem
        self.q = q
        self.name = name
        self._reducers: Dict[ReducerId, Set[InputId]] = {}
        if assignments:
            for reducer_id, inputs in assignments.items():
                self.assign(reducer_id, inputs)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def assign(self, reducer_id: ReducerId, inputs: Iterable[InputId]) -> None:
        """Add ``inputs`` to the set assigned to ``reducer_id``."""
        bucket = self._reducers.setdefault(reducer_id, set())
        bucket.update(inputs)

    def assign_one(self, reducer_id: ReducerId, input_id: InputId) -> None:
        """Add a single input to a reducer."""
        self._reducers.setdefault(reducer_id, set()).add(input_id)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def reducers(self) -> Dict[ReducerId, FrozenSet[InputId]]:
        """Read-only view of the reducer → inputs assignment."""
        return {
            reducer_id: frozenset(inputs)
            for reducer_id, inputs in self._reducers.items()
        }

    @property
    def num_reducers(self) -> int:
        return len(self._reducers)

    def reducer_sizes(self) -> Dict[ReducerId, int]:
        """The paper's ``q_i`` values: inputs assigned per reducer."""
        return {reducer_id: len(inputs) for reducer_id, inputs in self._reducers.items()}

    def reducers_of(self, input_id: InputId) -> List[ReducerId]:
        """All reducers to which a given input is assigned."""
        return [
            reducer_id
            for reducer_id, inputs in self._reducers.items()
            if input_id in inputs
        ]

    def total_assigned(self) -> int:
        """``Σ_i q_i`` — the numerator of the replication rate."""
        return sum(len(inputs) for inputs in self._reducers.values())

    def replication_rate(self) -> float:
        """``r = Σ_i q_i / |I|`` over the problem's full input domain."""
        num_inputs = self.problem.num_inputs
        if num_inputs == 0:
            return 0.0
        return self.total_assigned() / num_inputs

    def max_reducer_size(self) -> int:
        if not self._reducers:
            return 0
        return max(len(inputs) for inputs in self._reducers.values())

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, max_reported_uncovered: int = 20) -> ValidationReport:
        """Check both schema constraints and return a detailed report.

        Output coverage is checked by enumeration and therefore requires an
        enumerable problem; for the analytic large-domain sweeps the schema
        families' formulas are used instead of explicit schemas.
        """
        overfull: Dict[ReducerId, int] = {}
        if self.q is not None:
            for reducer_id, inputs in self._reducers.items():
                if len(inputs) > self.q:
                    overfull[reducer_id] = len(inputs)

        uncovered: List[OutputId] = []
        truncated = False
        for output in self.problem.outputs():
            if not self.covers(output):
                if len(uncovered) < max_reported_uncovered:
                    uncovered.append(output)
                else:
                    truncated = True
        valid = not overfull and not uncovered and not truncated
        return ValidationReport(
            valid=valid,
            q=self.q,
            overfull_reducers=overfull,
            uncovered_outputs=uncovered,
            uncovered_truncated=truncated,
        )

    def covers(self, output: OutputId) -> bool:
        """Whether some reducer receives every input of ``output``."""
        needed = self.problem.inputs_of(output)
        for inputs in self._reducers.values():
            if needed <= inputs:
                return True
        return False

    def covering_reducers(self, output: OutputId) -> List[ReducerId]:
        """All reducers covering ``output`` (used to deduplicate emission)."""
        needed = self.problem.inputs_of(output)
        return [
            reducer_id
            for reducer_id, inputs in self._reducers.items()
            if needed <= inputs
        ]

    # ------------------------------------------------------------------
    # Bridging to the execution engine
    # ------------------------------------------------------------------
    def routing_table(self) -> Dict[InputId, List[ReducerId]]:
        """Input → list of reducers, i.e. the map function as a table."""
        table: Dict[InputId, List[ReducerId]] = {}
        for reducer_id, inputs in self._reducers.items():
            for input_id in inputs:
                table.setdefault(input_id, []).append(reducer_id)
        return table

    def as_router(self) -> Callable[[InputId], List[ReducerId]]:
        """Return a function routing a present input to its reducers.

        The returned callable is suitable for
        :func:`repro.mapreduce.job.make_filtering_mapper`, which turns it into
        a mapper emitting ``(reducer_id, input)`` pairs.
        """
        table = self.routing_table()

        def route(input_id: InputId) -> List[ReducerId]:
            return table.get(input_id, [])

        return route

    def __iter__(self) -> Iterator[Tuple[ReducerId, FrozenSet[InputId]]]:
        for reducer_id, inputs in self._reducers.items():
            yield reducer_id, frozenset(inputs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MappingSchema {self.name!r} problem={self.problem.name!r} "
            f"q={self.q} reducers={self.num_reducers}>"
        )


class SchemaFamily(ABC):
    """A parameterized mapping-schema construction (an "algorithm").

    A family knows, for a problem instance and a reducer-size limit ``q``:

    * how to build an explicit :class:`MappingSchema` (for enumerable
      domains), and
    * its closed-form replication rate and maximum reducer size (valid also
      for domains far too large to enumerate).
    """

    #: Human-readable algorithm name (e.g. "splitting(c=2)").
    name: str = "schema-family"

    @abstractmethod
    def build(self, problem: Problem) -> MappingSchema:
        """Materialize the explicit schema for ``problem``."""

    @abstractmethod
    def replication_rate_formula(self) -> float:
        """Closed-form replication rate of this construction."""

    @abstractmethod
    def max_reducer_size_formula(self) -> float:
        """Closed-form bound on the largest reducer input size ``q``."""

    def describe(self) -> Dict[str, float | str]:
        """Metadata row used by the benchmark tables."""
        return {
            "schema": self.name,
            "replication_rate": self.replication_rate_formula(),
            "max_reducer_size": self.max_reducer_size_formula(),
        }


def single_reducer_schema(problem: Problem, name: str = "single-reducer") -> MappingSchema:
    """The trivial schema: one reducer receives every input (r = 1).

    Valid whenever ``q >= |I|``; it is the right end of every tradeoff curve
    in the paper.
    """
    schema = MappingSchema(problem, q=problem.num_inputs, name=name)
    schema.assign("all", problem.inputs())
    return schema
