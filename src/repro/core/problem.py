"""The input/output model of a map-reduce problem (Section 2 of the paper).

A *problem* consists of a finite set of potential inputs, a finite set of
potential outputs, and a mapping from each output to the set of inputs it
depends on.  Instances of the problem contain only a subset of the potential
inputs; an output is produced when (for the problems studied here) *all* of
its inputs are present.

:class:`Problem` is the abstract interface; concrete problems live in
:mod:`repro.problems`.  The interface exposes everything the rest of the
library needs:

* enumeration of inputs and outputs (for small, verifiable domains),
* the dependency mapping ``inputs_of(output)``,
* counts ``num_inputs`` / ``num_outputs`` that may be computed analytically
  (so huge domains such as all ``2^b`` bit strings do not need enumeration),
* ``max_outputs_covered(q)`` — the paper's ``g(q)``, the key ingredient of
  the lower-bound recipe,
* ``replication_lower_bound(q)`` — the recipe itself (Section 2.4).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Set

from repro.exceptions import BoundDerivationError, ProblemDomainError

InputId = Hashable
OutputId = Hashable


class Problem(ABC):
    """Abstract map-reduce problem in the Afrati et al. model."""

    #: Short human-readable name used in reports and tables.
    name: str = "abstract-problem"

    # ------------------------------------------------------------------
    # Domain enumeration
    # ------------------------------------------------------------------
    @abstractmethod
    def inputs(self) -> Iterator[InputId]:
        """Yield every potential input of the problem."""

    @abstractmethod
    def outputs(self) -> Iterator[OutputId]:
        """Yield every potential output of the problem."""

    @abstractmethod
    def inputs_of(self, output: OutputId) -> FrozenSet[InputId]:
        """Return the set of inputs the given output depends on."""

    # ------------------------------------------------------------------
    # Counting (override with closed forms when enumeration is infeasible)
    # ------------------------------------------------------------------
    @property
    def num_inputs(self) -> int:
        """Total number of potential inputs, ``|I|``."""
        return sum(1 for _ in self.inputs())

    @property
    def num_outputs(self) -> int:
        """Total number of potential outputs, ``|O|``."""
        return sum(1 for _ in self.outputs())

    # ------------------------------------------------------------------
    # The g(q) hook used by the lower-bound recipe
    # ------------------------------------------------------------------
    def max_outputs_covered(self, q: float) -> float:
        """Upper bound ``g(q)`` on outputs coverable by a reducer of size q.

        Concrete problems override this with the bound proved in the paper.
        The default raises, because without ``g(q)`` no lower bound can be
        derived for the problem.
        """
        raise NotImplementedError(
            f"problem {self.name!r} does not define g(q); "
            "override max_outputs_covered to enable the lower-bound recipe"
        )

    def replication_lower_bound(self, q: float) -> float:
        """The Section 2.4 recipe: ``r >= q·|O| / (g(q)·|I|)``, floored at 1.

        Sound when ``g(q)/q`` is non-decreasing in ``q`` (the recipe's
        "manipulation trick").  Replication can never fall below the
        trivial ``r >= 1``; Section 5.4.1 notes that the 2-path bound must
        be replaced by it for large ``q``.  A ``g(q)`` of zero while outputs
        exist means no reducer of size ``q`` covers anything, and the bound
        is infinite.  Raises :class:`~repro.exceptions.BoundDerivationError`
        for ``q <= 0`` or ``|I| <= 0``, and ``NotImplementedError`` when the
        problem defines no ``g(q)``.
        """
        num_inputs = float(self.num_inputs)
        num_outputs = float(self.num_outputs)
        if num_inputs <= 0:
            raise BoundDerivationError("num_inputs must be positive")
        if q <= 0:
            raise BoundDerivationError(f"q must be positive, got {q}")
        g_of_q = float(self.max_outputs_covered(q))
        if g_of_q <= 0:
            bound = float("inf") if num_outputs > 0 else 1.0
        else:
            bound = q * num_outputs / (g_of_q * num_inputs)
        return max(bound, 1.0)

    # ------------------------------------------------------------------
    # Generic helpers shared by all problems
    # ------------------------------------------------------------------
    def is_enumerable(self, limit: int = 2_000_000) -> bool:
        """Whether the input and output domains are small enough to list."""
        return self.num_inputs <= limit and self.num_outputs <= limit

    def outputs_covered_by(self, assigned_inputs: Iterable[InputId]) -> Set[OutputId]:
        """Outputs whose full input set lies within ``assigned_inputs``.

        This is the exact (enumeration-based) counterpart of ``g(q)``; it is
        used by tests to verify that the analytic ``g(q)`` really is an upper
        bound, and by the schema validator to check output coverage.
        """
        assigned = set(assigned_inputs)
        covered: Set[OutputId] = set()
        for output in self.outputs():
            if self.inputs_of(output) <= assigned:
                covered.add(output)
        return covered

    def dependency_index(self) -> Dict[InputId, List[OutputId]]:
        """Invert the dependency mapping: input → outputs that need it."""
        index: Dict[InputId, List[OutputId]] = {}
        for output in self.outputs():
            for input_id in self.inputs_of(output):
                index.setdefault(input_id, []).append(output)
        return index

    def validate_output(self, output: OutputId) -> None:
        """Raise :class:`ProblemDomainError` if ``output`` is not in the domain.

        The default implementation checks membership by enumeration and is
        only suitable for enumerable problems; concrete problems typically
        override it with a direct structural check.
        """
        for candidate in self.outputs():
            if candidate == output:
                return
        raise ProblemDomainError(
            f"output {output!r} is not in the domain of problem {self.name!r}"
        )

    def describe(self) -> Dict[str, object]:
        """Small metadata dictionary used by reports and benchmarks."""
        return {
            "name": self.name,
            "num_inputs": self.num_inputs,
            "num_outputs": self.num_outputs,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


class ExplicitProblem(Problem):
    """A problem defined by explicitly listed inputs, outputs and mapping.

    Useful for tests, for tiny didactic examples (such as the natural join of
    Example 2.1 over small domains), and for constructing adversarial
    instances in property-based tests.
    """

    def __init__(
        self,
        inputs: Iterable[InputId],
        output_dependencies: Dict[OutputId, Iterable[InputId]],
        name: str = "explicit-problem",
    ) -> None:
        self.name = name
        self._inputs: List[InputId] = list(inputs)
        input_set = set(self._inputs)
        if len(input_set) != len(self._inputs):
            raise ProblemDomainError("explicit problem has duplicate inputs")
        self._dependencies: Dict[OutputId, FrozenSet[InputId]] = {}
        for output, dependencies in output_dependencies.items():
            dependency_set = frozenset(dependencies)
            if not dependency_set:
                raise ProblemDomainError(
                    f"output {output!r} depends on no inputs; every output must "
                    "depend on at least one input"
                )
            unknown = dependency_set - input_set
            if unknown:
                raise ProblemDomainError(
                    f"output {output!r} depends on unknown inputs {sorted(map(repr, unknown))}"
                )
            self._dependencies[output] = dependency_set

    def inputs(self) -> Iterator[InputId]:
        return iter(self._inputs)

    def outputs(self) -> Iterator[OutputId]:
        return iter(self._dependencies)

    def inputs_of(self, output: OutputId) -> FrozenSet[InputId]:
        try:
            return self._dependencies[output]
        except KeyError as error:
            raise ProblemDomainError(
                f"output {output!r} is not in the domain of problem {self.name!r}"
            ) from error

    @property
    def num_inputs(self) -> int:
        return len(self._inputs)

    @property
    def num_outputs(self) -> int:
        return len(self._dependencies)

    def max_outputs_covered(self, q: float) -> float:
        """Exact-by-search ``g(q)`` is not provided; use a trivial bound.

        For explicit problems we only know the trivial bound: a reducer with
        ``q`` inputs cannot cover more outputs than exist in total, and it
        cannot cover an output needing more inputs than it has.
        """
        q_int = int(q)
        eligible = sum(
            1
            for output in self.outputs()
            if len(self.inputs_of(output)) <= q_int
        )
        return float(eligible)
