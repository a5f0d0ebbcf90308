"""The pre-``replication_lower_bound`` recipe object, kept verbatim as an oracle.

:meth:`repro.core.problem.Problem.replication_lower_bound` replaced the
``LowerBoundRecipe`` object (and ``TradeoffCurve``'s bound evaluation on top
of it) with one method.  The module it lived in is kept here unchanged below
this docstring: ``LowerBoundRecipe.from_problem(problem).bound_at(q)
.replication_rate_bound`` must equal ``problem.replication_lower_bound(q)``
bit for bit, ``inf`` included, on every problem that defines ``g(q)``.

Two helpers ride along for the tests that read them: the recipe's
precondition check, ``g_over_q_non_decreasing`` (the verbatim
``check_monotonicity`` method, callable on any ``g``), and the covering
inequality ``covering_inequality_holds``.

The original module docstring follows.

The generic lower-bound recipe of Section 2.4.

Given a problem with ``|I|`` inputs, ``|O|`` outputs and an upper bound
``g(q)`` on the number of outputs a reducer with ``q`` inputs can cover, the
recipe derives the lower bound on the replication rate

    r  >=  q * |O| / (g(q) * |I|)

provided ``g(q)/q`` is monotonically increasing in ``q`` (the "manipulation
trick").  This module packages the recipe as a small, reusable object so
that every Table 1 row is produced by the same code path, and exposes the
intermediate quantities for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

from repro.core.problem import Problem
from repro.exceptions import BoundDerivationError


@dataclass(frozen=True)
class LowerBoundResult:
    """The evaluated lower bound at a specific reducer size ``q``."""

    problem_name: str
    q: float
    num_inputs: float
    num_outputs: float
    g_of_q: float
    replication_rate_bound: float

    def as_row(self) -> dict:
        """Row representation used by the table generators."""
        return {
            "problem": self.problem_name,
            "q": self.q,
            "|I|": self.num_inputs,
            "|O|": self.num_outputs,
            "g(q)": self.g_of_q,
            "r_lower": self.replication_rate_bound,
        }


class LowerBoundRecipe:
    """The four-step recipe packaged as an object.

    Parameters
    ----------
    problem_name:
        Name used in reports.
    num_inputs, num_outputs:
        ``|I|`` and ``|O|`` for the problem (closed forms; floats allowed so
        approximations such as ``n^2 / 2`` can be used exactly as the paper
        does).
    g:
        The bound ``g(q)`` as a callable.
    trivial_floor:
        Replication rate can never be below this value; defaults to 1.0 for
        bounded problems (every input must be sent somewhere at least once if
        it participates in any output).  Section 5.4.1 notes that the 2-path
        bound must be replaced by the trivial bound ``r >= 1`` for large q.
    """

    def __init__(
        self,
        problem_name: str,
        num_inputs: float,
        num_outputs: float,
        g: Callable[[float], float],
        trivial_floor: float = 1.0,
    ) -> None:
        if num_inputs <= 0:
            raise BoundDerivationError("num_inputs must be positive")
        if num_outputs < 0:
            raise BoundDerivationError("num_outputs must be non-negative")
        self.problem_name = problem_name
        self.num_inputs = float(num_inputs)
        self.num_outputs = float(num_outputs)
        self.g = g
        self.trivial_floor = trivial_floor

    # ------------------------------------------------------------------
    # Preconditions
    # ------------------------------------------------------------------
    def check_monotonicity(self, q_values: Sequence[float]) -> bool:
        """Check that ``g(q)/q`` is non-decreasing over ``q_values``.

        The recipe's replacement of ``q_i`` by ``q`` inside ``g`` is only
        sound under this condition.  A small numerical tolerance absorbs
        floating-point noise.
        """
        ordered = sorted(float(q) for q in q_values if q > 0)
        previous: Optional[float] = None
        for q in ordered:
            ratio = self.g(q) / q
            if previous is not None and ratio < previous * (1 - 1e-12) - 1e-12:
                return False
            previous = ratio
        return True

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def bound_at(self, q: float, enforce_monotonicity: bool = False) -> LowerBoundResult:
        """Evaluate the lower bound at reducer size ``q``."""
        if q <= 0:
            raise BoundDerivationError(f"q must be positive, got {q}")
        if enforce_monotonicity and not self.check_monotonicity([q / 2, q, 2 * q]):
            raise BoundDerivationError(
                f"g(q)/q is not monotonically increasing near q={q}; "
                "the recipe's manipulation trick does not apply"
            )
        g_of_q = float(self.g(q))
        if g_of_q <= 0:
            # A reducer that covers no outputs gives an unbounded (infinite)
            # requirement only if outputs exist at all; report infinity then.
            bound = float("inf") if self.num_outputs > 0 else self.trivial_floor
        else:
            bound = q * self.num_outputs / (g_of_q * self.num_inputs)
        bound = max(bound, self.trivial_floor)
        return LowerBoundResult(
            problem_name=self.problem_name,
            q=float(q),
            num_inputs=self.num_inputs,
            num_outputs=self.num_outputs,
            g_of_q=g_of_q,
            replication_rate_bound=bound,
        )

    def curve(self, q_values: Iterable[float]) -> List[LowerBoundResult]:
        """Evaluate the bound over a sweep of reducer sizes."""
        return [self.bound_at(q) for q in q_values]

    # ------------------------------------------------------------------
    # Construction from a Problem object
    # ------------------------------------------------------------------
    @classmethod
    def from_problem(cls, problem: Problem, trivial_floor: float = 1.0) -> "LowerBoundRecipe":
        """Build a recipe straight from a problem's |I|, |O| and g(q)."""
        return cls(
            problem_name=problem.name,
            num_inputs=problem.num_inputs,
            num_outputs=problem.num_outputs,
            g=problem.max_outputs_covered,
            trivial_floor=trivial_floor,
        )


def covering_inequality_holds(
    reducer_sizes: Sequence[int],
    g: Callable[[float], float],
    num_outputs: float,
) -> bool:
    """Check the recipe's covering inequality  Σ_i g(q_i) >= |O|.

    Any valid mapping schema must satisfy it; property-based tests use this
    to confirm that explicit schemas produced by the constructive algorithms
    are consistent with the analytic ``g``.
    """
    total = sum(float(g(size)) for size in reducer_sizes if size > 0)
    return total + 1e-9 >= float(num_outputs)


def g_over_q_non_decreasing(g: Callable[[float], float], q_values: Sequence[float]) -> bool:
    """The recipe's precondition: ``g(q)/q`` is non-decreasing over ``q_values``.

    ``LowerBoundRecipe.check_monotonicity`` on a recipe built around ``g``
    (the counts play no part in the check).
    """
    return LowerBoundRecipe("g", 1, 0, g).check_monotonicity(q_values)
