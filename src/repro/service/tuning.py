"""Cost-based adaptive tuning of the mid-flight ``replan_factor``.

The adaptive executor re-plans a downstream round when its observed
certificate drops below ``replan_factor`` times the planning-time estimate
(see :mod:`repro.pipeline.execute`).  The factor trades re-planning cost
against the chance of a better plan: at 0.95 nearly every improvement
triggers a re-plan, at 0.05 almost none does.  One-shot execution has no
way to learn the right setting — but a long-lived service observing
re-plan outcomes *across queries* does.

Every :class:`~repro.pipeline.execute.ReplanEvent` now carries the
replacement plan's certificate (``new_bound``), so each re-plan is
scorable the moment it happens:

* **win** — the new plan's certified bound beats the old plan's observed
  bound: re-planning bought a provably lighter round.  Re-planning is
  paying off, so the tuner raises the factor (re-plan more eagerly).
* **loss** — the re-plan reproduced the same plan, certified no better,
  or found no feasible replacement at all (recorded with the old plan's
  name and bound): the planning work was wasted.  The tuner lowers the
  factor (demand a bigger observed improvement before re-planning again).

Adjustment is multiplicative with clamping — the standard no-regret shape
for a one-dimensional threshold under bandit feedback: step size is
proportional to the current value, extremes (never / always re-plan) stay
reachable but are approached geometrically slowly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class TunerStats:
    """Snapshot of one :class:`ReplanTuner`."""

    factor: float
    wins: int
    losses: int
    #: Events whose re-planned round was uncertified (``new_bound`` is
    #: ``None``): not scorable.
    unscored: int

    @property
    def observations(self) -> int:
        return self.wins + self.losses


class ReplanTuner:
    """Moves ``replan_factor`` by observed re-plan wins and losses.

    Thread-safe: the service registers :meth:`observe` as every query's
    ``replan_observer``, so events arrive concurrently from many worker
    threads.  :meth:`factor` is what the service passes to each *new*
    submission — in-flight queries keep the factor they started with, so
    a query's behaviour never changes mid-run.

    Parameters
    ----------
    initial:
        Starting threshold; the library default of 0.5 unless overridden.
    step:
        Multiplicative step per observation: a win multiplies the factor
        by ``1 + step``, a loss by ``1 / (1 + step)``.
    minimum / maximum:
        Clamp range; both must leave the trigger meaningful
        (``0 < minimum <= maximum < 1``).
    """

    def __init__(
        self,
        initial: float = 0.5,
        step: float = 0.15,
        minimum: float = 0.05,
        maximum: float = 0.95,
    ) -> None:
        if not 0 < minimum <= maximum < 1:
            raise ConfigurationError(
                f"need 0 < minimum <= maximum < 1, got [{minimum}, {maximum}]"
            )
        if not minimum <= initial <= maximum:
            raise ConfigurationError(
                f"initial {initial} outside clamp range [{minimum}, {maximum}]"
            )
        if step <= 0:
            raise ConfigurationError(f"step must be positive, got {step}")
        self.minimum = minimum
        self.maximum = maximum
        self.step = step
        self._lock = threading.Lock()
        self._factor = initial
        self._wins = 0
        self._losses = 0
        self._unscored = 0

    @property
    def factor(self) -> float:
        """The threshold the next submission should run with."""
        with self._lock:
            return self._factor

    def observe(self, event) -> None:
        """Score one :class:`~repro.pipeline.execute.ReplanEvent`.

        Matches the ``replan_observer`` callback signature of
        :func:`repro.pipeline.execute.execute_pipeline`.
        """
        with self._lock:
            if event.new_bound is None:
                self._unscored += 1
                return
            if event.won:
                self._wins += 1
                self._factor = min(self.maximum, self._factor * (1 + self.step))
            else:
                self._losses += 1
                self._factor = max(self.minimum, self._factor / (1 + self.step))

    def stats(self) -> TunerStats:
        with self._lock:
            return TunerStats(
                factor=self._factor,
                wins=self._wins,
                losses=self._losses,
                unscored=self._unscored,
            )
