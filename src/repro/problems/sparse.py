"""Sparse-data adjustments (Sections 2.3 and 4.2).

The model's bounds are stated over the *complete* input domain.  When only a
random fraction of the potential inputs is actually present, a reducer
assigned ``q_t`` potential inputs receives about ``q_t · x`` actual inputs,
where ``x`` is the presence probability.  The paper exploits this to restate
the graph bounds in terms of the number of present edges ``m``: choosing the
target ``q_t = q·n(n-1)/(2m)`` makes the expected actual load ``q``.

This module packages that conversion plus a concentration check that the
paper waves at ("a vanishingly small chance of significant deviation for
large q"): a Chernoff-style tail bound on the probability that a reducer
exceeds its intended actual load.
"""

from __future__ import annotations

import math

from repro.exceptions import ConfigurationError


def target_reducer_size(q_actual: float, presence: float) -> float:
    """``q_t = q / x``: potential inputs to assign so the expected load is q.

    Section 2.3: "if we know the probability of an input being present is x,
    and we can tolerate q1 real inputs at a reducer, then we can use
    q = q1/x".
    """
    if q_actual <= 0:
        raise ConfigurationError("q must be positive")
    if not 0.0 < presence <= 1.0:
        raise ConfigurationError("presence probability must be in (0, 1]")
    return q_actual / presence


def edge_target_reducer_size(q_actual: float, n: int, m: int) -> float:
    """Section 4.2's ``q_t = q·n(n-1)/(2m)`` for m-edge graphs on n nodes."""
    possible = n * (n - 1) / 2.0
    if m <= 0 or m > possible:
        raise ConfigurationError(f"edge count m={m} outside (0, {possible}]")
    return target_reducer_size(q_actual, m / possible)


def overload_probability(q_target_actual: float, tolerance_factor: float) -> float:
    """Chernoff upper bound on P[actual load > tolerance_factor · expected].

    For a reducer whose expected actual load is ``μ = q_target_actual`` and a
    tolerance ``(1+δ) = tolerance_factor``, the multiplicative Chernoff bound
    gives ``P <= exp(-δ²μ / (2+δ))``.  The paper's "lower the target by a
    factor of 2" remark corresponds to ``tolerance_factor = 2``.
    """
    if q_target_actual <= 0:
        raise ConfigurationError("the expected load must be positive")
    if tolerance_factor <= 1.0:
        return 1.0
    delta = tolerance_factor - 1.0
    exponent = -(delta * delta) * q_target_actual / (2.0 + delta)
    return math.exp(exponent)
