"""Closed-form upper bounds on replication rate for Table 2.

These are the replication rates achieved by the constructive algorithms of
the paper (implemented in :mod:`repro.schemas`), expressed as functions of
the reducer size ``q`` and the problem parameters.  The join row's chain and
star forms live next to the Shares schema
(:func:`~repro.schemas.join_shares.chain_join_replication_upper_bound`,
:func:`~repro.schemas.join_shares.star_join_replication_upper_bound`).
"""

from __future__ import annotations

import math

from repro.exceptions import ConfigurationError


# ----------------------------------------------------------------------
# Hamming distance 1 (Section 3.3, Table 2 row 1)
# ----------------------------------------------------------------------
def hamming1_upper_bound(b: int, q: float) -> float:
    """``r = b / log2 q`` achieved by the Splitting algorithm when log2 q | b.

    For general ``q`` the achievable rate is ``ceil(b / floor(log2 q))``
    (round down the reducer exponent to a divisor); the paper's table quotes
    the idealized ``b / log2 q`` which we return here.
    """
    if b <= 0:
        raise ConfigurationError("b must be positive")
    if q < 2:
        return float("inf")
    return max(1.0, b / math.log2(q))


def hamming1_achievable_upper_bound(b: int, q: float) -> float:
    """The rate actually achievable for arbitrary q with the Splitting family.

    Choose the largest segment count ``c`` dividing ``b`` such that the
    reducer size ``2^{b/c}`` does not exceed ``q``; the replication rate is
    that ``c``.  Returns infinity when even ``c = b`` (reducer size 2) does
    not fit.
    """
    if q < 2:
        return float("inf")
    feasible = [
        c for c in range(1, b + 1) if b % c == 0 and 2 ** (b // c) <= q
    ]
    if not feasible:
        return float("inf")
    return float(min(feasible))


def weight_partition_upper_bound(b: int, cell_width: int, dimensions: int = 2) -> float:
    """``r = 1 + d/k`` for the Section 3.4/3.5 weight-partition algorithms."""
    if cell_width <= 0:
        raise ConfigurationError("cell width k must be positive")
    return 1.0 + dimensions / cell_width


def hamming_d_upper_bound(num_segments: int, distance: int) -> float:
    """``r = C(k, d) ≈ (ek/d)^d`` for the Section 3.6 distance-d algorithm."""
    if distance <= 0 or distance >= num_segments:
        raise ConfigurationError("need 0 < d < k for segment deletion")
    return float(math.comb(num_segments, distance))


# ----------------------------------------------------------------------
# Triangles and sample graphs (Sections 4.2 and 5.3, Table 2 rows 2-3)
# ----------------------------------------------------------------------
def triangle_upper_bound(n: int, q: float) -> float:
    """``r = O(n/√q)``; the partition schema achieves ``3/√2 · n/√(2q)``.

    We report the explicit constant of our construction (k buckets with
    ``q = C(3n/k, 2)`` per reducer gives ``r = k ≈ 3n/√(2q)``).
    """
    if q <= 0:
        return float("inf")
    return max(1.0, 3.0 * n / math.sqrt(2.0 * q))


def triangle_upper_bound_edges(m: int, q: float) -> float:
    """Edge form ``r = O(√(m/q))`` for sparse graphs (refs. [2, 21])."""
    if q <= 0:
        return float("inf")
    return max(1.0, 3.0 * math.sqrt(m / (2.0 * q)))


def alon_upper_bound_edges(m: int, s: int, q: float) -> float:
    """``r = O((√(m/q))^{s-2})`` for Alon-class sample graphs (from [2])."""
    if q <= 0:
        return float("inf")
    return max(1.0, math.sqrt(m / q) ** (s - 2))


# ----------------------------------------------------------------------
# 2-paths (Section 5.4.2, Table 2 row 4)
# ----------------------------------------------------------------------
def two_path_upper_bound(n: int, q: float) -> float:
    """``r ≈ 2k = 4n/q`` achieved by the [u, {i, j}] schema with q = 2n/k.

    The paper's Table 2 quotes ``O(2n/q)``; the construction's exact rate is
    ``2(k-1)`` with ``k = 2n/q``, i.e. about twice the lower bound.
    """
    if q <= 0:
        return float("inf")
    k = max(2.0, 2.0 * n / q)
    return 2.0 * (k - 1.0)


# ----------------------------------------------------------------------
# Matrix multiplication (Section 6.2, Table 2 row 6)
# ----------------------------------------------------------------------
def matmul_upper_bound(n: int, q: float) -> float:
    """``r = 2n²/q`` for ``2n <= q <= 2n²``, achieved by square tiling."""
    if n <= 0:
        raise ConfigurationError("matrix dimension must be positive")
    if q < 2 * n:
        return float("inf")
    return max(1.0, 2.0 * n * n / q)
