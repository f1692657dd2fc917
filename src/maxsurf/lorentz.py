"""Minkowski linear algebra in R^{n+1} with signature (+,...,+,-).

Vectors are plain numpy arrays (or array-likes) whose *last* component is
temporal, so the square of a purely spatial unit vector is +1 and the square
of the unit time direction is -1.  Everything here is pure and value-based.
"""

from __future__ import annotations

import enum

import numpy as np

EPS_CAUSAL = 1e-12


class CausalClass(enum.Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"


def minkowski_inner(a, b):
    """<a,b> = sum_i a_i b_i (spatial) - a_t b_t, temporal component last.

    Supports broadcasting over leading axes; the metric contraction is over
    the last axis.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}"
        )
    spatial = np.sum(a[..., :-1] * b[..., :-1], axis=-1)
    return spatial - a[..., -1] * b[..., -1]


def minkowski_square(a):
    return minkowski_inner(a, a)


def causal_class(a, tol: float = EPS_CAUSAL) -> CausalClass:
    """Classify a vector by the sign of its Minkowski square.

    The lightlike band has half-width ``tol`` to absorb roundoff.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    q = minkowski_square(a)
    if q > tol:
        return CausalClass.SPACELIKE
    if q < -tol:
        return CausalClass.TIMELIKE
    return CausalClass.LIGHTLIKE


def unit_timelike(a):
    """Normalize a timelike vector to square -1, keeping its time orientation."""
    a = np.asarray(a, dtype=float)
    q = minkowski_square(a)
    if not q < 0:
        raise ValueError(f"vector is not timelike (square {q!r})")
    return a / np.sqrt(-q)


def unit_spacelike(a):
    """Normalize a spacelike vector to square +1."""
    a = np.asarray(a, dtype=float)
    q = minkowski_square(a)
    if not q > 0:
        raise ValueError(f"vector is not spacelike (square {q!r})")
    return a / np.sqrt(q)


def boost_factor(u, w):
    """-<u,w> for unit timelike u, w: the relative Lorentz factor.

    For equally oriented unit timelike vectors this is >= 1, with equality
    iff u = w (reversed Cauchy-Schwarz).
    """
    return -minkowski_inner(u, w)
