"""The Minkowski inner product in R^{n+1} with signature (+,...,+,-).

Vectors are plain numpy arrays (or array-likes) whose *last* component is
temporal, so the square of a purely spatial unit vector is +1 and the square
of the unit time direction is -1.
"""

from __future__ import annotations

import numpy as np


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
