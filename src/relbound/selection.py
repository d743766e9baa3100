"""Order-statistic selection helpers used on the bootstrap hot path."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ceil_index", "ceil_div", "kth_smallest", "empirical_quantile"]


def ceil_index(x: float) -> int:
    """Ceiling that forgives float representation error just under an integer.

    Index formulas like ceil(B * alpha) must not jump to the next rank when
    the product lands a few ulps above the intended integer (1000 * 0.1 style).
    """
    return math.ceil(x - 1e-9)


def ceil_div(a: int, b: int) -> int:
    """Exact ceil(a / b) for nonnegative integers."""
    return -(-a // b)


def kth_smallest(values: np.ndarray, k: int, axis=None):
    """k-th smallest element (1-based) by partial selection, not a full sort.

    With ``axis``, the k-th smallest along that axis, as an array over the
    remaining axes.
    """
    values = np.asarray(values)
    size = values.size if axis is None else values.shape[axis]
    if not 1 <= k <= size:
        raise ValueError(f"rank {k} out of range for {size} values")
    if axis is None:
        return float(np.partition(values, k - 1)[k - 1])
    return np.partition(values, k - 1, axis=axis).take(k - 1, axis=axis)


def empirical_quantile(values, q: float) -> float:
    """ceil(N*q)-th order statistic of ``values``."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty input")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly inside (0, 1)")
    return kth_smallest(values, max(1, ceil_index(values.size * q)))
