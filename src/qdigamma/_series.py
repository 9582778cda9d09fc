"""Chunked series accumulation.

Terms are generated blockwise as numpy arrays (keeping memory bounded for
multi-million-term series), each block is reduced with pairwise summation,
and the block partials are combined with ``math.fsum`` (Shewchuk's
error-free transformation), so the accumulated rounding error stays far
below every certified tail bound.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

CHUNK = 1 << 15


def sum_terms(term_fn: Callable[[np.ndarray], np.ndarray], n_first: int, n_last: int) -> float:
    """Sum term_fn(n) for integer n in [n_first, n_last], low index first."""
    if n_last < n_first:
        return 0.0
    partials = []
    for lo in range(n_first, n_last + 1, CHUNK):
        hi = min(lo + CHUNK - 1, n_last)
        n = np.arange(lo, hi + 1, dtype=np.float64)
        partials.append(float(np.add.reduce(term_fn(n))))
    return math.fsum(partials)


def geometric_terms_needed(ln_r: float, coeff: float, abs_tol: float, n_max: int) -> int:
    """Smallest N with coeff * r^(N+1) <= abs_tol, for r = exp(ln_r) in (0,1).

    Returns n_max + 1 when no N within the cap reaches the target.
    """
    if coeff <= abs_tol:
        return 1
    if not math.isfinite(coeff):
        return n_max + 1
    # coeff * r^(N+1) <= tol  <=>  N + 1 >= ln(tol/coeff) / ln(r)
    n = max(1, math.ceil(math.log(abs_tol / coeff) / ln_r) - 1)
    if n > n_max:
        n = n_max  # re-check at the cap before giving up
    # guard the ceiling against rounding at the boundary
    while coeff * math.exp((n + 1) * ln_r) > abs_tol:
        if n >= n_max:
            return n_max + 1
        n = min(n_max, n + max(1, n >> 6))
    return n
