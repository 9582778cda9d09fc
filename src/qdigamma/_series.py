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

from .errors import TruncationNotConverged

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


def geometric_count(coeff: float, ln_step: float, abs_tol: float) -> float:
    """The least N >= 1 with coeff * exp((N+1) ln_step) <= abs_tol; inf when that is past any float."""
    if math.isfinite(coeff):
        ratio = abs_tol / coeff  # a ratio that underflows is taken as a difference of logs
        n = (math.log(ratio) if ratio > 0.0 else math.log(abs_tol) - math.log(coeff)) / ln_step
        if n < math.inf:
            return max(1, math.ceil(n) - 1)
    return math.inf


def geometric_terms_needed(tail_at, n: float, ln_step: float, tol) -> tuple:
    """(N, tail_at(N)) for a term count N whose tail majorant tail_at(N) is <= tol.abs_tol.

    N starts at n, the closed form of the majorant's geometric part
    (geometric_count), capped at n_max, and widens by as many factors
    exp(ln_step) as the overshoot of tail_at still needs; an overshoot past
    the largest float is taken as a difference of logs.  Raises
    TruncationNotConverged when tail_at(n_max) is above abs_tol, or when the
    majorant itself is not finite.
    """
    n = min(tol.n_max, n)
    tail = tail_at(n)
    while tail > tol.abs_tol:
        if n >= tol.n_max or not math.isfinite(tail):
            raise TruncationNotConverged(
                f"tail bound stuck above {tol.abs_tol:.3e} after {n} terms", tail, n
            )
        overshoot = tail / tol.abs_tol
        ln_overshoot = (math.log(overshoot) if math.isfinite(overshoot)
                        else math.log(tail) - math.log(tol.abs_tol))
        n = min(tol.n_max, n + max(1, math.ceil(ln_overshoot / -ln_step)))
        tail = tail_at(n)
    return n, tail
