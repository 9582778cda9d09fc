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
    """The least N >= 1 with coeff * exp((N+1) ln_step) <= abs_tol; inf when abs_tol / coeff
    underflows to 0 or N is past any float."""
    ratio = abs_tol / coeff
    if ratio > 0.0:
        n = math.log(ratio) / ln_step
        if n < math.inf:
            return max(1, math.ceil(n) - 1)
    return math.inf


def geometric_terms_needed(tail_at, n: float, ln_step: float, tol) -> tuple | None:
    """(N, tail_at(N)) for a term count N whose tail majorant tail_at(N) is <= tol.abs_tol.

    N starts at n, the closed form of the majorant's geometric part
    (geometric_count), capped at n_max, and widens by as many factors
    exp(ln_step) as the overshoot of tail_at still needs.  None where that
    overshoot, tail_at(N) / abs_tol, is not finite: the majorant has left the
    floats.  Raises TruncationNotConverged when tail_at(n_max) is above abs_tol.
    """
    n = min(tol.n_max, n)
    tail = tail_at(n)
    while tail > tol.abs_tol:
        overshoot = tail / tol.abs_tol
        if not math.isfinite(overshoot):
            return None
        if n >= tol.n_max:
            raise TruncationNotConverged(
                f"tail bound stuck above {tol.abs_tol:.3e} after {n} terms", tail, n
            )
        n = min(tol.n_max, n + max(1, math.ceil(math.log(overshoot) / -ln_step)))
        tail = tail_at(n)
    return n, tail
