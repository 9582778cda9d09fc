"""Independent oracles: classical, k- and p-analogue digammas, plain partial sums.

These routines deliberately share no truncation or stopping machinery with
the certified evaluators in ``qcore``; they exist so tests and limit scans
can cross-check values against a second, simpler route.  The plain partial
sums share only the summation order: their terms are built in blocks of
2^13 and combined by ``qcore.pairwise_sum`` in numpy's pairwise order.
The q-digamma of remark 3.1 (``q_digamma_split``) shares nothing with
``qcore``: it reaches the plain sum's tail at n terms with the Lambert split,
in about 2 sqrt(n t) terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain

import numpy as np

from .errors import DomainError
from .params import DeformParams, Family
from .qcore import pairwise_sum

__all__ = [
    "OracleMethod",
    "OracleValue",
    "SeriesKind",
    "classical_digamma",
    "k_digamma_ref",
    "p_digamma_ref",
    "brute_force_series",
    "q_digamma_split",
]


class OracleMethod(str, Enum):
    ASYMPTOTIC_SHIFT = "asymptotic_shift"
    BRUTE_SUM = "brute_sum"


@dataclass(frozen=True)
class OracleValue:
    value: float
    method: OracleMethod


# Asymptotic coefficients B_{2m}/(2m) for m = 1..6; with the recurrence shift
# to x >= 10 the first omitted term is below 1e-15, comfortably inside the
# 1e-12 accuracy contract.
_SHIFT_THRESHOLD = 10.0
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
)


def classical_digamma(t: float) -> OracleValue:
    """psi(t) to <= 1e-12 absolute error.

    Shifts the argument above 10 with psi(t+1) = psi(t) + 1/t, then applies
    the asymptotic expansion ln x - 1/(2x) - sum B_{2m}/(2m x^{2m}) through
    the 1/x^12 term.
    """
    x = float(t)
    if not (x > 0.0) or not math.isfinite(x):
        raise DomainError(f"t={t!r} must be a positive finite real")
    shift = 0.0
    while x < _SHIFT_THRESHOLD:
        shift -= 1.0 / x
        x += 1.0
    y = 1.0 / (x * x)
    poly = 0.0
    for c in reversed(_STIRLING):
        poly = y * (c + poly)
    value = shift + math.log(x) - 0.5 / x - poly
    return OracleValue(value, OracleMethod.ASYMPTOTIC_SHIFT)


def k_digamma_ref(t: float, k: float) -> OracleValue:
    """k-digamma (ln k + psi(t/k)) / k, from Gamma_k(t) = k^(t/k - 1) Gamma(t/k).

    This is the q -> 1- limit target of psi_qk.
    """
    if not (k > 0.0) or not math.isfinite(k):
        raise DomainError(f"k={k!r} must be a positive finite real")
    return OracleValue((math.log(k) + classical_digamma(t / k).value) / k, OracleMethod.ASYMPTOTIC_SHIFT)


def p_digamma_ref(t: float, p: int) -> OracleValue:
    """p-digamma ln p - sum_{n=0..p} 1/(t+n), from Gamma_p(t) = p! p^t / (t...(t+p)).

    This is the q -> 1- limit target used for the PQ family.
    """
    if int(p) != p or p < 1:
        raise DomainError(f"p={p!r} must be an integer >= 1")
    if not (t > 0.0) or not math.isfinite(t):
        raise DomainError(f"t={t!r} must be a positive finite real")
    harmonic = math.fsum(1.0 / (t + n) for n in range(0, int(p) + 1))
    return OracleValue(math.log(p) - harmonic, OracleMethod.BRUTE_SUM)


class SeriesKind(str, Enum):
    PSI_QK = "psi_qk"
    PSI_QK_PRIME = "psi_qk_prime"
    LNGAMMA_QK = "ln_gamma_qk"


def _series_terms(kind: SeriesKind, t: float, k: float, ln_q: float):
    """The terms of a QK series at the float indices n >= 1, as a function of n."""
    if kind is SeriesKind.PSI_QK:
        return lambda n: np.exp(n * (t * ln_q)) / -np.expm1(n * (k * ln_q))
    if kind is SeriesKind.PSI_QK_PRIME:
        return lambda n: n * np.exp(n * (t * ln_q)) / -np.expm1(n * (k * ln_q))
    if kind is SeriesKind.LNGAMMA_QK:
        # the product index m = n - 1 runs from 0
        return lambda n: (np.log1p(-np.exp((k + (n - 1.0) * k) * ln_q))
                          - np.log1p(-np.exp((t + (n - 1.0) * k) * ln_q)))
    raise DomainError(f"unknown series kind {kind!r}")


def brute_force_series(kind: SeriesKind, t: float, params: DeformParams, n_terms: int) -> float:
    """Plain partial sum of a QK series to exactly n_terms, no early stopping.

    Used to validate the certified tail bounds: the difference between the
    partial sums at N and 4N must stay below the bound reported at N.  The
    terms are built in blocks of at most 2^13 and combined in numpy's
    pairwise order, so the sum has the bits of one np.sum over all of them;
    that order is all the oracle shares with ``qcore``.
    """
    if n_terms < 1:
        raise DomainError(f"n_terms={n_terms!r} must be >= 1")
    if not (t > 0.0) or not math.isfinite(t):
        raise DomainError(f"t={t!r} must be a positive finite real")
    params.require(Family.QK)
    q, k = params.q, params.k
    ln_q = math.log(q)
    s = pairwise_sum(_series_terms(kind, t, k, ln_q), 1, n_terms + 1)
    if kind is SeriesKind.PSI_QK:
        return -math.log1p(-q) / k + ln_q * s
    if kind is SeriesKind.PSI_QK_PRIME:
        return ln_q * ln_q * s
    return s - (t / k - 1.0) * math.log1p(-q)


_SPLIT_BLOCK = 1 << 13


def _block_sums(term_fn, lo: int, hi: int):
    """np.sum of the array term_fn(i) for each block of at most _SPLIT_BLOCK float indices in lo..hi-1.

    A block stays below glibc's mmap threshold, so no array is a fresh mapping faulted in page by page.
    """
    for a in range(lo, hi, _SPLIT_BLOCK):
        yield float(np.sum(term_fn(np.arange(a, min(a + _SPLIT_BLOCK, hi), dtype=np.float64))))


def _split_counts(t: float, n_terms: int) -> tuple:
    """(T, N') for q_digamma_split: T shifts of t, then N' >= 1 terms of the shifted series,
    with (N' + 1)(t + T) >= (n_terms + 1) t.

    T = floor(sqrt(t) (sqrt(n+1) - sqrt(t))) minimises T + (n+1) t / (t + T), so T + N' is at
    most n_terms, and at most 2 sqrt((n+1) t) + 2 wherever (n+1) t >= 4.  (n+1) t is formed
    only where T > 0, that is below t = n + 1, so it cannot overflow.
    """
    n = n_terms
    shifts = math.floor(math.sqrt(t) * (math.sqrt(n + 1) - math.sqrt(t))) if t < n + 1 else 0
    if shifts == 0:
        return 0, n
    s = t + shifts
    n_tail = max(1, math.ceil((n + 1) * t / s) - 1)
    if (n_tail + 1) * s < (n + 1) * t:  # the quotient rounded down
        n_tail += 1
    return shifts, n_tail


def q_digamma_split(t: float, q: float, n_terms: int) -> float:
    """psi_q(t) = -ln(1-q) + ln q sum_{n>=1} q^(nt)/(1-q^n), at most the tail of n_terms plain terms off.

    The Lambert split
        sum_{n>=1} q^(nt)/(1-q^n) = sum_{m<T} q^(t+m)/(1-q^(t+m)) + sum_{n>=1} q^(n(t+T))/(1-q^n)
    is Gamma_q(t+1) = [t]_q Gamma_q(t) applied T times, and every term is positive.  The
    second sum is cut after N' terms (_split_counts), so its tail
    q^((N'+1)(t+T)) / ((1-q)(1-q^(t+T))) is at most the plain sum's,
    q^((n+1)t) / ((1-q)(1-q^t)), with T + N' terms, about 2 sqrt((n+1) t), in place of n.
    The terms are built in blocks (_block_sums) whose sums math.fsum adds.
    """
    if n_terms < 1:
        raise DomainError(f"n_terms={n_terms!r} must be >= 1")
    if not (t > 0.0) or not math.isfinite(t):
        raise DomainError(f"t={t!r} must be a positive finite real")
    if not (0.0 < q < 1.0):
        raise DomainError(f"q={q!r} must lie in (0, 1)")
    ln_q = math.log(q)
    shifts, n_tail = _split_counts(t, n_terms)

    def head(m):
        y = (t + m) * ln_q
        return np.exp(y) / -np.expm1(y)

    # every power q^(n s) with s ln q <= -750 underflows to 0, so the clamp keeps each term's bits,
    # and n s ln q, which would overflow with a numpy warning on stderr near t = 1e308, is never formed
    x = max((t + shifts) * ln_q, -750.0)

    def tail(n):
        return np.exp(n * x) / -np.expm1(n * ln_q)

    s = math.fsum(chain(_block_sums(head, 0, shifts), _block_sums(tail, 1, n_tail + 1)))
    return -math.log1p(-q) + ln_q * s
