"""Deformed digamma and log-gamma evaluation with certified truncation error.

QK family (base q in (0,1), step k > 0), all series over n >= 1:

    psi_qk(t)      = -ln(1-q)/k + ln(q) * sum q^(n*t) / (1 - q^(n*k))
    psi_qk'(t)     =  (ln q)^2  * sum n * q^(n*t) / (1 - q^(n*k))
    ln Gamma_qk(t) =  sum_{n>=0} [ln(1 - q^((n+1)k)) - ln(1 - q^(t+nk))]
                      - (t/k - 1) * ln(1-q)

psi_qk is the exact t-derivative of ln Gamma_qk (expand each product factor
geometrically and swap the double sum), Gamma_qk(k) = 1, and q -> 1-
recovers the k-digamma (ln k + psi(t/k)) / k.

PQ family (integer p >= 1), finite sums over n = 1..p:

    psi_pq(t)      = ln[p]_q + ln(q) * sum q^(n*t) / (1 - q^n)
    psi_pq'(t)     = (ln q)^2 * sum n * q^(n*t) / (1 - q^n)
    ln Gamma_pq(t) = t*ln[p]_q + sum_{n=1..p} ln[n]_q - sum_{n=0..p} ln[t+n]_q
                   = ln(1-q) + t*ln[p]_q + sum_{n=1..p} ln(1 - q^n) - sum_{n=0..p} ln(1 - q^(t+n))

with the q-bracket [x]_q = (1 - q^x) / (1 - q).  ln Gamma_pq is formed in
the second way, so no multiple of ln(1-q) cancels against another.

Truncation control for the infinite series: with r = q^t, the factor
1/(1 - q^(n*k)) is at most 1/(1 - q^k) for n >= 1, so the tail after N
terms is dominated by an explicit geometric (or arithmetico-geometric)
expression.  Evaluation stops at the first N whose majorant falls below
the requested tolerance, never on raw term size.  The PQ sums stop where
their terms underflow to exact zeros, and a directly summed point whose
count runs past ``n_max`` is refused.  All powers of q are formed in
log space, so large t cannot underflow the products.

N0 = 2^10 is the one cut-off of direct summation: up to N0 terms every
kernel sums its series directly, and past it each takes a route whose term
count does not grow like 1 / (1-q) wherever that route is the cheaper.

Two routes for the QK series, chosen by one rule for psi, psi' and
ln Gamma (_qk_batch).  The direct route sums the series above; it needs
about ln(1/abs_tol) / ((1-q) t) terms, millions as q -> 1-.  A point takes
it only where its majorant stays in the floats: (1-q^k)(1-q^t), the divisor
of the majorant, is at least the smallest normal float, and the majorant
after the closed-form count n of its geometric part is a finite multiple of
abs_tol.  Of those points, one with n at most N0 = 2^10 is summed directly;
one with N0 < n <= n_max only where the Euler-Maclaurin route below needs
more than 8 n / N0 direct lattice terms (8 lattice terms cost about as much
as 2^10 direct ones).  Every other point takes the Euler-Maclaurin route.
Swapping the double sum puts each series on the lattice y_m = eps (a + m k),
eps = -ln q:

    psi_qk(t)      = -ln(1-q)/k - eps * S_0(t)
    psi_qk'(t)     =  eps^2 * S_-1(t)
    ln Gamma_qk(t) =  S_1(t) - S_1(k) - (t/k - 1) * ln(1-q)

with S_s(a) = sum_{m>=0} Li_s(e^-y_m), Li_0 = 1/(e^y - 1), Li_-1 its
negated derivative and Li_1 = -ln(1 - e^-y).  Each S sums M terms
directly, then adds the integral Li_(s+1)(e^-y_M) / h (h = eps k), the half
end term and P = 8 Bernoulli corrections (DLMF 2.10.1), and up to 25 as the
tolerance needs.  Li_s(e^-y) is completely monotone in y, so the remainder
is at most the size of the last correction, |B_2P|/(2P)! h^(2P-1)
|Li_(s-2P+1)(e^-y_M)| (Eulerian polynomials give every Li of negative order,
with positive coefficients).  That bound, scaled and times the usual safety
factor, is the tail_bound; P grows first, M from 8 only where P cannot
reach abs_tol.  Li_2 is computed in-house;
near y = 0 by its reflection formula, whose constant pi^2/6 is left out of
each integral and added back once per pair, exactly, as the difference of
the constants the pair left out.  So S_1(t) - S_1(k), two sums of about
pi^2/(6 eps k), lose no digits to their cancellation as q -> 1-.
terms_used counts the terms the route formed: M + 2 + P per lattice sum
(two for ln Gamma), a few dozen in all at the default tolerance.  On either
route n_max caps terms_used.  Where psi's first lattice term Li_0(e^-eps t)
overflows (eps t subnormal), its scaled form -eps/(e^(eps t) - 1), -1/t to
within eps t relative, goes in the lead and the lattice starts at eps (t + k).

ln Gamma_pq takes the same two routes by the same cut-off N0.  Its
factorial terms ln(1 - q^n) outlast every shifted term ln(1 - q^(t+n)), so
their last nonzero index routes the whole batch (_pq_batch): through at
most N0 it is summed directly, exactly (tail_bound 0).  Past N0 it takes
the q-gamma identity Gamma_pq(t) = [p]_q^t Gamma_q(p+1) Gamma_q(t) /
Gamma_q(t+p+1), Gamma_q = Gamma_qk at k = 1, as four infinite sums S_1 on
step eps:

    ln Gamma_pq(t) = ln(1-q) + t*ln[p]_q + [S_1(t) - S_1(1)] + [S_1(p+1) - S_1(t+p+1)]

_em_lattice, the one Euler-Maclaurin entry of both families, forms the near
pair as the (q,k) ln Gamma does.  The far pair, two sums each up to about
pi^2/(6 eps) that differ by only about t |ln(1 - q^(p+1))|, is formed term
by term, so it loses no digits to their cancellation: each lattice term is
ln(1 + e^-y (1 - e^-d) / (1 - e^-y)), d = eps t, and the integral of the
closure [Li_2(e^-y) - Li_2(e^-(y+d))] / h is a Taylor series in d whose
Li of negative order come from the Eulerian polynomials (DLMF 25.12.ii,
2.10.i).  The difference of the two sums is completely monotone in y, so
the remainder bound of one sum still holds, and where the whole far pair is
within its share of abs_tol (e^-eps(p+1) tiny or 0.0) it is left out and
its bound added to the tail.  terms_used is a few dozen, even for 10^8
factors.  p is held at the largest float before it meets a float: every
power of q that p reaches is 0.0 there.

psi_pq and psi_pq' are exact finite sums of F(t) = sum_{n=1..p} q^(nt) /
(1 - q^n), times n for psi'.  Their nonzero terms run to L = _last_nonzero,
about Z / t with Z = _EXP_ZERO / ln q, up to p.  Expanding 1/(1 - q^n)
geometrically and swapping the sums gives, for every integer T >= 0, the
exact finite Lambert split

    F(t) = sum_{m<T} sum_{n=1..p} x_m^n + F(t + T),   x_m = q^(t+m),

whose head terms have closed forms (_head_terms).  A point whose unsplit
L is past N0 = 2^10 takes T = floor(sqrt(Z) - t) where T plus the tail's
own L is below the unsplit L, about 2 sqrt(Z) terms in place of up to p;
every other point takes T = 0, the plain sum.  Up to N0 terms a sum is
cheap as it stands (as in the (q,k) route rule), and a split saves a few
terms for a second pass of term arrays.  tail_bound stays 0 and terms_used
is T + L.  At huge p and tiny t the head sum can pass the largest float
before its scale ln q or (ln q)^2 while the value fits; that head is summed
again with the scale taken into its terms, and a value that still passes
the largest float (psi' near 1 / t^2) is refused, as the Euler-Maclaurin
route refuses one.

``evaluate_columns`` computes one function at many t in one call, as three
columns (values, tail bounds, terms used); ``evaluate`` makes them EvalResults.
The batch of its family routes each t in order in one pass, refusing a direct
value that leaves the floats as the Euler-Maclaurin route does, and sums the
direct rows together (_sum_rows): bit for bit the six kernels.
"""

from __future__ import annotations

import math
import sys
from functools import partial

import numpy as np

from .errors import DomainError, QDigammaError, TruncationNotConverged
from .params import DEFAULT_TOL, DeformParams, EvalResult, Family, Tolerance

__all__ = [
    "evaluate",
    "q_bracket",
    "ln_q_bracket",
    "ln1m_exp",
    "psi_qk",
    "psi_qk_prime",
    "psi_pq",
    "psi_pq_prime",
    "ln_gamma_qk",
    "ln_gamma_pq",
    "psi_qk_limit",
    "psi_pq_limit",
]

# Relative headroom on every certified majorant so the reported bound still
# dominates the true tail after double rounding of the bound expression.
_SAFETY = 1.0 + 1e-12

# Terms per fsum partial of sum_terms, and the most terms one term array holds (64 KiB):
# a long sum is built in blocks of _BLOCK_TERMS combined in numpy's pairwise order
# (pairwise_sum), and a batch block (rows x summed width) is no larger.  Blocks stay below
# the allocator's mmap threshold, so their pages are reused rather than faulted in afresh.
CHUNK = 1 << 15
_BLOCK_TERMS = CHUNK // 4

_LN2 = math.log(2.0)
_MIN_NORMAL = sys.float_info.min

# The one cut-off of direct summation.  A (q,k) point whose direct series needs at
# most _N0 terms, by the closed form of its geometric majorant, is summed directly
# (_qk_batch).  Past _N0 it takes the Euler-Maclaurin route unless that route's
# lattice needs more than n _EM_M / _N0 direct terms for a direct count n: _EM_M
# lattice terms cost about as much as _N0 direct ones.  A psi_pq or psi_pq' sum of
# more than _N0 terms may take the finite Lambert split, and a ln Gamma_pq batch with
# more than _N0 nonzero factorial terms takes the lattice route (_pq_batch).
_N0 = 1 << 10

# p is held here, the largest float, before it meets a float: past it every power q^n and
# q^(t+n) of ln Gamma_pq is 0.0, as is every q^(n t) and e^(-p a) of psi_pq and psi_pq' at
# t |ln q| >= 750 / _P_HOLD, so the held p gives the value of p (_pq_batch)
_P_HOLD = int(sys.float_info.max)

# Euler-Maclaurin route: at least _EM_M direct lattice terms, then the integral, the
# half end term and _EM_P Bernoulli corrections, up to _P_MAX as the tolerance needs.
_EM_M = 8
_EM_P = 8
_P_MAX = 25


def _em_tables(p_max: int) -> tuple:
    """(B_2j/(2j)!, j = 1..p_max; the Eulerian polynomials' coefficient rows A_0..A_(2 p_max)), correctly rounded.

    Li_-n(z) = z A_n(z) / (1-z)^(n+1), with A(n, m) = (m+1) A(n-1, m) + (n-m) A(n-1, m-1).  The generating
    function of A_n(-1) is 1 + tanh x, so A_(2j-1)(-1) = (-1)^(j-1) T_(2j-1), a tangent number, and
    B_2j/(2j)! = A_(2j-1)(-1) / (4^j (4^j - 1) (2j-1)!) (DLMF 4.19.3), one correctly rounded division.
    """
    rows = [(1,)]
    for n in range(1, 2 * p_max + 1):
        prev = (0,) + rows[-1] + (0,)
        rows.append(tuple((m + 1) * prev[m + 1] + (n - m) * prev[m] for m in range(n)))
    weights = tuple(sum(c if m % 2 == 0 else -c for m, c in enumerate(rows[2 * j - 1]))
                    / (4 ** j * (4 ** j - 1) * math.factorial(2 * j - 1)) for j in range(1, p_max + 1))
    return weights, tuple(tuple(map(float, row)) for row in rows)


_BERNOULLI, _EULERIAN = _em_tables(_P_MAX)
_PI2_6 = 1.6449340668482264  # pi^2 / 6 = Li_2(1)


def ln1m_exp(x: float) -> float:
    """ln(1 - e^x) for x < 0, accurate where e^x is near 1 as well as near 0."""
    if x > -_LN2:
        return math.log(-math.expm1(x))
    return math.log1p(-math.exp(x))


def q_bracket(p: int, q: float) -> float:
    """q-analogue of the integer p: [p]_q = (1 - q^p) / (1 - q)."""
    if int(p) != p or p < 1:
        raise DomainError(f"p={p!r} must be an integer >= 1")
    if not (0.0 < q < 1.0):
        raise DomainError(f"q={q!r} must lie strictly inside (0,1)")
    ln_q = math.log(q)
    return math.expm1(min(p, _P_HOLD) * ln_q) / math.expm1(ln_q)


def ln_q_bracket(x: float, ln_q: float) -> float:
    """ln [x]_q for real x > 0, given ln(q); exact for q^x underflowing to 0, an integer x past the floats too."""
    return ln1m_exp(min(x, _P_HOLD) * ln_q) - ln1m_exp(ln_q)


def psi_qk_limit(params: DeformParams) -> float:
    """Supremum of psi_qk: the t -> infinity limit -ln(1-q)/k."""
    params.require(Family.QK)
    return -math.log1p(-params.q) / params.k


def psi_pq_limit(params: DeformParams) -> float:
    """Supremum of psi_pq: the t -> infinity limit ln[p]_q."""
    params.require(Family.PQ)
    return ln_q_bracket(params.p, math.log(params.q))


# -- term arrays ------------------------------------------------------------
# Each factory returns terms(x, n), the terms at the indices n of the row
# whose parameter is the float x, or of the rows whose parameters are the
# column x as a (rows, len(n)) array.  A block broadcasts the one-row
# arithmetic, so every element has the same bits either way.


def _power_terms(kl: float, prime: bool):
    """q^(n t) / (1 - q^(n k)), times n for psi', for rows x = t ln q, with kl = k ln q."""
    if prime:
        return lambda x, n: n * np.exp(n * x) / -np.expm1(n * kl)
    return lambda x, n: np.exp(n * x) / -np.expm1(n * kl)


# Taylor coefficients, highest power first (np.polyval), of (1 - e^-z (1 + z)) / z^2 and
# (z - 1 + e^-z) / z^2 below z = 1, where the closed forms cancel; the first term left out is
# below 2^-58 of each at z = 1
_HEAD_A = tuple((-1) ** k * (k - 1) / math.factorial(k) for k in range(20, 1, -1))
_HEAD_B = tuple((-1) ** k / math.factorial(k) for k in range(20, 1, -1))


def _head_terms(eps: float, p: int, prime: bool, scaled: bool = False):
    """sum_{n=1..p} x^n, or sum_{n=1..p} n x^n for psi', at x = q^(t+m) = e^-a, for rows t and indices m.

    With b = p a, the psi term is (1 - e^-b) / (e^a - 1) and the psi' term (A(b) + p e^-b B(a)) e^-a /
    (1 - e^-a)^2, with A(b) = 1 - e^-b (1 + b) and B(a) = a - 1 + e^-a both positive, so neither part
    cancels the other as 1 - x^p - p x^p (1 - x) does.  Below b = 1 (so a < 1 too) A and B are b^2 and
    a^2 times their Taylor series (_HEAD_A, _HEAD_B), and the term is p (p A(b)/b^2 + e^-b B(a)/a^2)
    times a^2 e^-a / (1 - e^-a)^2 formed as two ratios near 1, so a tiny a underflows nothing.  a is
    at least the smallest subnormal, so a t whose t eps underflows to 0 gets p (p + 1) / 2 or p, not 0/0.
    b is held at 750, where e^-b is 0.0 already, so p a never overflows (p up to about 1e308).
    scaled: each term times its kernel's scale, -eps for psi and eps^2 for psi', taken into its
    factors 1 / (e^a - 1) and 1 / (1 - e^-a) as eps over them, so a term whose unscaled value passes
    the largest float (about 1 / a or 1 / a^2) is formed where its scaled value fits.
    """
    pf, tiny, cap = float(p), math.ulp(0.0), 750.0 / float(p)
    if not prime:
        def terms(x, m):
            a = np.maximum((x + m) * eps, tiny)
            head = -np.expm1(-pf * np.minimum(a, cap))
            return head * (-eps / np.expm1(a)) if scaled else head / np.expm1(a)
        return terms

    def closed(a, b):
        e, em = np.exp(-b), np.expm1(-a)
        head = -np.expm1(-b) - b * e + pf * e * (a + em)
        return head * (eps / np.expm1(a)) * (eps / -em) if scaled else head / (np.expm1(a) * -em)

    def terms(x, m):
        a = np.maximum((x + m) * eps, tiny)
        b = pf * np.minimum(a, cap)
        if not (b[..., :1] < 1.0).any():  # b rises along a row: no term below b = 1, no series
            return closed(a, b)
        small = b < 1.0
        out = np.empty_like(b)
        out[~small] = closed(a[~small], b[~small])
        a, b = a[small], b[small]
        out[small] = (pf * (pf * np.polyval(_HEAD_A, b) + np.exp(-b) * np.polyval(_HEAD_B, a))
                      * (a / np.expm1(a)) * (a / -np.expm1(-a)) * (eps * eps if scaled else 1.0))
        return out
    return terms


def _ln1m_exp_terms(y: np.ndarray) -> np.ndarray:
    """ln(1 - e^y) for y < 0 falling along its last axis, by the rule of ln1m_exp: log(-expm1(y)) above -ln 2."""
    if not (y[..., :1] > -_LN2).any():
        return np.log1p(-np.exp(y))
    near = y > -_LN2
    if y.ndim == 1:  # y falls, so its terms above -ln 2 are a leading run
        c = np.count_nonzero(near)
        return np.concatenate((np.log(-np.expm1(y[:c])), np.log1p(-np.exp(y[c:]))))
    c = near.sum(axis=-1).max()  # the longest such run of a row
    out = np.log1p(-np.exp(np.minimum(y, -_LN2)))
    out[:, :c] = np.where(near[:, :c], np.log(-np.expm1(y[:, :c])), out[:, :c])
    return out


def pairwise_sum(term_fn, lo: int, hi: int) -> float:
    """The sum of the array term_fn(n) for the float indices n = lo..hi-1, built in blocks of at most
    _BLOCK_TERMS terms and with the bits of one np.add.reduce over all of them.

    numpy reduces a float64 row pairwise, splitting a run of n > 128 terms after n//2
    rounded down to a multiple of 8.  Runs wider than _BLOCK_TERMS are split here the same
    way, and each block is reduced by numpy.
    """
    n = hi - lo
    if n <= _BLOCK_TERMS:
        return float(np.add.reduce(term_fn(np.arange(lo, hi, dtype=np.float64))))
    half = n // 2 - n // 2 % 8
    return pairwise_sum(term_fn, lo, lo + half) + pairwise_sum(term_fn, lo + half, hi)


def sum_terms(term_fn, n_first: int, n_last: int) -> float:
    """Sum the array term_fn(n) for integer n in [n_first, n_last], low index first.

    One CHUNK at a time, each built in blocks of at most _BLOCK_TERMS terms and reduced in
    numpy's pairwise order (pairwise_sum), the partials added by math.fsum (Shewchuk's
    error-free transformation), so the rounding error stays far below every certified tail bound.
    """
    partials = []
    for lo in range(n_first, n_last + 1, CHUNK):
        partials.append(pairwise_sum(term_fn, lo, min(lo + CHUNK, n_last + 1)))
    return math.fsum(partials)


def _sum_rows(terms, xs: list, n_first: int, lasts: list) -> list:
    """Sum terms(x, n) over n = n_first..last for each row x with its own last, as sum_terms would.

    Rows are sorted widest first and packed into blocks of at most
    _BLOCK_TERMS terms (rows times the widest row).  A block's terms are
    built as one array and each run of rows of one width is reduced in one
    call.  Block rows are at most _BLOCK_TERMS wide, so each is the single
    block of its sum_terms; fsum returns that sum unchanged except that it
    reads -0.0 as 0.0, which adding 0.0 reproduces.  A row that fills a
    block alone is summed by sum_terms, in blocks of _BLOCK_TERMS terms.
    Rows that sum no terms are 0.0 and build none, so their x, which may be
    far outside the range of the others (t ln q near -1e308), is never used.
    """
    if len(lasts) == 1:  # the one-point call: no blocks to plan
        return [sum_terms(partial(terms, xs[0]), n_first, lasts[0])]
    sums = [0.0] * len(lasts)
    order = sorted(range(len(lasts)), key=lasts.__getitem__, reverse=True)
    while order and lasts[order[-1]] < n_first:  # the narrowest rows sum no terms
        order.pop()
    k = 0
    while k < len(order):
        width = lasts[order[k]] - n_first + 1
        rows = order[k:k + max(1, _BLOCK_TERMS // width)]
        k += len(rows)
        if len(rows) == 1:
            (r,) = rows
            sums[r] = sum_terms(partial(terms, xs[r]), n_first, lasts[r])
            continue
        block = terms(np.array([xs[r] for r in rows]).reshape(-1, 1),
                      np.arange(n_first, n_first + width, dtype=np.float64))
        widths = [lasts[r] - n_first + 1 for r in rows]
        parts, lo = [], 0
        for hi in range(1, len(rows) + 1):
            if hi == len(rows) or widths[hi] != widths[lo]:
                parts.append(np.add.reduce(block[lo:hi, :widths[lo]], axis=1))
                lo = hi
        for r, value in zip(rows, (np.concatenate(parts) + 0.0).tolist()):
            sums[r] = value
    return sums


# -- term counts ------------------------------------------------------------


def geometric_count(coeff: float, ln_step: float, abs_tol: float) -> float:
    """The least N >= 1 with coeff * exp((N+1) ln_step) <= abs_tol; inf when abs_tol / coeff
    underflows to 0 or N is past any float, and 1 when abs_tol / coeff overflows to inf."""
    ratio = abs_tol / coeff
    if ratio > 0.0:
        n = math.log(ratio) / ln_step
        if n < math.inf:
            try:
                return max(1, math.ceil(n) - 1)
            except OverflowError:  # n = -inf: abs_tol / coeff is inf, which one term reaches
                return 1
    return math.inf


def geometric_terms_needed(tail_at, n: int, tail: float, ln_step: float, tol) -> tuple | None:
    """(N, tail_at(N)) for a term count N whose tail majorant tail_at(N) is <= tol.abs_tol.

    N widens from n, the closed form of the majorant's geometric part capped
    at n_max, whose majorant is tail, by as many factors exp(ln_step) as the
    overshoot of tail_at still needs.  None where that overshoot is not
    finite: the majorant has left the floats.  Raises TruncationNotConverged
    when tail_at(n_max) is above abs_tol.
    """
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


# exp(x) is 0.0 from a little below x = ln(2^-1075), half the smallest subnormal float
_EXP_ZERO = -1075 * _LN2


def _last_nonzero(a: float, b: float, n_first: int, n_last: int) -> int:
    """Index of the last nonzero term of a PQ sum whose n-th term vanishes with exp((a + n) b).

    (a + n) b falls with n, so the terms past the first exact zero are zeros
    too; n_first - 1 means no nonzero term.  Where the term at n_last is zero,
    the index starts at the closed form floor(_EXP_ZERO / b - a) of the cut,
    held to [n_first - 1, n_last], and takes unit steps by the same test
    exp((a + n) b) == 0.0.  Past 2^53 a unit step no longer moves a + n,
    so there the closed form is the index.
    """
    if math.exp((a + n_last) * b) != 0.0:
        return n_last
    n = min(n_last, max(n_first - 1, math.floor(_EXP_ZERO / b - a)))
    if n > 1 << 53:
        return n
    while n < n_last and math.exp((a + (n + 1)) * b) != 0.0:
        n += 1
    while n >= n_first and math.exp((a + n) * b) == 0.0:
        n -= 1
    return n


# -- Euler-Maclaurin route --------------------------------------------------


def _eulerian(n: int, z: float) -> float:
    """The Eulerian polynomial A_n at z, by Horner's rule."""
    poly = 0.0
    for c in _EULERIAN[n]:
        poly = poly * z + c
    return poly


def _li2_series(u: float) -> float:
    """Li_2(x) from u = -ln(1-x) <= ln 2: u - u^2/4 + sum_j B_2j u^(2j+1) / (2j+1)!."""
    u2 = u * u
    acc = 0.0
    for j in range(_EM_P, 0, -1):
        acc = acc * u2 + _BERNOULLI[j - 1] / (2 * j + 1)
    return u - 0.25 * u2 + u * u2 * acc


def _li(s: int, y: float) -> float:
    """Li_s(e^-y) for y > 0 and an integer s <= 1, without cancellation."""
    if s == 1:
        return -ln1m_exp(-y)
    z = math.exp(-y)
    return z * _eulerian(-s, z) / (-math.expm1(-y)) ** (1 - s)


def _em_closure(s: int, y: float, h: float, share: float) -> tuple:
    """(closure, remainder bound, units, P, corrections) of sum_{m>=0} f(y + m h) for f(x) = Li_s(e^-x).

    The closure is the integral Li_(s+1)(e^-y) / h less units pi^2/(6h), the
    half end term and the corrections B_2j/(2j)! h^(2j-1) Li_(s-2j+1)(e^-y)
    for j = 1..P (DLMF 2.10.1 with f^(2j-1) = -Li_(s-2j+1)(e^-x)), whose sum
    is returned too.  f is completely monotone, so f^(2P) keeps one sign and
    the remainder after P corrections is at most the size of the last one,
    |B_2P|/(2P)! h^(2P-1) |f^(2P-1)(y)|.  P is _EM_P, and grows to at most
    _P_MAX while that bound is above share and the (divergent) corrections
    still fall.
    Li_2(z), z = e^-y, is summed in u = -ln(1-z) up to z = 1/2; above, by the
    reflection Li_2(z) = pi^2/6 - ln z ln(1-z) - Li_2(1-z) (DLMF 25.12.6)
    without its pi^2/6, which units = 1 counts, so that two sums near y = 0
    leave their largest part to an exact cancellation (_em_lattice).
    """
    z, w = math.exp(-y), -math.expm1(-y)
    r = h / w  # h^(2j-1) Li_(s-2j+1)(z) = z A_(2j-1-s)(z) r^(2j-1) / w^(1-s)
    r2 = r * r
    scale = z / w ** (1 - s)
    corrections, power, p = 0.0, r, 0
    while p < _P_MAX and (p < _EM_P or abs(last) * scale > share):
        term = _BERNOULLI[p] * _eulerian(2 * p + 1 - s, z) * power
        if p >= _EM_P and abs(term) >= abs(last):
            break
        corrections += term
        last, power, p = term, power * r2, p + 1
    units = 0
    if s < 1:
        integral = _li(s + 1, y)
    elif z <= 0.5:
        integral = _li2_series(-math.log1p(-z))
    else:  # -ln(1 - (1-z)) = y
        integral, units = y * math.log(w) - _li2_series(y), 1
    corrections *= scale
    return integral / h + 0.5 * _li(s, y) + corrections, abs(last) * scale, units, p, corrections


def _li2_drop(y: float, d: float, z: float, w: float, share: float) -> tuple:
    """(Li_2(z) - Li_2(z e^-d), remainder bound, terms) at z = e^-y, w = 1 - z, for 0 < d <= y / 8.

    The Taylor series sum_{j>=1} (-1)^(j+1) d^j/j! Li_(2-j)(z) (DLMF 25.12.ii,
    d/dy Li_s(e^-y) = -Li_(s-1)(e^-y)): d Li_1(z), then the terms d z (-r)^(j-1)
    A_(j-2)(z) / j!, r = d / w, which fall about like (d / y)^j.  Li_(1-j)(e^-x)
    falls as x grows, so the remainder after j terms is at most the size of term
    j + 1 (Lagrange's form); the terms are summed until that is within share, or
    the Eulerian table ends.
    """
    drop, coeff, r = d * _li(1, y), d * z, d / w
    for j in range(2, len(_EULERIAN) + 2):
        coeff *= -r / j
        term = coeff * _eulerian(j - 2, z)
        if abs(term) <= share or j == len(_EULERIAN) + 1:
            break
        drop += term
    return drop, abs(term), j - 1


def _em_pair_closure(y: float, d: float, h: float, share: float) -> tuple:
    """(closure, remainder bound, P, terms) of sum_{m>=0} F(y + m h), F(x) = Li_1(e^-x) - Li_1(e^-(x+d)).

    F is completely monotone, each of its derivatives no larger than that of
    Li_1(e^-x), so P corrections (_em_closure's at y, and at y + d with the
    same P) leave a remainder within the size of the last one at y.  The
    integral [Li_2(e^-y) - Li_2(e^-(y+d))] / h is _li2_drop's Taylor series in
    d, its bound within share too, where d <= min(y / 8, 1).  Past that the
    two sums differ by at least about an eighth of the larger, and each is
    closed by _em_closure as a pair of _em_lattice is.  terms counts the half
    end terms, the corrections and the integral's terms.
    """
    near, bound, near_units, p, corrections = _em_closure(1, y, h, share)
    if d > min(y / 8.0, 1.0):
        far, far_bound, far_units, far_p, _ = _em_closure(1, y + d, h, share)
        return near - far + (near_units - far_units) * _PI2_6 / h, bound + far_bound, p, 4 + p + far_p
    z, w = math.exp(-y), -math.expm1(-y)
    z_d, r_d = math.exp(-(y + d)), h / -math.expm1(-(y + d))
    far, power = 0.0, r_d
    for j in range(p):  # the corrections at y + d, s = 1
        far += _BERNOULLI[j] * _eulerian(2 * j, z_d) * power
        power *= r_d * r_d
    drop, drop_bound, n = _li2_drop(y, d, z, w, share * h)
    half = 0.5 * _pair_term(y, -math.expm1(-d))
    return drop / h + half + (corrections - far * z_d), bound + drop_bound / h, p, 1 + 2 * p + n


def _pair_term(y: float, one_minus_e_d: float) -> float:
    """Li_1(e^-y) - Li_1(e^-(y+d)) = ln((1 - e^-(y+d)) / (1 - e^-y)), given 1 - e^-d, without cancellation."""
    return math.log1p(math.exp(-y) * one_minus_e_d / -math.expm1(-y))


def _em_lattice(s: int, pairs: tuple, h: float, lead: float, scale: float, tol: Tolerance,
                m_cap: float = math.inf, paired: tuple | None = None) -> EvalResult | None:
    """lead + scale * (the sum over pairs of S(a) - S(b), or S(a) for a pair (a,), plus S(c) - S(c + d)
    for paired = (c, d), s = 1), by Euler-Maclaurin.

    S(a) is the infinite sum of f(y) = Li_s(e^-y) over y = a + m h, m >= 0:
    M terms directly, closed by _em_closure at a + M h, its bound held to a
    share of abs_tol: abs_tol / (_SAFETY |scale| times the number of bounds).
    Each pair is differenced before the pairs are added, and then gets back
    the pi^2/(6h) units its closures left out, as their difference times
    pi^2/(6h).  The paired difference is formed term by term instead, so it
    loses no digits where S(c) and S(c + d) are large and close: M terms
    F(c + m h) (_pair_term), closed by _em_pair_closure, two bounds; where
    the whole difference, at most S(c) <= e^-c / ((1 - e^-c)(1 - e^-h)), is
    within a share, it is left out and that bound goes in the tail.  M
    starts at _EM_M and grows until tail, the closures' bounds times |scale|
    and _SAFETY, is within abs_tol; None, before any term is summed, where
    it would grow past m_cap.  terms_used, M + 2 + P per sum and M plus the
    pair closure's terms for the paired difference, is capped by n_max.  A
    value that is not finite raises TruncationNotConverged.
    """
    starts = [a for pair in pairs for a in pair]
    share = tol.abs_tol / (_SAFETY * abs(scale) * (len(starts) + (2 if paired else 0)))
    dropped = 0.0
    if paired:
        c, d = paired
        whole = math.exp(-c) / (-math.expm1(-c) * -math.expm1(-h))
        if whole <= share:
            paired, dropped = None, whole
    m = _EM_M
    while True:
        closures = {a: _em_closure(s, a + m * h, h, share) for a in starts}
        terms = sum([m + 2 + closures[a][3] for a in starts])
        tail = sum([closures[a][1] for a in starts])
        if paired:
            pair_closure = _em_pair_closure(c + m * h, d, h, share)
            terms, tail = terms + m + pair_closure[3], tail + pair_closure[1]
        tail = _SAFETY * abs(scale) * (tail + dropped)
        if terms > tol.n_max:
            raise TruncationNotConverged(
                f"Euler-Maclaurin route needs {terms} terms, past the cap of {tol.n_max}", tail, tol.n_max)
        if tail <= tol.abs_tol:
            break
        # the remainder after P corrections falls at least like y^-(2P - s) as y = a + m h grows
        a = min(starts)
        grow = math.exp((math.log(tail) - math.log(tol.abs_tol)) / (2 * closures[a][3] - s))
        m = max(m + 1, math.ceil(((a + m * h) * grow - a) / h))
        if m > m_cap:
            return None
    sums = {}
    for a, (closure, _, units, _, _) in closures.items():
        direct = 0.0
        for i in range(m):
            direct += _li(s, a + i * h)
        sums[a] = direct + closure, units
    total = 0.0
    for pair in pairs:
        near, near_units = sums[pair[0]]
        far, far_units = sums[pair[1]] if len(pair) == 2 else (0.0, 0)
        total += near - far + (near_units - far_units) * _PI2_6 / h
    if paired:
        one_minus_e_d, direct = -math.expm1(-d), 0.0
        for i in range(m):
            direct += _pair_term(c + i * h, one_minus_e_d)
        total += direct + pair_closure[0]
    value = lead + scale * total
    if not math.isfinite(value):
        raise TruncationNotConverged("Euler-Maclaurin value overflows double precision", math.inf, terms)
    return EvalResult(value, tail, terms)


def _qk_gamma_lead(t: float, k: float, ln1mq: float) -> float:
    """-(t/k - 1) ln(1-q), the lead of ln Gamma_qk; t (-ln(1-q)/k) + ln(1-q) where t/k overflows first."""
    lead = -(t / k - 1.0) * ln1mq
    return lead if math.isfinite(lead) else t * (-ln1mq / k) + ln1mq


def _em_qk(fn: str, params: DeformParams, t: float, tol: Tolerance, m_cap: float = math.inf) -> EvalResult | None:
    """fn ("psi", "psi-prime" or "ln-gamma") of the (q,k) family at t by the Euler-Maclaurin route.

    Each series is a sum over the lattice y = eps (a + m k), eps = -ln q, of
    Li_s(e^-y): psi = -ln(1-q)/k - eps S_0(t), psi' = eps^2 S_-1(t) and
    ln Gamma = S_1(t) - S_1(k) - (t/k - 1) ln(1-q), summed by _em_lattice
    (None where it needs more than m_cap direct lattice terms).  Raises
    TruncationNotConverged where (1 - q^t)^(1-s), which divides the terms,
    underflows.
    """
    q, k = params.q, params.k
    eps = -math.log(q)
    if fn == "ln-gamma":  # at t = k the two sums are the same bits, so ln Gamma(k) is 0.0
        s, lead, scale, pairs = 1, _qk_gamma_lead(t, k, math.log1p(-q)), 1.0, ((eps * t, eps * k),)
    elif fn == "psi":
        s, lead, scale, pairs = 0, -math.log1p(-q) / k, -eps, ((eps * t,),)
    else:
        s, lead, scale, pairs = -1, 0.0, eps * eps, ((eps * t,),)
    if (-math.expm1(-eps * t)) ** (1 - s) == 0.0:
        raise TruncationNotConverged(f"{fn} at t={t!r}: (1 - q^t)^{1 - s} underflows", math.inf, 0)
    if s == 0 and math.isinf(_li(0, eps * t)):
        # 1/(e^y - 1) overflows at the subnormal y = eps t; the scaled term -eps/(e^y - 1) goes in
        # the lead as -1/t, its value to within y relative, which keeps the digits y has lost
        lead, pairs = lead - 1.0 / t, ((eps * (t + k),),)
    return _em_lattice(s, pairs, eps * k, lead, scale, tol, m_cap)


# -- batch kernels ----------------------------------------------------------
# A batch is routed in one pass over its points, in order: each t's checks,
# term count and route.  A point on the direct route gets no tuple or result
# object: it fills the columns of its sum (the parameter x of its terms and
# its last term), tail and count; _sum_rows sums the rows together, and a
# batch leaves as three columns: values, tail bounds and terms used.


def _check_t(t: float) -> float:
    t = float(t)
    if not 0.0 < t < math.inf:
        raise DomainError(f"t={t!r} must be a positive finite real")
    return t


def _check_ln_gamma_t(t: float, ln_q: float) -> float:
    """t, checked for a ln Gamma kernel: refused where t |ln q| is below the smallest normal float.

    There t ln q is rounded on the subnormal grid, so ln(1 - q^t), about
    ln(t |ln q|), has lost its leading digits.
    """
    t = _check_t(t)
    if -t * ln_q < _MIN_NORMAL:
        raise TruncationNotConverged(f"t |ln q| at t={t!r} is below the smallest normal float", math.inf, 0)
    return t


def _series_ratio(t: float, ln_q: float) -> tuple:
    """(ln r, 1 - r) for the series ratio r = q^t of a checked t; 1 - r is None when r underflows to 0."""
    ln_r = t * ln_q
    if math.exp(ln_r) == 0.0:
        return ln_r, None
    one_minus_r = -math.expm1(ln_r)
    if one_minus_r <= 0.0:
        raise TruncationNotConverged(f"series ratio q^t indistinguishable from 1 at t={t!r}", math.inf, 0)
    return ln_r, one_minus_r


def _lead_refusal(t: float) -> TruncationNotConverged:
    # a direct sum is bounded, so only its lead overflows
    return TruncationNotConverged(f"the lead of the value at t={t!r} overflows a double", math.inf, 0)


def _majorant(fn: str, ln_q: float, ln_s: float, one_minus_qk: float):
    """tail_at(n, ln_r, one_minus_r): the direct-route majorant of fn's terms after the n-th, at r = q^t."""
    if fn == "ln-gamma":  # both product tails after N factor pairs
        return lambda n, ln_r, one_minus_r: _SAFETY * (math.exp((n + 1) * ln_s) / (one_minus_qk * one_minus_qk)
                                                       + math.exp(ln_r + n * ln_s) / (one_minus_r * one_minus_qk))
    if fn == "psi-prime":
        # (ln q)^2 / (1-q^k) * sum_{m>N} m r^m = coeff r^(N+1) ((N+1)(1-r) + r) / (1-r)^2
        coeff = _SAFETY * ln_q * ln_q / one_minus_qk
        return lambda n, ln_r, one_minus_r: (coeff * math.exp((n + 1) * ln_r) * ((n + 1) * one_minus_r
                                             + math.exp(ln_r)) / (one_minus_r * one_minus_r))
    coeff = _SAFETY * -ln_q
    return lambda n, ln_r, one_minus_r: coeff / (one_minus_qk * one_minus_r) * math.exp((n + 1) * ln_r)


def psi_qk_direct_count(t: float, params: DeformParams, tol: Tolerance = DEFAULT_TOL) -> tuple:
    """(N, tail) of the direct psi_qk series at t, summing nothing.

    N is the closed-form term count of the geometric majorant (inf past any
    float) and tail the majorant after N terms; (0, 0.0) when every term
    underflows.  Where psi_qk sums the direct series these are its terms_used
    and tail_bound but for a rare widening by one rounding: at N <= N0, and
    past N0 where the Euler-Maclaurin lattice would need more than N _EM_M /
    N0 terms (_qk_batch).  Elsewhere N is the count the direct series would
    need.
    """
    params.require(Family.QK)
    ln_q = math.log(params.q)
    ln_r, one_minus_r = _series_ratio(_check_t(t), ln_q)
    if one_minus_r is None:
        return 0, 0.0
    one_minus_qk = -math.expm1(params.k * ln_q)
    n = geometric_count(_SAFETY * -ln_q / (one_minus_qk * one_minus_r), ln_r, tol.abs_tol)
    tail_at = _majorant("psi", ln_q, params.k * ln_q, one_minus_qk)
    return n, (tail_at(n, ln_r, one_minus_r) if n < math.inf else math.inf)


def _qk_batch(fn: str, params: DeformParams, ts, tol: Tolerance) -> tuple:
    """fn ("psi", "psi-prime" or "ln-gamma") of the (q,k) family at every t of ts, as (values, tails, terms).

    This is the one route rule of the (q,k) kernels, the same for all three.
    A point takes the direct series only where its majorant stays in the
    floats: (1-q^k)(1-q^t), which divides the majorant, is at least the
    smallest normal float, and the majorant's overshoot of abs_tol at the
    closed-form count n of its geometric part is finite
    (geometric_terms_needed).  Of those points, one with n <= N0 is summed
    directly, and one with N0 < n <= n_max only where the Euler-Maclaurin
    lattice would need more than n _EM_M / N0 direct terms.  Every other
    point takes the Euler-Maclaurin route.  Every t first passes its
    function's checks, in order: _check_ln_gamma_t, or _check_t and
    _series_ratio.
    """
    q, k = params.q, params.k
    ln_q = math.log(q)
    ln_s = k * ln_q
    one_minus_qk = -math.expm1(ln_s)
    ln1mq = math.log1p(-q)
    gamma, prime = fn == "ln-gamma", fn == "psi-prime"
    # ln Gamma's count, the same at every t, from the numerator tail's geometric part held to abs_tol / 2
    count = geometric_count(2.0 / (one_minus_qk * one_minus_qk), ln_s, tol.abs_tol) if gamma else None
    # the coefficient of the geometric part is coeff / ((1-q^k)(1-r)) for psi, coeff / (1-r) for psi'
    coeff = _SAFETY * ln_q * ln_q / one_minus_qk if prime else _SAFETY * -ln_q
    tail_at = None  # the majorant, formed at the first point that needs it
    # the three result columns, and for the points on the direct route (rows) the parameter x of their
    # terms, their last term and their ln Gamma lead
    values, tails, terms, rows, xs, lasts, leads = [], [], [], [], [], [], []
    for i, t in enumerate(ts):
        if gamma:
            t = _check_ln_gamma_t(t, ln_q)
            ln_r, one_minus_r = t * ln_q, -math.expm1(t * ln_q)
        else:
            t = _check_t(t)
            ln_r, one_minus_r = _series_ratio(t, ln_q)
            if one_minus_r is None:  # every term underflows: the limit value is exact
                rows.append(i), xs.append(ln_r), lasts.append(0)
                values.append(0.0), tails.append(0.0), terms.append(0)
                continue
        found = res = None
        if one_minus_qk * one_minus_r >= _MIN_NORMAL:
            n = count if gamma else geometric_count(
                coeff / one_minus_r if prime else coeff / (one_minus_qk * one_minus_r), ln_r, tol.abs_tol)
            if n > _N0:  # the lattice goes first, its cost capped at that of n direct terms; uncapped past n_max
                res = _em_qk(fn, params, t, tol, n * _EM_M / _N0 if n <= tol.n_max else math.inf)
            if res is None:
                tail_at = tail_at or _majorant(fn, ln_q, ln_s, one_minus_qk)
                n = min(tol.n_max, n)
                found = n, tail_at(n, ln_r, one_minus_r)
                if found[1] > tol.abs_tol:  # widen, over the points still above abs_tol only
                    found = geometric_terms_needed(lambda m: tail_at(m, ln_r, one_minus_r), *found,
                                                   ln_s if gamma else ln_r, tol)
        if found is None:
            res = res or _em_qk(fn, params, t, tol)
            values.append(res.value), tails.append(res.tail_bound), terms.append(res.terms_used)
            continue
        if gamma:
            leads.append(_qk_gamma_lead(t, k, ln1mq))
            if not math.isfinite(leads[-1]):
                raise _lead_refusal(t)
        # ln Gamma's N factor pairs are its terms n = 0..N-1
        rows.append(i), xs.append(t if gamma else ln_r), lasts.append(found[0] - 1 if gamma else found[0])
        values.append(0.0), tails.append(found[1]), terms.append(found[0])
    if not rows:  # all on the Euler-Maclaurin route: nothing to sum
        return values, tails, terms
    if gamma:
        # ln Gamma's shifted terms ln(1 - q^(x + n k)) are formed at x = min(t, t_cap): past t_cap the power
        # is 0 at t_cap as at t, so every term keeps its bits, and (t + n k) ln q, which would overflow with
        # a numpy warning on stderr, is never formed
        t_cap = sys.float_info.max / (2.0 * -ln_q)
        # numerator exponent written as k + n*k so that t = k cancels bitwise
        summand = lambda x, n: _ln1m_exp_terms((k + n * k) * ln_q) - _ln1m_exp_terms((x + n * k) * ln_q)
        sums = _sum_rows(summand, [min(x, t_cap) for x in xs], 0, lasts)
        direct = [x + s for x, s in zip(leads, sums)]
    else:
        # psi' sums are nonnegative, so adding its 0.0 lead changes no bit
        lead, scale = (0.0, ln_q * ln_q) if prime else (-ln1mq / k, ln_q)
        direct = [lead + scale * s for s in _sum_rows(_power_terms(ln_s, prime), xs, 1, lasts)]
    for i, v in zip(rows, direct):
        values[i] = v
    return values, tails, terms


def _pq_batch(fn: str, params: DeformParams, ts, tol: Tolerance) -> tuple:
    """fn ("psi", "psi-prime" or "ln-gamma") of the (p,q) family at every t of ts, as (values, tails, terms).

    psi and psi' sum F(t) = sum_{n=1..p} q^(nt) / (1 - q^n), times n for psi',
    by the finite Lambert split (module docstring): T closed-form head terms,
    then F(t + T) through its last nonzero term L (_last_nonzero), with
    T = floor(sqrt(Z) - t), Z = _EXP_ZERO / ln q, where the unsplit count
    (L at T = 0) is past N0 and T + L is below it, and T = 0 otherwise.
    terms_used is T + L and tail_bound 0.  ln Gamma's whole batch takes its
    factorial's route: the lattice past N0 nonzero factors.  A direct sum is
    refused where its count is past n_max.  p past _P_HOLD is held there; psi
    and psi' refuse a t where that would not give the value of p.
    """
    q, p = params.q, min(params.p, _P_HOLD)  # the held p gives the value of params.p, or psi refuses t below
    ln_q = math.log(q)

    def capped(n: int) -> TruncationNotConverged:
        return TruncationNotConverged(
            f"finite sum needs {n} terms, past the cap of {tol.n_max} terms", math.inf, tol.n_max)
    if fn != "ln-gamma":
        root = math.sqrt(_EXP_ZERO / ln_q)
        # the rows of the tails (x = (t + T) ln q, last index L), and (point, t, T) of the split points
        xs, lasts, heads = [], [], []
        try:
            for t in map(_check_t, ts):
                x = t * ln_q
                if params.p > p and x * p > -750.0:  # e^(-p a) of a head, or q^(p t), may be nonzero at p
                    raise TruncationNotConverged(f"p past the largest float at t={t!r}", math.inf, 0)
                last = count = _last_nonzero(0.0, x, 1, p)
                shift = math.floor(root - t) if last > _N0 else 0
                if shift > 0:
                    split = _last_nonzero(0.0, (t + shift) * ln_q, 1, p)
                    if shift + split < last:
                        heads.append((len(xs), t, shift))
                        x, last, count = (t + shift) * ln_q, split, shift + split
                if count > tol.n_max:
                    raise capped(count)
                xs.append(x), lasts.append(last)
        except QDigammaError:  # a split point before this t may overflow, and its refusal comes first
            if heads:
                _pq_batch(fn, params, [t for i, t, _ in heads if i < len(xs)], tol)
            raise
        prime = fn == "psi-prime"
        sums, terms = _sum_rows(_power_terms(ln_q, prime), xs, 1, lasts), lasts
        if heads:
            rows, tl, shifts = zip(*heads)
            terms, rest = lasts.copy(), sums.copy()  # rest: the tails F(t + T)
            with np.errstate(over="ignore", divide="ignore"):  # a head past the floats is inf, re-summed below
                head_sums = _sum_rows(_head_terms(-ln_q, p, prime), tl, 0, [s - 1 for s in shifts])
            for i, shift, h in zip(rows, shifts, head_sums):
                sums[i], terms[i] = h + sums[i], shift + terms[i]
        lead, scale = (0.0, ln_q * ln_q) if prime else (ln_q_bracket(p, ln_q), ln_q)
        values = [lead + scale * s for s in sums]
        for i, t, shift in heads:
            if not math.isfinite(values[i]):  # the head may pass the floats only unscaled: re-sum it scaled
                with np.errstate(over="ignore", divide="ignore"):
                    (h,) = _sum_rows(_head_terms(-ln_q, p, prime, scaled=True), [t], 0, [shift - 1])
                values[i] = lead + (h + scale * rest[i])
        for value, n in zip(values, terms):
            if not math.isfinite(value):
                raise TruncationNotConverged("finite sum overflows double precision", math.inf, n)
        return values, [0.0] * len(xs), terms
    ln1mq, lead = ln1m_exp(ln_q), ln_q_bracket(p, ln_q)
    n_fact = _last_nonzero(0.0, ln_q, 1, p)
    eps = -ln_q
    tl, values, tails, terms, leads, lasts = [], [], [], [], [], []
    for t in ts:
        t = _check_ln_gamma_t(t, ln_q)
        tl.append(t), leads.append(ln1mq + t * lead)
        if n_fact > _N0:  # the near pair, and the far one reversed, S_1(p+1) - S_1(t+p+1), term by term
            res = _em_lattice(1, ((eps * t, eps),), eps, leads[-1], 1.0, tol, paired=(eps * (p + 1), eps * t))
            values.append(res.value), tails.append(res.tail_bound), terms.append(res.terms_used)
            continue
        if n_fact > tol.n_max:  # refused at the first point, as a one-point call refuses it
            raise capped(n_fact)
        if not math.isfinite(leads[-1]):
            raise _lead_refusal(t)
        lasts.append(_last_nonzero(t, ln_q, 0, p))
    if not lasts:  # every point on the lattice, or none at all
        return values, tails, terms
    shifted = _sum_rows(lambda x, n: _ln1m_exp_terms((x + n) * ln_q), tl, 0, lasts)
    # lead + -1.0 * (shifted - factorial) has the bits of lead + (factorial - shifted)
    factorial = sum_terms(lambda n: _ln1m_exp_terms(n * ln_q), 1, n_fact)
    return [x + -1.0 * (s - factorial) for x, s in zip(leads, shifted)], [0.0] * len(tl), [n_fact] * len(tl)


_KERNELS = {Family.QK: _qk_batch, Family.PQ: _pq_batch}


def evaluate_columns(fn: str, params: DeformParams, ts, tol: Tolerance = DEFAULT_TOL) -> tuple:
    """fn ("psi", "psi-prime" or "ln-gamma") of params' family at every t in ts, as columns.

    Returns (values, tail_bounds, terms_used), three lists in the order of
    ts; each element is that of the one-point kernel at its t, bit for bit.
    Raises the error of the first t, in order, that cannot be evaluated.
    """
    if fn not in ("psi", "psi-prime", "ln-gamma"):
        raise DomainError(f"unknown function {fn!r}; expected psi, psi-prime or ln-gamma")
    return _KERNELS[params.family](fn, params, ts, tol)


def evaluate(fn: str, params: DeformParams, ts, tol: Tolerance = DEFAULT_TOL) -> list:
    """fn ("psi", "psi-prime" or "ln-gamma") of params' family at every t in ts.

    Returns one EvalResult per t, in order, each bit-for-bit the result of
    the one-point kernel at that t: same value, tail_bound and terms_used.
    Raises the error of the first t, in order, that cannot be evaluated.
    """
    return list(map(EvalResult, *evaluate_columns(fn, params, ts, tol)))


# -- one-point entries ------------------------------------------------------


def _point(columns: tuple) -> EvalResult:
    (value,), (tail,), (terms,) = columns
    return EvalResult(value, tail, terms)


def psi_qk(t: float, params: DeformParams, tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """(q,k)-digamma at t with a certified truncation bound.

    Direct route's tail majorant after N terms: |ln q| * r^(N+1) /
    ((1-q^k)(1-r)) with r = q^t; near q = 1 the Euler-Maclaurin route's
    remainder bound instead (see the module docstring).
    """
    params.require(Family.QK)
    return _point(_qk_batch("psi", params, (t,), tol))


def psi_qk_prime(t: float, params: DeformParams, tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """Derivative of the (q,k)-digamma; value is nonnegative by construction.

    Direct route's tail majorant after N terms:
    (ln q)^2/(1-q^k) * r^(N+1)((N+1)(1-r)+r)/(1-r)^2.
    """
    params.require(Family.QK)
    return _point(_qk_batch("psi-prime", params, (t,), tol))


def ln_gamma_qk(t: float, params: DeformParams, tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """Log of the (q,k)-gamma function, evaluated entirely in log space.

    Direct route's tail certified via |ln(1-x)| <= x/(1-x) on both product
    tails: after N factor pairs the remainder is at most
    q^((N+1)k)/(1-q^k)^2 + q^(t+Nk)/((1-q^t)(1-q^k)).  A value that overflows
    raises TruncationNotConverged on either route.  The lead -(t/k - 1) ln(1-q)
    is formed as t (-ln(1-q)/k) + ln(1-q) where t/k overflows first, so a
    value that fits is returned.
    """
    params.require(Family.QK)
    return _point(_qk_batch("ln-gamma", params, (t,), tol))


def psi_pq(t: float, params: DeformParams, tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """(p,q)-digamma at t: an exact finite sum (tail bound 0).

    The sum is split into T closed-form head terms and a tail through its
    last nonzero term L (T = 0 up to N0 terms or where splitting saves
    nothing; see the module docstring), so terms_used, T + L (at most p), is
    the number of terms summed.
    """
    params.require(Family.PQ)
    return _point(_pq_batch("psi", params, (t,), tol))


def psi_pq_prime(t: float, params: DeformParams, tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """Derivative of the (p,q)-digamma: exact finite sum, nonnegative, split as psi_pq's; terms_used is T + L."""
    params.require(Family.PQ)
    return _point(_pq_batch("psi-prime", params, (t,), tol))


def ln_gamma_pq(t: float, params: DeformParams, tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """Log of the (p,q)-gamma function, the Krasniqi-Merovci finite product, in log space.

    Where at most N0 = 2^10 factorial factors 1 - q^n are nonzero, the product
    is summed exactly (tail bound 0, terms_used that count).  Past N0 it is
    four infinite Euler-Maclaurin lattice sums by the q-gamma identity, the
    far pair formed term by term, and the tail bound is their remainder
    bounds (see the module docstring); terms_used is a few dozen there, and
    n_max caps it.  A value that overflows raises TruncationNotConverged on
    either route.
    """
    params.require(Family.PQ)
    return _point(_pq_batch("ln-gamma", params, (t,), tol))
