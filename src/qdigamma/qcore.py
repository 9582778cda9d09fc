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
ln Gamma (_qk_line).  The direct route sums the series above; it needs
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
within eps t relative, goes in the lead and the lattice starts at eps (t + k);
where psi''s Li_-1(e^-eps t) overflows or its divisor (1 - q^t)^2
underflows, eps^2 Li_-1 = 1/t^2 - eps^2/12 + ... goes in the lead as
(1/t)^2, so psi' refuses only where that overflows.

No Python call is made per lattice term or per correction.  The
corrections of each order s are a tuple built at import (_EM_ROWS):
correction j pairs B_2j/(2j)! with the Eulerian row A_(2j+1-s), and its
polynomial is an inline Horner loop over that row; the M direct terms are
one loop per order with the bodies of Li_s and ln1m_exp inline.  These are
the float operations of a call per Li_s and per Eulerian polynomial, in the
same order, so every bit is the same.  One-point costs in microseconds at
q = 0.9999, k = 1.3, t = 2.1, a call per term before / inline (in-process,
alternating, medians of 41 rounds, shared 2-vCPU x86): psi 16.9 / 12.5,
psi' 16.3 / 12.7, ln Gamma 25.9 / 19.4; ln Gamma_pq at (10^5, 0.9) 24.2 /
18.8.

ln Gamma_pq takes the same two routes by the same cut-off N0.  Its
factorial terms ln(1 - q^n) outlast every shifted term ln(1 - q^(t+n)), so
their last nonzero index routes the whole line (_pq_gamma_line): through at
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

psi_pq and psi_pq' are finite sums of F(t) = sum_{n=1..p} q^(nt) / (1 - q^n),
times n for psi'.  Their nonzero terms run to L = _last_nonzero, about Z / t
with Z = _EXP_ZERO / ln q, up to p.  Expanding 1/(1 - q^n) geometrically and
swapping the sums gives the Lambert split, exact with all its head terms:

    F(t) = sum_{m>=0} x_m (1 - x_m^p) / (1 - x_m),   x_m = q^(t+m),

and for psi' sum_{m>=0} [Li_-1(x_m) - x_m^p (Li_-1 + p Li_0)(x_m)].  Past a
lattice index M the x_m^p part is within its share of abs_tol (at most
e^-((p+1) y_M) times a closed factor, _lambert_drop) and is left out, so the
rest is S_0 (S_-1 for psi') on the step eps from eps (t + M), which
_em_closure closes.  A point whose L is past N0 = 2^10 sums M closed-form
head terms (_head_terms) and that one closure (_em_lattice with finite), by
the (q,k) route rule's form: unless M is past L / 32 (_PQ_EM_FRACTION), or
the lattice's terms past n_max.  M is about max(8, ln(far / share) / (p eps)),
so terms_used is a few dozen where the plain sum has thousands of terms,
and a few hundred at p eps = 0.1.  tail_bound is the closure's remainder
plus the dropped part, held within abs_tol and within 2^-60 of the value's
size (a lower bound from the first head term), so the truncation stays far
below the rounding of the value: last bits may move from those of the plain
sum, inside that certified bound and its rounding.  Every other point sums
its L plain terms exactly (tail_bound 0).  At huge p and tiny t the head sum
can pass the largest float before its scale ln q or (ln q)^2 while the value
fits; that head is summed again with the scale taken into its terms, and a
value that still passes the largest float (psi' near 1 / t^2) is refused.

``evaluate_lines`` computes one function at many lines (params, ts) in one
call: an iterator over, per line, three columns (values, tail bounds, terms
used), or the error of its first t that cannot be evaluated, returned, not
raised, so one refused line leaves its neighbours' columns as they are.
``evaluate_columns`` is its one-line case and raises that error;
``evaluate`` makes the columns EvalResults.  One function, _batch, runs
every batch from one table, _TABLE, whose entry per (family, function)
names a router, the term function and first index of the direct rows, and
a finisher.  The router takes a line in t order, appends the row of each
direct point, and returns the line's state with the error of its first t
that cannot be evaluated, or None, keeping the rows before that t.  The
rows of all lines are summed together (_sum_rows), each with its own
parameters, and the finisher makes a line's columns from its state and its
rows' sums, or returns its refusal.  The six kernels are _batch's case
of one point (_point).  Consecutive lines of one family go in groups of at
most _BLOCK_TERMS / 4 points, read as the iterator reaches them.

psi and psi' share one _TABLE row: psi' is its order 1, whose terms are
psi's times n, and one term function (_psi_terms) gives either order or
both.  The pair ("psi", "psi-prime") is one routing pass of that row: per
point one t check and one series ratio (or one last nonzero index L for
the PQ sums), then each order's own count, majorant and route, and one
direct row whose block forms exp(n x) and 1 - q^(n k) once.  Each order is
reduced over its own width (a (q,k) row holds one last index per order, as
the two counts differ), so every sum has the bits of its one-function call;
a point on the Euler-Maclaurin route takes its lattice once per order.
Refusals stay per order: a t that fails the shared checks refuses both
orders, and a count, lattice, cap or lead that fails for one order refuses
it alone, with the error its one-function call gives, while the other
order goes on.  A one-function call is the one-order case of the same code.

A (q,k) batch of at least _ARRAY_MIN = 96 points decides the direct route
by array expressions over its whole column of t (_qk_direct): the t checks,
the series ratio, the geometric count, the majorant and its widening, with
math's exp, expm1 and log mapped over the elements so every bit is that of
the scalar loop (_qk_line), which routes the other points and every smaller
batch.  A PQ batch of as many points routes its common point the same way
(_pq_array_lines): a checked t whose q^(p t) is nonzero sums its p plain
terms, and the loop (_pq_sum_line) routes every other point.  The one-point
calls of the kernels stay on the loop.  Cost per point in microseconds,
loop / arrays, for the (q,k) family over lines of q in (0.1, 0.9), k in
(0.3, 3), t in (0.3, 6), on a shared 2-vCPU Intel Xeon (best of 5):

    points       1          16         64         100        200        10200
    psi         18.8/87.2  4.7/8.6    3.0/3.2    2.6/2.5    2.4/2.0    1.9/1.1
    psi'        13.8/118   6.2/12.9   4.3/4.8    4.3/4.0    3.6/2.7    3.4/1.6
    ln Gamma    21.3/94.7  5.4/9.2    4.4/4.7    4.1/3.7    4.1/3.2    3.2/2.2

A finer run put the crossing at 80 to 96 points.  A verify suite's psi
batches (groups of up to 2,048 of its 10,200 points) are far above it, the
one-point calls far below.  For the PQ sums (p in 2..30) a batch of 100
lines of 102 points takes 4.6 ms by arrays against 6.8 ms by the loop, and
one of 100 lines of one point, as a grid's searches make, 0.47 against
0.39 ms: the (q,k) rule is kept, as the suites' batches gain far more.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from itertools import compress
from operator import not_

import numpy as np

from .errors import DomainError, QDigammaError, TruncationNotConverged
from .params import DEFAULT_TOL, DeformParams, EvalResult, Family, Tolerance

__all__ = [
    "evaluate",
    "evaluate_columns",
    "evaluate_lines",
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
# The float indices 0.._BLOCK_TERMS, read-only: a sum within them takes its indices as a view, not a new array
_INDICES = np.arange(_BLOCK_TERMS + 1.0)
_INDICES.flags.writeable = False

_LN2 = math.log(2.0)
_MIN_NORMAL = sys.float_info.min

# The one cut-off of direct summation.  A (q,k) point whose direct series needs at
# most _N0 terms, by the closed form of its geometric majorant, is summed directly
# (_qk_line).  Past _N0 it takes the Euler-Maclaurin route unless that route's
# lattice needs more than n _EM_M / _N0 direct terms for a direct count n: _EM_M
# lattice terms cost about as much as _N0 direct ones.  A psi_pq or psi_pq' sum of
# more than _N0 nonzero terms takes the lattice by the same rule's form (_pq_sum_line),
# and a ln Gamma_pq batch with more than _N0 nonzero factorial terms takes the lattice
# route (_pq_gamma_line).
_N0 = 1 << 10

# p is held here, the largest float, before it meets a float: past it every power q^n and
# q^(t+n) of ln Gamma_pq is 0.0, as is every q^(n t) and e^(-p a) of psi_pq and psi_pq' at
# t |ln q| >= 750 / _P_HOLD, so the held p gives the value of p (_pq_sum_line, _pq_gamma_line)
_P_HOLD = int(sys.float_info.max)

# psi_pq and psi_pq' past _N0 nonzero terms L take the lattice unless it needs more than L _PQ_EM_FRACTION
# direct (head) terms (_pq_sum_line).  Measured: the points the finite Lambert split of T = sqrt(Z) - t head
# terms shortened need at most 0.017 L (seeded sweeps of 9,700 points over p in [N0, 1e9], q in [0.5,
# 1 - 1e-9], t in [1e-3, 100]); p = 1500, q = 0.9999, t = 1 needs 0.18 L and stays direct.
_PQ_EM_FRACTION = 1.0 / 32.0
# and hold its truncation within this part of the value's size, far below its rounding
_FINITE_REL = 2.0 ** -60

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
# Each term function terms(m, *x, n) gives the terms of order m at the
# indices n of the row whose parameters are the floats x, or of the rows
# whose parameters are the columns x, each a (rows, 1) array or a float all
# rows share, as a (rows, len(n)) array; for a tuple m of orders, a list of
# one such array per order.  A block broadcasts the one-row arithmetic, so
# every element has the same bits either way.  (The function _head_terms
# returns takes x and n only.)


def _psi_terms(m, x, kl, n):
    """n^m q^(n t) / (1 - q^(n k)) at rows x = t ln q with their own kl = k ln q, for the order m, 0 (psi) or
    1 (psi'), or for each order of a tuple m.  exp(n x) and 1 - q^(n k) are formed once for all the orders;
    psi' divides n exp(n x) by the latter, so each order's terms have the bits of its own."""
    e, d = np.exp(n * x), -np.expm1(n * kl)
    if m == 0:
        return e / d
    if m == 1:
        return n * e / d
    return [n * e / d if order else e / d for order in m]


def _ln_gamma_qk_terms(m, x, k, ln_q, n):
    """ln(1 - q^(k + n k)) - ln(1 - q^(x + n k)), ln Gamma's one order m = 0, the numerator exponent written as
    k + n k so that t = k cancels bitwise."""
    return _ln1m_exp_terms((k + n * k) * ln_q) - _ln1m_exp_terms((x + n * k) * ln_q)


# Taylor coefficients, highest power first, of (1 - e^-z (1 + z)) / z^2 and (z - 1 + e^-z) / z^2 below
# z = 1, where the closed forms cancel, as pairs (A_j, B_j) of a (2, 1) column each, so that one Horner
# loop evaluates both on a stacked (2, n) array; the first term left out is below 2^-58 of each at z = 1
_HEAD_AB = np.array([[[(-1) ** k * (k - 1) / math.factorial(k)], [(-1) ** k / math.factorial(k)]]
                     for k in range(20, 1, -1)])
_HEAD_AB.flags.writeable = False


def _head_series(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(A(b) / b^2, B(a) / a^2) by Horner's rule, as np.polyval forms each (y = y z + c from y = 0, whose
    first step gives the leading coefficient exactly), both in one (2, n) array: every bit is np.polyval's."""
    z = np.stack((b, a))
    y = z * _HEAD_AB[0]
    for c in _HEAD_AB[1:-1]:
        y += c
        y *= z
    y += _HEAD_AB[-1]
    return y


def _head_terms(eps: float, p: int, prime: bool, scaled: bool = False):
    """sum_{n=1..p} x^n, or sum_{n=1..p} n x^n for psi', at x = q^(t+m) = e^-a, for one t and indices m.

    With b = p a, the psi term is (1 - e^-b) / (e^a - 1) and the psi' term (A(b) + p e^-b B(a)) e^-a /
    (1 - e^-a)^2, with A(b) = 1 - e^-b (1 + b) and B(a) = a - 1 + e^-a both positive, so neither part
    cancels the other as 1 - x^p - p x^p (1 - x) does.  Below b = 1 (so a < 1 too) A and B are b^2 and
    a^2 times their Taylor series (_head_series), and the term is p (p A(b)/b^2 + e^-b B(a)/a^2)
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
        k = int(np.count_nonzero(b < 1.0))  # b rises with m: its terms below b = 1 are a leading run
        if not k:
            return closed(a, b)
        ab, a0, b0 = _head_series(b[:k], a[:k]), a[:k], b[:k]
        series = (pf * (pf * ab[0] + np.exp(-b0) * ab[1])
                  * (a0 / np.expm1(a0)) * (a0 / -np.expm1(-a0)) * (eps * eps if scaled else 1.0))
        return np.concatenate((series, closed(a[k:], b[k:])))
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
        index = _INDICES[lo:hi] if 0 <= lo and hi <= _BLOCK_TERMS else np.arange(lo, hi, dtype=np.float64)
        return float(np.add.reduce(term_fn(index)))
    half = n // 2 - n // 2 % 8
    return pairwise_sum(term_fn, lo, lo + half) + pairwise_sum(term_fn, lo + half, hi)


def sum_terms(term_fn, n_first: int, n_last: int) -> float:
    """Sum the array term_fn(n) for integer n in [n_first, n_last], low index first.

    One CHUNK at a time, each built in blocks of at most _BLOCK_TERMS terms and reduced in
    numpy's pairwise order (pairwise_sum), the partials added by math.fsum (Shewchuk's
    error-free transformation), so the rounding error stays far below every certified tail bound.
    """
    if 0 <= n_last - n_first < CHUNK:  # one chunk, as most sums are: the fsum of one partial is it + 0.0
        return pairwise_sum(term_fn, n_first, n_last + 1) + 0.0
    partials = []
    for lo in range(n_first, n_last + 1, CHUNK):
        partials.append(pairwise_sum(term_fn, lo, min(lo + CHUNK, n_last + 1)))
    return math.fsum(partials)


# Rows from which _sum_rows plans blocks: planning a block costs about what summing four or five
# rows of a few dozen terms one by one does (20 us for four, 32 us for six, on a 2-vCPU Xeon).
_BLOCK_ROWS_MIN = 6


def _block_column(c: np.ndarray):
    """A line parameter c of a block's rows as a (rows, 1) column, or as one float where every row has its bits.

    A line's rows share its k ln q: as one float the block forms the terms that depend on it once per
    column, not once per row, with the same bits.  The first parameter, x, is each point's own.
    """
    bits = c.view(np.int64)
    return float(c[0]) if (bits == bits[0]).all() else c.reshape(-1, 1)


def _row_sums(terms, orders: tuple, x, n_first: int, last) -> tuple:
    """The sums of terms(orders, *x, n) over n = n_first..last of one row for a tuple of orders, one per order,
    each as sum_terms gives it; last holds each order's last index.

    The orders of a row that one block holds are formed by one call and
    each reduced over its own width; a wider row sums each order alone.
    """
    hi = max(last)
    if hi < n_first:  # no terms: its parameters are never used
        return (0.0,) * len(orders)
    if hi <= _BLOCK_TERMS and hi - n_first < _BLOCK_TERMS:
        blocks = terms(orders, *x, _INDICES[n_first:hi + 1])
        return tuple(float(np.add.reduce(b[:m - n_first + 1])) + 0.0 if m >= n_first else 0.0
                     for b, m in zip(blocks, last))
    return tuple(sum_terms(partial(terms, o, *x), n_first, m) for o, m in zip(orders, last))


def _reduce_rows(block: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """np.add.reduce of each row of block over its first widths terms, widest first: one call per run of rows of one
    width."""
    cuts = [0, *(np.flatnonzero(widths[1:] != widths[:-1]) + 1).tolist(), len(widths)]
    return np.concatenate([np.add.reduce(block[lo:hi, :widths[lo]], axis=1) for lo, hi in zip(cuts, cuts[1:])]) + 0.0


def _sum_rows(terms, orders, cols: tuple, n_first: int, lasts, cut=()) -> list:
    """Sum terms(orders, *x, n) over n = n_first..last for each row and order, its parameters x in cols and its
    own last, as sum_terms would: per order, the list of its rows' sums.  orders is one order, with lasts the
    list of each row's last index, or a tuple of orders, with lasts a tuple of one such list per order; cut:
    the indices of the rows that end short, at their last nonzero term, so that their terms past it underflow.

    Rows are sorted widest first, by the widest of their orders, and packed
    into blocks of at most _BLOCK_TERMS terms (rows times the widest row).
    A block's terms are built by one call for all the orders, a parameter
    its rows share passed as one float (_block_column), and each order's
    run of rows of one width, over that order's own widths, is reduced in
    one call.  Block rows are at most _BLOCK_TERMS wide, so each is the
    single block of its sum_terms; fsum returns that sum unchanged except
    that it reads -0.0 as 0.0, which adding 0.0 reproduces.  A block of rows
    of more than one width with a row that ends short forms its rows' terms
    past their last, which no sum reads, at n = n_first instead: numpy's exp
    takes about 16 times as long for a result that underflows.  Any other
    block has no such terms and skips that mask.  A row that fills a block
    alone, and every row of a batch of fewer than _BLOCK_ROWS_MIN, is summed
    by sum_terms (by _row_sums for a tuple of orders).  Rows that sum no
    terms are 0.0 and build none, so their
    parameters, which may be far outside the range of the others (t ln q
    near -1e308), are never used.
    """
    multi = isinstance(orders, tuple)
    if not multi and len(lasts) == 1:  # the one-point call
        return [[sum_terms(partial(terms, orders, *[c[0] for c in cols]), n_first, lasts[0])]]
    if len(lasts[0] if multi else lasts) < _BLOCK_ROWS_MIN:  # few rows: no blocks to plan
        if multi:
            return list(map(list, zip(*[_row_sums(terms, orders, x, n_first, last)
                                        for x, last in zip(zip(*cols), zip(*lasts))])))
        return [[sum_terms(partial(terms, orders, *x), n_first, last) for x, last in zip(zip(*cols), lasts)]]
    lasts = np.array(lasts, dtype=np.int64)
    wide = lasts.max(axis=0) if multi else lasts
    cols = [np.asarray(c, dtype=np.float64) for c in cols]
    if len(cut):
        short = np.zeros(len(wide), dtype=bool)
        short[cut] = True
    sums = np.zeros((len(orders) if multi else 1, len(wide)))
    order = np.argsort(-wide, kind="stable")  # widest first, rows of one width in order
    order = order[:np.count_nonzero(wide >= n_first)]  # the narrowest rows sum no terms
    k = 0
    while k < len(order):
        width = int(wide[order[k]]) - n_first + 1
        rows = order[k:k + max(1, _BLOCK_TERMS // width)]
        k += len(rows)
        if len(rows) == 1:
            r = int(rows[0])
            x = [float(c[r]) for c in cols]
            sums[:, r] = (_row_sums(terms, orders, x, n_first, lasts[:, r].tolist()) if multi
                          else sum_terms(partial(terms, orders, *x), n_first, int(lasts[r])))
            continue
        n = np.arange(n_first, n_first + width, dtype=np.float64)
        widths = wide[rows] - (n_first - 1)
        if len(cut) and widths[-1] < width and short[rows].any():  # rows of more than one width, one short
            n = np.where(n <= wide[rows].reshape(-1, 1), n, float(n_first))
        blocks = terms(orders, cols[0][rows].reshape(-1, 1), *map(_block_column, (c[rows] for c in cols[1:])), n)
        if not multi:
            sums[0, rows] = _reduce_rows(blocks, widths)
            continue
        for j, block in enumerate(blocks):  # each order over its own widths, in their order
            own = lasts[j, rows] - (n_first - 1)
            if (own[1:] > own[:-1]).any():
                by = np.argsort(-own, kind="stable")
                sums[j, rows[by]] = _reduce_rows(block[by], own[by])
            else:
                sums[j, rows] = _reduce_rows(block, own)
    return sums.tolist()


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


def _em_rows(s: int) -> tuple:
    """The corrections of an order s Euler-Maclaurin closure (_em_closure) as (first _EM_P, the rest up to _P_MAX):
    per correction j (B_2j/(2j)!, the first coefficient of the row A_(2j-1-s), the others), for Horner's rule from
    that coefficient.  A row's first step from 0.0, 0.0 z + c, is c exactly at z = e^-y in [0, 1]."""
    rows = tuple((_BERNOULLI[j], _EULERIAN[2 * j + 1 - s][0], _EULERIAN[2 * j + 1 - s][1:]) for j in range(_P_MAX))
    return rows[:_EM_P], rows[_EM_P:]


_EM_ROWS = {s: _em_rows(s) for s in (1, 0, -1)}
# _li2_series' coefficients B_2j / (2j+1)!, highest j first
_LI2_COEFFS = tuple(_BERNOULLI[j - 1] / (2 * j + 1) for j in range(_EM_P, 0, -1))


def _li2_series(u: float) -> float:
    """Li_2(x) from u = -ln(1-x) <= ln 2: u - u^2/4 + sum_j B_2j u^(2j+1) / (2j+1)!."""
    u2 = u * u
    acc = 0.0
    for c in _LI2_COEFFS:
        acc = acc * u2 + c
    return u - 0.25 * u2 + u * u2 * acc


def _em_closure(s: int, y: float, h: float, share: float) -> tuple:
    """(closure, remainder bound, units, P, corrections) of sum_{m>=0} f(y + m h) for f(x) = Li_s(e^-x), s = 1, 0
    or -1.

    The closure is the integral Li_(s+1)(e^-y) / h less units pi^2/(6h), the
    half end term and the corrections B_2j/(2j)! h^(2j-1) Li_(s-2j+1)(e^-y)
    for j = 1..P (DLMF 2.10.1 with f^(2j-1) = -Li_(s-2j+1)(e^-x)), whose sum
    is returned too.  f is completely monotone, so f^(2P) keeps one sign and
    the remainder after P corrections is at most the size of the last one,
    |B_2P|/(2P)! h^(2P-1) |f^(2P-1)(y)|.  P is _EM_P, and grows to at most
    _P_MAX while that bound is above share and the (divergent) corrections
    still fall.  Each correction is z A_(2j-1-s)(z) r^(2j-1) / w^(1-s), z =
    e^-y, w = 1 - z, r = h / w, its Eulerian polynomial by Horner's rule over
    its row of _EM_ROWS.  For s <= 0 the half end term's Li_s(z) = z / w^(1-s)
    is that scale itself (A_0 = A_1 = 1) and the integral's Li_(s+1) is
    -ln w (ln1m_exp's rule) or z / w.
    Li_2(z) is summed in u = -ln(1-z) up to z = 1/2; above, by the
    reflection Li_2(z) = pi^2/6 - ln z ln(1-z) - Li_2(1-z) (DLMF 25.12.6)
    without its pi^2/6, which units = 1 counts, so that two sums near y = 0
    leave their largest part to an exact cancellation (_em_lattice).
    """
    z, w = math.exp(-y), -math.expm1(-y)
    r = h / w  # h^(2j-1) Li_(s-2j+1)(z) = z A_(2j-1-s)(z) r^(2j-1) / w^(1-s)
    r2 = r * r
    scale = z / w ** (1 - s)
    first, growth = _EM_ROWS[s]
    corrections, power = 0.0, r
    for b, poly, row in first:
        for c in row:
            poly = poly * z + c
        last = b * poly * power
        corrections += last
        power *= r2
    p = _EM_P
    if abs(last) * scale > share:
        for b, poly, row in growth:
            for c in row:
                poly = poly * z + c
            term = b * poly * power
            if abs(term) >= abs(last):
                break
            corrections += term
            last, p = term, p + 1
            if not abs(last) * scale > share:
                break
            power *= r2
    units = 0
    if s == 1:
        half = 0.5 * -(math.log(w) if y < _LN2 else math.log1p(-z))  # Li_1(z) = -ln(1 - e^-y), by ln1m_exp
        if z <= 0.5:
            integral = _li2_series(-math.log1p(-z))
        else:  # -ln(1 - (1-z)) = y
            integral, units = y * math.log(w) - _li2_series(y), 1
    else:
        half = 0.5 * scale
        integral = -(math.log(w) if y < _LN2 else math.log1p(-z)) if s == 0 else z / w
    corrections *= scale
    return integral / h + half + corrections, abs(last) * scale, units, p, corrections


def _li2_drop(y: float, d: float, z: float, w: float, share: float) -> tuple:
    """(Li_2(z) - Li_2(z e^-d), remainder bound, terms) at z = e^-y, w = 1 - z, for 0 < d <= y / 8.

    The Taylor series sum_{j>=1} (-1)^(j+1) d^j/j! Li_(2-j)(z) (DLMF 25.12.ii,
    d/dy Li_s(e^-y) = -Li_(s-1)(e^-y)): d Li_1(z), then the terms d z (-r)^(j-1)
    A_(j-2)(z) / j!, r = d / w, which fall about like (d / y)^j.  Li_(1-j)(e^-x)
    falls as x grows, so the remainder after j terms is at most the size of term
    j + 1 (Lagrange's form); the terms are summed until that is within share, or
    the Eulerian table ends.
    """
    drop, coeff, r = d * -(math.log(w) if y < _LN2 else math.log1p(-z)), d * z, d / w
    for j in range(2, len(_EULERIAN) + 2):
        coeff *= -r / j
        poly = 0.0
        for c in _EULERIAN[j - 2]:
            poly = poly * z + c
        term = coeff * poly
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
    r2, far, power = r_d * r_d, 0.0, r_d
    first, growth = _EM_ROWS[1]
    for b, poly, row in (first + growth)[:p]:  # the corrections at y + d, s = 1
        for c in row:
            poly = poly * z_d + c
        far += b * poly * power
        power *= r2
    drop, drop_bound, n = _li2_drop(y, d, z, w, share * h)
    half = 0.5 * math.log1p(z * -math.expm1(-d) / w)  # F(y) = ln((1 - e^-(y+d)) / (1 - e^-y))
    return drop / h + half + (corrections - far * z_d), bound + drop_bound / h, p, 1 + 2 * p + n


def _lambert_drop(s: int, y: float, h: float, pf: float) -> tuple:
    """(bound, c) for the part sum_{m>=0} x_m^p (Li_0, or Li_-1 + p Li_0)(x_m), x_m = e^-(y + m h), p = pf,
    that the finite Lambert series leaves out of S_s(y): each term is x_m^(p+1) times 1 / (1 - x_m), or
    (1 / (1 - x_m) + p) / (1 - x_m), which is largest at m = 0, so the part is at most e^-((p+1) y) c with
    c that factor at m = 0 over 1 - e^-((p+1) h)."""
    e = math.exp(-(pf + 1.0) * y)
    if e == 0.0:  # p y past the floats' exponents: c may be inf there
        return 0.0, 0.0
    w = -math.expm1(-y)
    c = (1.0 / w if s == 0 else (1.0 / w + pf) / w) / -math.expm1(-(pf + 1.0) * h)
    return e * c, c


def _em_lattice(s: int, pairs: tuple, h: float, lead: float, scale: float, tol: Tolerance,
                m_cap: float = math.inf, paired: tuple | None = None, finite: tuple | None = None) -> EvalResult | None:
    """lead + scale * (the sum over pairs of S(a) - S(b), or S(a) for a pair (a,), plus S(c) - S(c + d)
    for paired = (c, d), s = 1), by Euler-Maclaurin; or, for finite = (p, t) and the one pair (eps t,),
    s = 0 or -1, h = eps, lead + scale * F(t), the finite Lambert series of psi_pq or psi_pq'.

    S(a) is the infinite sum of f(y) = Li_s(e^-y) over y = a + m h, m >= 0:
    M terms directly, closed by _em_closure at a + M h, its bound held to a
    share of abs_tol: abs_tol / (_SAFETY |scale| times the number of bounds).
    Each pair is differenced before the pairs are added, and then gets back
    the pi^2/(6h) units its closures left out, as their difference times
    pi^2/(6h).  The paired difference is formed term by term instead, so it
    loses no digits where S(c) and S(c + d) are large and close: M terms
    F(c + m h), closed by _em_pair_closure, two bounds; where
    the whole difference, at most S(c) <= e^-c / ((1 - e^-c)(1 - e^-h)), is
    within a share, it is left out and that bound goes in the tail.  M
    starts at _EM_M and grows until tail, the closures' bounds times |scale|
    and _SAFETY, is within abs_tol; None, before any term is summed, where
    it would grow past m_cap.  terms_used, M + 2 + P per sum and M plus the
    pair closure's terms for the paired difference, is capped by n_max.  A
    value that is not finite raises TruncationNotConverged.
    F(t)'s first M lattice terms are its closed-form head terms (_head_terms),
    each S_s's term less its x^p part; past M that part is left out, its
    bound (_lambert_drop) one more share in the tail, and M first grows to
    the closed form of the lattice index where it is within its share.  Its
    shares are held within _FINITE_REL of a lower bound of the value's size
    too.  A value that passes the floats is summed again with the scale in
    its head terms, and refused only if it still does.
    """
    starts = [a for pair in pairs for a in pair]
    share = tol.abs_tol / (_SAFETY * abs(scale) * (len(starts) + (2 if paired else 0) + (1 if finite else 0)))
    if finite:  # within 2^-60 of the value's size too: F is at least its first lattice term, times 1/h for psi'
        a = max(starts[0], math.ulp(0.0))
        first = -math.expm1(-min(finite[0] * a, 750.0)) / math.expm1(a) * (max(1.0, 1.0 / h) if s < 0 else 1.0)
        share = min(share, _FINITE_REL * (abs(lead) / abs(scale) + first) / 2.0)
    dropped = 0.0
    if paired:
        c, d = paired
        whole = math.exp(-c) / (-math.expm1(-c) * -math.expm1(-h))
        if whole <= share:
            paired, dropped = None, whole
    m = _EM_M
    while True:
        if finite:
            drop, coeff = _lambert_drop(s, starts[0] + m * h, h, float(finite[0]))
            if drop > share:  # past y = ln(c / share) / (p + 1) the dropped part is within its share (c falls in y)
                need = (math.log(coeff / share) / (float(finite[0]) + 1.0) - starts[0]) / h if share > 0.0 else math.inf
                if need > m_cap:
                    return None
                if need > tol.n_max:  # inf where share underflows or c / share overflows
                    raise TruncationNotConverged(f"Euler-Maclaurin route needs more than {tol.n_max} terms, past its cap",
                                                 _SAFETY * abs(scale) * drop, tol.n_max)
                m = max(m + 1, math.ceil(need))
                continue
            dropped = drop
        closures, terms, tail = {}, 0, 0  # a loop: three comprehensions cost about 1.5 us a call
        for a in starts:
            closures[a] = closure = _em_closure(s, a + m * h, h, share)
            terms, tail = terms + m + 2 + closure[3], tail + closure[1]
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
        if finite:  # the first m lattice terms of the finite series, in closed form
            with np.errstate(over="ignore", divide="ignore"):  # past the floats only unscaled: re-summed below
                direct = sum_terms(partial(_head_terms(h, finite[0], s < 0), finite[1]), 0, m - 1)
        else:  # Li_s(e^-y) = -ln(1 - e^-y) by ln1m_exp's rule, z / w or z / w^2 (z = e^-y, w = 1 - z)
            direct = 0.0
            if s == 1:
                for i in range(m):
                    y = a + i * h
                    direct -= math.log(-math.expm1(-y)) if y < _LN2 else math.log1p(-math.exp(-y))
            elif s == 0:
                for i in range(m):
                    y = a + i * h
                    direct += math.exp(-y) / -math.expm1(-y)
            else:
                for i in range(m):
                    y = a + i * h
                    direct += math.exp(-y) / (-math.expm1(-y)) ** 2
        sums[a] = direct + closure, units
    total = 0.0
    for pair in pairs:
        near, near_units = sums[pair[0]]
        far, far_units = sums[pair[1]] if len(pair) == 2 else (0.0, 0)
        total += near - far + (near_units - far_units) * _PI2_6 / h
    if paired:
        one_minus_e_d, direct = -math.expm1(-d), 0.0
        for i in range(m):  # F(y) = ln((1 - e^-(y+d)) / (1 - e^-y)), without cancellation
            y = c + i * h
            direct += math.log1p(math.exp(-y) * one_minus_e_d / -math.expm1(-y))
        total += direct + pair_closure[0]
    value = lead + scale * total
    if finite and not math.isfinite(value):  # the head sum may pass the floats before its scale only
        with np.errstate(over="ignore", divide="ignore"):
            direct = sum_terms(partial(_head_terms(h, finite[0], s < 0, scaled=True), finite[1]), 0, m - 1)
        value = lead + (direct + scale * closures[starts[0]][0])
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
    (None where it needs more than m_cap direct lattice terms).  Where the
    first lattice term Li_s(e^-eps t) = z / w^(1-s), z = q^t, w = 1 - z,
    overflows or its divisor w^(1-s) underflows (eps t near or below the
    subnormals), its scaled value goes in the lead instead, to within about
    eps t relative, and the lattice starts at eps (t + k): -1/t for psi and
    (1/t)^2 for psi', formed so because t^2 is subnormal there.  Raises
    TruncationNotConverged where psi's w is 0.0 or psi''s (1/t)^2 overflows.
    """
    q, k = params.q, params.k
    eps = -math.log(q)
    if fn == "ln-gamma":  # at t = k the two sums are the same bits, so ln Gamma(k) is 0.0
        return _em_lattice(1, ((eps * t, eps * k),), eps * k, _qk_gamma_lead(t, k, math.log1p(-q)), 1.0, tol, m_cap)
    y = eps * t
    z, w = math.exp(-y), -math.expm1(-y)
    if fn == "psi":
        lead = -math.log1p(-q) / k
        if w == 0.0:
            raise TruncationNotConverged(f"psi at t={t!r}: (1 - q^t)^1 underflows", math.inf, 0)
        if math.isinf(z / w):
            # 1/(e^y - 1) overflows at the subnormal y = eps t; the scaled term -eps/(e^y - 1) goes in
            # the lead as -1/t, its value to within y relative, which keeps the digits y has lost
            lead, y = lead - 1.0 / t, eps * (t + k)
        return _em_lattice(0, ((y,),), eps * k, lead, -eps, tol, m_cap)
    lead, first = 0.0, w ** 2
    if first == 0.0 or math.isinf(z / first):
        # eps^2 Li_-1(e^-y) = 1/t^2 - eps^2/12 + ..., so (1/t)^2 is its value to within (eps t)^2 relative
        inv = 1.0 / t
        lead, y = inv * inv, eps * (t + k)
        if math.isinf(lead):
            raise TruncationNotConverged(f"psi-prime at t={t!r}: 1/t^2 overflows a double", math.inf, 0)
    return _em_lattice(-1, ((y,),), eps * k, lead, eps * eps, tol, m_cap)


# -- batch kernels ----------------------------------------------------------
# A point on the direct route gets no tuple or result object: it appends the
# row of its sum (the parameters of its terms and its last term) to the
# batch's rows, which _batch sums together.


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


def _majorant(fn: str, ln_q: float, ln_s: float, one_minus_qk: float, exp=math.exp):
    """tail_at(n, ln_r, one_minus_r): the direct-route majorant of fn's terms after the n-th, at r = q^t.

    The arguments may be arrays, one element per point, with exp = _exps: every element has the bits of the floats.
    """
    if fn == "ln-gamma":  # both product tails after N factor pairs
        return lambda n, ln_r, one_minus_r: _SAFETY * (exp((n + 1) * ln_s) / (one_minus_qk * one_minus_qk)
                                                       + exp(ln_r + n * ln_s) / (one_minus_r * one_minus_qk))
    if fn == "psi-prime":
        # (ln q)^2 / (1-q^k) * sum_{m>N} m r^m = coeff r^(N+1) ((N+1)(1-r) + r) / (1-r)^2
        coeff = _SAFETY * ln_q * ln_q / one_minus_qk
        return lambda n, ln_r, one_minus_r: (coeff * exp((n + 1) * ln_r) * ((n + 1) * one_minus_r
                                             + exp(ln_r)) / (one_minus_r * one_minus_r))
    coeff = _SAFETY * -ln_q
    return lambda n, ln_r, one_minus_r: coeff / (one_minus_qk * one_minus_r) * exp((n + 1) * ln_r)


def _mapped(fn, a: np.ndarray) -> np.ndarray:
    """math's fn at every element of a: numpy's SIMD exp, expm1 and log differ from it in the last place."""
    return np.fromiter(map(fn, a.tolist()), dtype=np.float64, count=len(a))


_exps = partial(_mapped, math.exp)


def psi_qk_direct_count(t: float, params: DeformParams, tol: Tolerance = DEFAULT_TOL) -> tuple:
    """(N, tail) of the direct psi_qk series at t, summing nothing.

    N is the closed-form term count of the geometric majorant (inf past any
    float) and tail the majorant after N terms; (0, 0.0) when every term
    underflows.  Where psi_qk sums the direct series these are its terms_used
    and tail_bound but for a rare widening by one rounding: at N <= N0, and
    past N0 where the Euler-Maclaurin lattice would need more than N _EM_M /
    N0 terms (_qk_line).  Elsewhere N is the count the direct series would
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


def _qk_line(fn, params: DeformParams, ts, tol: Tolerance, cols: tuple, lasts: list):
    """fn ("psi", "psi-prime" or "ln-gamma", or a tuple of psi orders such as ("psi", "psi-prime")) of the (q,k)
    family at every t of one line, t by t in order, the orders of a tuple in one pass.

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
    _series_ratio, once for all the orders of a tuple; each order then takes
    its own count, majorant and route.

    Returns ((values, tails, terms, rows, scale), refusal), and for a tuple
    one such pair per order.  A point that an order sums directly appends
    one row to the batch's: the parameters of its terms to cols and its last
    index to lasts, for a tuple to each order's list in the tuple lasts (0,
    no terms, for an order that does not sum it there).  An order's rows list, per row
    of the line, the index of its point, or None where that order takes no
    terms from it; each such point's value, its lead here, becomes lead +
    scale * its sum (_line_finish).  refusal is the error of the order's
    first t that cannot be evaluated, or None: a t that fails the checks
    refuses every order still routing, and an order's own count, lattice or
    lead refuses that order alone, which routes no further points.  The rows
    before a refusal are kept.
    """
    single = isinstance(fn, str)
    fns = (fn,) if single else fn
    q, k = params.q, params.k
    ln_q = math.log(q)
    ln_s = k * ln_q
    one_minus_qk = -math.expm1(ln_s)
    ln1mq = math.log1p(-q)
    gamma = fns[0] == "ln-gamma"
    # ln Gamma's count, the same at every t, from the numerator tail's geometric part held to abs_tol / 2
    count = geometric_count(2.0 / (one_minus_qk * one_minus_qk), ln_s, tol.abs_tol) if gamma else None
    if gamma:
        # ln Gamma's shifted terms ln(1 - q^(x + n k)) are formed at x = min(t, t_cap): past t_cap the power
        # is 0 at t_cap as at t, so every term keeps its bits, and (t + n k) ln q, which would overflow with
        # a numpy warning on stderr, is never formed
        t_cap = sys.float_info.max / (2.0 * -ln_q)
        add_x, add_k, add_ln_q = cols[0].append, cols[1].append, cols[2].append
    else:
        add_x, add_kl = cols[0].append, cols[1].append
    orders = []  # per order [fn, psi', coeff, lead, majorant, its columns, its lasts, its line [state, refusal]]
    for j, f in enumerate(fns):
        prime = f == "psi-prime"
        # psi' sums are nonnegative, so adding its 0.0 lead changes no bit
        lead, scale = (None, 1.0) if gamma else ((0.0, ln_q * ln_q) if prime else (-ln1mq / k, ln_q))
        # the coefficient of the geometric part is coeff / ((1-q^k)(1-r)) for psi, coeff / (1-r) for psi'
        coeff = _SAFETY * ln_q * ln_q / one_minus_qk if prime else _SAFETY * -ln_q
        values, tails, terms, rows = [], [], [], []
        orders.append([f, prime, coeff, lead, None, values, tails, terms, rows, lasts if single else lasts[j],
                       [(values, tails, terms, rows, scale), None]])
    live = orders
    for i, t in enumerate(ts):
        try:
            if gamma:
                t = _check_ln_gamma_t(t, ln_q)
                ln_r, one_minus_r = t * ln_q, -math.expm1(t * ln_q)
            else:
                t = _check_t(t)
                ln_r, one_minus_r = _series_ratio(t, ln_q)
        except QDigammaError as exc:
            for o in live:
                o[-1][1] = exc
            break
        row = refused = False
        for o in live:
            f, prime, coeff, lead, tail_at, values, tails, terms, rows, o_lasts, line = o
            if one_minus_r is None:  # every term underflows: the limit value is exact
                values.append(lead), tails.append(0.0), terms.append(0)
                last = 0
            else:
                try:
                    found = res = None
                    if one_minus_qk * one_minus_r >= _MIN_NORMAL:
                        n = count if gamma else geometric_count(
                            coeff / one_minus_r if prime else coeff / (one_minus_qk * one_minus_r), ln_r, tol.abs_tol)
                        # the lattice goes first, its cost capped at that of n direct terms; uncapped past n_max
                        if n > _N0:
                            res = _em_qk(f, params, t, tol, n * _EM_M / _N0 if n <= tol.n_max else math.inf)
                        if res is None:
                            tail_at = o[4] = tail_at or _majorant(f, ln_q, ln_s, one_minus_qk)
                            n = min(tol.n_max, n)
                            found = n, tail_at(n, ln_r, one_minus_r)
                            if found[1] > tol.abs_tol:  # widen, over the points still above abs_tol only
                                found = geometric_terms_needed(lambda m: tail_at(m, ln_r, one_minus_r), *found,
                                                               ln_s if gamma else ln_r, tol)
                    if found is None:
                        res = res or _em_qk(f, params, t, tol)
                        values.append(res.value), tails.append(res.tail_bound), terms.append(res.terms_used)
                        continue
                    if gamma:
                        lead = _qk_gamma_lead(t, k, ln1mq)
                        if not math.isfinite(lead):
                            raise _lead_refusal(t)
                except QDigammaError as exc:
                    line[1], refused = exc, True
                    continue
                values.append(lead), tails.append(found[1]), terms.append(found[0])
                last = found[0] - 1 if gamma else found[0]  # ln Gamma's N factor pairs are its terms n = 0..N-1
            if not row:  # the first order that sums point i makes its row
                row = len(o_lasts) + 1  # the rows of each order once it is made
                if gamma:
                    add_x(min(t, t_cap)), add_k(k), add_ln_q(ln_q)
                else:
                    add_x(ln_r), add_kl(ln_s)
            o_lasts.append(last), rows.append(i)
        if row and not single:
            _pad_row(orders, row)
        if refused:
            live = [o for o in live if o[-1][1] is None]
            if not live:
                break
    return orders[0][-1] if single else (orders[0][-1], orders[1][-1])


def _pad_row(orders: list, made: int) -> None:
    """Give the row just made, the made-th of the batch, the last index 0 (no terms) and no point in each order
    that does not sum it.  An order is [..., its rows, its lasts, its line]."""
    for o in orders:
        if len(o[-2]) < made:
            o[-2].append(0), o[-3].append(None)


def _line_finish(state: tuple, refusal, sums: list):
    """The columns of an order's line routed by _qk_line or _pq_sum_line, from its rows' sums, or its refusal."""
    values, tails, terms, rows, scale = state
    if rows and not refusal:  # a line on the lattice has none, and an empty zip costs as much as the rest
        for i, s in zip(rows, sums):
            if i is not None:
                values[i] += scale * s
    return refusal or (values, tails, terms)


# Points per (q,k) batch from which the direct route is decided by array expressions over the batch's
# column (_qk_direct) rather than t by t (_qk_line): the measured costs per point (module docstring)
# cross between 64 and 100 points for all three functions.
_ARRAY_MIN = 96


def _qk_direct(fns: tuple, c: dict, t: np.ndarray, tol: Tolerance) -> tuple:
    """The direct route of _qk_line's rule for the functions fns as array expressions over a column t of
    checked-type floats.

    c holds the line constants of every point (ln_q, ln_s, omqk, and k,
    ln1mq and count for ln Gamma).  Returns (plain, x, ns, tails, lead):
    plain marks the points that every order of fns sums directly, for each
    of which x is the parameter of its terms, and per order ns its count (0
    where psi sums no terms) and tails its majorant; lead (for ln Gamma) is
    the lead of its value.  Every other point, a refused one or one whose
    count, widening or lead leaves the common case for some order, is routed
    by _qk_line.  Logs and exps are math's, so every element has the bits of
    _qk_line's.
    """
    gamma = fns[0] == "ln-gamma"
    ln_q, ln_s, omqk = c["ln_q"], c["ln_s"], c["omqk"]
    with np.errstate(all="ignore"):  # the refused points keep whatever the floats give
        ok = (t > 0.0) & (t < math.inf)
        ln_r = t * ln_q
        if gamma:
            ok &= -t * ln_q >= _MIN_NORMAL
        omr = -_mapped(math.expm1, np.where(ok, ln_r, -1.0))
        zero = np.zeros(len(t), dtype=bool)  # psi's points whose terms all underflow
        if not gamma:
            low = np.flatnonzero(ok & (ln_r < -700.0))
            zero[low] = [math.exp(x) == 0.0 for x in ln_r[low].tolist()]
            ok &= zero | (omr > 0.0)
        plain = ok & (zero | (omqk * omr >= _MIN_NORMAL))
        step = ln_s if gamma else ln_r
        ns, tails = [], []
        for fn in fns:
            if gamma:
                n = c["count"]
            else:
                prime = fn == "psi-prime"
                coeff = _SAFETY * ln_q * ln_q / omqk if prime else _SAFETY * -ln_q
                ratio = tol.abs_tol / (coeff / omr if prime else coeff / (omqk * omr))
                counted = plain & ~zero & (ratio > 0.0) & (ratio < math.inf)
                n = _mapped(math.log, np.where(counted, ratio, 1.0)) / ln_r
                n = np.where(counted & np.isfinite(n), np.maximum(1.0, np.ceil(n) - 1.0), math.inf)
            plain &= zero | (n <= _N0)
            n = np.where(zero, 0.0, np.minimum(float(tol.n_max), n))
            tail = np.zeros(len(t))

            def majorant(w):
                return _majorant(fn, ln_q[w], ln_s[w], omqk[w], _exps)(n[w], ln_r[w], omr[w])
            w = np.flatnonzero(plain & ~zero)
            tail[w] = majorant(w)
            w = w[tail[w] > tol.abs_tol]
            while w.size:  # geometric_terms_needed's widening, over the points still above abs_tol only
                over = tail[w] / tol.abs_tol
                grow = _mapped(math.log, np.where(np.isfinite(over), over, 1.0)) / -step[w]
                stuck = ~np.isfinite(over) | (n[w] >= tol.n_max) | ~np.isfinite(grow)
                plain[w[stuck]] = False
                w, grow = w[~stuck], grow[~stuck]
                n[w] = np.minimum(float(tol.n_max), n[w] + np.maximum(1.0, np.ceil(grow)))
                tail[w] = majorant(w)
                w = w[tail[w] > tol.abs_tol]
            ns.append(n), tails.append(tail)
        if not gamma:
            return plain, ln_r, ns, tails, None
        lead = -(t / c["k"] - 1.0) * c["ln1mq"]
        plain &= np.isfinite(lead)  # _qk_gamma_lead's other form, or the refusal
        return plain, np.minimum(t, sys.float_info.max / (2.0 * -ln_q)), ns, tails, lead


def _qk_array_lines(fn, lines: list, tol: Tolerance, cols: tuple, lasts: list) -> list | None:
    """_qk_line at every line of a batch of at least _ARRAY_MIN points, as _batch routes them, or None.

    _qk_direct decides the direct route in chunks of _BLOCK_TERMS points;
    each line gets the points that every order sums directly, in order, and
    then its other points through _qk_line, so it has the columns and
    refusals _qk_line gives it.
    """
    if not ((len(lines) > 1 or len(lines[0][1]) >= _ARRAY_MIN) and tol.n_max < 1 << 53
            and sum(len(ts) for _, ts in lines) >= _ARRAY_MIN):
        return None
    try:
        t_all = np.array([t for _, ts in lines for t in ts], dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # a t that is not a float: refused t by t
        return None
    fns = (fn,) if isinstance(fn, str) else fn
    gamma = fns[0] == "ln-gamma"
    qs, ks = (np.array([getattr(params, a) for params, _ in lines]) for a in ("q", "k"))
    ln_q = _mapped(math.log, qs)
    ln_s = ks * ln_q
    omqk = -_mapped(math.expm1, ln_s)
    ln1mq = _mapped(math.log1p, -qs)
    consts = {"ln_q": ln_q, "ln_s": ln_s, "omqk": omqk}
    if gamma:
        consts.update(k=ks, ln1mq=ln1mq, count=np.array(
            [geometric_count(2.0 / (o * o), x, tol.abs_tol) for o, x in zip(omqk.tolist(), ln_s.tolist())],
            dtype=np.float64))
        line_leads, scales = None, [[1.0] * len(lines)]
    else:  # per order, each line's lead and scale
        line_leads = [np.zeros(len(lines)) if f == "psi-prime" else -ln1mq / ks for f in fns]
        scales = [(ln_q * ln_q if f == "psi-prime" else ln_q).tolist() for f in fns]
    sizes = [len(ts) for _, ts in lines]
    line_of = np.repeat(np.arange(len(lines)), sizes)
    plain, x = np.empty(len(t_all), dtype=bool), np.empty(len(t_all))
    ns, tails = [np.empty(len(t_all)) for _ in fns], [np.empty(len(t_all)) for _ in fns]
    lead = np.empty(len(t_all)) if gamma else None
    for a in range(0, len(t_all), _BLOCK_TERMS):
        b = min(len(t_all), a + _BLOCK_TERMS)
        idx = line_of[a:b]
        part = _qk_direct(fns, {key: v[idx] for key, v in consts.items()}, t_all[a:b], tol)
        plain[a:b], x[a:b] = part[:2]
        for whole, chunk in zip(ns + tails, part[2] + part[3]):
            whole[a:b] = chunk
        if gamma:
            lead[a:b] = part[4]
    # each line's slices of the columns, as lists: a line of one or two points costs no numpy call
    counts = [np.where(plain, n, 0.0).astype(np.int64) for n in ns]
    plain, x, tails = plain.tolist(), x.tolist(), [tail.tolist() for tail in tails]
    terms_all = [c.tolist() for c in counts]
    lasts_all = [(c - 1 if gamma else c).tolist() for c in counts]
    # per order each point's value until its sum arrives (_line_finish): its lead
    values_all = [lead.tolist()] if gamma else [np.repeat(leads, sizes).tolist() for leads in line_leads]
    ks, ln_q, ln_s = ks.tolist(), ln_q.tolist(), ln_s.tolist()
    multi = len(fns) > 1
    out, a, rows_at = [], 0, lasts[0] if multi else lasts
    for i, ((params, ts), size) in enumerate(zip(lines, sizes)):
        b, start = a + size, len(rows_at)
        on = plain[a:b]
        rows = list(compress(range(size), on))
        cols[0].extend(compress(x[a:b], on))
        if multi:
            for whole, part in zip(lasts, lasts_all):
                whole.extend(compress(part[a:b], on))
        else:
            lasts.extend(compress(lasts_all[0][a:b], on))
        if gamma:
            cols[1].extend([ks[i]] * len(rows)), cols[2].extend([ln_q[i]] * len(rows))
        else:
            cols[1].extend([ln_s[i]] * len(rows))
        # per order [state, refusal]
        line = [[(values_all[o][a:b], tails[o][a:b], terms_all[o][a:b], rows[:] if o else rows, scales[o][i]), None]
                for o in range(len(fns))] if multi else [(values_all[0][a:b], tails[0][a:b], terms_all[0][a:b], rows,
                                                           scales[0][i]), None]
        if len(rows) < size:  # the other points, t by t
            others = list(compress(range(size), map(not_, on)))
            _merge_others(_qk_line(fn, params, [ts[j] for j in others], tol, cols, lasts), line, others, multi)
        out.append((start, line, len(rows_at)))
        a = b
    return out


def _merge_others(routed, line, others: list, multi: bool) -> None:
    """Put the columns, rows and refusal that the loop routed for a line's points others (routed, as _qk_line
    returns them) into line, the line's [state, refusal] as the array route made it, per order for multi."""
    for (state, refusal), mine in zip(routed, line) if multi else ((routed, line),):
        values, tails, terms, rows, _ = mine[0]
        for j, v, tl, tm in zip(others, *state[:3]):
            values[j], tails[j], terms[j] = v, tl, tm
        rows += [None if r is None else others[r] for r in state[3]]
        mine[1] = refusal


def _capped(n: int, tol: Tolerance) -> TruncationNotConverged:
    return TruncationNotConverged(f"finite sum needs {n} terms, past the cap of {tol.n_max} terms", math.inf, tol.n_max)


def _pq_sum_line(fn, params: DeformParams, ts, tol: Tolerance, cols: tuple, lasts: list):
    """Route one psi or psi' (p,q) line, or both for a tuple of psi orders, in t order, by the rule of _qk_line:
    (state, refusal) for one function and one such pair per order for a tuple, as _qk_line returns them, with
    the index of each direct row that ends short of p in cols[2].

    A point whose plain sum has its last nonzero term L past N0 takes the
    lattice (_em_lattice, the finite Lambert series) unless that needs more
    than L _PQ_EM_FRACTION direct lattice terms; uncapped past n_max.  Every
    other point appends the row of its plain sum to cols (x, ln q) and its L
    to lasts, for a tuple to each order's list: the t check, the hold of p
    and L are the same for every order, so a point is routed once, and only
    a lattice, tried per order, can set one order's point apart (the row is
    then None in that order's rows).  p is held at _P_HOLD; refusal is the
    error of the order's first t that cannot be evaluated, or None, and the
    rows before it are kept.
    """
    p = min(params.p, _P_HOLD)  # the held p gives the value of params.p, or psi refuses t below
    ln_q = math.log(params.q)
    eps = -ln_q
    add_x, add_ln_q, add_short = cols[0].append, cols[1].append, cols[2].append
    single = isinstance(fn, str)
    orders = []  # per order (s, lead, scale, values, tails, terms, rows, its line [state, refusal])
    for f in (fn,) if single else fn:
        s, lead, scale = (-1, 0.0, ln_q * ln_q) if f == "psi-prime" else (0, ln_q_bracket(p, ln_q), ln_q)
        values, tails, terms, rows = [], [], [], []
        orders.append((s, lead, scale, values, tails, terms, rows, [(values, tails, terms, rows, scale), None]))
    live, rows_at, made = orders, lasts if single else lasts[0], 0
    for i, t in enumerate(ts):
        try:
            t = _check_t(t)
            x = t * ln_q
            if params.p > p and x * p > -750.0:  # e^(-p a) of a head, or q^(p t), may be nonzero at p
                raise TruncationNotConverged(f"p past the largest float at t={t!r}", math.inf, 0)
            last = _last_nonzero(0.0, x, 1, p)
            if tol.n_max < last <= _N0:
                raise _capped(last, tol)
        except QDigammaError as exc:
            for o in live:
                o[-1][1] = exc
            break
        row = refused = False
        for s, lead, scale, values, tails, terms, rows, line in live:
            if last > _N0:  # the lattice goes first, its cost capped at L _PQ_EM_FRACTION terms; uncapped past n_max
                try:
                    res = _em_lattice(s, ((eps * t,),), eps, lead, scale, tol,
                                      last * _PQ_EM_FRACTION if last <= tol.n_max else math.inf, finite=(p, t))
                    if res is None and last > tol.n_max:
                        raise _capped(last, tol)
                except QDigammaError as exc:
                    line[1] = refused = exc
                    continue
                if res is not None:
                    values.append(res.value), tails.append(res.tail_bound), terms.append(res.terms_used)
                    continue
            values.append(lead), tails.append(0.0), terms.append(last)
            if not row:  # the first order that sums point i makes its row
                row, made = True, made + 1
                if last < p:
                    add_short(len(rows_at))  # the index of its row in the batch
                add_x(x), add_ln_q(ln_q)
                for order_lasts in (lasts,) if single else lasts:
                    order_lasts.append(last)
            rows.append(i)
        if row and not single:
            for o in orders:  # an order that does not read the row just made
                if len(o[6]) < made:
                    o[6].append(None)
        if refused:
            live = [o for o in live if o[-1][1] is None]
            if not live:
                break
    return orders[0][-1] if single else (orders[0][-1], orders[1][-1])


def _pq_array_lines(fn, lines: list, tol: Tolerance, cols: tuple, lasts: list) -> list | None:
    """_pq_sum_line at every line of a batch of at least _ARRAY_MIN points, as _batch routes them, or None.

    Array expressions route the common point at once: its t passes
    _check_t, its p is not held, and q^(p t) is nonzero, so its L is p, at
    most N0 and n_max.  Such a point appends the row of its plain sum, as
    _pq_sum_line would; each line's other points are then routed by
    _pq_sum_line, so the line has the state and refusals _pq_sum_line gives
    it.  Where q^(p t) may underflow the test is math's exp, as the loop's.
    """
    if not ((len(lines) > 1 or len(lines[0][1]) >= _ARRAY_MIN) and sum(len(ts) for _, ts in lines) >= _ARRAY_MIN):
        return None
    try:
        t = np.array([t for _, ts in lines for t in ts], dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # a t that is not a float: refused t by t
        return None
    single = isinstance(fn, str)
    sizes = [len(ts) for _, ts in lines]
    ps = [min(params.p, _P_HOLD) for params, _ in lines]
    ln_qs = [math.log(params.q) for params, _ in lines]
    with np.errstate(all="ignore"):  # the points left to the loop keep whatever the floats give
        x = t * np.repeat(ln_qs, sizes)
        p_at = np.repeat(np.array(ps, dtype=np.float64), sizes)
        px = p_at * x
        plain = (t > 0.0) & (t < math.inf) & (p_at <= min(_N0, tol.n_max))
        plain &= np.repeat([params.p == p for (params, _), p in zip(lines, ps)], sizes)
        low = np.flatnonzero(plain & (px < -700.0))
        plain[low] = [math.exp(v) != 0.0 for v in px[low].tolist()]
    plain, x = plain.tolist(), x.tolist()
    out, a, rows_at = [], 0, lasts if single else lasts[0]
    for (params, ts), size, p, ln_q in zip(lines, sizes, ps, ln_qs):
        b, start = a + size, len(rows_at)
        on = plain[a:b]
        rows = list(compress(range(size), on))
        cols[0].extend(compress(x[a:b], on)), cols[1].extend([ln_q] * len(rows))
        for order_lasts in (lasts,) if single else lasts:
            order_lasts.extend([p] * len(rows))
        line = []  # per order [state, refusal], its leads and scale as _pq_sum_line forms them
        for o, f in enumerate((fn,) if single else fn):
            lead, scale = (0.0, ln_q * ln_q) if f == "psi-prime" else (ln_q_bracket(p, ln_q), ln_q)
            line.append([([lead] * size, [0.0] * size, [p] * size, rows[:] if o else rows, scale), None])
        line = line[0] if single else line
        if len(rows) < size:  # the other points, t by t
            others = list(compress(range(size), map(not_, on)))
            _merge_others(_pq_sum_line(fn, params, [ts[j] for j in others], tol, cols, lasts), line, others, not single)
        out.append((start, line, len(rows_at)))
        a = b
    return out


def _pq_gamma_line(fn: str, params: DeformParams, ts, tol: Tolerance, cols: tuple, lasts: list) -> tuple:
    """Route one ln Gamma (p,q) line in t order: ((values, tails, terms, leads, n_fact, ln q), refusal).

    The whole line takes its factorial's route: the lattice past N0 nonzero
    factors, whose values are final here; otherwise each point appends the
    row of its shifted sum to cols (t, ln q) and lasts, and its value is its
    lead less that sum, plus the factorial's (_pq_gamma_finish).  refusal is
    the error of the first t that cannot be evaluated, or None.
    """
    p = min(params.p, _P_HOLD)
    ln_q = math.log(params.q)
    ln1mq, lead = ln1m_exp(ln_q), ln_q_bracket(p, ln_q)
    n_fact = _last_nonzero(0.0, ln_q, 1, p)
    eps = -ln_q
    values, tails, terms, leads = [], [], [], []
    state = values, tails, terms, leads, n_fact, ln_q
    try:
        for t in ts:
            t = _check_ln_gamma_t(t, ln_q)
            leads.append(ln1mq + t * lead)
            if n_fact > _N0:  # the near pair, and the far one reversed, S_1(p+1) - S_1(t+p+1), term by term
                res = _em_lattice(1, ((eps * t, eps),), eps, leads[-1], 1.0, tol, paired=(eps * (p + 1), eps * t))
                values.append(res.value), tails.append(res.tail_bound), terms.append(res.terms_used)
                continue
            if n_fact > tol.n_max:  # refused at the first point, as a one-point call refuses it
                raise _capped(n_fact, tol)
            if not math.isfinite(leads[-1]):
                raise _lead_refusal(t)
            last = _last_nonzero(t, ln_q, 0, p)
            if last < p:
                cols[2].append(len(lasts))
            cols[0].append(t), cols[1].append(ln_q), lasts.append(last)
    except QDigammaError as exc:
        return state, exc
    return state, None


def _pq_shifted_terms(m, x, ln_q, n):
    """ln(1 - q^(x + n)), the shifted terms of ln Gamma_pq at rows x = t, its one order m = 0."""
    return _ln1m_exp_terms((x + n) * ln_q)


def _pq_gamma_finish(state: tuple, refusal, sums: list):
    """The columns of a ln Gamma (p,q) line routed by _pq_gamma_line, from its shifted sums, or its refusal."""
    values, tails, terms, leads, n_fact, ln_q = state
    if refusal or values or not leads:  # refused, on the lattice, or no points
        return refusal or (values, tails, terms)
    # lead + -1.0 * (shifted - factorial) has the bits of lead + (factorial - shifted)
    factorial = sum_terms(lambda n: _ln1m_exp_terms(n * ln_q), 1, n_fact)
    return [x + -1.0 * (s - factorial) for x, s in zip(leads, sums)], [0.0] * len(leads), [n_fact] * len(leads)


# _TABLE[family][fn] = (route, terms, first, width, cut, finish, arrays), plain tuples as they unpack fastest;
# psi and psi' share one row, psi' its order 1 (_ORDER).  route(fn, params, ts, tol, cols, lasts) -> (state,
# refusal) as _qk_line, or one such pair per order for a tuple of psi orders; rows sum terms(orders, *x, n),
# n >= first, over width columns x; cut: rows may end short of p, and the router lists the index of each one
# that does in one more column, cols[width], for _sum_rows; finish(state, refusal, sums) -> columns or refusal;
# arrays: _qk_array_lines.
_PSI_QK = (_qk_line, _psi_terms, 1, 2, False, _line_finish, _qk_array_lines)
_PSI_PQ = (_pq_sum_line, _psi_terms, 1, 2, True, _line_finish, _pq_array_lines)
_TABLE = {
    Family.QK: {"psi": _PSI_QK, "psi-prime": _PSI_QK,
                "ln-gamma": (_qk_line, _ln_gamma_qk_terms, 0, 3, False, _line_finish, _qk_array_lines)},
    Family.PQ: {"psi": _PSI_PQ, "psi-prime": _PSI_PQ,
                "ln-gamma": (_pq_gamma_line, _pq_shifted_terms, 0, 2, True, _pq_gamma_finish, None)},
}
_ORDER = {"psi": 0, "psi-prime": 1, "ln-gamma": 0}
_FNS = tuple(_ORDER)
# the psi orders one routing pass evaluates together, and their orders
_PAIR = ("psi", "psi-prime")
_PAIR_ORDERS = (0, 1)


def _batch(fn, lines: list, tol: Tolerance) -> list:
    """fn at every line (params, ts) of a batch of one family, by its _TABLE entry: per line its columns (values,
    tails, terms) or the error of its first t that cannot be evaluated, and for the pair _PAIR one such entry
    per order.  The direct rows of all lines are summed together (_sum_rows), each with its own parameters, and
    each line's finisher reads the sums of its own."""
    single = isinstance(fn, str)
    route, terms_fn, first, width, cut, finish, arrays = _TABLE[lines[0][0].family][fn if single else fn[0]]
    cols = ([], [], []) if width == 3 or cut else ([], [])
    lasts = [] if single else ([], [])  # per row its last index, per order for the pair
    rows = lasts if single else lasts[0]
    routed = arrays(fn, lines, tol, cols, lasts) if arrays else None
    if routed is None:  # loops, not comprehensions: a batch of one short line is most of the calls
        routed = []
        for params, ts in lines:
            start = len(rows)
            routed.append((start, route(fn, params, ts, tol, cols, lasts), len(rows)))
    sums = (_sum_rows(terms_fn, _ORDER[fn] if single else _PAIR_ORDERS, cols[:width], first, lasts,
                      cols[width] if cut else ()) if rows else ((), ()))
    out = []
    if single:
        sums = sums[0]
        for start, (state, refusal), end in routed:
            out.append(finish(state, refusal, sums[start:end]))
        return out
    psi_sums, prime_sums = sums
    for start, ((psi, psi_refusal), (prime, prime_refusal)), end in routed:
        out.append((finish(psi, psi_refusal, psi_sums[start:end]), finish(prime, prime_refusal, prime_sums[start:end])))
    return out


def _point(family: Family, fn: str, t: float, params: DeformParams, tol: Tolerance) -> EvalResult:
    """fn of the family at one t: _batch's case of one line of one point, its refusal raised."""
    params.require(family)
    route, terms_fn, first, width, cut, finish, _ = _TABLE[family][fn]
    cols, lasts = ([], [], []) if width == 3 or cut else ([], []), []
    state, refusal = route(fn, params, (t,), tol, cols, lasts)
    line = finish(state, refusal, [sum_terms(partial(terms_fn, _ORDER[fn], *next(zip(*cols[:width]))), first, lasts[0])]
                  if lasts else lasts)
    if isinstance(line, QDigammaError):
        raise line
    (value,), (tail,), (terms,) = line
    return EvalResult(value, tail, terms)


# Points per batch of evaluate_lines: its lines are routed and summed in groups of at most this many
# points, so the rows and columns in flight stay small (a verify suite's 10,200 psi points at once
# held about 2.5 MB more than one line at a time)
_GROUP_POINTS = _BLOCK_TERMS // 4


def _checked(fn):
    """fn, one of _FNS, or the pair _PAIR, given as a tuple or list; DomainError for anything else."""
    if isinstance(fn, str) and fn in _FNS:
        return fn
    if isinstance(fn, (tuple, list)) and tuple(fn) == _PAIR:
        return _PAIR
    raise DomainError(f"unknown function {fn!r}; expected psi, psi-prime, ln-gamma or the pair {_PAIR!r}")


def evaluate_lines(fn, lines, tol: Tolerance = DEFAULT_TOL):
    """fn ("psi", "psi-prime" or "ln-gamma", or the pair ("psi", "psi-prime")) at every t of every line (params,
    ts), in batches of lines.

    Returns an iterator over one entry per line, in order: its columns
    (values, tail_bounds, terms_used), three lists in the order of its ts,
    each element that of the one-point kernel at its t, bit for bit; or, for
    a line with a t that cannot be evaluated, the error of its first such t,
    returned, not raised.  lines may be any iterable, read as the iterator
    needs it: consecutive lines of one family go in groups of at most
    _GROUP_POINTS points (or one longer line), each routed in one pass and
    its direct rows summed together, so only one group is in flight, and a
    line's columns do not depend on its neighbours.

    For the pair, each entry is (psi's entry, psi''s entry), from one
    routing pass: one t check and one series ratio per point, each order's
    own term count and majorant, and one direct row per point whose exp(n x)
    and 1 - q^(n k) both orders' terms share.  Each order is reduced over its
    own width, so every sum has the bits of its one-function call.  Refusals
    stay per order: a t that fails the checks refuses both, and a count,
    lattice or cap that fails for one order refuses it alone, with the error
    its one-function call returns, while the other keeps its columns.
    """
    return _line_groups(_checked(fn), lines, tol)


def _line_groups(fn, lines, tol: Tolerance):
    """The entries of evaluate_lines, one group of lines per _batch."""
    group, size = [], 0
    for params, ts in lines:
        ts = ts if isinstance(ts, (list, tuple)) else list(ts)
        if group and (params.family is not group[0][0].family or size + len(ts) > _GROUP_POINTS):
            yield from _batch(fn, group, tol)
            group, size = [], 0
        group.append((params, ts))
        size += len(ts)
    if group:
        yield from _batch(fn, group, tol)


def evaluate_columns(fn, params: DeformParams, ts, tol: Tolerance = DEFAULT_TOL) -> tuple:
    """fn ("psi", "psi-prime" or "ln-gamma", or the pair ("psi", "psi-prime")) of params' family at every t in
    ts, as columns.

    The one-line case of evaluate_lines, whose one group is a _batch of
    this one line: returns (values, tail_bounds, terms_used), three lists in
    the order of ts; each element is that of the one-point kernel at its t,
    bit for bit.  Raises the error of the first t, in order, that cannot be
    evaluated.  For the pair, returns one entry per order, its columns or
    its refusal, returned, not raised, as evaluate_lines gives them.
    """
    fn = _checked(fn)
    (line,) = _batch(fn, [(params, ts if isinstance(ts, (list, tuple)) else list(ts))], tol)
    if isinstance(line, QDigammaError):
        raise line
    return line


def evaluate(fn, params: DeformParams, ts, tol: Tolerance = DEFAULT_TOL):
    """fn ("psi", "psi-prime" or "ln-gamma", or the pair ("psi", "psi-prime")) of params' family at every t in ts.

    Returns one EvalResult per t, in order, each bit-for-bit the result of
    the one-point kernel at that t: same value, tail_bound and terms_used.
    Raises the error of the first t, in order, that cannot be evaluated.
    For the pair, returns per order its list of EvalResults or its refusal,
    returned, not raised (evaluate_columns).
    """
    line = evaluate_columns(fn, params, ts, tol)
    if isinstance(fn, str):
        return list(map(EvalResult, *line))
    return tuple(e if isinstance(e, QDigammaError) else list(map(EvalResult, *e)) for e in line)


# -- one-point entries ------------------------------------------------------


def psi_qk(t: float, params: DeformParams, tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """(q,k)-digamma at t with a certified truncation bound.

    Direct route's tail majorant after N terms: |ln q| * r^(N+1) /
    ((1-q^k)(1-r)) with r = q^t; near q = 1 the Euler-Maclaurin route's
    remainder bound instead (see the module docstring).
    """
    return _point(Family.QK, "psi", t, params, tol)


def psi_qk_prime(t: float, params: DeformParams, tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """Derivative of the (q,k)-digamma; value is nonnegative by construction.

    Direct route's tail majorant after N terms:
    (ln q)^2/(1-q^k) * r^(N+1)((N+1)(1-r)+r)/(1-r)^2.
    """
    return _point(Family.QK, "psi-prime", t, params, tol)


def ln_gamma_qk(t: float, params: DeformParams, tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """Log of the (q,k)-gamma function, evaluated entirely in log space.

    Direct route's tail certified via |ln(1-x)| <= x/(1-x) on both product
    tails: after N factor pairs the remainder is at most
    q^((N+1)k)/(1-q^k)^2 + q^(t+Nk)/((1-q^t)(1-q^k)).  A value that overflows
    raises TruncationNotConverged on either route.  The lead -(t/k - 1) ln(1-q)
    is formed as t (-ln(1-q)/k) + ln(1-q) where t/k overflows first, so a
    value that fits is returned.
    """
    return _point(Family.QK, "ln-gamma", t, params, tol)


def psi_pq(t: float, params: DeformParams, tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """(p,q)-digamma at t.

    Up to N0 = 2^10 nonzero terms L the finite sum is summed through its last
    nonzero term, exactly (tail bound 0, terms_used L).  Past N0 it takes the
    Euler-Maclaurin lattice of its Lambert split, a few dozen closed-form head
    terms and one closure, unless that needs more than L / 32 head terms (see
    the module docstring); its tail bound is the closure's remainder and the
    dropped q^(p m) part, within abs_tol and far below the value's rounding,
    so its last bits may differ from those of the plain sum.  n_max caps
    terms_used on either route.
    """
    return _point(Family.PQ, "psi", t, params, tol)


def psi_pq_prime(t: float, params: DeformParams, tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """Derivative of the (p,q)-digamma, nonnegative: summed as psi_pq is, directly up to N0 terms (tail bound 0)
    and past N0 on the Euler-Maclaurin lattice, whose tail bound is within abs_tol and its last bits within it."""
    return _point(Family.PQ, "psi-prime", t, params, tol)


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
    return _point(Family.PQ, "ln-gamma", t, params, tol)
