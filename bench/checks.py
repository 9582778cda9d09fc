"""Output checks computed apart from the program.

Nothing here imports ``qdigamma``.  Values are checked three ways:

* against a 40-digit mpmath oracle for the (q,k) series.  The defining
  series is swapped into a sum over m of Li_s(exp(-eps*(a+m*k))), summed
  directly for M terms and closed with the Euler-Maclaurin formula.  The
  integral, the end term and the Bernoulli corrections are exact polylogs
  (Eulerian polynomials for negative orders), so the oracle costs a few
  milliseconds even at q = 1 - 1e-6;
* against plain ``math.fsum`` sums for the finite (p,q) sums, cut where the
  remaining terms are provably below 1e-19 of the total;
* through exact identities of the series (shift by k or by 1, ln Gamma(k) = 0),
  monotone or convex table columns and q -> 1- gaps that shrink.

Every comparison allows the tail bound the program reports plus an explicit
rounding allowance: a multiple of the unit roundoff times a bound on the sum
of the absolute values the program adds up (see the ``*_allowance``
functions).  A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp
import numpy as np

U = 2.0 ** -53
DPS = 40
# M direct terms, then P Bernoulli corrections.  For lattice step h = eps*k the
# error is at most about exp(-M*h - 4*pi^2/h) (poles of the summand at imaginary
# distance 2*pi/h), below 1e-21 for every h; the remainder after P is smaller.
_EM_M = 16
_EM_P = 10
_TINY = mp.mpf(10) ** -60


class CheckFailed(AssertionError):
    """A program output disagrees with an independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def require_close(label: str, got: float, want, allowance: float) -> None:
    diff = abs(mp.mpf(got) - want)
    if not diff <= allowance:
        raise CheckFailed(f"{label}: got {got!r}, expected {mp.nstr(want, 20)}, "
                          f"|diff| {mp.nstr(diff, 5)} > allowance {allowance:.3e}")


# ---------------------------------------------------------------------------
# (q,k) oracle: Euler-Maclaurin over polylogarithms at 40 digits


@lru_cache(maxsize=None)
def _eulerian(n: int) -> tuple:
    """Coefficients of the Eulerian polynomial A_n, so Li_{-n}(z) = z A_n(z) / (1-z)^(n+1)."""
    if n == 0:
        return (1,)
    return tuple(
        sum((-1) ** i * math.comb(n + 1, i) * (j + 1 - i) ** n for i in range(j + 1))
        for j in range(n)
    )


def _li(s: int, y):
    """Li_s(exp(-y)) for integer s <= 2 and y > 0, without cancellation."""
    z = mp.exp(-y)
    one_minus_z = -mp.expm1(-y)
    if s == 2:
        return mp.polylog(2, z)
    if s == 1:
        return -mp.log(one_minus_z)
    n = -s
    poly = mp.mpf(0)
    for c in reversed(_eulerian(n)):
        poly = poly * z + c
    return z * poly / one_minus_z ** (n + 1)


@lru_cache(maxsize=None)
def _bernoulli_weights() -> tuple:
    with mp.workdps(DPS + 10):
        return tuple(mp.bernoulli(2 * j) / mp.factorial(2 * j) for j in range(1, _EM_P + 1))


def _lattice_sum(s: int, a, step):
    """Sum over m >= 0 of Li_s(exp(-(a + m*step)))."""
    total = mp.mpf(0)
    for m in range(_EM_M):
        y = a + m * step
        total += _li(s, y)
        if mp.exp(-y) < _TINY:
            return total
    y0 = a + _EM_M * step
    total += _li(s + 1, y0) / step + _li(s, y0) / 2
    for j, w in enumerate(_bernoulli_weights(), start=1):
        total += w * step ** (2 * j - 1) * _li(s - 2 * j + 1, y0)
    return total


@lru_cache(maxsize=None)
def qk_value(fn: str, t: float, q: float, k: float):
    """psi_qk, psi_qk' or ln Gamma_qk at t to 40 digits (an mpf).

    Oracles are cached: every repeat of a round checks the same inputs.
    """
    with mp.workdps(DPS + 10):
        eps = -mp.log(mp.mpf(q))
        t, k = mp.mpf(t), mp.mpf(k)
        ln1mq = mp.log(-mp.expm1(-eps))
        if fn == "psi":
            # sum_n q^{nt}/(1-q^{nk}) = sum_m Li_0(q^{t+mk})
            return +(-ln1mq / k - eps * _lattice_sum(0, eps * t, eps * k))
        if fn == "psi-prime":
            return +(eps * eps * _lattice_sum(-1, eps * t, eps * k))
        if fn == "ln-gamma":
            # sum_n ln(1 - q^{a+nk}) = -sum_m Li_1(q^{a+mk})
            return +(-_lattice_sum(1, eps * k, eps * k) + _lattice_sum(1, eps * t, eps * k)
                     - (t / k - 1) * ln1mq)
    raise ValueError(f"unknown function {fn!r}")


@lru_cache(maxsize=None)
def k_limit(fn: str, t: float, k: float):
    """The q -> 1- limit of a (q,k) function: the k-digamma family."""
    with mp.workdps(DPS):
        t, k = mp.mpf(t), mp.mpf(k)
        if fn == "psi":
            return (mp.log(k) + mp.digamma(t / k)) / k
        if fn == "psi-prime":
            return mp.psi(1, t / k) / (k * k)
        if fn == "ln-gamma":
            return (t / k - 1) * mp.log(k) + mp.loggamma(t / k)
    raise ValueError(f"unknown function {fn!r}")


def qk_allowance(fn: str, value: float, t: float, q: float, k: float, terms: int) -> float:
    """Rounding allowance for a (q,k) value the program summed from `terms` terms.

    psi and psi': each term r^m/(1-q^{mk}) is exact to (4 + 2*m*|ln r|) u and
    m*|ln r| stays below the log of the tail coefficient over the tolerance
    (< 100), so 256 u times the series magnitude covers terms and summation.
    ln Gamma: every log term and its rounding are bounded by x/(1-x) <= 1/y with
    y = eps*(a + m*k), whose sum over m < N is at most
    (1/a + ln(1 + (N-1)k/a)/k) / eps.
    """
    eps = -math.log(q)
    if fn in ("psi", "psi-prime"):
        lead = -math.log1p(-q) / k if fn == "psi" else 0.0
        return U * (8.0 * abs(lead) + 256.0 * abs(value - lead)) + 1e-300
    n = max(int(terms), 1)

    def log_bound(a: float) -> float:
        return (1.0 / a + math.log1p((n - 1) * k / a) / k) / eps

    lead = (t / k - 1.0) * math.log1p(-q)
    return U * (8.0 * abs(lead) + 64.0 * (log_bound(k) + log_bound(t) + 2.0))


def check_qk_value(label: str, fn: str, t: float, q: float, k: float, value: float,
                   tail: float, terms: int) -> None:
    """Program value within its tail bound and rounding allowance of the oracle."""
    require(math.isfinite(value) and tail >= 0.0, f"{label}: bad result {value!r} tail {tail!r}")
    want = qk_value(fn, t, q, k)
    require_close(label, value, want, tail + qk_allowance(fn, value, t, q, k, terms) + U * abs(value))


def check_qk_shift(label: str, fn: str, q: float, k: float, t: float, at_t, at_tk) -> None:
    """Shift identities between f(t+k) and f(t); at_* are (value, tail, terms).

    psi(t+k) - psi(t)    = -ln q * q^t/(1-q^t)
    psi'(t+k) - psi'(t)  = -(ln q)^2 * q^t/(1-q^t)^2
    lnG(t+k) - lnG(t)    = ln[t]_q
    """
    with mp.workdps(DPS):
        eps = -mp.log(mp.mpf(q))
        x = mp.exp(-eps * mp.mpf(t))
        if fn == "psi":
            want = eps * x / (1 - x)
        elif fn == "psi-prime":
            want = -eps * eps * x / (1 - x) ** 2
        else:
            want = mp.log((1 - x) / -mp.expm1(-eps))
    got = at_tk[0] - at_t[0]
    allowance = (at_t[1] + at_tk[1] + qk_allowance(fn, at_t[0], t, q, k, at_t[2])
                 + qk_allowance(fn, at_tk[0], t + k, q, k, at_tk[2]) + U * abs(got))
    require_close(f"{label} shift identity", got, want, allowance)


def check_lngamma_at_k(label: str, q: float, k: float, value: float, tail: float, terms: int) -> None:
    """ln Gamma_qk(k) = 0."""
    require_close(f"{label} lnGamma(k)=0", value, mp.mpf(0),
                  tail + qk_allowance("ln-gamma", value, k, q, k, terms))


# ---------------------------------------------------------------------------
# (p,q) oracle: plain math.fsum of the finite sums


def _cut(p: int, ln_q: float, rate: float) -> int:
    """Terms beyond n with q^(n*rate) below 1e-19 relative are left to the tail bound."""
    return int(min(p, math.ceil(44.0 / (-ln_q * rate)) + 1))


def _fsum_blocks(first: int, last: int, block_fn) -> tuple:
    """(fsum of all terms, sum of the weights) over n = first..last, in blocks.

    block_fn(n) returns (terms, weights) for a float array n; blocks keep the
    check's memory small next to the program's.
    """
    weight = [0.0]

    def terms():
        for lo in range(first, last + 1, 1 << 16):
            n = np.arange(lo, min(lo + (1 << 16), last + 1), dtype=np.float64)
            values, w = block_fn(n)
            weight[0] += float(np.sum(w))
            yield from values
    return math.fsum(terms()), weight[0]


@lru_cache(maxsize=None)
def pq_value(fn: str, t: float, q: float, p: int):
    """(value, allowance) for psi_pq, psi_pq' or ln Gamma_pq by math.fsum.

    The allowance covers this sum's truncation and rounding and the program's
    rounding, from the same term magnitudes.  The program forms ln(1-x) for
    x = q^p and x = q as log1p(-exp(...)), so the rounding of exp is amplified
    by x/(1-x); for x = q the error is the exact round trip |exp(ln q) - q|.
    """
    ln_q = math.log(q)
    eps = -ln_q
    ln1mq = math.log1p(-q)
    ln_bracket_p = math.log(-math.expm1(p * ln_q)) - ln1mq
    x_p = math.exp(p * ln_q)
    roundtrip = abs(math.exp(ln_q) - q) / -math.expm1(ln_q)
    err_bracket = U * (2.0 * x_p / (1.0 - x_p) + 4.0 * (abs(ln_bracket_p) + abs(ln1mq))) + roundtrip
    if fn in ("psi", "psi-prime"):
        n_cut = _cut(p, ln_q, t)

        def block(n):
            terms = np.exp(-eps * t * n) / -np.expm1(-eps * n)
            if fn == "psi-prime":
                terms = n * terms
            return terms, terms * (40.0 + 4.0 * eps * t * n)
        s, weight = _fsum_blocks(1, n_cut, block)
        # tail of n > n_cut: q^{nt}/(1-q^n) <= q^{nt}/(1-q), times n for psi'
        r_tail = math.exp(-eps * t * (n_cut + 1))
        tail = 0.0
        if n_cut < p:
            tail = r_tail * (n_cut + 1 + 1.0 / -math.expm1(-eps * t)) / (-math.expm1(-eps) * -math.expm1(-eps * t))
        if fn == "psi":
            value = ln_bracket_p - eps * s
            return value, eps * tail + err_bracket + U * (8.0 * abs(ln_bracket_p) + eps * weight + abs(value))
        value = eps * eps * s
        return value, eps * eps * tail + U * (eps * eps * weight + abs(value))
    if fn == "ln-gamma":
        # ln(1-q) + t ln[p]_q + sum_{1..p} ln(1-q^n) - sum_{0..p} ln(1-q^{t+n}),
        # the program's form minus its (p+1) ln(1-q) and p ln(1-q) pieces;
        # weights: |log terms| and x/(1-x), which bound the program's rounding
        n_cut = _cut(p, ln_q, 1.0)

        def block(n):
            x = np.exp(-eps * n)
            logs = np.log(-np.expm1(-eps * n))
            return logs, np.abs(logs) + x / (1.0 - x)
        fact, spread_f = _fsum_blocks(1, n_cut, block)
        shift, spread_s = _fsum_blocks(0, n_cut, lambda n: block(t + n))
        value = ln1mq + t * ln_bracket_p + fact - shift
        tail = 0.0
        if n_cut < p:
            x = math.exp(-eps * (n_cut + 1))
            tail = 2.0 * x / ((1.0 - x) * -math.expm1(-eps))
        big = abs(t * ln_bracket_p) + 2.0 * (p + 1) * abs(ln1mq)
        lead_err = t * err_bracket + (2 * p + 1) * roundtrip
        return value, tail + lead_err + U * (8.0 * big + 64.0 * (spread_f + spread_s + 2.0) + abs(value))
    raise ValueError(f"unknown function {fn!r}")


def check_pq_value(label: str, fn: str, t: float, q: float, p: int, value: float) -> None:
    want, allowance = pq_value(fn, t, q, p)
    require(math.isfinite(value), f"{label}: non-finite value {value!r}")
    require_close(label, value, mp.mpf(want), allowance + U * abs(value))


def check_pq_lngamma_shift(label: str, q: float, p: int, t: float, at_t: float, at_t1: float) -> None:
    """ln Gamma_pq(t+1) - ln Gamma_pq(t) = ln[p]_q + ln[t]_q - ln[t+p+1]_q."""
    with mp.workdps(DPS):
        qq = mp.mpf(q)

        def ln_bracket(x):
            return mp.log((1 - qq ** x) / (1 - qq))

        want = ln_bracket(p) + ln_bracket(mp.mpf(t)) - ln_bracket(mp.mpf(t) + p + 1)
    allowance = pq_value("ln-gamma", t, q, p)[1] + pq_value("ln-gamma", t + 1.0, q, p)[1]
    require_close(f"{label} shift identity", at_t1 - at_t, want, allowance)


def psi_ratio(t: float, q: float, k: float, spec: dict):
    """G(t) = psi(a+bt)^alpha / psi(c+dt)^beta from the oracle (mpf)."""
    x = qk_value("psi", spec["a"] + spec["b"] * t, q, k)
    y = qk_value("psi", spec["c"] + spec["d"] * t, q, k)
    require(x > 0 and y > 0, f"ratio spec {spec} leaves the positive region at t={t}")
    return x ** spec["alpha"] / y ** spec["beta"]


# ---------------------------------------------------------------------------
# shapes: monotone columns, convexity, shrinking gaps


def check_monotone(label: str, values, slacks, increasing: bool) -> None:
    """values[i+1] >= values[i] (or <=) up to slacks[i] + slacks[i+1]."""
    for i in range(len(values) - 1):
        step = values[i + 1] - values[i]
        if not increasing:
            step = -step
        require(step >= -(slacks[i] + slacks[i + 1]),
                f"{label}: not {'nondecreasing' if increasing else 'nonincreasing'} "
                f"at row {i} ({values[i]!r} -> {values[i + 1]!r})")


def check_convex(label: str, values, slacks) -> None:
    """Second differences of an evenly spaced column are >= 0 up to the slacks."""
    for i in range(1, len(values) - 1):
        second = values[i + 1] - 2.0 * values[i] + values[i - 1]
        require(second >= -(slacks[i - 1] + 2.0 * slacks[i] + slacks[i + 1]),
                f"{label}: not convex at row {i}")


def check_shrinking(label: str, gaps, slacks) -> None:
    """A q -> 1- gap sequence never grows beyond the slacks."""
    for i in range(len(gaps) - 1):
        require(gaps[i + 1] <= gaps[i] + slacks[i] + slacks[i + 1],
                f"{label}: gap grows from {gaps[i]:.3e} to {gaps[i + 1]:.3e}")


# ---------------------------------------------------------------------------
# verification reports


def implied_checks(suite: str, specs: int, t_points: int) -> int:
    """Checks a suite runs on a grid whose specs all meet their preconditions."""
    if suite in ("qk-theorem", "pq-theorem"):
        return specs * t_points * 2
    if suite in ("monotone-psi", "monotone-psi-prime"):
        return specs * (t_points - 1)
    return specs * t_points


def check_verify_report(label: str, report: dict, suite: str, specs: int, t_points: int) -> None:
    """A report passes with no errors or skips and runs every check its grid implies."""
    require(report["suite"] == suite, f"{label}: suite {report['suite']!r}")
    require(report["passed"] is True, f"{label}: report failed, worst {report['worst_violation']!r}")
    require(not report["errors"], f"{label}: errors {report['errors'][:2]}")
    require(report["skipped"] == 0, f"{label}: {report['skipped']} specs skipped")
    want = implied_checks(suite, specs, t_points)
    require(report["checks_run"] == want, f"{label}: checks_run {report['checks_run']} != {want}")
    grid = report["grid"]
    require(len(grid["pairs"]) == specs and grid["t_count"] == t_points, f"{label}: grid size")
    for pair in grid["pairs"]:
        s = pair["spec"]
        require(s["a"] <= s["c"] and s["a"] + s["b"] <= s["c"] + s["d"]
                and s["beta"] * s["d"] <= s["alpha"] * s["b"] * (1 + 4 * U),
                f"{label}: spec {s} breaks the ratio preconditions")
