"""Ratio inequalities for deformed digammas and their grid verification.

For six positive constants (a, b, c, d, alpha, beta) with a + b*t <= c + d*t
and beta*d <= alpha*b, the ratio

    G(t) = psi(a + b*t)^alpha / psi(c + d*t)^beta

is nondecreasing on [0, inf) wherever both psi values are positive, which
yields G(0) <= G(t) <= G(1) on [0,1] and G(t) >= G(1) beyond.  The engine
here checks those bounds, the underlying cross product

    alpha*b * psi(c+dt) * psi'(a+bt)  -  beta*d * psi(a+bt) * psi'(c+dt) >= 0,

and plain monotonicity of psi and psi', over deterministic seeded grids.
Margins are signed (>= 0 means the inequality holds) and every comparison
carries a slack covering truncation and rounding, so a reported violation
can never be a numerical artifact.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from enum import Enum
from typing import Optional

import numpy as np

from . import _jsonfmt
from .errors import (DomainError, NoPositiveRegion, NoRootInBracket, PositivityViolated, QDigammaError,
                     TruncationNotConverged)
from .params import DEFAULT_TOL, DeformParams, EvalResult, Family, Tolerance
from .qcore import _PAIR, evaluate_columns, evaluate_lines, psi_pq_limit
# the kernels stay bound here for tools that wrap them by module
from .qcore import psi_pq, psi_pq_prime, psi_qk, psi_qk_prime  # noqa: F401

__all__ = [
    "RatioSpec",
    "GridSpec",
    "SpecVerdict",
    "VerificationReport",
    "Suite",
    "validate_spec",
    "ratio_G",
    "ratio_H",
    "check_lemma_cross",
    "verify_bounds",
    "find_positive_threshold",
    "make_verification_grid",
]

# Base inequality slack; the effective per-point slack is
# max(EPS_BASE, 10 * propagated tail bounds) for ratio/cross checks and
# exactly 2 * (sum of tail bounds) for the raw monotonicity checks.
EPS_BASE = 1e-9

# Smallest argument at which a bracketing scan will evaluate psi before
# concluding the function is already positive everywhere reachable.
T_FLOOR = 1e-6


@dataclass(frozen=True)
class RatioSpec:
    """Constants defining a ratio G/H; invariants checked on construction."""

    a: float
    b: float
    c: float
    d: float
    alpha: float
    beta: float

    def __post_init__(self):
        for name, v in self.as_dict().items():
            if not (v > 0.0) or not math.isfinite(v):
                raise DomainError(f"{name}={v!r} must be positive and finite")
        if self.a > self.c:
            raise DomainError(f"need a <= c, got a={self.a!r}, c={self.c!r}")
        if self.a + self.b > self.c + self.d:
            raise DomainError("need a + b <= c + d for ordering on [0,1]")
        if self.beta * self.d > self.alpha * self.b:
            raise DomainError("need beta*d <= alpha*b")

    def lower_arg(self, t: float) -> float:
        return self.a + self.b * t

    def upper_arg(self, t: float) -> float:
        return self.c + self.d * t

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class GridSpec:
    """Deterministic sampling plan: a t-grid plus (params, spec) pairs."""

    t_min: float
    t_max: float
    t_count: int
    pairs: tuple
    seed: int

    def __post_init__(self):
        _check_t_grid(self.t_min, self.t_max, self.t_count)

    def t_values(self) -> list:
        return [float(x) for x in np.linspace(self.t_min, self.t_max, self.t_count)]

    def as_dict(self) -> dict:
        pairs = [{"params": params.as_dict(), "spec": spec.as_dict()} for params, spec in self.pairs]
        return {
            "t_min": self.t_min, "t_max": self.t_max, "t_count": self.t_count,
            "seed": self.seed, "pairs": pairs,
        }


@dataclass(frozen=True)
class SpecVerdict:
    valid: bool
    reasons: tuple
    psi_lower_left: float
    psi_upper_left: float


@dataclass
class VerificationReport:
    suite: str
    grid: GridSpec
    passed: bool
    worst_violation: float
    worst_point: Optional[dict]
    checks_run: int
    skipped: int = 0
    errors: tuple = ()
    epsilon: float = EPS_BASE

    def as_dict(self) -> dict:
        return {**_jsonfmt.as_dict(self), "grid": self.grid.as_dict()}


class Suite(str, Enum):
    QK_THEOREM = "qk-theorem"
    QK_COROLLARY = "qk-corollary"
    PQ_THEOREM = "pq-theorem"
    PQ_COROLLARY = "pq-corollary"
    LEMMA_CROSS = "lemma-cross"
    MONOTONE_PSI = "monotone-psi"
    MONOTONE_PSI_PRIME = "monotone-psi-prime"


# suite -> (the family a theorem or corollary is stated for, None where either will do; the default
# (t_min, t_max) of its grid; its kind: "theorem", "corollary" (held against t = 1), "cross", or the
# monotone check "nondecreasing" or "nonincreasing"; the function whose values it checks)
SUITES = {
    Suite.QK_THEOREM: (Family.QK, (0.0, 1.0), "theorem", "psi"),
    Suite.QK_COROLLARY: (Family.QK, (1.2, 5.0), "corollary", "psi"),
    Suite.PQ_THEOREM: (Family.PQ, (0.0, 1.0), "theorem", "psi"),
    Suite.PQ_COROLLARY: (Family.PQ, (1.2, 5.0), "corollary", "psi"),
    Suite.LEMMA_CROSS: (None, (0.0, 1.0), "cross", "psi"),
    Suite.MONOTONE_PSI: (None, (0.1, 5.0), "nondecreasing", "psi"),
    Suite.MONOTONE_PSI_PRIME: (None, (0.1, 5.0), "nonincreasing", "psi-prime"),
}


def _positive(r: EvalResult) -> bool:
    return r.value - r.tail_bound > 0.0


def _negative(r: EvalResult) -> bool:
    return r.value + r.tail_bound < 0.0


def _check_t_grid(t_min: float, t_max: float, t_count: int, names: tuple = ("t_min", "t_max", "t_count")) -> None:
    """DomainError unless t_count >= 2 and t_min < t_max are finite and a finite distance apart, as names."""
    lo, hi, count = names
    if t_count < 2:
        raise DomainError(f"{count}={t_count!r} must be >= 2")
    for name, t in ((lo, t_min), (hi, t_max)):
        if not math.isfinite(t):
            raise DomainError(f"{name}={t!r} must be finite")
    if not t_min < t_max:
        raise DomainError(f"need {lo} < {hi}")
    if math.isinf(t_max - t_min):
        raise DomainError(f"{hi} - {lo} overflows a double")


def _t_range(t_range: tuple) -> tuple:
    t_lo, t_hi = float(t_range[0]), float(t_range[1])
    if t_lo < 0.0 or t_hi < t_lo:
        raise DomainError(f"bad t_range {t_range!r}")
    return t_lo, t_hi


def _args(spec: RatioSpec, ts) -> list:
    """The lower argument a+bt and the upper argument c+dt of every t, as (lower, upper) per t, in order.

    numpy forms each as the product and then the sum, both rounded, as the
    scalar expressions lower_arg and upper_arg do: no fused multiply-add, so
    every argument has their bits.
    """
    t = np.asarray(ts, dtype=np.float64)
    out = np.empty(2 * len(t))
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, as the floats give
        out[0::2] = spec.a + spec.b * t
        out[1::2] = spec.c + spec.d * t
    return out.tolist()


def _halves(cols: tuple) -> tuple:
    """The columns of a line of _args split into those of the lower and of the upper arguments."""
    return tuple(c[0::2] for c in cols), tuple(c[1::2] for c in cols)


def _psi_lines(fn: str, spec: RatioSpec, params: DeformParams, ts, tol: Tolerance):
    """fn at the lower arguments a+bt and the upper arguments c+dt of every t, in one batch.

    Returns the (values, tails, terms) columns of each.  The points go in as
    (lower, upper) per t, in order, so the first point that fails is the one
    a t-by-t loop would meet first.
    """
    return _halves(evaluate_columns(fn, params, _args(spec, ts), tol))


def _entry_ts(ts):
    """The ts a public entry is given; DomainError at the first t below zero."""
    for t in ts:
        if t < 0.0:
            raise DomainError(f"t={t!r} must be nonnegative")
    return ts


def _entry_psi_lines(spec: RatioSpec, params: DeformParams, ts, tol: Tolerance):
    """psi lines at the ts a public entry is given; DomainError at the first t below zero."""
    return _psi_lines("psi", spec, params, _entry_ts(ts), tol)


def _result(line: tuple, j: int) -> EvalResult:
    return EvalResult(*(c[j] for c in line))


def _read(entry):
    """One order's entry of the pair _PAIR, its columns, or its refusal raised."""
    if isinstance(entry, QDigammaError):
        raise entry
    return entry


def _failing(spec: RatioSpec, t_lo, t_hi, lo: EvalResult, hi: EvalResult) -> tuple:
    """The ratio preconditions on [t_lo, t_hi] that fail, as four flags: the argument ordering at t_lo and at
    t_hi, and psi(a + b t_lo) = lo and psi(c + d t_lo) = hi certainly positive.  Each is a flag array where the
    ts and the psi results are arrays."""
    return (spec.lower_arg(t_lo) > spec.upper_arg(t_lo), spec.lower_arg(t_hi) > spec.upper_arg(t_hi),
            np.logical_not(_positive(lo)), np.logical_not(_positive(hi)))


def _verdict(spec: RatioSpec, t_lo: float, t_hi: float, lo: EvalResult, hi: EvalResult) -> SpecVerdict:
    order_lo, order_hi, low_lo, low_hi = _failing(spec, t_lo, t_hi, lo, hi)
    reasons = [f"argument ordering fails at t={t_end:g}" for t_end, bad in ((t_lo, order_lo), (t_hi, order_hi)) if bad]
    reasons += [f"psi({arg:g}) = {r.value:.6g} not certainly positive"
                for arg, r, bad in ((spec.lower_arg(t_lo), lo, low_lo), (spec.upper_arg(t_lo), hi, low_hi)) if bad]
    return SpecVerdict(not reasons, tuple(reasons), lo.value, hi.value)


def validate_spec(
    spec: RatioSpec,
    params: DeformParams,
    t_range: tuple = (0.0, 1.0),
    tol: Tolerance = DEFAULT_TOL,
) -> SpecVerdict:
    """Check the ratio preconditions over [t_min, t_max].

    Positivity is checked at the left endpoints only: psi is nondecreasing,
    so psi(a + b*t_min) > tail and psi(c + d*t_min) > tail cover the whole
    range.  The argument ordering is linear, so both endpoints suffice.
    """
    t_lo, t_hi = _t_range(t_range)
    x, y = _psi_lines("psi", spec, params, [t_lo], tol)
    return _verdict(spec, t_lo, t_hi, _result(x, 0), _result(y, 0))


def _positive_lows(x: tuple, y: tuple) -> tuple:
    """psi - tail along the columns x = psi(a+bt) and y = psi(c+dt), and the mask of the t where either is not > 0."""
    x_low, y_low = np.array(x[0]) - np.array(x[1]), np.array(y[0]) - np.array(y[1])
    return x_low, y_low, (x_low <= 0.0) | (y_low <= 0.0)


def _not_positive(t: float, x: float, y: float, params: DeformParams) -> PositivityViolated:
    return PositivityViolated(
        f"psi not certainly positive at t={t:g} (psi_num={x:.6g}, psi_den={y:.6g}, {params.label()})")


def _ratios(spec: RatioSpec, ts, x: tuple, y: tuple, params: DeformParams) -> tuple:
    """G at every t of ts from the psi columns x = psi(a+bt) and y = psi(c+dt): (values, tails, terms, refused).

    refused maps the index of each t that a t-by-t loop would refuse to its
    error: PositivityViolated unless psi(a+bt) and psi(c+dt) are certainly
    positive, else TruncationNotConverged where G overflows.  Logs and exps
    are math's (numpy's SIMD versions differ in the last place), so each G
    has the bits of that loop.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # inf or nan, as the floats give
        x_low, y_low, bad = _positive_lows(x, y)
        # exp of the log expression: no overflow for large exponents, and the
        # truncation error propagates linearly through the logs; a psi that is
        # not certainly positive is refused, and takes the log of 1.0 here
        ln_x, ln_y = (np.fromiter(map(math.log, np.where(bad, 1.0, v).tolist()), dtype=np.float64, count=len(v))
                      for v in (x[0], y[0]))
        arg = spec.alpha * ln_x - spec.beta * ln_y
        values = np.fromiter(map(_exp_or_inf, arg.tolist()), dtype=np.float64, count=len(arg))
        rel = spec.alpha * np.array(x[1]) / x_low + spec.beta * np.array(y[1]) / y_low  # unread where refused
        tails = values * rel
    over = np.isinf(values) & np.isfinite(arg)  # where math.exp raised; exp(inf) is inf, as in a t-by-t loop
    refused = {j: _not_positive(ts[j], x[0][j], y[0][j], params) if bad[j]
               else TruncationNotConverged(f"the ratio at t={ts[j]!r} overflows a double", math.inf, x[2][j] + y[2][j])
               for j in np.flatnonzero(bad | over).tolist()}
    return values, tails, [m + n for m, n in zip(x[2], y[2])], refused


def _exp_or_inf(a: float) -> float:
    try:
        return math.exp(a)
    except OverflowError:
        return math.inf


def _ratio(spec: RatioSpec, t: float, params: DeformParams, tol: Tolerance) -> EvalResult:
    values, tails, terms, refused = _ratios(spec, [t], *_entry_psi_lines(spec, params, [t], tol), params)
    if refused:
        raise refused[0]
    return EvalResult(values.item(), tails.item(), terms[0])


def ratio_G(spec: RatioSpec, t: float, params: DeformParams, tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """QK-family ratio psi_qk(a+bt)^alpha / psi_qk(c+dt)^beta."""
    params.require(Family.QK)
    return _ratio(spec, t, params, tol)


def ratio_H(spec: RatioSpec, t: float, params: DeformParams, tol: Tolerance = DEFAULT_TOL) -> EvalResult:
    """PQ-family ratio psi_pq(a+bt)^alpha / psi_pq(c+dt)^beta (zero tail)."""
    params.require(Family.PQ)
    return _ratio(spec, t, params, tol)


def ratio_values(spec: RatioSpec, params: DeformParams, ts, tol: Tolerance = DEFAULT_TOL) -> list:
    """G(t) at every t of the ascending ts, in one batch, for either family.

    Each t must meet the preconditions on [t, t], as validate_spec checks
    them; the first t that does not raises DomainError.
    """
    x, y = _entry_psi_lines(spec, params, ts, tol)
    t = np.array(ts, dtype=np.float64)
    fails = np.logical_or.reduce(_failing(spec, t, t, EvalResult(*map(np.array, x)), EvalResult(*map(np.array, y))))
    j = int(np.argmax(fails)) if fails.any() else len(ts)
    values, tails, terms, refused = _ratios(spec, ts, x, y, params)
    if min(refused, default=j) < j:  # a ratio that overflows before the first t that fails its preconditions
        raise refused[min(refused)]
    if j < len(ts):
        verdict = _verdict(spec, ts[j], ts[j], _result(x, j), _result(y, j))
        raise DomainError("ratio preconditions fail: " + "; ".join(verdict.reasons))
    return list(map(EvalResult, values.tolist(), tails.tolist(), terms))


def _positivity_refusal(ts, x: tuple, y: tuple, params: DeformParams) -> Optional[PositivityViolated]:
    """The refusal of the first t of ts where psi(a+bt) = x or psi(c+dt) = y is not certainly positive, or None."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, as the floats give
        bad = _positive_lows(x, y)[2]
    if bad.any():
        j = int(np.argmax(bad))
        return _not_positive(ts[j], x[0][j], y[0][j], params)
    return None


def _cross_margins(spec: RatioSpec, x: tuple, y: tuple, xp: tuple, yp: tuple) -> tuple:
    """(margins, propagated numerical slacks) of the cross product at each t, given psi in the columns x, y
    and psi' in xp, yp."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, as the floats give
        xv, xt, yv, yt, xpv, xpt, ypv, ypt = map(np.array, (*x[:2], *y[:2], *xp[:2], *yp[:2]))
        ab, bd = spec.alpha * spec.b, spec.beta * spec.d
        return (ab * yv * xpv - bd * xv * ypv,
                ab * (np.abs(yv) * xpt + xpv * yt) + bd * (np.abs(xv) * ypt + ypv * xt))


def check_lemma_cross(spec: RatioSpec, t: float, params: DeformParams, tol: Tolerance = DEFAULT_TOL) -> float:
    """Signed margin alpha*b*psi(c+dt)*psi'(a+bt) - beta*d*psi(a+bt)*psi'(c+dt).

    Nonnegative whenever the precondition (argument ordering, exponent
    condition, positivity) holds; it is the numerator of d/dt ln G times
    psi(a+bt)*psi(c+dt).  The lemma-cross suite's own code at one t, psi and
    psi' from one kernel call: raises DomainError for t < 0,
    PositivityViolated unless psi(a+bt) and psi(c+dt) are certainly
    positive, and TruncationNotConverged from the kernels, psi's first.
    """
    psi, prime = evaluate_columns(_PAIR, params, _args(spec, _entry_ts([t])), tol)
    x, y = _halves(_read(psi))
    refusal = _positivity_refusal([t], x, y, params)
    if refusal:
        raise refusal
    margins, _ = _cross_margins(spec, x, y, *_halves(_read(prime)))
    return margins.item()


def _eps(slack: np.ndarray) -> np.ndarray:
    """The slack of each ratio or cross check: max(EPS_BASE, 10 * propagated slack)."""
    return np.fmax(10.0 * slack, EPS_BASE)


def verify_bounds(suite, grid: GridSpec, tol: Tolerance = DEFAULT_TOL) -> VerificationReport:
    """Run one inequality suite over every grid point.

    Signed margin convention: margin >= 0 means the inequality holds at the
    point.  Specs failing their preconditions are counted as skipped, never
    as failures; evaluation errors at individual points are recorded.
    The report is deterministic given the grid.

    The suite makes one evaluate_lines call: its function at every lower
    and upper argument of every (params, spec) line, precondition points
    included; lemma-cross asks for psi and psi' as the pair and reads psi'
    only at the grid of a spec that passes the preconditions and
    positivity, so a psi' refusal surfaces only there.  The lines
    are checked as the call yields them, so only a group of them is in
    flight; each line's margins and slacks are formed as arrays, and its
    refusal recorded, in the order of the pairs.  A grid the suite cannot
    run on raises DomainError before anything is evaluated.
    """
    suite = Suite(suite)
    family, _, kind, fn = SUITES[suite]
    monotone = kind in ("nondecreasing", "nonincreasing")
    check = f"{fn}-{kind}"  # a monotone suite's check name
    for params, _ in grid.pairs:
        if family is not None and params.family is not family:
            raise DomainError(
                f"suite {suite.value} is stated for {family.value} parameters; the grid has {params.label()}"
            )
    if not monotone:
        t_lo, t_hi = _t_range(
            (min(grid.t_min, 1.0) if kind == "corollary" else grid.t_min, grid.t_max))
    elif grid.t_min <= 0.0:
        raise DomainError(
            f"suite {suite.value} evaluates psi at the grid points themselves, "
            f"so it needs t_min > 0; got t_min={grid.t_min!r}"
        )
    t_vals = grid.t_values()
    n = len(t_vals)
    checks_run = 0
    skipped = 0
    errors = []
    worst = math.inf
    worst_point = None
    violated = False

    def record(margins: np.ndarray, eps: np.ndarray, point):
        """The checks of one line, in order; point(j) is the report's point of check j."""
        nonlocal checks_run, worst, worst_point, violated
        checks_run += len(margins)
        found = margins.tolist()
        low = min(found, default=math.inf)
        if low != low:  # min stops at a leading nan, which a check-by-check scan skips
            low = min((m for m in found if m == m), default=math.inf)
        if low < worst:  # the first check at the minimum, as the scan keeps it
            j = found.index(low)
            worst, worst_point = found[j], point(j)
        violated = violated or bool(np.count_nonzero(margins < -eps))

    # a line's psi: the precondition point first, then the grid, then t = 1 for a corollary
    ts = [t_lo, *t_vals, *([1.0] if kind == "corollary" else [])] if not monotone else t_vals
    lines = evaluate_lines(_PAIR if kind == "cross" else fn,
                           ((params, ts if monotone else _args(spec, ts)) for params, spec in grid.pairs), tol)

    def at_grid(spec: RatioSpec, line: tuple) -> Optional[tuple]:
        """The psi columns x, y of a line at the grid, or None where the spec's preconditions fail."""
        x, y = _halves(line)
        if not _verdict(spec, t_lo, t_hi, _result(x, 0), _result(y, 0)).valid:
            return None
        return tuple(tuple(c[1:] for c in half) for half in (x, y))

    def crossed(entries):
        """Per pair of a cross suite, from its line of the pair: the refusal of its psi, None where it is skipped,
        its positivity refusal, or its psi columns x, y at the grid and its psi' entry, read only then."""
        for (params, spec), (psi, prime) in zip(grid.pairs, entries):
            xy = psi if isinstance(psi, QDigammaError) else at_grid(spec, psi)
            yield (_positivity_refusal(t_vals, *xy, params) or (*xy, prime)) if isinstance(xy, tuple) else xy

    if kind == "cross":
        lines = crossed(lines)

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # inf or nan, as the floats give
        for i, ((params, spec), line) in enumerate(zip(grid.pairs, lines)):
            try:
                if isinstance(line, QDigammaError):
                    raise line
                if monotone:
                    values, tails = map(np.array, line[:2])
                    record(values[1:] - values[:-1] if kind == "nondecreasing" else values[:-1] - values[1:],
                           2.0 * (tails[:-1] + tails[1:]),
                           lambda j: {"pair_index": i, "s": t_vals[j], "t": t_vals[j + 1], "check": check})
                    continue
                xy = line if kind == "cross" else at_grid(spec, line)
                if xy is None:
                    skipped += 1
                    continue
                x, y = xy[:2]

                if kind == "cross":  # psi' at the grid: the precondition point t_lo is its first t, so psi'
                    x, y, prime = xy    # refused there is refused at the grid too, with the same error
                    margins, slack = _cross_margins(spec, x, y, *(tuple(c[1:] for c in half)
                                                                 for half in _halves(_read(prime))))
                    record(margins, _eps(slack), lambda j: {"pair_index": i, "t": t_vals[j], "check": "cross"})
                    continue

                # a t-by-t run takes the reference points first, then records the checks of each t until
                # one is refused; a corollary holds G(t) above G(1), a theorem between G(t_min) and G(t_max)
                g, tail, _, refused = _ratios(spec, ts[1:], x, y, params)
                for j in [n] if kind == "corollary" else [0, n - 1]:
                    if j in refused:
                        raise refused[j]
                m = min(refused, default=n)
                if kind == "corollary":
                    record(g[:m] - g[n], _eps(tail[:m] + tail[n]),
                           lambda j: {"pair_index": i, "t": t_vals[j], "check": "corollary"})
                else:  # per t, the lower check and then the upper one
                    margins, slack = np.empty(2 * m), np.empty(2 * m)
                    margins[0::2], slack[0::2] = g[:m] - g[0], tail[:m] + tail[0]
                    margins[1::2], slack[1::2] = g[n - 1] - g[:m], tail[n - 1] + tail[:m]
                    record(margins, _eps(slack),
                           lambda j: {"pair_index": i, "t": t_vals[j // 2], "check": ("lower", "upper")[j % 2]})
                if m < n:
                    raise refused[m]
            except (PositivityViolated, TruncationNotConverged) as exc:
                errors.append(f"pair {i}: {type(exc).__name__}: {exc}")

    if checks_run == 0:
        worst = 0.0
    return VerificationReport(
        suite=suite.value,
        grid=grid,
        passed=not violated and not errors,
        worst_violation=worst,
        worst_point=worst_point,
        checks_run=checks_run,
        skipped=skipped,
        errors=tuple(errors),
    )


# Width the threshold bracket is narrowed to, unless the band where |psi| <= tail
# is too wide for it.
ROOT_WIDTH = 1e-12

# When lo moves by more than this, the next step takes psi' at the new lo (a
# Newton step); after a shorter move it reuses the last psi' (a chord step).
_CHORD_STEP = 1e-4


def _targets(t: float, value: float, tail: float, slope: float):
    """Ends of the wanted bracket as a tangent step from t predicts them, psi(t) = value within tail.

    The tangent through (t, value) with the given slope meets zero at a
    predicted root; the band |psi| <= tail around it is about 2 tail / slope
    wide.  Returns (left, right, margin, wanted): left and right sit a margin
    outside that band, and wanted is the bracket width to stop at, ROOT_WIDTH
    unless the band, or the float spacing at the root, leaves no room for
    the margins.
    """
    band = 2.0 * tail / slope
    root = t - value / slope
    margin = max(0.25 * (ROOT_WIDTH - band) if band < ROOT_WIDTH else 0.125 * band, 2.0 * math.ulp(root))
    half = 0.5 * band + margin
    return root - half, root + half, margin, max(ROOT_WIDTH, band + 4.0 * margin)


def _bracket_steps(params: DeformParams, tol: Tolerance):
    """Certified bracket (lo, hi) of the root of psi: psi(lo) + tail < 0 < psi(hi) - tail, as a generator.

    It yields its requests (fn, ts), is sent each one's columns (values,
    tails, terms) or refusal as evaluate_columns gives them, and returns
    (lo, hi); _threshold_bracket drives one, _lock_step many together.  A
    probe asks for psi and psi' as the pair _PAIR wherever a step may read
    psi' at one of its ts, that is where lo may move past _CHORD_STEP, and
    for psi alone elsewhere.  psi' is read exactly where a step needs it,
    so its refusal ends the search only there.  The one other request,
    "psi-prime" at lo alone, follows a refusal of the pair's psi' at a
    probe of two points, where the refusal may be the other point's: so a
    refusal surfaces only where psi' at lo is refused.  The columns are
    read as they come, with no result object per point.

    On t > 0 psi is increasing and concave (psi' > 0 and nonincreasing), so a
    tangent step from any point lands left of the root, and from a point left
    of it the steps rise to it monotonically.  A chord step, with the psi' of
    an earlier point further left, is shorter and stays left too.  Each step
    aims a margin past the left edge of the band |psi| <= tail; once its
    predicted error is inside that margin, the same batch probes hi just past
    the band's right edge.  A target beyond hi falls back to bisection, and a
    point inside the band to bisecting the gaps on either side of it.
    """
    if params.family is Family.PQ and psi_pq_limit(params) <= 0.0:
        raise NoPositiveRegion(
            f"psi_pq stays negative for {params.label()}: supremum ln[p]_q <= 0"
        )

    # The first bracketing step, down to a certified-negative point.  It starts
    # at 1 + k/2, about the root of the k-digamma (ln k + digamma(t/k))/k, the
    # q -> 1- limit of psi_qk (from digamma^-1(y) ~ e^y + 1/2); PQ starts at
    # the k = 1 value 1.5.  psi' is read at every point of this step (at the
    # last as lo's), unless psi there summed no terms.
    hi = math.inf
    t = 1.0 + 0.5 * (params.k if params.family is Family.QK else 1.0)
    psi, prime = yield _PAIR, (t,)
    (value,), (tail,), (terms,) = _read(psi)
    while not value + tail < 0.0:  # not certainly negative
        if value - tail > 0.0:  # certainly positive
            hi = t
        # where psi at t summed no terms, q^t underflowed and psi'(t) is exactly 0.0
        s = _read(prime)[0][0] if terms else 0.0
        x = _targets(t, value, tail, s)[0] if s > 0.0 else 0.0
        t = x if x >= T_FLOOR else 0.5 * t  # bisection of (0, t) when the target leaves it
        if t < T_FLOOR:
            raise NoRootInBracket(
                f"psi already positive at the argument floor {T_FLOOR:g} for {params.label()}",
                floor=T_FLOOR,
            )
        psi, prime = yield _PAIR, (t,)
        (value,), (tail,), (terms,) = _read(psi)

    lo, v_lo, tail_lo = t, value, tail
    s = _read(prime)[0][0] if terms else 0.0
    inside = None  # (first, last) of the points found inside the band |psi| <= tail
    step_prev = 0.0
    while True:
        if inside is None:
            left, right, margin, wanted = _targets(lo, v_lo, tail_lo, s)
            if hi - lo <= wanted:
                return lo, hi
            step = left - lo
            if left >= hi:
                ts = (0.5 * (lo + hi),)
            elif step <= margin:  # lo is at its target: certify hi
                ts = (right,)
            elif step * step <= margin * step_prev:
                # the error this step leaves, predicted as step * (step / step_prev), is inside the margin
                ts = (left, right)
            else:
                ts = (left,)
            step_prev = step
        else:
            # the gaps either side of the band close until the bracket fits in
            # ROOT_WIDTH, or, for a band wider than that, to an eighth of it:
            # each probe steps out from the band by the larger of the gap and
            # the band's width, or bisects the gap when that is shorter
            width = inside[1] - inside[0]
            gap = 0.5 * (ROOT_WIDTH - width) if width < ROOT_WIDTH else 0.125 * ROOT_WIDTH
            gap = max(gap, 4.0 * math.ulp(inside[1]))
            out = max(gap, width)
            ts = ()
            if inside[0] - lo > gap:
                ts += (max(0.5 * (lo + inside[0]), inside[0] - out),)
            if hi - inside[1] > gap:
                ts += (min(0.5 * (inside[1] + hi), inside[1] + out),)
            if not ts:
                return lo, hi
        if ts[-1] > 1e9:
            raise NoPositiveRegion(f"psi never positive up to t=1e9 for {params.label()}")
        lo_before = lo
        if max(ts) - lo > _CHORD_STEP:  # lo moves to one of ts, so psi' is read only after such a probe
            psi, prime = yield _PAIR, ts
        else:
            psi = yield "psi", ts
        for j, (x, value, tail, terms) in enumerate(zip(ts, *_read(psi))):
            if value + tail < 0.0:
                if x > lo:
                    lo, v_lo, tail_lo, terms_lo, j_lo = x, value, tail, terms, j
            elif value - tail > 0.0:
                hi = min(hi, x)
            else:
                inside = (x, x) if inside is None else (min(inside[0], x), max(inside[1], x))
        if lo - lo_before > _CHORD_STEP:
            if not terms_lo:
                s = 0.0
            else:
                if isinstance(prime, QDigammaError) and len(ts) > 1:  # it may be the other point's: ask at lo
                    prime, j_lo = (yield "psi-prime", (ts[j_lo],)), 0
                s = _read(prime)[0][j_lo]


def _lock_step(params_list: list, tol: Tolerance) -> list:
    """Run the bracket searches (_bracket_steps) of every params together: per params its (lo, hi), or its error.

    Each round makes one evaluate_lines call per request the searches make:
    the pair _PAIR at the searches that may read psi' after this probe,
    psi alone at the others, and psi' alone only after a refusal of the
    pair's psi'.  Each search is sent the entry of its line as
    evaluate_lines returns it.  (Asking the pair at every search would take
    one call a round, but the grids' searches then form psi' at about 1.7
    times the points where they read it, which costs more than the call.)
    """
    searches = [_bracket_steps(params, tol) for params in params_list]
    out, pending = [None] * len(searches), {}  # per search waiting, its request (fn, ts)

    def advance(i: int, sent) -> None:
        try:
            pending[i] = searches[i].send(sent)
        except StopIteration as stop:
            out[i] = stop.value
        except QDigammaError as exc:
            out[i] = exc

    for i in range(len(searches)):
        advance(i, None)
    while pending:
        asked, pending = pending, {}
        for fn in (_PAIR, "psi", "psi-prime"):
            batch = {i: ts for i, (want, ts) in asked.items() if want == fn}
            if not batch:  # no call for a request no search makes
                continue
            for i, line in zip(batch, evaluate_lines(fn, [(params_list[i], ts) for i, ts in batch.items()], tol)):
                advance(i, line)
    return out


def _threshold_bracket(params: DeformParams, tol: Tolerance) -> tuple:
    """The certified bracket (lo, hi) of _bracket_steps for one params, one kernel call a request; raises its error."""
    steps = _bracket_steps(params, tol)
    try:
        fn, ts = next(steps)
        while True:
            fn, ts = steps.send(evaluate_columns(fn, params, ts, tol))
    except StopIteration as stop:
        return stop.value


def find_positive_threshold(params: DeformParams, tol: Tolerance = DEFAULT_TOL) -> float:
    """Root t0 of psi = 0: the midpoint of a certified bracket (lo, hi).

    psi is increasing on t > 0 with a negative small-t regime, so the root
    is unique; every argument above t0 satisfies the positivity
    precondition.  The bracket has psi(lo) + tail < 0 < psi(hi) - tail, with
    the tail bounds of the same evaluations every other value carries, and
    hi - lo <= ROOT_WIDTH unless the band where |psi| <= tail is wider than
    that, or the float spacing at the root.  Safeguarded Newton steps on psi
    and psi', both from one kernel call a step, find it in about five calls
    for the parameter sets the grids sample; make_verification_grid runs the
    searches of all its draws in lock-step (_lock_step), one call a round.

    Raises NoPositiveRegion when psi never becomes positive (PQ with p = 1,
    where the supremum ln[1]_q = 0) and NoRootInBracket when psi is not
    certainly negative anywhere above the argument floor T_FLOOR.
    """
    lo, hi = _threshold_bracket(params, tol)
    return 0.5 * (lo + hi)


def _thresholds(params_list: list, tol: Tolerance) -> list:
    """find_positive_threshold at every params, in lock-step: per params its t0, or its error."""
    return [found if isinstance(found, QDigammaError) else 0.5 * (found[0] + found[1])
            for found in _lock_step(params_list, tol)]


# Consecutive draws without a threshold after which make_verification_grid gives up.
_MAX_FAILED_DRAWS = 20


def _sample_params(rng: random.Random, family: Family) -> DeformParams:
    q = rng.uniform(0.1, 0.9)
    if family is Family.QK:
        return DeformParams.qk(q=q, k=rng.uniform(0.3, 3.0))
    return DeformParams.pq(p=rng.randint(2, 30), q=q)


def _spec_draws(rng: random.Random, idx: int, full_range: bool):
    """Draw the uniforms of pair idx's spec, in order; returns spec(t0), the spec placed above the threshold t0."""
    u = rng.uniform(0.0, 4.9)
    if idx < 2:
        # exponent condition tight: beta*d = alpha*b exactly; pair 0 is also
        # degenerate, identical numerator and denominator, margins all 0
        b = rng.uniform(0.1, 3.0)
        alpha = rng.uniform(0.25, 3.0)
        shift = None if idx == 0 else rng.uniform(0.1, 2.0)

        def spec(t0):
            a = t0 + 0.1 + u
            return RatioSpec(a=a, b=b, c=a if shift is None else a + shift, d=b, alpha=alpha, beta=alpha)
        return spec
    b = rng.uniform(0.05, 3.0)
    beta = rng.uniform(0.25, 2.0)
    if full_range:
        alpha = beta * rng.uniform(1.0, 2.5)
        d = b * (1.0 + rng.uniform(0.0, 0.999) * (alpha / beta - 1.0))
    else:
        alpha = rng.uniform(0.25, 3.0)
        d = b * (alpha / beta) * rng.uniform(0.05, 0.999)
    gap = max(0.0, b - d) + rng.uniform(0.01, 2.0)

    def spec(t0):
        a = t0 + 0.1 + u
        return RatioSpec(a=a, b=b, c=a + gap, d=d, alpha=alpha, beta=beta)
    return spec


def make_verification_grid(
    family,
    n_specs: int,
    t_count: int,
    seed: int,
    t_min: float = 0.0,
    t_max: float = 1.0,
    tol: Tolerance = DEFAULT_TOL,
) -> GridSpec:
    """Sample n_specs valid (params, spec) pairs, reproducibly from the seed.

    Arguments are placed at least 0.1 above each parameter set's positivity
    threshold t0 (find_positive_threshold), so the preconditions hold by
    construction: t0 is the midpoint of a bracket at most ROOT_WIDTH wide
    (unless the band |psi| <= tail is wider), past whose top psi is
    certainly positive.  A parameter set without a threshold
    (NoPositiveRegion, TruncationNotConverged) is drawn again, up to
    _MAX_FAILED_DRAWS times in a row; then the last draw's error is raised,
    as when the tolerance is out of reach at every draw.
    When t_max > 1 the slopes are sampled with d >= b so the argument
    ordering holds on the whole range.
    The first two pairs exercise the exact boundary cases a=c, b=d,
    alpha=beta (ratio identically 1) and beta*d = alpha*b.  DomainError
    unless n_specs >= 1: a grid without pairs would pass every suite unchecked;
    and, before the first draw, unless the t-grid is one GridSpec accepts.

    The thresholds of all draws are found in lock-step (_thresholds), one
    kernel call a round.  Each draw's
    params and its spec's uniforms are drawn in the order of a draw-by-draw
    loop, as if every draw had a threshold; at the first draw without one,
    the rng is taken back to the state after its params (the batch's start
    state, replayed) and the draws go on from there, so the grid is the one
    that loop would sample.
    """
    if n_specs < 1:
        raise DomainError(f"n_specs={n_specs!r} must be >= 1")
    _check_t_grid(t_min, t_max, t_count)
    family = Family(family)
    rng = random.Random(f"{family.value}:{seed}:{n_specs}")
    full_range = t_max > 1.0
    pairs = []
    failed = 0
    while len(pairs) < n_specs:
        start, draws = rng.getstate(), []
        for idx in range(len(pairs), n_specs):
            params = _sample_params(rng, family)
            draws.append((params, _spec_draws(rng, idx, full_range)))
        for j, ((params, spec), t0) in enumerate(zip(draws, _thresholds([params for params, _ in draws], tol))):
            if isinstance(t0, NoRootInBracket):
                t0 = t0.floor
            elif isinstance(t0, (NoPositiveRegion, TruncationNotConverged)):
                failed += 1
                if failed == _MAX_FAILED_DRAWS:
                    raise t0
                rng.setstate(start)  # draw again up to this draw's params: it draws no spec
                for idx in range(len(pairs) - j, len(pairs) + 1):
                    _sample_params(rng, family)
                    if idx < len(pairs):
                        _spec_draws(rng, idx, full_range)
                break
            elif isinstance(t0, QDigammaError):
                raise t0
            failed = 0
            pairs.append((params, spec(t0)))
    return GridSpec(t_min=t_min, t_max=t_max, t_count=t_count, pairs=tuple(pairs), seed=seed)
