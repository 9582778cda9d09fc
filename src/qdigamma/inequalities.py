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
from .errors import DomainError, NoPositiveRegion, NoRootInBracket, PositivityViolated, TruncationNotConverged
from .params import DEFAULT_TOL, DeformParams, EvalResult, Family, Tolerance
from .qcore import evaluate, psi_pq_limit
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
        if self.t_count < 2:
            raise DomainError(f"t_count={self.t_count!r} must be >= 2")
        if not (self.t_min < self.t_max):
            raise DomainError("need t_min < t_max")

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


def _t_range(t_range: tuple) -> tuple:
    t_lo, t_hi = float(t_range[0]), float(t_range[1])
    if t_lo < 0.0 or t_hi < t_lo:
        raise DomainError(f"bad t_range {t_range!r}")
    return t_lo, t_hi


def _psi_lines(fn: str, spec: RatioSpec, params: DeformParams, ts, tol: Tolerance):
    """fn at the lower arguments a+bt and the upper arguments c+dt of every t, in one batch.

    The points go in as (lower, upper) per t, in order, so the first point
    that fails is the one a t-by-t loop would meet first.
    """
    res = evaluate(fn, params, [x for t in ts for x in (spec.lower_arg(t), spec.upper_arg(t))], tol)
    return res[0::2], res[1::2]


def _entry_psi_lines(spec: RatioSpec, params: DeformParams, ts, tol: Tolerance):
    """psi lines at the ts a public entry is given; DomainError at the first t below zero."""
    for t in ts:
        if t < 0.0:
            raise DomainError(f"t={t!r} must be nonnegative")
    return _psi_lines("psi", spec, params, ts, tol)


def _verdict(spec: RatioSpec, t_lo: float, t_hi: float, lo: EvalResult, hi: EvalResult) -> SpecVerdict:
    reasons = []
    for t_end in (t_lo, t_hi):
        if spec.lower_arg(t_end) > spec.upper_arg(t_end):
            reasons.append(f"argument ordering fails at t={t_end:g}")
    for arg, r in ((spec.lower_arg(t_lo), lo), (spec.upper_arg(t_lo), hi)):
        if not _positive(r):
            reasons.append(f"psi({arg:g}) = {r.value:.6g} not certainly positive")
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
    (lo,), (hi,) = _psi_lines("psi", spec, params, [t_lo], tol)
    return _verdict(spec, t_lo, t_hi, lo, hi)


def _positive_lows(t: float, x: EvalResult, y: EvalResult, params: DeformParams) -> tuple:
    """x - tail and y - tail for x = psi(a+bt), y = psi(c+dt); PositivityViolated unless both are > 0."""
    x_low = x.value - x.tail_bound
    y_low = y.value - y.tail_bound
    if x_low <= 0.0 or y_low <= 0.0:
        raise PositivityViolated(
            f"psi not certainly positive at t={t:g} "
            f"(psi_num={x.value:.6g}, psi_den={y.value:.6g}, {params.label()})"
        )
    return x_low, y_low


def _ratio_of(spec: RatioSpec, t: float, x: EvalResult, y: EvalResult, params: DeformParams) -> EvalResult:
    """G(t) from x = psi(a+bt) and y = psi(c+dt)."""
    x_low, y_low = _positive_lows(t, x, y, params)
    # exp of the log expression: no overflow for large exponents, and the
    # truncation error propagates linearly through the logs
    terms = x.terms_used + y.terms_used
    try:
        value = math.exp(spec.alpha * math.log(x.value) - spec.beta * math.log(y.value))
    except OverflowError:
        raise TruncationNotConverged(f"the ratio at t={t!r} overflows a double", math.inf, terms) from None
    rel = spec.alpha * x.tail_bound / x_low + spec.beta * y.tail_bound / y_low
    return EvalResult(value, value * rel, terms)


def _ratio(spec: RatioSpec, t: float, params: DeformParams, tol: Tolerance) -> EvalResult:
    (x,), (y,) = _entry_psi_lines(spec, params, [t], tol)
    return _ratio_of(spec, t, x, y, params)


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
    xs, ys = _entry_psi_lines(spec, params, ts, tol)
    values = []
    for t, x, y in zip(ts, xs, ys):
        verdict = _verdict(spec, t, t, x, y)
        if not verdict.valid:
            raise DomainError("ratio preconditions fail: " + "; ".join(verdict.reasons))
        values.append(_ratio_of(spec, t, x, y, params))
    return values


def _cross_margins(spec: RatioSpec, params: DeformParams, ts, xs, ys, tol: Tolerance) -> list:
    """(margin, propagated numerical slack) of the cross product at each t of ts, given psi in xs, ys.

    Every t passes the positivity check before psi' is evaluated at all of them, in one batch.
    """
    for t, x, y in zip(ts, xs, ys):
        _positive_lows(t, x, y, params)
    xps, yps = _psi_lines("psi-prime", spec, params, ts, tol)
    ab, bd = spec.alpha * spec.b, spec.beta * spec.d
    return [
        (ab * y.value * xp.value - bd * x.value * yp.value,
         ab * (abs(y.value) * xp.tail_bound + xp.value * y.tail_bound)
         + bd * (abs(x.value) * yp.tail_bound + yp.value * x.tail_bound))
        for x, y, xp, yp in zip(xs, ys, xps, yps)
    ]


def check_lemma_cross(spec: RatioSpec, t: float, params: DeformParams, tol: Tolerance = DEFAULT_TOL) -> float:
    """Signed margin alpha*b*psi(c+dt)*psi'(a+bt) - beta*d*psi(a+bt)*psi'(c+dt).

    Nonnegative whenever the precondition (argument ordering, exponent
    condition, positivity) holds; it is the numerator of d/dt ln G times
    psi(a+bt)*psi(c+dt).  The lemma-cross suite's own code at one t: raises
    DomainError for t < 0, PositivityViolated unless psi(a+bt) and psi(c+dt)
    are certainly positive, and TruncationNotConverged from the kernels.
    """
    xs, ys = _entry_psi_lines(spec, params, [t], tol)
    ((margin, _),) = _cross_margins(spec, params, [t], xs, ys, tol)
    return margin


def _eps_for(slack: float) -> float:
    return max(EPS_BASE, 10.0 * slack)


def verify_bounds(suite, grid: GridSpec, tol: Tolerance = DEFAULT_TOL) -> VerificationReport:
    """Run one inequality suite over every grid point.

    Signed margin convention: margin >= 0 means the inequality holds at the
    point.  Specs failing their preconditions are counted as skipped, never
    as failures; evaluation errors at individual points are recorded.
    The report is deterministic given the grid.

    Each (params, spec) line is evaluated in one batch: psi at every lower
    and upper argument it needs (and psi' for lemma-cross), precondition
    points included.  A grid the suite cannot run on raises DomainError
    before anything is evaluated.
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
    checks_run = 0
    skipped = 0
    errors = []
    worst = math.inf
    worst_point = None
    violated = False

    def record(margin: float, eps_pt: float, point: dict):
        nonlocal checks_run, worst, worst_point, violated
        checks_run += 1
        if margin < worst:
            worst = margin
            worst_point = point
        if margin < -eps_pt:
            violated = True

    for i, (params, spec) in enumerate(grid.pairs):
        try:
            if monotone:
                vals = evaluate(fn, params, t_vals, tol)
                for j in range(len(vals) - 1):
                    s_res, t_res = vals[j], vals[j + 1]
                    margin = (t_res.value - s_res.value if kind == "nondecreasing"
                              else s_res.value - t_res.value)
                    record(margin, 2.0 * (s_res.tail_bound + t_res.tail_bound),
                           {"pair_index": i, "s": t_vals[j], "t": t_vals[j + 1], "check": check})
                continue

            # the precondition point first, then the grid, then t = 1 for a corollary
            ts = [t_lo, *t_vals, *([1.0] if kind == "corollary" else [])]
            xs, ys = _psi_lines("psi", spec, params, ts, tol)
            if not _verdict(spec, t_lo, t_hi, xs[0], ys[0]).valid:
                skipped += 1
                continue
            xs, ys = xs[1:], ys[1:]

            if kind == "cross":
                for t, (margin, slack) in zip(t_vals, _cross_margins(spec, params, t_vals, xs, ys, tol)):
                    record(margin, _eps_for(slack), {"pair_index": i, "t": t, "check": "cross"})
                continue

            def g(j):
                return _ratio_of(spec, ts[j + 1], xs[j], ys[j], params)

            # the reference points before the t loop, in the order a t-by-t run meets them; a
            # corollary holds G(t) above G(1), a theorem between G(t_min) and G(t_max)
            g_lo, g_hi = (g(len(t_vals)), None) if kind == "corollary" else (g(0), g(len(t_vals) - 1))
            lower = "corollary" if g_hi is None else "lower"
            for j, t in enumerate(t_vals):
                g_t = g(j)
                record(g_t.value - g_lo.value, _eps_for(g_t.tail_bound + g_lo.tail_bound),
                       {"pair_index": i, "t": t, "check": lower})
                if g_hi is not None:
                    record(g_hi.value - g_t.value, _eps_for(g_hi.tail_bound + g_t.tail_bound),
                           {"pair_index": i, "t": t, "check": "upper"})
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


def _targets(t: float, r: EvalResult, slope: float):
    """Ends of the wanted bracket as a tangent step from t predicts them.

    The tangent through (t, psi(t)) with the given slope meets zero at a
    predicted root; the band |psi| <= tail around it is about 2 tail / slope
    wide.  Returns (left, right, margin, wanted): left and right sit a margin
    outside that band, and wanted is the bracket width to stop at, ROOT_WIDTH
    unless the band, or the float spacing at the root, leaves no room for
    the margins.
    """
    band = 2.0 * r.tail_bound / slope
    root = t - r.value / slope
    margin = max(0.25 * (ROOT_WIDTH - band) if band < ROOT_WIDTH else 0.125 * band, 2.0 * math.ulp(root))
    half = 0.5 * band + margin
    return root - half, root + half, margin, max(ROOT_WIDTH, band + 4.0 * margin)


def _threshold_bracket(params: DeformParams, tol: Tolerance) -> tuple:
    """Certified bracket (lo, hi) of the root of psi: psi(lo) + tail < 0 < psi(hi) - tail.

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

    def psi(*ts):
        return evaluate("psi", params, ts, tol)

    def slope(t):
        return evaluate("psi-prime", params, (t,), tol)[0].value

    # The first bracketing step, down to a certified-negative point.  It starts
    # at 1 + k/2, about the root of the k-digamma (ln k + digamma(t/k))/k, the
    # q -> 1- limit of psi_qk (from digamma^-1(y) ~ e^y + 1/2); PQ starts at
    # the k = 1 value 1.5.
    hi = math.inf
    t = 1.0 + 0.5 * (params.k if params.family is Family.QK else 1.0)
    (r,) = psi(t)
    while not _negative(r):
        if _positive(r):
            hi = t
        s = slope(t)
        x = _targets(t, r, s)[0] if s > 0.0 else 0.0
        t = x if x >= T_FLOOR else 0.5 * t  # bisection of (0, t) when the target leaves it
        if t < T_FLOOR:
            raise NoRootInBracket(
                f"psi already positive at the argument floor {T_FLOOR:g} for {params.label()}",
                floor=T_FLOOR,
            )
        (r,) = psi(t)

    lo, r_lo, s = t, r, slope(t)
    inside = None  # (first, last) of the points found inside the band |psi| <= tail
    step_prev = 0.0
    while True:
        if inside is None:
            left, right, margin, wanted = _targets(lo, r_lo, s)
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
        for x, r in zip(ts, psi(*ts)):
            if _negative(r):
                if x > lo:
                    lo, r_lo = x, r
            elif _positive(r):
                hi = min(hi, x)
            else:
                inside = (x, x) if inside is None else (min(inside[0], x), max(inside[1], x))
        if lo - lo_before > _CHORD_STEP:
            s = slope(lo)


def find_positive_threshold(params: DeformParams, tol: Tolerance = DEFAULT_TOL) -> float:
    """Root t0 of psi = 0: the midpoint of a certified bracket (lo, hi).

    psi is increasing on t > 0 with a negative small-t regime, so the root
    is unique; every argument above t0 satisfies the positivity
    precondition.  The bracket has psi(lo) + tail < 0 < psi(hi) - tail, with
    the tail bounds of the same evaluations every other value carries, and
    hi - lo <= ROOT_WIDTH unless the band where |psi| <= tail is wider than
    that, or the float spacing at the root.  Safeguarded Newton steps on psi
    and psi' find it in about nine kernel calls for the parameter sets the
    grids sample.

    Raises NoPositiveRegion when psi never becomes positive (PQ with p = 1,
    where the supremum ln[1]_q = 0) and NoRootInBracket when psi is not
    certainly negative anywhere above the argument floor T_FLOOR.
    """
    lo, hi = _threshold_bracket(params, tol)
    return 0.5 * (lo + hi)


# Consecutive draws without a threshold after which make_verification_grid gives up.
_MAX_FAILED_DRAWS = 20


def _sample_params(rng: random.Random, family: Family) -> DeformParams:
    q = rng.uniform(0.1, 0.9)
    if family is Family.QK:
        return DeformParams.qk(q=q, k=rng.uniform(0.3, 3.0))
    return DeformParams.pq(p=rng.randint(2, 30), q=q)


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
    threshold t0 (find_positive_threshold, about nine kernel calls), so the
    preconditions hold by construction: t0 is the midpoint of a bracket at
    most ROOT_WIDTH wide (unless the band |psi| <= tail is wider), past
    whose top psi is certainly positive.  A parameter set without a
    threshold (NoPositiveRegion, TruncationNotConverged) is drawn again, up
    to _MAX_FAILED_DRAWS times in a row; then the last draw's error is
    raised, as when the tolerance is out of reach at every draw.
    When t_max > 1 the slopes are sampled with d >= b so the argument
    ordering holds on the whole range.
    The first two pairs exercise the exact boundary cases a=c, b=d,
    alpha=beta (ratio identically 1) and beta*d = alpha*b.  DomainError
    unless n_specs >= 1: a grid without pairs would pass every suite unchecked.
    """
    if n_specs < 1:
        raise DomainError(f"n_specs={n_specs!r} must be >= 1")
    family = Family(family)
    rng = random.Random(f"{family.value}:{seed}:{n_specs}")
    full_range = t_max > 1.0
    pairs = []
    failed = 0
    while len(pairs) < n_specs:
        params = _sample_params(rng, family)
        try:
            t0 = find_positive_threshold(params, tol)
        except NoRootInBracket as exc:
            t0 = exc.floor
        except (NoPositiveRegion, TruncationNotConverged):
            failed += 1
            if failed == _MAX_FAILED_DRAWS:
                raise
            continue
        failed = 0
        a = t0 + 0.1 + rng.uniform(0.0, 4.9)
        idx = len(pairs)
        if idx < 2:
            # exponent condition tight: beta*d = alpha*b exactly; pair 0 is also
            # degenerate, identical numerator and denominator, margins all 0
            b = rng.uniform(0.1, 3.0)
            alpha = rng.uniform(0.25, 3.0)
            c = a if idx == 0 else a + rng.uniform(0.1, 2.0)
            spec = RatioSpec(a=a, b=b, c=c, d=b, alpha=alpha, beta=alpha)
        else:
            b = rng.uniform(0.05, 3.0)
            beta = rng.uniform(0.25, 2.0)
            if full_range:
                alpha = beta * rng.uniform(1.0, 2.5)
                d = b * (1.0 + rng.uniform(0.0, 0.999) * (alpha / beta - 1.0))
            else:
                alpha = rng.uniform(0.25, 3.0)
                d = b * (alpha / beta) * rng.uniform(0.05, 0.999)
            gap = max(0.0, b - d) + rng.uniform(0.01, 2.0)
            spec = RatioSpec(a=a, b=b, c=a + gap, d=d, alpha=alpha, beta=beta)
        pairs.append((params, spec))
    return GridSpec(t_min=t_min, t_max=t_max, t_count=t_count, pairs=tuple(pairs), seed=seed)
