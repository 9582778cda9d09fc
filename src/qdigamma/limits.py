"""Degeneration scans: k -> 1, q -> 1-, p -> infinity.

Each scan drives a deformation parameter toward its boundary and tracks the
gap to an independently computed target.  Limits are verified as monotone
trends with explicit final-gap tolerances, not as equalities; when a gap
sequence stalls at a level the trend cannot explain, the report carries a
discrepancy note rather than absorbing it.

The p -> infinity scan is the one case with a certified rate: the gap to
the k=1 digamma is at most |ln(1-q^p)| plus the tail
|ln q| * q^((p+1)t) / ((1-q)(1-q^t)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import _jsonfmt
from .errors import DomainError, TruncationNotConverged
from .params import DEFAULT_TOL, DeformParams, Q_MAX, Tolerance
from .qcore import ln1m_exp, psi_pq, psi_qk, psi_qk_direct_count
from .reference import classical_digamma, k_digamma_ref, p_digamma_ref, q_digamma_split
# bound here, unused, for tools that wrap the oracles by module name
from .reference import brute_force_series  # noqa: F401

__all__ = [
    "ConvergenceReport",
    "SubstitutionCheck",
    "CONV_TOL",
    "limit_k_to_1",
    "limit_q_to_1_qk",
    "limit_q_to_1_pq",
    "limit_p_to_inf",
    "limit_combined_pq",
]

# Default final-gap tolerance: the q -> 1- approach is slow, so this is a
# trend check, not an equality.
CONV_TOL = 1e-2

# A gap sequence that keeps most of its size from one refinement to the
# next has stalled: the empirical limit disagrees with the stated target.
_STALL_RATIO = 0.5
_STALL_FLOOR = 1e-9


@dataclass
class ConvergenceReport:
    """Gap-to-target trace for one scan, ordered by approach parameter."""

    target_desc: str
    sequence: tuple  # (approach parameter, gap) pairs
    monotone_tail: bool
    final_gap: float
    passed: bool
    values: tuple = ()
    target_values: tuple = ()
    errors: tuple = ()
    discrepancy: Optional[str] = None
    cert_bounds: Optional[tuple] = None  # last, as as_dict leaves it out where it is None

    def as_dict(self) -> dict:
        out = _jsonfmt.as_dict(self)
        if self.cert_bounds is None:
            del out["cert_bounds"]
        return out


@dataclass
class SubstitutionCheck:
    """k = 1 is an admissible parameter, so this is an identity, not a limit."""

    value: float
    oracle_value: float
    gap: float
    allowance: float
    ok: bool
    terms_used: int

    as_dict = _jsonfmt.as_dict


def _monotone_tail(gaps: Sequence[float]) -> bool:
    tail = list(gaps[len(gaps) // 2:])
    return all(tail[i + 1] <= tail[i] + 1e-15 for i in range(len(tail) - 1))


def _stalled(gaps: Sequence[float]) -> bool:
    if len(gaps) < 2 or gaps[-1] <= _STALL_FLOOR:
        return False
    return gaps[-2] > 0.0 and gaps[-1] / gaps[-2] > _STALL_RATIO


def _q_schedule(j_max: int):
    if j_max < 3:
        raise DomainError(f"j_max={j_max!r} must be >= 3")
    return [(j, min(1.0 - 10.0 ** (-j), Q_MAX)) for j in range(1, j_max + 1)]


def limit_k_to_1(t: float, q: float, tol: Tolerance = DEFAULT_TOL) -> SubstitutionCheck:
    """Check psi_qk at k=1 against an independent oracle of the q-digamma.

    With N the direct series' closed-form term count, the certified value and
    the oracle must agree within twice the two truncation bounds.  The oracle's
    bound is the tail of the plain sum at 4N terms (at most 2e6); the Lambert
    split (reference.q_digamma_split) stays within it in about
    2 sqrt(4N t) terms.  N and its tail come from the direct route even where
    the value takes the Euler-Maclaurin route, whose few dozen terms would
    shrink the oracle; the value's bound is the larger of the two tails.
    Raises TruncationNotConverged where N is above n_max or the oracle's tail
    is above abs_tol: there the allowance would grow until the check means
    nothing.
    """
    params = DeformParams.qk(q=q, k=1.0)
    res = psi_qk(t, params, tol)
    n_direct, direct_tail = psi_qk_direct_count(t, params, tol)
    n_oracle = min(4 * max(n_direct, 8), 2_000_000)
    ln_q = math.log(q)
    one_minus_r = -math.expm1(t * ln_q)
    oracle_tail = -ln_q * math.exp((n_oracle + 1) * t * ln_q) / ((-math.expm1(ln_q)) * one_minus_r)
    if n_direct > tol.n_max or oracle_tail > tol.abs_tol:
        raise TruncationNotConverged(
            f"partial-sum oracle out of reach: direct count {n_direct:.3e} (n_max {tol.n_max}), "
            f"oracle tail {oracle_tail:.3e}",
            oracle_tail, n_oracle,
        )
    oracle = q_digamma_split(t, q, n_oracle)
    allowance = 2.0 * (max(res.tail_bound, direct_tail) + oracle_tail)
    gap = abs(res.value - oracle)
    return SubstitutionCheck(
        value=res.value,
        oracle_value=oracle,
        gap=gap,
        allowance=allowance,
        ok=gap <= allowance,
        terms_used=res.terms_used,
    )


def _q_to_1_scan(point, target: float, target_desc: str, j_max: int, conv_tol: float) -> ConvergenceReport:
    """Gaps to target at q_j = 1 - 10^-j, from point(j, q_j) -> (axis, value); a cap hit is an error."""
    seq = []
    values = []
    errors = []
    for j, q_j in _q_schedule(j_max):
        try:
            axis, v = point(j, q_j)
        except TruncationNotConverged as exc:
            errors.append(f"j={j} (q={q_j!r}): series cap hit, best bound {exc.best_bound:.3e}")
            continue
        values.append(v)
        seq.append((axis, abs(v - target)))
    gaps = [g for _, g in seq]
    monotone = bool(gaps) and _monotone_tail(gaps)
    final_gap = gaps[-1] if gaps else math.inf
    discrepancy = None
    if _stalled(gaps):
        discrepancy = (
            f"gap sequence stalls near {final_gap:.6g}: the empirical limit "
            f"appears to differ from the stated target by about that amount"
        )
    elif final_gap > conv_tol:
        discrepancy = f"final gap {final_gap:.6g} exceeds the convergence tolerance {conv_tol:g}"
    return ConvergenceReport(
        target_desc=target_desc,
        sequence=tuple(seq),
        monotone_tail=monotone,
        final_gap=final_gap,
        passed=monotone and final_gap <= conv_tol and not errors,
        values=tuple(values),
        target_values=tuple(target for _ in values),
        errors=tuple(errors),
        discrepancy=discrepancy,
    )


def limit_q_to_1_qk(
    t: float,
    k: float,
    j_max: int = 5,
    tol: Tolerance = DEFAULT_TOL,
    conv_tol: float = CONV_TOL,
) -> ConvergenceReport:
    """psi_qk(t) at q_j = 1 - 10^-j against the k-digamma (classical when k=1)."""
    target = k_digamma_ref(t, k).value
    desc = f"k-digamma (ln k + psi(t/k))/k at t={t:g}, k={k:g}"
    if k == 1.0:
        desc = f"classical digamma psi({t:g})"
    return _q_to_1_scan(
        lambda j, q_j: (q_j, psi_qk(t, DeformParams.qk(q=q_j, k=k), tol).value),
        target, desc, j_max, conv_tol,
    )


def limit_q_to_1_pq(
    t: float,
    p: int,
    j_max: int = 5,
    tol: Tolerance = DEFAULT_TOL,
    conv_tol: float = CONV_TOL,
) -> ConvergenceReport:
    """psi_pq(t) at q_j = 1 - 10^-j against the p-digamma ln p - sum 1/(t+n).

    The finite sum's own q -> 1- limit can sit a finite offset away from
    that target; the scan reports the stall as a discrepancy instead of
    hiding it.
    """
    target = p_digamma_ref(t, p).value
    return _q_to_1_scan(
        lambda j, q_j: (q_j, psi_pq(t, DeformParams.pq(p=p, q=q_j), tol).value),
        target, f"p-digamma ln p - sum 1/(t+n) at t={t:g}, p={p}", j_max, conv_tol,
    )


def limit_p_to_inf(
    t: float,
    q: float,
    p_list: Sequence[int],
    tol: Tolerance = DEFAULT_TOL,
) -> ConvergenceReport:
    """psi_pq -> psi_qk(k=1) as p grows, with a certified gap bound per p.

    Passes when every gap is within its bound (plus the target's tail): the
    bound is the certified rate, so gaps that stall at the rounding floor
    inside it still pass.  monotone_tail is reported, not required.
    """
    p_list = [int(p) for p in p_list]
    if any(p2 <= p1 for p1, p2 in zip(p_list, p_list[1:])) or not p_list:
        raise DomainError("p_list must be nonempty and strictly increasing")
    target_res = psi_qk(t, DeformParams.qk(q=q, k=1.0), tol)
    target = target_res.value
    ln_q = math.log(q)
    one_minus_q = -math.expm1(ln_q)
    one_minus_qt = -math.expm1(t * ln_q)
    seq = []
    values = []
    bounds = []
    for p in p_list:
        v = psi_pq(t, DeformParams.pq(p=p, q=q), tol).value
        gap = abs(v - target)
        bound = abs(ln1m_exp(p * ln_q)) - ln_q * math.exp(
            (p + 1) * t * ln_q
        ) / (one_minus_q * one_minus_qt)
        seq.append((float(p), gap))
        values.append(v)
        bounds.append(bound)
    gaps = [g for _, g in seq]
    # the certified bound is the rate itself, so the gaps need not shrink
    # strictly: at the rounding floor they repeat inside their bounds
    slack = target_res.tail_bound + 1e-15
    within = all(g <= b + slack for g, b in zip(gaps, bounds))
    return ConvergenceReport(
        target_desc=f"q-digamma psi_qk(t={t:g}) at q={q:g}, k=1",
        sequence=tuple(seq),
        monotone_tail=_monotone_tail(gaps),
        final_gap=gaps[-1],
        passed=within,
        values=tuple(values),
        target_values=tuple(target for _ in values),
        cert_bounds=tuple(bounds),
        discrepancy=None if within else "a gap exceeded its certified bound",
    )


def limit_combined_pq(
    t: float,
    j_max: int = 5,
    tol: Tolerance = DEFAULT_TOL,
    conv_tol: float = CONV_TOL,
) -> ConvergenceReport:
    """Joint scan p = 10^j, q = 1 - 10^-j against the classical digamma, with j as the axis.

    p(1-q) stays 1, so q^p tends to 1/e rather than 0: away from t = 1 the
    scan stalls and reports the stall as a discrepancy.
    """
    return _q_to_1_scan(
        lambda j, q_j: (float(j), psi_pq(t, DeformParams.pq(p=10 ** j, q=q_j), tol).value),
        classical_digamma(t).value, f"classical digamma psi({t:g})", j_max, conv_tol,
    )
