"""ln Gamma_pq past N0 nonzero factors: the Euler-Maclaurin lattice route, its far
pair formed term by term, against closed forms, a 40-digit oracle and the direct
sum, the cut-off itself, batches, n_max, and the accuracy of the direct route's
combination of its sums; on both routes, the q-gamma identity against the (q,k)
family and typed refusals where the value overflows."""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

import numpy as np
import pytest

from qdigamma import DeformParams, Tolerance, TruncationNotConverged, evaluate, ln_gamma_pq, ln_gamma_qk
from qdigamma.cli import main
from qdigamma.qcore import _EXP_ZERO, _N0, _em_lattice, _em_qk, _last_nonzero, ln1m_exp, ln_q_bracket

from lattice_oracle import pq_ln_gamma_oracle

U = 2.0 ** -53
P_EM = (_N0 + 1, 10**4, 10**5, 10**6, 10**7, 10**8)
# q^n stays nonzero past n = N0 at these q, so every p above takes the lattice route
Q_EM = (0.999, 1.0 - 1e-6, 1.0 - 1e-9)
# the points of P_EM x Q_EM with p eps << 1 that the direct route summed while its cut-off was 2^17
# factors: S_1(eps (p+1)) and S_1(eps (t+p+1)) are both near pi^2/(6 eps) there
MOVED = [(p, q) for p in P_EM if p < 1 << 17 for q in Q_EM if q > 0.999]


def is_em(res) -> bool:
    """The direct route sums the finite product exactly (tail 0); the lattice route bounds its remainder."""
    return res.tail_bound > 0.0


def rounding(t: float, q: float, p: int, value: float) -> float:
    """Rounding allowance 64 u (sum of |log factors| + |value|) of ln Gamma_pq(t).

    The log factors are ln(1-q), t ln[p]_q and the first terms ln(1 - q^a) of
    the factorial (a = 1) and shifted (a = t) sums.  The sums themselves, each
    up to about pi^2 / (6 eps) with eps = -ln q, are not counted: the direct
    route adds their terms pairwise, and the lattice route leaves their
    largest parts to exact cancellations (the near pair's pi^2/6 units) or
    forms their difference term by term (the far pair).
    """
    ln_q = math.log(q)
    logs = abs(ln1m_exp(ln_q)) + abs(t * ln_q_bracket(p, ln_q))
    logs += abs(ln1m_exp(t * ln_q)) + abs(ln1m_exp(ln_q))
    return 64.0 * U * (logs + abs(value))


@pytest.mark.parametrize("q", (0.9,) + Q_EM)
@pytest.mark.parametrize("p", P_EM)
def test_closed_forms(p, q):
    """ln Gamma_pq(1) = ln[p]_q - ln[p+1]_q and the shift identity
    ln Gamma_pq(t+1) - ln Gamma_pq(t) = ln[p]_q + ln[t]_q - ln[t+p+1]_q."""
    mp = pytest.importorskip("mpmath")
    params = DeformParams.pq(p, q)
    with mp.workdps(40):
        qq = mp.mpf(q)

        def ln_bracket(x):
            return mp.log(-mp.expm1(x * mp.log(qq))) - mp.log(1 - qq)

        at_one = ln_gamma_pq(1.0, params)
        assert is_em(at_one)  # at q = 0.9, q^n underflows near n = 7,072, past N0 too
        assert at_one.tail_bound <= Tolerance().abs_tol
        want = ln_bracket(p) - ln_bracket(p + 1)
        assert abs(at_one.value - want) <= at_one.tail_bound + rounding(1.0, q, p, at_one.value)
        for t in (0.37, 2.5):
            lo, hi = ln_gamma_pq(t, params), ln_gamma_pq(t + 1.0, params)
            tm = mp.mpf(t)
            want = ln_bracket(p) + ln_bracket(tm) - ln_bracket(tm + p + 1)
            allowed = (lo.tail_bound + hi.tail_bound
                       + rounding(t, q, p, lo.value) + rounding(t + 1.0, q, p, hi.value))
            assert abs((hi.value - lo.value) - want) <= allowed, (p, q, t, lo, hi)


@pytest.mark.parametrize("q", Q_EM)
@pytest.mark.parametrize("p", P_EM)
def test_em_values_match_the_40_digit_oracle(p, q):
    params = DeformParams.pq(p, q)
    for t in (1e-3, 0.5, 7.3):
        res = ln_gamma_pq(t, params)
        assert is_em(res) and res.terms_used < 100 and res.tail_bound <= Tolerance().abs_tol
        error = abs(pq_ln_gamma_oracle(t, q, p) - res.value)
        assert error <= res.tail_bound + rounding(t, q, p, res.value), (p, q, t, res, float(error))


@pytest.mark.parametrize("p,q", MOVED)
def test_moved_points_are_no_farther_from_the_oracle(p, q, monkeypatch):
    """Points whose factorial has more than N0 but at most 2^17 nonzero terms left the direct route."""
    import qdigamma.qcore as qcore

    params, ts = DeformParams.pq(p, q), (1e-3, 0.37, 0.5, 1.0, 2.5, 7.3)
    lattice = evaluate("ln-gamma", params, ts)
    monkeypatch.setattr(qcore, "_N0", 1 << 17)  # the direct route of the former cut-off
    direct = evaluate("ln-gamma", params, ts)
    for t, new, old in zip(ts, lattice, direct):
        assert is_em(new) and not is_em(old) and old.terms_used == p
        want = pq_ln_gamma_oracle(t, q, p)
        assert abs(want - new.value) <= abs(want - old.value), (p, q, t, new, old)


def test_batch_is_bit_identical_to_scalar_calls():
    rng = random.Random("pq-em-batch")
    for p, q in ((_N0 + 1, 0.999), (10**4, 1.0 - 1e-9), (10**7, 1.0 - 1e-6), (10**8, 1.0 - 1e-9)):
        params = DeformParams.pq(p, q)
        ts = [1.0, 1e-200, 1e-3] + sorted(10.0 ** rng.uniform(-2.0, 3.0) for _ in range(8))
        for t, got in zip(ts, evaluate("ln-gamma", params, ts)):
            want = ln_gamma_pq(t, params)
            assert is_em(got)
            assert (got.value, got.tail_bound, got.terms_used) == \
                (want.value, want.tail_bound, want.terms_used)
            assert math.copysign(1.0, got.value) == math.copysign(1.0, want.value)


def test_em_agrees_with_the_direct_sum_just_above_n0(monkeypatch):
    import qdigamma.qcore as qcore

    params = DeformParams.pq(_N0 + 1, 0.999)
    ts = (0.05, 1.0, 3.7)
    em = evaluate("ln-gamma", params, ts)
    monkeypatch.setattr(qcore, "_N0", 1 << 18)  # the same points, summed term by term
    direct = evaluate("ln-gamma", params, ts)
    for t, a, b in zip(ts, em, direct):
        assert is_em(a) and not is_em(b) and b.terms_used > _N0
        allowed = a.tail_bound + rounding(t, 0.999, _N0 + 1, a.value) + rounding(t, 0.999, _N0 + 1, b.value)
        assert abs(a.value - b.value) <= allowed, (t, a, b)


@pytest.mark.parametrize("p,q", [(10**8, 1.0 - 1e-9), (2 * 10**7, 1.0 - 1e-7)])
def test_factors_past_n_max_evaluate(p, q):
    # their nonzero factors run past the default n_max of 1e7
    res = ln_gamma_pq(1.0, DeformParams.pq(p, q))
    assert is_em(res) and res.terms_used < 100 and res.tail_bound <= Tolerance().abs_tol
    ln_q = math.log(q)
    want = ln_q_bracket(p, ln_q) - ln_q_bracket(p + 1, ln_q)
    assert abs(res.value - want) <= rounding(1.0, q, p, res.value)


@pytest.mark.parametrize("count", [9, 40, 10**6, None])
def test_finite_lattice_sum_matches_its_terms(count):
    # the infinite sum S(a) (count None), or the finite one S(a) - S(a + c h) as one signed pair
    a, h = 0.3, 0.05
    pair = (a,) if count is None else (a, a + count * h)
    res = _em_lattice(1, (pair,), h, 0.0, 1.0, Tolerance())
    # terms past m = 1e5 are below 1e-2000
    direct = math.fsum(-ln1m_exp(-(a + m * h)) for m in range(min(count or 10**5, 10**5)))
    assert 0.0 < res.tail_bound <= Tolerance().abs_tol and res.terms_used < 60
    assert abs(res.value - direct) <= res.tail_bound + 64 * U * direct


@pytest.mark.parametrize("p,q", [(3, 0.6), (50, 0.3), (10**4, 0.9), (_N0 + 1, 0.999), (10**6, 0.999)])
@pytest.mark.parametrize("t", [0.37, 1.0, 2.5])
def test_q_gamma_identity_across_families(p, q, t):
    # Gamma_pq(t) = [p]_q^t Gamma_q(p+1) Gamma_q(t) / Gamma_q(t+p+1), with Gamma_q the (q,k)-gamma at k = 1
    qk = DeformParams.qk(q, 1.0)
    pq_res = ln_gamma_pq(t, DeformParams.pq(p, q))
    assert is_em(pq_res) == (p > _N0)
    qk_res = [ln_gamma_qk(x, qk) for x in (p + 1.0, t, t + p + 1.0)]
    terms = [t * ln_q_bracket(p, math.log(q))] + [res.value for res in qk_res]
    want = terms[0] + terms[1] + terms[2] - terms[3]
    tails = pq_res.tail_bound + sum(res.tail_bound for res in qk_res)
    logs = abs(pq_res.value) + sum(map(abs, terms)) + math.pi ** 2 / (3.0 * -math.log(q))
    assert abs(pq_res.value - want) <= tails + 64.0 * U * logs, (p, q, t, pq_res, want)


@pytest.mark.parametrize("p", [10**3, 10**6])  # the direct route, then the lattice route
def test_overflowing_value_is_refused(p):
    # t ln[p]_q overflows at t = 1.7e308
    params = DeformParams.pq(p, 0.999)
    assert is_em(ln_gamma_pq(1.0, params)) == (p > _N0)
    with pytest.raises(TruncationNotConverged):
        ln_gamma_pq(1.7e308, params)
    with pytest.raises(TruncationNotConverged):  # a batch raises at its first point that fails
        evaluate("ln-gamma", params, [1.0, 1.7e308, 0.0])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["eval", "--family", "pq", "--p", str(p), "--q", "0.999", "--t", "1.7e308", "--fn", "ln-gamma"])
    assert code == 3 and "TruncationNotConverged" in err.getvalue(), err.getvalue()


@pytest.mark.parametrize("q,k,t", [(0.5, 0.001, 1e306)])
def test_overflowing_qk_value_is_refused(q, k, t):
    # ln Gamma_qk on the Euler-Maclaurin route: about 6.9e308, past every double
    params = DeformParams.qk(q, k)
    with pytest.raises(TruncationNotConverged):
        ln_gamma_qk(t, params)
    with pytest.raises(TruncationNotConverged):  # a batch raises at its first point that fails
        evaluate("ln-gamma", params, [1.0, t, 0.0])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["eval", "--family", "qk", "--q", str(q), "--k", str(k), "--t", str(t), "--fn", "ln-gamma"])
    assert code == 3 and "TruncationNotConverged" in err.getvalue(), err.getvalue()


@pytest.mark.parametrize("q,k,t,value,em", [
    (0.0173, 0.0306, 1.9e307, 1.0835832635992211e307, False),
    (0.5, 1e-6, 2e302, 1.3862943611198907e308, True),
])
def test_qk_value_past_an_overflowing_t_over_k_is_returned(q, k, t, value, em):
    # t/k overflows in the lead -(t/k - 1) ln(1-q) of ln Gamma_qk, but the value fits in a double
    mp = pytest.importorskip("mpmath")
    params = DeformParams.qk(q, k)
    res = ln_gamma_qk(t, params)
    assert res.value == value
    assert (_em_qk("ln-gamma", params, t, Tolerance()) == res) == em
    with mp.workdps(40):  # the summed part is O(1), far below the lead's last bit
        lead = float(-(mp.mpf(t) / mp.mpf(k) - 1) * mp.log1p(-mp.mpf(q)))
    assert abs(value - lead) <= 4.0 * math.ulp(lead)
    assert evaluate("ln-gamma", params, [1.0, t]) == [ln_gamma_qk(1.0, params), res]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["eval", "--family", "qk", "--q", str(q), "--k", str(k), "--t", str(t), "--fn", "ln-gamma"])
    assert code == 0 and json.loads(out.getvalue())["result"]["value"] == value


def test_n_max_caps_the_lattice_terms():
    params = DeformParams.pq(10**6, 0.999)
    with pytest.raises(TruncationNotConverged):
        ln_gamma_pq(1.0, params, Tolerance(n_max=20))
    assert ln_gamma_pq(1.0, params, Tolerance(n_max=100)) == ln_gamma_pq(1.0, params)


# -- the direct route's combination ln(1-q) + t ln[p]_q + (factorial - shifted) --


def direct_oracle(t: float, q: float, p: int):
    """(ln Gamma_pq(t), sum of |log factors|) at 40 digits, the sums cut where q^n < 1e-60."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        qq, tt = mp.mpf(q), mp.mpf(t)
        cut = min(p, math.ceil(60.0 * math.log(10.0) / -math.log(q)))
        fact = [mp.log1p(-qq ** n) for n in range(1, cut + 1)]
        shifted = [mp.log1p(-qq ** (tt + n)) for n in range(0, cut + 1)]
        lead = mp.log1p(-qq)
        middle = tt * (mp.log1p(-qq ** p) - lead)
        value = lead + middle + mp.fsum(fact) - mp.fsum(shifted)
        logs = abs(lead) + abs(middle) + mp.fsum(map(abs, fact)) + mp.fsum(map(abs, shifted))
        return value, float(logs)


@pytest.mark.parametrize("p,q,t", [(_N0, 0.99, 2.0), (1000, 0.999, 0.7)])
def test_direct_route_points_that_lost_digits_to_cancellation(p, q, t):
    # ln(1-q) + t ln[p]_q + (fact - s): no p ln(1-q) pieces, some 5,000 here, to cancel against each other
    res = ln_gamma_pq(t, DeformParams.pq(p, q))
    assert not is_em(res)
    assert abs(direct_oracle(t, q, p)[0] - res.value) <= 1e-13


def test_direct_route_sweep_within_rounding():
    rng = random.Random("pq-direct-rounding")
    for _ in range(12):
        # up to N0 factors for any q; for larger p, q <= 0.48, where q^n underflows before n = N0
        p, t = round(10.0 ** rng.uniform(0.0, 5.0)), rng.uniform(0.05, 8.0)
        q = rng.uniform(0.1, 0.99 if p <= _N0 else 0.48)
        res = ln_gamma_pq(t, DeformParams.pq(p, q))
        assert not is_em(res)
        want, logs = direct_oracle(t, q, p)
        assert abs(want - res.value) <= 64.0 * U * (logs + abs(res.value)), (p, q, t, res)


def test_direct_route_term_count_is_what_it_sums():
    # the factorial terms' last nonzero index, as summed: q^n underflows past n = 933 at q = 0.45
    res = ln_gamma_pq(1.5, DeformParams.pq(10**6, 0.45))
    n = np.arange(1, 10**4, dtype=np.float64)
    assert not is_em(res) and res.terms_used == int(np.count_nonzero(np.exp(n * math.log(0.45)))) == 933


def _q_with_last_nonzero_factor(n: int) -> float:
    """A q whose power q^m is 0.0 from m = n + 1 on, not before."""
    q = math.exp(_EXP_ZERO / (n + 0.5))
    assert _last_nonzero(0.0, math.log(q), 1, 10**8) == n
    return q


@pytest.mark.parametrize("n", [_N0, _N0 + 1])
def test_the_cut_off_is_n0_nonzero_factorial_terms(n):
    # N0 nonzero factors are summed directly and N0 + 1 take the lattice, whether p or the
    # underflow of q^n ends the factorial, in one-point and batch calls alike
    ts = [0.37, 1.0, 2.5, 1e-3]
    for params in (DeformParams.pq(n, 0.9), DeformParams.pq(10**8, _q_with_last_nonzero_factor(n))):
        batch = evaluate("ln-gamma", params, ts)
        for t, got in zip(ts, batch):
            one = ln_gamma_pq(t, params)
            assert got == one and is_em(one) == (n > _N0), (params, t, one)
            assert one.terms_used == n if n <= _N0 else one.terms_used < 100
