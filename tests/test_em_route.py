"""The Euler-Maclaurin route of the (q,k) kernels: agreement with the direct
route and with a 40-digit oracle, exact identities, batches, and no cap hits
over the advertised domain."""

from __future__ import annotations

import contextlib
import io
from fractions import Fraction
import math
import random
import time

import numpy as np

import pytest

from qdigamma import (DeformParams, Tolerance, TruncationNotConverged, evaluate, ln_gamma_qk, psi_qk,
                      psi_qk_prime)
from qdigamma.cli import main
from qdigamma.params import K_MAX, K_MIN, Q_MAX, Q_MIN
from qdigamma import qcore
from qdigamma.qcore import _EM_M, _N0, _P_MAX, _em_qk, ln1m_exp, psi_qk_direct_count

from lattice_oracle import qk_oracle

mp = pytest.importorskip("mpmath")

U = 2.0 ** -53
KERNELS = {"psi": psi_qk, "psi-prime": psi_qk_prime, "ln-gamma": ln_gamma_qk}


def route(fn: str, t: float, params: DeformParams, res) -> str:
    """The route that gave res: "em" where it is the Euler-Maclaurin helper's result."""
    return "em" if res == _em_qk(fn, params, t, Tolerance()) else "direct"


def rounding(fn: str, value: float, t: float, q: float, k: float, terms: int, how: str) -> float:
    """Rounding allowance of a (q,k) value formed from `terms` terms on the route `how`.

    psi and psi': 256 u |value - lead| + 8 u |lead|.  ln Gamma: 8 u |lead| + 64 u (e(k) + e(t) + 2),
    where e(a) sums, over the log terms ln(1 - e^-y) at y = eps (a + m k), m < n, the scale of each
    term's rounding: on the Euler-Maclaurin route, which forms it as ln(-expm1(-y)), its size, at
    most 1/y, so that allowance does not grow like 1/eps; on the direct route, whose log1p(-e^-y) is
    off by up to u / y, 1/y.
    """
    eps = -math.log(q)
    if fn != "ln-gamma":
        lead = -math.log1p(-q) / k if fn == "psi" else 0.0
        return U * (256.0 * abs(value - lead) + 8.0 * abs(lead))
    m = np.arange(max(terms, 1), dtype=np.float64)

    def log_terms(a: float) -> float:
        y = eps * (a + m * k)
        return float(np.sum(-np.log(-np.expm1(-y)) if how == "em" else 1.0 / y))

    lead = (t / k - 1.0) * math.log1p(-q)
    return U * (8.0 * abs(lead) + 64.0 * (log_terms(k) + log_terms(t) + 2.0))


@pytest.mark.parametrize("fn", list(KERNELS))
def test_em_helper_agrees_with_the_direct_route(fn, monkeypatch):
    monkeypatch.setattr(qcore, "_N0", 1 << 17)  # every point below summed directly
    for q in (0.3, 0.9, 0.99, 0.999):
        for k in (0.5, 1.0, 2.5):
            params = DeformParams.qk(q, k)
            for t in (0.4, 1.0, 3.0, 7.5):
                direct = KERNELS[fn](t, params)
                em = _em_qk(fn, params, t, Tolerance())
                assert route(fn, t, params, direct) == "direct"
                allowed = (direct.tail_bound + em.tail_bound
                           + rounding(fn, direct.value, t, q, k, direct.terms_used, "direct")
                           + rounding(fn, em.value, t, q, k, em.terms_used, "em"))
                assert abs(direct.value - em.value) <= allowed, (fn, q, k, t, direct, em)


@pytest.mark.parametrize("fn", list(KERNELS))
def test_values_near_q_max_match_the_oracle(fn):
    for q in (1.0 - 1e-6, 1.0 - 1e-7, Q_MAX):
        for k in (K_MIN, 1.0, K_MAX):
            params = DeformParams.qk(q, k)
            for t in (1e-3, 1.0, 50.0):
                res = KERNELS[fn](t, params)
                assert res.tail_bound <= Tolerance().abs_tol
                error = abs(mp.mpf(res.value) - qk_oracle(fn, t, q, k))
                how = route(fn, t, params, res)
                allowed = res.tail_bound + rounding(fn, res.value, t, q, k, res.terms_used, how)
                assert error <= allowed, (fn, q, k, t, res, float(error), allowed)


def test_routes_near_one():
    params = DeformParams.qk(1.0 - 1e-5, 1.0)
    for kernel in KERNELS.values():
        res = kernel(1.0, params)
        assert res.terms_used < 100
    # past N0 direct terms all three take the Euler-Maclaurin route, ln Gamma included
    params = DeformParams.qk(0.99, 1.0)
    assert _N0 < psi_qk_direct_count(1.0, params)[0] <= 1 << 17
    assert [route(fn, 1.0, params, KERNELS[fn](1.0, params)) for fn in KERNELS] == ["em", "em", "em"]
    direct = DeformParams.qk(0.9, 1.0)
    assert psi_qk(1.0, direct).terms_used == psi_qk_direct_count(1.0, direct)[0] <= _N0
    assert [route(fn, 1.0, direct, KERNELS[fn](1.0, direct)) for fn in KERNELS] == ["direct"] * 3


@pytest.mark.parametrize("q", [1.0 - 1e-5, 1.0 - 1e-6, 1.0 - 1e-9])
def test_ln_gamma_near_one_matches_the_oracle(q):
    # S_1(t) - S_1(k), two sums of about pi^2/(6 eps k), leave their pi^2/6 to an exact cancellation
    ln_q = math.log(q)
    for k in (0.5, 1.0, 2.5):
        params = DeformParams.qk(q, k)
        for t in (0.3, 2.5, 7.0):
            res = ln_gamma_qk(t, params)
            assert route("ln-gamma", t, params, res) == "em" and res.tail_bound <= Tolerance().abs_tol
            error = abs(mp.mpf(res.value) - qk_oracle("ln-gamma", t, q, k))
            assert error <= 1e-13, (q, k, t, res, float(error))
            # Gamma_qk(t + k) = [t]_q Gamma_qk(t)
            shift = ln_gamma_qk(t + k, params).value - res.value
            assert abs(shift - (ln1m_exp(t * ln_q) - ln1m_exp(ln_q))) <= 1e-12, (q, k, t)


@pytest.mark.parametrize("abs_tol", [1e-100, 1e-120])
def test_tight_tolerance_takes_the_cheaper_route(abs_tol):
    # about 2,200 to 2,700 direct terms, where the Euler-Maclaurin lattice would need millions
    params, tol = DeformParams.qk(0.9, 1.0), Tolerance(abs_tol=abs_tol)
    for fn, kernel in KERNELS.items():
        start = time.perf_counter()
        res = kernel(1.0, params, tol)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.05 and res.tail_bound <= abs_tol, (fn, res, elapsed)
        assert _N0 < res.terms_used < 4 * _N0, (fn, res)
        # the lattice returns None once its predicted length passes the cap, before summing a term
        assert _em_qk(fn, params, 1.0, tol, m_cap=res.terms_used * _EM_M / _N0) is None
    assert psi_qk(1.0, params, tol).terms_used == psi_qk_direct_count(1.0, params, tol)[0]


def test_found_point_grows_the_order_before_the_lattice():
    # with 8 corrections the lattice summed 9,474,365 terms here (seconds); up to 25 need a few hundred
    params, tol = DeformParams.qk(0.9998747630499818, 0.012873206549316946), Tolerance(abs_tol=1.2847920292193221e-110)
    start = time.perf_counter()
    res = psi_qk(2.23793538828821e-227, params, tol)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.05 and res.value == -4.4684042498872e+226 and res.tail_bound <= tol.abs_tol, (res, elapsed)


@pytest.mark.parametrize("fn", list(KERNELS))
def test_tight_tolerance_near_one_matches_the_oracle(fn):
    q, k, t, tol = 1.0 - 1e-9, 1.0, 1.0, Tolerance(abs_tol=1e-100)
    params = DeformParams.qk(q, k)
    start = time.perf_counter()
    res = KERNELS[fn](t, params, tol)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.05 and res.tail_bound <= tol.abs_tol, (res, elapsed)
    error = abs(mp.mpf(res.value) - qk_oracle(fn, t, q, k))
    assert error <= res.tail_bound + rounding(fn, res.value, t, q, k, res.terms_used, "em"), (res, float(error))


# B_2j / (2j)!, j = 1..8, and the Eulerian rows A_0..A_16, as the module held them before it generated them
PINNED_WEIGHTS = (
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05, -8.267195767195768e-07,
    2.08767569878681e-08, -5.284190138687493e-10, 1.3382536530684679e-11, -3.3896802963225827e-13,
)
PINNED_ROWS = (
    (1,),
    (1,),
    (1, 1),
    (1, 4, 1),
    (1, 11, 11, 1),
    (1, 26, 66, 26, 1),
    (1, 57, 302, 302, 57, 1),
    (1, 120, 1191, 2416, 1191, 120, 1),
    (1, 247, 4293, 15619, 15619, 4293, 247, 1),
    (1, 502, 14608, 88234, 156190, 88234, 14608, 502, 1),
    (1, 1013, 47840, 455192, 1310354, 1310354, 455192, 47840, 1013, 1),
    (1, 2036, 152637, 2203488, 9738114, 15724248, 9738114, 2203488, 152637, 2036, 1),
    (1, 4083, 478271, 10187685, 66318474, 162512286, 162512286, 66318474, 10187685, 478271, 4083, 1),
    (1, 8178, 1479726, 45533450, 423281535, 1505621508, 2275172004, 1505621508, 423281535,
     45533450, 1479726, 8178, 1),
    (1, 16369, 4537314, 198410786, 2571742175, 12843262863, 27971176092, 27971176092,
     12843262863, 2571742175, 198410786, 4537314, 16369, 1),
    (1, 32752, 13824739, 848090912, 15041229521, 102776998928, 311387598411, 447538817472,
     311387598411, 102776998928, 15041229521, 848090912, 13824739, 32752, 1),
    (1, 65519, 41932745, 3572085255, 85383238549, 782115518299, 3207483178157, 6382798925475,
     6382798925475, 3207483178157, 782115518299, 85383238549, 3572085255, 41932745, 65519, 1),
)


def test_em_tables_match_an_exact_regeneration():
    # Bernoulli numbers from sum_{i<=n} C(n+1, i) B_i = 0, Eulerian numbers from their explicit alternating sum
    bernoulli = [Fraction(1)]
    for n in range(1, 2 * _P_MAX + 1):
        bernoulli.append(-sum(math.comb(n + 1, i) * bernoulli[i] for i in range(n)) / (n + 1))
    weights = tuple(float(bernoulli[2 * j] / math.factorial(2 * j)) for j in range(1, _P_MAX + 1))
    rows = ((1,),) + tuple(tuple(sum((-1) ** i * math.comb(n + 1, i) * (m + 1 - i) ** n for i in range(m + 1))
                                 for m in range(n)) for n in range(1, 2 * _P_MAX + 1))
    # rows past A_18 hold integers above 2^53: the module keeps each as its correctly rounded float
    assert qcore._BERNOULLI == weights and qcore._EULERIAN == tuple(tuple(map(float, row)) for row in rows)
    assert qcore._BERNOULLI[:8] == PINNED_WEIGHTS and qcore._EULERIAN[:17] == PINNED_ROWS


def _cut_off_pair(params: DeformParams) -> tuple:
    """(t_em, t_direct): the two ends of a bisected bracket on which psi's closed-form direct count
    falls from above N0 to at most N0 (the count falls as t grows)."""
    lo, hi = 1e-3, 1e6
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if psi_qk_direct_count(mid, params)[0] > _N0 else (lo, mid)
    return lo, hi


@pytest.mark.parametrize("q,k", [(0.9, 1.0), (0.99, 0.3), (0.999, 2.5), (1.0 - 1e-5, 7.0)])
def test_psi_routes_at_the_cut_off(q, k):
    params = DeformParams.qk(q, k)
    t_em, t_direct = _cut_off_pair(params)
    count = psi_qk_direct_count(t_direct, params)[0]
    assert psi_qk_direct_count(t_em, params)[0] > _N0 >= count > _N0 // 2
    res = psi_qk(t_em, params)
    assert res.terms_used < 100 and res == _em_qk("psi", params, t_em, Tolerance())
    # the count sits on its rounding boundary here, so the majorant may widen it by one term
    assert count <= psi_qk(t_direct, params).terms_used <= count + 1


def test_rerouted_points_match_the_oracle():
    # psi and psi' points whose direct count lies in (N0, 2^17]: the direct route's cut-off was 2^17 for them
    rng = random.Random("em-cut-off")
    rerouted = 0
    while rerouted < 60:
        q, k = 1.0 - 10.0 ** rng.uniform(-4.0, math.log10(0.5)), 10.0 ** rng.uniform(math.log10(0.05), math.log10(20.0))
        t = 10.0 ** rng.uniform(-2.0, math.log10(30.0))
        params = DeformParams.qk(q, k)
        if not _N0 < psi_qk_direct_count(t, params)[0] <= 1 << 17:
            continue
        rerouted += 1
        for fn in ("psi", "psi-prime"):
            res = KERNELS[fn](t, params)
            assert res.terms_used < 100 and res.tail_bound <= Tolerance().abs_tol
            error = abs(mp.mpf(res.value) - qk_oracle(fn, t, q, k))
            allowed = res.tail_bound + rounding(fn, res.value, t, q, k, res.terms_used, "em")
            assert error <= allowed, (fn, q, k, t, res, float(error), allowed)


def test_psi_of_a_finite_value_next_to_an_overflowing_term():
    # at y = eps t near 1e-309, 1/(e^y - 1) overflows, but eps/(e^y - 1), and psi, about -1/t, do not
    params = DeformParams.qk(0.999999999, 1.0)
    for t in (1e-300, 3e-305):
        res = psi_qk(t, params)
        assert res.tail_bound <= Tolerance().abs_tol and res.terms_used < 100
        with mp.workdps(40):  # psi(t) = psi(t + k) - eps/(e^(eps t) - 1); psi(t + k) is psi(k) to far below 1 ulp
            eps = -mp.log(mp.mpf(params.q))
            want = qk_oracle("psi", 1.0, params.q, 1.0) - eps / mp.expm1(eps * mp.mpf(t))
        error = abs(mp.mpf(res.value) - want)
        assert error <= res.tail_bound + rounding("psi", res.value, t, params.q, 1.0, res.terms_used, "em"), (t, res)
        assert evaluate("psi", params, [1.0, t]) == [psi_qk(1.0, params), res]
    with pytest.raises(TruncationNotConverged):  # q^t rounds to 1 here
        psi_qk(1e-320, params)


@pytest.mark.parametrize("q,t", [(1.0 - 1e-9, 1e-150), (1.0 - 1e-9, 1e-153), (0.5, 1e-154)])
def test_psi_prime_of_a_finite_value_next_to_an_overflowing_term(q, t):
    # Li_-1(e^-eps t) overflows (or (1 - q^t)^2 underflows) where psi' = 1/t^2 + O(1) still fits:
    # eps^2 Li_-1 goes in the lead as (1/t)^2
    params = DeformParams.qk(q, 1.0)
    res = psi_qk_prime(t, params)
    assert res.tail_bound <= Tolerance().abs_tol and res.terms_used < 100
    want = 1 / mp.mpf(t) ** 2
    assert abs(mp.mpf(res.value) - want) <= 4 * U * want, (q, t, res)
    assert evaluate("psi-prime", params, [1.0, t]) == [psi_qk_prime(1.0, params), res]


def test_psi_prime_refuses_only_where_one_over_t_squared_overflows():
    # the last point before the lead takes over keeps its lattice value, close to 1/t^2 as well
    params = DeformParams.qk(1.0 - 1e-9, 1.0)
    for t in (1e-145, 7e-146):
        res = psi_qk_prime(t, params)
        assert abs(mp.mpf(res.value) - 1 / mp.mpf(t) ** 2) <= 4 * U * res.value, (t, res)
    psi_qk_prime(1.0001e-154, DeformParams.qk(0.5, 1.0))
    for t in (1e-155, 1e-170, 5e-324):
        with pytest.raises(TruncationNotConverged, match="1/t\\^2 overflows"):
            psi_qk_prime(t, DeformParams.qk(0.5, 1.0))


def test_ln_gamma_at_k_is_exactly_zero():
    for q, k in ((1.0 - 1e-5, 0.5), (1.0 - 1e-7, 1.0), (Q_MAX, 3.0), (1.0 - 1e-6, K_MIN)):
        params = DeformParams.qk(q, k)
        res = ln_gamma_qk(k, params)
        assert route("ln-gamma", k, params, res) == "em"
        assert res.value == 0.0 and math.copysign(1.0, res.value) == 1.0


@pytest.mark.parametrize("fn", list(KERNELS))
def test_batches_mixing_routes_match_scalar_calls(fn):
    rng = random.Random(f"em-batch:{fn}")
    lines = [(DeformParams.qk(0.999, 1.0), [0.01, 0.05, 0.2, 0.5, 2.0, 5.0]),
             (DeformParams.qk(1.0 - 1e-6, 0.7), [1e-3, 0.7, 3.0]),
             (DeformParams.qk(0.9, 2.0), sorted(rng.uniform(1e-5, 1e-3) for _ in range(4)) + [0.5, 4.0])]
    routes = set()
    for params, ts in lines:
        batch = evaluate(fn, params, ts)
        for t, got in zip(ts, batch):
            assert got == KERNELS[fn](t, params)
            assert math.copysign(1.0, got.value) == math.copysign(1.0, KERNELS[fn](t, params).value)
            routes.add(route(fn, t, params, got))
    assert routes == {"direct", "em"}


def test_domain_sample_never_hits_the_cap():
    rng = random.Random("em-domain")
    routes = set()
    for i in range(40):
        # one-minus-q log-uniform in half the draws, q itself in the other half
        q = 1.0 - 10.0 ** rng.uniform(-9.0, -0.05) if i % 2 else 10.0 ** rng.uniform(math.log10(Q_MIN), -0.05)
        q = min(max(q, Q_MIN), Q_MAX)
        k = 10.0 ** rng.uniform(math.log10(K_MIN), math.log10(K_MAX))
        t = 10.0 ** rng.uniform(-3.0, math.log10(50.0))
        params = DeformParams.qk(q, k)
        for fn, kernel in KERNELS.items():
            res = kernel(t, params)
            assert math.isfinite(res.value) and res.tail_bound <= Tolerance().abs_tol, (fn, q, k, t)
            routes.add(route(fn, t, params, res))
    assert routes == {"direct", "em"}


def test_em_route_honours_n_max():
    params = DeformParams.qk(1.0 - 1e-6, 1.0)
    with pytest.raises(TruncationNotConverged):
        psi_qk(1.0, params, Tolerance(n_max=10))
    assert psi_qk(1.0, params, Tolerance(n_max=100)) == psi_qk(1.0, params)


@pytest.mark.parametrize("remark", ["3.2", "3.3"])
def test_q_scans_reach_q_max(remark):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["limits", "--remark", remark, "--j-max", "9", "--json"])
    assert code == 0, out.getvalue()
