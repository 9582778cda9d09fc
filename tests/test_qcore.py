"""Core evaluation: values against independent oracles, tails, domain checks."""

from __future__ import annotations

import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdigamma import (
    DeformParams,
    EvalResult,
    DomainError,
    QDigammaError,
    SeriesKind,
    Tolerance,
    TruncationNotConverged,
    brute_force_series,
    evaluate,
    ln_gamma_pq,
    ln_gamma_qk,
    psi_pq,
    psi_pq_prime,
    psi_qk,
    psi_qk_limit,
    psi_qk_prime,
    q_bracket,
)

from qdigamma import qcore, reference
from qdigamma.qcore import _N0, CHUNK, _em_qk, evaluate_columns, evaluate_lines, pairwise_sum

from conftest import brute_ln_gamma_qk, brute_psi_pq, brute_psi_qk, brute_psi_qk_prime
from lattice_oracle import pq_ln_gamma_oracle, qk_oracle

# Values frozen from the plain-loop oracles in conftest (20000 terms).
PSI_QK_1_HALF_K1 = -0.4205290343560458      # brute_psi_qk(1, 0.5, 1)
PSI_QK_2_HALF_K1 = 0.27261814620389946      # brute_psi_qk(2, 0.5, 1)
PSI_QK_1_HALF_K2 = -0.47521995082163354     # brute_psi_qk(1, 0.5, 2)
PSI_QK_PRIME_1_HALF_K1 = 1.3183793521481786  # brute_psi_qk_prime(1, 0.5, 1)


class TestQBracket:
    def test_p1_is_one_for_any_q(self):
        for q in (0.1, 0.5, 0.9, 0.999):
            assert q_bracket(1, q) == pytest.approx(1.0, abs=1e-15)

    def test_direct_arithmetic(self):
        assert q_bracket(3, 0.5) == pytest.approx(1.75, abs=1e-15)
        assert q_bracket(10, 0.9) == pytest.approx((1 - 0.9 ** 10) / 0.1, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            q_bracket(0, 0.5)
        with pytest.raises(DomainError):
            q_bracket(2, 1.0)
        with pytest.raises(DomainError):
            q_bracket(2, -0.1)

    @given(q=st.floats(0.01, 0.99), p=st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_positive_and_increasing_in_p(self, q, p):
        v = q_bracket(p, q)
        assert v > 0.0
        if q ** p > 1e-10:  # increment q^p still representable against v
            assert q_bracket(p + 1, q) > v
        else:
            assert q_bracket(p + 1, q) >= v


class TestPsiQK:
    def test_large_t_approaches_limit(self, qk_half):
        res = psi_qk(100.0, qk_half)
        assert res.value == pytest.approx(-math.log(0.5), abs=1e-13)

    def test_oracle_values(self):
        for (t, q, k), expected in [
            ((1.0, 0.5, 1.0), PSI_QK_1_HALF_K1),
            ((2.0, 0.5, 1.0), PSI_QK_2_HALF_K1),
            ((1.0, 0.5, 2.0), PSI_QK_1_HALF_K2),
        ]:
            res = psi_qk(t, DeformParams.qk(q, k))
            assert res.value == pytest.approx(expected, abs=5e-13)
            # re-derive the frozen constant from the plain-loop oracle
            assert brute_psi_qk(t, q, k) == pytest.approx(expected, abs=1e-14)

    def test_result_contract(self, qk_half):
        tol = Tolerance(abs_tol=1e-10, n_max=100000)
        res = psi_qk(0.7, qk_half, tol)
        assert res.tail_bound <= tol.abs_tol
        assert 1 <= res.terms_used <= tol.n_max

    def test_domain_errors(self, qk_half):
        with pytest.raises(DomainError):
            psi_qk(0.0, qk_half)
        with pytest.raises(DomainError):
            psi_qk(-1.0, qk_half)
        with pytest.raises(DomainError):
            psi_qk(1.0, DeformParams.pq(2, 0.5))
        with pytest.raises(DomainError):
            DeformParams.qk(q=1.0, k=1.0)
        with pytest.raises(DomainError):
            DeformParams.qk(q=0.5, k=0.0)

    def test_not_converged_reports_best_bound(self):
        params = DeformParams.qk(q=0.9, k=1.0)  # about 570 direct terms at t = 0.5
        with pytest.raises(TruncationNotConverged) as exc_info:
            psi_qk(0.5, params, Tolerance(abs_tol=1e-13, n_max=50))
        assert exc_info.value.best_bound > 1e-13
        assert exc_info.value.terms_used == 50

    @given(
        q=st.floats(0.05, 0.9),
        k=st.floats(0.3, 3.0),
        s=st.floats(0.1, 4.0),
        dt=st.floats(0.01, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_nondecreasing_and_below_limit(self, q, k, s, dt):
        params = DeformParams.qk(q, k)
        lo = psi_qk(s, params)
        hi = psi_qk(s + dt, params)
        assert lo.value <= hi.value + 2.0 * (lo.tail_bound + hi.tail_bound)
        assert hi.value <= psi_qk_limit(params)


class TestPsiQKPrime:
    def test_oracle_value(self, qk_half):
        res = psi_qk_prime(1.0, qk_half)
        assert res.value == pytest.approx(PSI_QK_PRIME_1_HALF_K1, abs=5e-13)
        assert brute_psi_qk_prime(1.0, 0.5, 1.0) == pytest.approx(PSI_QK_PRIME_1_HALF_K1, abs=1e-14)

    @given(q=st.floats(0.05, 0.9), k=st.floats(0.3, 3.0), t=st.floats(0.05, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative(self, q, k, t):
        assert psi_qk_prime(t, DeformParams.qk(q, k)).value >= 0.0

    def test_matches_central_difference(self):
        rng = random.Random(2024)
        h = 1e-5
        for _ in range(25):
            q, k, t = rng.uniform(0.2, 0.9), rng.uniform(0.3, 3.0), rng.uniform(0.2, 3.0)
            params = DeformParams.qk(q, k)
            fd = (psi_qk(t + h, params).value - psi_qk(t - h, params).value) / (2 * h)
            assert psi_qk_prime(t, params).value == pytest.approx(fd, abs=1e-6)

    def test_second_order_decay(self):
        # high-curvature points where the h^2 truncation term dominates
        tight = Tolerance(abs_tol=1e-15)
        for q, k, t in [(0.5, 1.0, 0.4), (0.8, 0.5, 0.6), (0.7, 2.0, 0.3)]:
            params = DeformParams.qk(q, k)
            d = psi_qk_prime(t, params, tight).value

            def disc(h):
                fd = (psi_qk(t + h, params, tight).value - psi_qk(t - h, params, tight).value) / (2 * h)
                return abs(d - fd)

            d1, d2 = disc(1e-4), disc(5e-5)
            assert d1 >= 1e-9, "probe point lost its curvature"
            assert 3.0 <= d1 / d2 <= 5.0
            # a decade in h is two orders in the discrepancy
            assert 50.0 <= d1 / disc(1e-5) <= 200.0


class TestPsiPQ:
    def test_single_term_closed_form(self):
        # [1]_q = 1 so the lead vanishes and the one term is q/(1-q)
        res = psi_pq(1.0, DeformParams.pq(1, 0.5))
        assert res.value == pytest.approx(math.log(0.5), abs=1e-15)
        assert res.tail_bound == 0.0
        assert res.terms_used == 1

    def test_two_term_example(self):
        expected = math.log(1.5) + math.log(0.5) * (1.0 + 1.0 / 3.0)
        res = psi_pq(1.0, DeformParams.pq(2, 0.5))
        assert res.value == pytest.approx(expected, abs=1e-15)

    def test_three_term_oracle(self):
        res = psi_pq(2.0, DeformParams.pq(3, 0.9))
        assert res.value == pytest.approx(brute_psi_pq(2.0, 3, 0.9), abs=1e-14)

    def test_prime_single_term(self):
        res = psi_pq_prime(1.0, DeformParams.pq(1, 0.5))
        assert res.value == pytest.approx(math.log(0.5) ** 2, abs=1e-15)

    @given(q=st.floats(0.05, 0.95), p=st.integers(1, 60), t=st.floats(0.05, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_prime_positive(self, q, p, t):
        assert psi_pq_prime(t, DeformParams.pq(p, q)).value > 0.0

    def test_matches_central_difference(self):
        # 1e-8 needs the h^2 curvature term small, hence t bounded away from 0
        rng = random.Random(77)
        h = 1e-5
        for _ in range(25):
            q, p, t = rng.uniform(0.2, 0.9), rng.randint(1, 40), rng.uniform(0.5, 3.0)
            params = DeformParams.pq(p, q)
            fd = (psi_pq(t + h, params).value - psi_pq(t - h, params).value) / (2 * h)
            assert psi_pq_prime(t, params).value == pytest.approx(fd, abs=1e-8)

    def test_monotone_pairs_zero_slack(self):
        rng = random.Random(31)
        for _ in range(50):
            q, p = rng.uniform(0.05, 0.95), rng.randint(1, 40)
            s = rng.uniform(0.1, 5.0)
            t = s + rng.uniform(0.001, 3.0)
            params = DeformParams.pq(p, q)
            assert psi_pq(s, params).value <= psi_pq(t, params).value
            assert psi_pq_prime(s, params).value >= psi_pq_prime(t, params).value


class TestLnGammaQK:
    def test_value_one_at_k(self):
        for q, k in [(0.5, 1.0), (0.5, 2.0), (0.3, 0.7), (0.9, 3.5)]:
            res = ln_gamma_qk(k, DeformParams.qk(q, k))
            assert abs(res.value) <= 1e-12

    def test_q_gamma_of_two_is_one(self):
        # Gamma_{q,1}(2) = [1]_q = 1, i.e. log value 0
        res = ln_gamma_qk(2.0, DeformParams.qk(0.5, 1.0))
        assert abs(res.value) <= 1e-13
        assert brute_ln_gamma_qk(2.0, 0.5, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_central_difference_gives_psi(self):
        rng = random.Random(5)
        h = 1e-5
        for _ in range(20):
            q, k, t = rng.uniform(0.2, 0.9), rng.uniform(0.3, 3.0), rng.uniform(0.3, 4.0)
            params = DeformParams.qk(q, k)
            fd = (ln_gamma_qk(t + h, params).value - ln_gamma_qk(t - h, params).value) / (2 * h)
            assert fd == pytest.approx(psi_qk(t, params).value, abs=1e-6)

    def test_oracle_value(self):
        res = ln_gamma_qk(1.3, DeformParams.qk(0.6, 1.7))
        assert res.value == pytest.approx(brute_ln_gamma_qk(1.3, 0.6, 1.7), abs=1e-12)


class TestLnGammaPQ:
    def test_telescoped_value(self):
        # Gamma_pq(1) = [p]_q / [p+1]_q by telescoping
        res = ln_gamma_pq(1.0, DeformParams.pq(2, 0.5))
        assert res.value == pytest.approx(math.log(6.0 / 7.0), abs=1e-14)

    def test_p1_closed_form(self):
        for q in (0.2, 0.5, 0.8):
            res = ln_gamma_pq(1.0, DeformParams.pq(1, q))
            assert res.value == pytest.approx(math.log(1.0 / (1.0 + q)), abs=1e-14)

    def test_telescope_general_p(self):
        for p in range(1, 21):
            res = ln_gamma_pq(1.0, DeformParams.pq(p, 0.7))
            expected = math.log(q_bracket(p, 0.7) / q_bracket(p + 1, 0.7))
            assert res.value == pytest.approx(expected, abs=1e-12)

    def test_derivative_is_shifted_series_not_psi_pq(self):
        # The finite digamma sum and the log-gamma product are two distinct
        # conventions: d/dt ln Gamma_pq equals
        # ln[p]_q + ln q * sum_{n=0..p} q^(t+n)/(1 - q^(t+n)),
        # which differs from psi_pq's sum over q^(nt)/(1-q^n) for p finite.
        h = 1e-5
        for p, q, t in [(1, 0.5, 1.0), (3, 0.7, 0.8), (8, 0.4, 2.0)]:
            params = DeformParams.pq(p, q)
            fd = (ln_gamma_pq(t + h, params).value - ln_gamma_pq(t - h, params).value) / (2 * h)
            ln_q = math.log(q)
            shifted = math.log(q_bracket(p, q)) + ln_q * math.fsum(
                math.exp((t + n) * ln_q) / -math.expm1((t + n) * ln_q) for n in range(0, p + 1)
            )
            assert fd == pytest.approx(shifted, abs=1e-8)
            gap_predicted = abs(shifted - psi_pq(t, params).value)
            assert abs(fd - psi_pq(t, params).value) == pytest.approx(gap_predicted, abs=1e-8)


class TestTailSoundness:
    def test_partial_sum_gap_below_bound(self):
        rng = random.Random(99)
        for _ in range(40):
            q, k, t = rng.uniform(0.1, 0.9), rng.uniform(0.3, 3.0), rng.uniform(0.2, 4.0)
            params = DeformParams.qk(q, k)
            tol = Tolerance(abs_tol=10.0 ** rng.uniform(-12, -6))
            res = psi_qk(t, params, tol)
            n = max(res.terms_used, 1)
            lo = brute_force_series(SeriesKind.PSI_QK, t, params, n)
            hi = brute_force_series(SeriesKind.PSI_QK, t, params, 4 * n)
            assert abs(lo - hi) <= res.tail_bound + 1e-15

            res_p = psi_qk_prime(t, params, tol)
            n = max(res_p.terms_used, 1)
            lo = brute_force_series(SeriesKind.PSI_QK_PRIME, t, params, n)
            hi = brute_force_series(SeriesKind.PSI_QK_PRIME, t, params, 4 * n)
            assert abs(lo - hi) <= res_p.tail_bound + 1e-15

    def test_ln_gamma_tail(self):
        rng = random.Random(7)
        for _ in range(15):
            q, k, t = rng.uniform(0.1, 0.9), rng.uniform(0.3, 3.0), rng.uniform(0.2, 4.0)
            params = DeformParams.qk(q, k)
            res = ln_gamma_qk(t, params)
            n = max(res.terms_used, 1)
            lo = brute_force_series(SeriesKind.LNGAMMA_QK, t, params, n)
            hi = brute_force_series(SeriesKind.LNGAMMA_QK, t, params, 4 * n)
            assert abs(lo - hi) <= res.tail_bound + 1e-15


SCALAR = {
    ("qk", "psi"): psi_qk, ("qk", "psi-prime"): psi_qk_prime, ("qk", "ln-gamma"): ln_gamma_qk,
    ("pq", "psi"): psi_pq, ("pq", "psi-prime"): psi_pq_prime, ("pq", "ln-gamma"): ln_gamma_pq,
}


def _batch_grid(family: str, rng: random.Random):
    """Seeded (params, ts) lines: blocks of many rows, t ranges over which the term count changes,
    and for the PQ sums p > CHUNK, sums past one CHUNK, unsplit (q = 1 - 1e-7) and split (q = 1 - 1e-8,
    each part past one CHUNK); for the (q,k) family, lines past N0 direct terms (q = 0.999); and lines
    whose route, or whether the PQ sums split, changes with t."""
    if family == "qk":
        wide = [DeformParams.qk(0.999, 1.0)]
        params = [DeformParams.qk(q, k) for q, k in ((0.5, 1.0), (0.9, 2.5))]
        params += [DeformParams.qk(rng.uniform(0.05, 0.95), rng.uniform(0.3, 3.0)) for _ in range(3)]
    else:
        wide = [DeformParams.pq(p, q) for p, q in ((CHUNK + 7000, 0.9999), (CHUNK + 7000, 1.0 - 1e-7),
                                                    (10**6, 1.0 - 1e-8))]
        params = [DeformParams.pq(p, q) for p, q in ((CHUNK + 7000, 0.5), (30, 0.1))]
        params += [DeformParams.pq(rng.randint(1, 300), rng.uniform(0.05, 0.99)) for _ in range(3)]
    lines = [(prm, sorted(rng.uniform(0.2, 0.4) for _ in range(6))) for prm in wide]
    for prm in params:
        for lo, hi, count in ((0.05, 0.3, 6), (0.3, 6.0, 120), (5.0, 400.0, 20)):
            ts = sorted(rng.uniform(lo, hi) for _ in range(count))
            if family == "qk":
                ts[count // 2] = prm.k  # ln Gamma_qk(k) = 0: every term is an exact zero
            lines.append((prm, ts))
    if family == "qk":  # ln Gamma sums about 900 to 1,000 terms directly here
        lines.append((DeformParams.qk(0.96, 1.0), sorted(rng.uniform(0.01, 50.0) for _ in range(40))))
    return lines


# (params, points that evaluate, a t whose ln Gamma overflows or None) per kernel.  The (q,k) psi and
# psi' points at q = 1 - 1e-5 take the direct route at t = 1e4 and the Euler-Maclaurin route at t = 1; at
# (q, k) = (0.5, 0.1) ln Gamma takes the direct route at t = 1 and at the overflowing t = 1e308,
# the Euler-Maclaurin route at t = 1e-307.  The PQ ln Gamma batch takes one route for all its points:
# the lattice route at p = 1e6, the direct one at p = 1e3.  psi_pq and psi_pq' are exact finite sums,
# split at p = 1e6, q = 0.999.
FIRST_FAILURE = {
    ("qk", "psi"): [(DeformParams.qk(1.0 - 1e-5, 1.0), [1e4, 1.0], None)],
    ("qk", "psi-prime"): [(DeformParams.qk(1.0 - 1e-5, 1.0), [1e4, 1.0], None)],
    ("qk", "ln-gamma"): [(DeformParams.qk(1.0 - 1e-5, 1.0), [1.0], 1e308),
                         (DeformParams.qk(0.5, 0.1), [1.0, 1e-307], 1e308)],
    # at huge p and tiny t the split sums a few dozen terms to a value past the floats: psi near p ln q,
    # psi' near 1 / t^2
    # psi' near 1 / t^2; and p past the largest float, where q^(p t) may be nonzero at the held p at t = 1e-307
    ("pq", "psi"): [(DeformParams.pq(10**6, 0.999), [1.0, 2.5], None),
                    (DeformParams.pq(10**307, 1e-9), [1.0, 2.5], 1e-310),
                    (DeformParams.pq(10**309, 0.5), [1.0, 2.5], 1e-307)],
    ("pq", "psi-prime"): [(DeformParams.pq(10**6, 0.999), [1.0, 2.5], None),
                          (DeformParams.pq(10**200, 0.5), [1.0, 2.5], 1e-160),
                          (DeformParams.pq(10**309, 0.5), [1.0, 2.5], 1e-307)],
    ("pq", "ln-gamma"): [(DeformParams.pq(10**6, 0.999), [1.0, 2.5], 1.7e308),
                         (DeformParams.pq(10**3, 0.999), [1.0, 2.5], 1.7e308)],
}


class TestEvaluate:
    @pytest.mark.parametrize("family", ["qk", "pq"])
    @pytest.mark.parametrize("fn", ["psi", "psi-prime", "ln-gamma"])
    def test_batch_is_bit_identical_to_scalar_kernel(self, family, fn):
        rng = random.Random(f"batch:{family}:{fn}")
        counts, routes, long, crossing = set(), set(), set(), 0
        for params, ts in _batch_grid(family, rng):
            batch = evaluate(fn, params, ts)
            assert len(batch) == len(ts)
            for t, got in zip(ts, batch):
                want = SCALAR[family, fn](t, params)
                assert (got.value, got.tail_bound, got.terms_used) == (want.value, want.tail_bound, want.terms_used)
                assert math.copysign(1.0, got.value) == math.copysign(1.0, want.value)
                counts.add(got.terms_used)
            if family == "qk":
                em = [got == _em_qk(fn, params, t, Tolerance()) for t, got in zip(ts, batch)]
            elif fn != "ln-gamma":
                em = [_is_split(params, t, got.terms_used) for t, got in zip(ts, batch)]
                long |= {split for got, split in zip(batch, em) if got.terms_used > CHUNK}
            else:  # the lattice route bounds a remainder, the direct one sums the finite product exactly
                em = [got.tail_bound > 0.0 for got in batch]
            routes |= set(em)
            crossing += set(em) == {True, False}
        # the grid lets the term count vary and, for the PQ sums, reaches past one CHUNK, split and
        # unsplit; the (q,k) kernels and ln Gamma_pq sum at most about N0 terms directly at the
        # default tolerance, and take both routes.  psi and psi' take both routes, or split and
        # unsplit sums, within one batch (ln Gamma_pq's route does not depend on t)
        assert len(counts) > 5
        if family == "qk":
            assert routes == {True, False} and max(counts) > _N0 // 2
        elif fn == "ln-gamma":
            assert routes == {True, False}
        else:
            assert max(counts) > CHUNK
            assert long == routes == {True, False}
        assert crossing > 0 or fn == "ln-gamma"

    def test_one_result_per_point(self):
        params = DeformParams.qk(0.5, 1.0)
        assert evaluate("psi", params, []) == []
        (res,) = evaluate("psi", params, [2.0])
        assert isinstance(res, EvalResult) and res == psi_qk(2.0, params)

    def test_raises_first_failing_point(self):
        params = DeformParams.qk(0.9, 1.0)  # psi(0.5) takes about 570 direct terms, past n_max
        tol = Tolerance(abs_tol=1e-13, n_max=50)
        with pytest.raises(DomainError, match="t=-1.0"):
            evaluate("psi", params, [5000.0, -1.0, 0.5], tol)
        with pytest.raises(TruncationNotConverged):
            evaluate("psi", params, [5000.0, 0.5, -1.0], tol)

    @pytest.mark.parametrize("family,fn", list(FIRST_FAILURE))
    def test_each_kernel_raises_its_first_failing_point(self, family, fn):
        for params, good, overflow in FIRST_FAILURE[family, fn]:
            for t in good:
                assert math.isfinite(SCALAR[family, fn](t, params).value), (params, t)
            if family == "qk" and len(good) == 2:  # the direct route, then the Euler-Maclaurin one
                em = [SCALAR[family, fn](t, params) == _em_qk(fn, params, t, Tolerance()) for t in good]
                assert em == [False, True], (params, good)
            failing = {-1.0: DomainError, **({} if overflow is None else {overflow: TruncationNotConverged})}
            for order in itertools.permutations(good + list(failing)):
                want = next(failing[t] for t in order if t in failing)
                with pytest.raises((DomainError, TruncationNotConverged)) as info:
                    evaluate(fn, params, list(order))
                assert type(info.value) is want, (params, order, info.value)

    def test_unknown_function(self):
        with pytest.raises(DomainError):
            evaluate("zeta", DeformParams.qk(0.5, 1.0), [1.0])


def _is_split(params: DeformParams, t: float, terms_used: int) -> bool:
    """Whether a psi_pq or psi_pq' sum took the Lambert split: fewer terms than its unsplit count."""
    return terms_used < qcore._last_nonzero(0.0, t * math.log(params.q), 1, params.p)


def _column_lines(family: str, rng: random.Random) -> list:
    """Seeded (params, ts, tol) lines for TestColumns, after edge lines that each route must meet."""
    tol = Tolerance()
    if family == "qk":
        lines = [
            (DeformParams.qk(1e-9, 1.0), [0.5, 50.0, 2.0], tol),  # q^t underflows at t = 50: psi sums no terms
            (DeformParams.qk(0.5, 1e-3), [1e-306, 1.0, 1e-308], tol),  # (1-q^k)(1-q^t) subnormal: the lattice
            (DeformParams.qk(0.9, 1.0), [0.3, 1.0, 0.31], tol),  # psi' widens its count twice at t = 0.3
            (DeformParams.qk(0.97, 1.0), sorted(rng.uniform(0.3, 3.0) for _ in range(30)), tol),  # psi's N about N0
            (DeformParams.qk(0.5, 0.7), [0.7, 1.4, 3.0], tol),  # ln Gamma(k) = 0
        ]
        return lines + [(DeformParams.qk(rng.uniform(0.05, 0.999), rng.uniform(0.3, 3.0)),
                         [rng.uniform(0.01, 20.0) for _ in range(rng.randint(1, 40))],
                         Tolerance(abs_tol=10.0 ** rng.uniform(-16.0, -6.0))) for _ in range(12)]
    cut = 1075 / 33  # q = 0.5: unsplit, as sqrt(Z) - t < 1
    lines = [
        # m ln r for q = 0.5, t = 1 crosses the zero cut of exp between m = 1074 and 1075: the unsplit count,
        # which decides whether to split, ends at p = 1074 and at 1075 on the same last nonzero term
        (DeformParams.pq(1074, 0.5), [1.0, 1.0 - 1e-9, 1.0 + 1e-9], tol),
        (DeformParams.pq(1075, 0.5), [1.0, 1.0 - 1e-9, 1.0 + 1e-9], tol),
        # m t ln q crosses the same cut between m = 33 and 34 near t = cut: the last term is nonzero at
        # p = 33, zero at p = 34 (the closed form and its steps), and every sum is unsplit
        (DeformParams.pq(33, 0.5), [cut, cut * (1.0 - 1e-9), cut * (1.0 + 1e-9)], tol),
        (DeformParams.pq(34, 0.5), [cut, cut * (1.0 - 1e-9), cut * (1.0 + 1e-9)], tol),
        (DeformParams.pq(2000, 0.99), [0.5, 300.0, 2.0, 280.0, 1e-322], tol),  # split or not; t ln q = -0.0
        (DeformParams.pq(50, 1e-5), [100.0, 1.0], tol),  # q^t underflows: psi sums no terms
        (DeformParams.pq(20, 0.5), [1.0, 1e308], tol),  # a row of no terms at t ln q near -1e308
        (DeformParams.pq(10**6, 0.999), [1.0, 2.5], tol),  # ln Gamma on the lattice
        # a psi' head past the floats only before its scale: re-summed scaled at 9e-155, refused at 1e-160
        (DeformParams.pq(10**200, 0.5), [1.0, 9e-155, 1e-160, 2.5], tol),
    ]
    return lines + [(DeformParams.pq(rng.randint(1, 3000), rng.uniform(0.05, 0.99)),
                     [rng.uniform(0.01, 20.0) for _ in range(rng.randint(1, 40))], tol) for _ in range(12)]


class TestColumns:
    """evaluate_columns, a line of t at once, against one-point calls, bit for bit and with the sign of zero."""

    @pytest.mark.parametrize("family", ["qk", "pq"])
    def test_columns_are_the_one_point_results(self, family, monkeypatch):
        widened, search = [], qcore.geometric_terms_needed

        def counting_search(tail_at, n, tail, ln_step, tol):
            calls = []
            found = search(lambda m: calls.append(m) or tail_at(m), n, tail, ln_step, tol)
            widened.append(len(calls))
            return found
        monkeypatch.setattr(qcore, "geometric_terms_needed", counting_search)
        rng = random.Random(f"columns:{family}")
        seen = set()
        for params, ts, tol in _column_lines(family, rng):
            for fn in ("psi", "psi-prime", "ln-gamma"):
                try:
                    wants = [SCALAR[family, fn](t, params, tol) for t in ts]
                except QDigammaError as exc:  # the batch raises the error of its first failing t
                    with pytest.raises(type(exc), match=re.escape(str(exc))):
                        evaluate_columns(fn, params, ts, tol)
                    seen.add("refused")
                    continue
                for t, want, v, x, n in zip(ts, wants, *evaluate_columns(fn, params, ts, tol), strict=True):
                    assert (v, x, n) == (want.value, want.tail_bound, want.terms_used), (fn, params, t)
                    assert math.copysign(1.0, v) == math.copysign(1.0, want.value)
                    seen.add("no terms" if n == 0 else "zero" if v == 0.0 else "value")
                    if family == "qk":
                        seen.add("lattice" if want == _em_qk(fn, params, t, tol) else "direct")
                    elif fn != "ln-gamma":
                        seen.add("split" if _is_split(params, t, n) else "unsplit")
        routes = {"lattice", "direct"} if family == "qk" else {"split", "unsplit"}
        assert seen == {"no terms", "zero", "value", "refused"} | routes
        assert max(widened) >= 2 if family == "qk" else True
        if family == "pq":  # both sides of each zero cut end on the same last nonzero term
            assert {qcore._last_nonzero(0.0, math.log(0.5), 1, p) for p in (1074, 1075)} == {1074}
            t = 1075 / 33 * (1.0 - 1e-9)
            assert {psi_pq(t, DeformParams.pq(p, 0.5)).terms_used for p in (33, 34)} == {33}


def _one_point_line(fn: str, params: DeformParams, ts) -> object:
    """A line's columns from one-point calls, or the error of its first t that cannot be evaluated."""
    try:
        results = [SCALAR[params.family.value, fn](t, params) for t in ts]
    except QDigammaError as exc:
        return exc
    return [r.value for r in results], [r.tail_bound for r in results], [r.terms_used for r in results]


def _same_line(got, want) -> bool:
    """Columns equal bit for bit, with the sign of zero, or errors of one type and message."""
    if isinstance(want, QDigammaError):
        return type(got) is type(want) and str(got) == str(want)
    return (not isinstance(got, QDigammaError) and tuple(got) == tuple(want)
            and [math.copysign(1.0, v) for v in got[0]] == [math.copysign(1.0, v) for v in want[0]])


def _long_lines(family: str, rng: random.Random) -> list:
    """Lines past the array crossover mixing every route, with a refusing line in the middle."""
    spread = [rng.uniform(0.01, 5.0) for _ in range(150)]
    if family == "qk":
        return [
            (DeformParams.qk(0.97, 1.0), spread),  # direct, and the lattice at small t
            (DeformParams.qk(1e-9, 1.0), [0.5, 50.0, 2.0] * 30),  # psi sums no terms at t = 50
            (DeformParams.qk(0.5, 0.7), [1.0] * 60 + [-1.0] + [2.0] * 10),  # refused at t = -1
            (DeformParams.qk(0.5, 1e-3), [1e-306, 1.0, 1e-308] * 20),  # (1-q^k)(1-q^t) subnormal: the lattice
            (DeformParams.qk(0.9, 1.0), [0.3, 1.0, 0.31] * 20),  # psi' widens its count twice at t = 0.3
            (DeformParams.qk(0.9999, 1.3), [3.5, 0.5] * 30),  # the lattice past N0 terms
        ]
    return [
        (DeformParams.pq(2000, 0.99), [0.5, 300.0, 2.0, 280.0, 1e-322] * 20),  # split or not; t ln q = -0.0
        (DeformParams.pq(50, 1e-5), [100.0, 1.0] * 30),  # psi sums no terms at t = 100
        (DeformParams.pq(20, 0.5), [1.0] * 60 + [-1.0] + [2.0] * 10),  # refused at t = -1
        (DeformParams.pq(10**6, 0.999), [1.0, 2.5] * 30),  # ln Gamma on the lattice
        (DeformParams.pq(10**200, 0.5), [1.0, 9e-155, 1e-160, 2.5]),  # psi' re-summed scaled, then refused
        (DeformParams.pq(rng.randint(2, 30), rng.uniform(0.1, 0.9)), spread),
    ]


class TestLines:
    """evaluate_lines, many lines in one batch, against one-point calls, bit for bit and with the sign of zero."""

    @pytest.mark.parametrize("fn", ["psi", "psi-prime", "ln-gamma"])
    @pytest.mark.parametrize("family", ["qk", "pq"])
    def test_lines_are_their_one_point_calls(self, family, fn):
        rng = random.Random(f"lines:{family}:{fn}")
        lines = _long_lines(family, rng) + [(params, ts) for params, ts, tol in _column_lines(family, rng)
                                            if tol == Tolerance()]
        assert sum(len(ts) for _, ts in lines) >= qcore._ARRAY_MIN and len(lines[0][1]) >= qcore._ARRAY_MIN
        seen = set()
        for (params, ts), got in zip(lines, evaluate_lines(fn, lines), strict=True):
            want = _one_point_line(fn, params, ts)
            assert _same_line(got, want), (fn, params)
            if isinstance(want, QDigammaError):
                seen.add("refused")
                continue
            seen.update("no terms" if n == 0 else "value" for n in want[2])
            if family == "qk":
                seen.update("lattice" if EvalResult(*r) == _em_qk(fn, params, t, Tolerance()) else "direct"
                            for t, *r in zip(ts, *want))
            elif fn != "ln-gamma":
                seen.update("split" if _is_split(params, t, n) else "unsplit" for t, n in zip(ts, want[2]))
            else:  # the whole line takes its factorial's route
                seen.add("lattice" if qcore._last_nonzero(0.0, math.log(params.q), 1, params.p) > _N0 else "direct")
        routes = {"split", "unsplit"} if family == "pq" and fn != "ln-gamma" else {"lattice", "direct"}
        assert seen >= {"value", "refused"} | routes
        if fn != "ln-gamma":
            assert "no terms" in seen

    @pytest.mark.parametrize("family", ["qk", "pq"])
    def test_a_refusing_line_leaves_its_neighbours_unchanged(self, family):
        lines = _long_lines(family, random.Random(f"neighbours:{family}"))
        middle = 2  # refused at its t = -1
        for fn in ("psi", "psi-prime", "ln-gamma"):
            out = list(evaluate_lines(fn, lines))
            assert isinstance(out[middle], DomainError) and str(out[middle]) == "t=-1.0 must be a positive finite real"
            alone = evaluate_lines(fn, lines[:middle] + lines[middle + 1:])
            assert all(_same_line(a, b) for a, b in zip(out[:middle] + out[middle + 1:], alone, strict=True))
            with pytest.raises(DomainError, match="t=-1.0"):
                evaluate_columns(fn, *lines[middle])

    @pytest.mark.parametrize("fn", ["psi", "psi-prime", "ln-gamma"])
    @pytest.mark.parametrize("family", ["qk", "pq"])
    def test_a_line_refused_after_direct_points_on_the_scalar_loop(self, family, fn):
        # three lines below _ARRAY_MIN points, so each is routed t by t: the middle one keeps the rows of its
        # nine direct points and is refused at its 10th t; its neighbours are their one-point calls
        rng = random.Random(f"scalar refusal:{family}:{fn}")

        def params():
            if family == "qk":
                return DeformParams.qk(rng.uniform(0.1, 0.9), rng.uniform(0.5, 2.0))
            return DeformParams.pq(rng.randint(2, 40), rng.uniform(0.1, 0.9))
        lines = [(params(), [rng.uniform(0.3, 6.0) for _ in range(n)]) for n in (20, 9, 17)]
        lines[1][1].extend([-1.0, *(rng.uniform(0.3, 6.0) for _ in range(5))])
        assert max(len(ts) for _, ts in lines) <= 20 and sum(len(ts) for _, ts in lines) < qcore._ARRAY_MIN
        route, _, _, width, *_ = qcore._TABLE[lines[1][0].family][fn]
        cols, lasts = ([], [], [])[:width], []
        _, refusal = route(fn, *lines[1], Tolerance(), cols, lasts)
        assert isinstance(refusal, DomainError) and len(lasts) == 9  # the rows before the refusal stay
        out = list(evaluate_lines(fn, lines))
        assert isinstance(out[1], DomainError) and str(out[1]) == "t=-1.0 must be a positive finite real"
        for (params, ts), got in zip(lines, out, strict=True):
            assert _same_line(got, _one_point_line(fn, params, ts)), (fn, params)

    def test_lines_are_read_as_the_iterator_reaches_them(self):
        # both families interleaved, from a generator: each line as its one-point calls, and no line is read
        # before the iterator reaches the group it belongs to
        qk, pq = _long_lines("qk", random.Random("lazy")), _long_lines("pq", random.Random("lazy"))
        lines = [line for pair in zip(qk, pq) for line in pair]
        read = []

        def source():
            for i, line in enumerate(lines):
                read.append(i)
                yield line
        out = evaluate_lines("psi", source())
        assert read == []
        first = next(out)
        assert _same_line(first, _one_point_line("psi", *lines[0])) and read == [0, 1]
        for (params, ts), got in zip(lines[1:], out, strict=True):
            assert _same_line(got, _one_point_line("psi", params, ts))
        assert read == list(range(len(lines)))


class TestPQUnderflow:
    def test_sum_stops_at_last_nonzero_term(self):
        # q^n underflows to 0 near n = 1075; the value is that of the full sum
        res = psi_pq(1.0, DeformParams.pq(10**8, 0.5))
        assert res.value == -0.42052903435604583
        assert res.terms_used <= 1100

    def test_n_max_caps_the_nonzero_terms(self):
        # psi and psi' sum 64 terms by the Lambert split, ln Gamma at p = 1000 its 1000 factorial terms
        params = DeformParams.pq(10**8, 0.5)
        for kernel in (psi_pq, psi_pq_prime):
            with pytest.raises(TruncationNotConverged):
                kernel(1.0, params, Tolerance(n_max=63))
            assert kernel(1.0, params, Tolerance(n_max=64)) == kernel(1.0, params)
        params = DeformParams.pq(1000, 0.5)
        with pytest.raises(TruncationNotConverged):
            ln_gamma_pq(1.0, params, Tolerance(n_max=999))
        assert ln_gamma_pq(1.0, params, Tolerance(n_max=1000)) == ln_gamma_pq(1.0, params)

    @pytest.mark.parametrize("kernel", [psi_pq, psi_pq_prime])
    def test_sums_exactly_the_terms_it_reports(self, kernel, monkeypatch):
        asked, sum_terms = [], qcore.sum_terms

        def recording_sum_terms(term_fn, n_first, n_last):
            asked.append(n_last - n_first + 1)
            return sum_terms(term_fn, n_first, n_last)
        monkeypatch.setattr(qcore, "sum_terms", recording_sum_terms)
        res = kernel(1.0, DeformParams.pq(10**8, 0.5))
        # Z = 1075 at q = 1/2: the tail at t + T = 32 through its last nonzero term, floor(1075 / 32) = 33,
        # and T = floor(sqrt(Z) - 1) = 31 head terms
        assert asked == [33, 31] and res.terms_used == 64

    @pytest.mark.parametrize("t", [9e-155, 1.2e-154])
    def test_psi_prime_whose_head_passes_the_floats_before_its_scale(self, t):
        # the unscaled head sum, about 1 / (t ln q)^2, overflows at t = 9e-155; psi' itself is 1 / t^2
        # to within its rounding (the sum's terms past the first add about 1e-308 of it)
        res = psi_pq_prime(t, DeformParams.pq(10**200, 0.5))
        assert res.tail_bound == 0.0 and abs(res.value - 1.0 / t ** 2) <= 64 * 2.0 ** -53 * res.value

    def test_last_nonzero_past_2_to_53_is_the_closed_form(self):
        # a unit step no longer moves n there; stepping never ended
        b = 1e-160 * math.log(0.5)
        assert qcore._last_nonzero(0.0, b, 1, 10**200) == math.floor(qcore._EXP_ZERO / b)

    def test_all_zero_terms(self):
        # q^t itself underflows: every term is 0 and the value is ln[p]_q
        params = DeformParams.pq(50, 1e-5)
        res = psi_pq(100.0, params)
        assert res.terms_used == 0
        assert res.value == pytest.approx(math.log(q_bracket(50, 1e-5)), abs=1e-15)


class TestQBracketAccuracy:
    def test_psi_pq_near_one_matches_50_digit_sum(self):
        mp = pytest.importorskip("mpmath")
        q, p, t = 1.0 - 1e-5, 156, 1.0
        with mp.workdps(50):
            qm = mp.mpf(q)
            exact = mp.log((1 - qm ** p) / (1 - qm)) + mp.log(qm) * mp.fsum(
                qm ** (n * t) / (1 - qm ** n) for n in range(1, p + 1)
            )
        assert abs(psi_pq(t, DeformParams.pq(p, q)).value - float(exact)) <= 1e-15


class TestLambertSplit:
    """psi_pq and psi_pq' by the finite Lambert split, against 50-digit sums of the unsplit series."""

    U = 2.0 ** -53
    # q = 1 - 1e-9, p = 1e8, t = 0.01: the head's first p a are 1e-3, 0.1, 0.2, ..., where the closed form
    # of sum n x^n, 1 - x^p - p x^p (1 - x), would cancel to about 1e-13 relative
    POINTS = [(0.999, 10**6, 1.95), (1.0 - 1e-6, 10**6, 1.3), (0.5, 10**8, 1.0), (1.0 - 1e-9, 10**8, 0.01)]

    @staticmethod
    def exact(prime: bool, t: float, q: float, p: int) -> tuple:
        """(value, |lead| + |scale| F) at 50 digits: F's first 200 terms summed, the rest by mpmath's
        Euler-Maclaurin sumem over n = 201..p."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            eps, t = -mp.log(mp.mpf(q)), mp.mpf(t)

            def term(n):
                v = mp.exp(-eps * t * n) / -mp.expm1(-eps * n)
                return n * v if prime else v
            f = mp.fsum(term(n) for n in range(1, 201)) + mp.sumem(term, [201, p])
            lead = 0 if prime else mp.log(-mp.expm1(-eps * p)) - mp.log(-mp.expm1(-eps))
            scale = eps * eps if prime else -eps
            return lead + scale * f, abs(lead) + abs(scale) * f

    @pytest.mark.parametrize("q,p,t", POINTS)
    @pytest.mark.parametrize("kernel", [psi_pq, psi_pq_prime])
    def test_values_match_a_50_digit_sum(self, kernel, q, p, t):
        # rounding bound 16 u (|lead| + |scale| F): a few roundings per term, the pairwise sum's
        # depth and the lead; every term is positive, so F is also the sum of their sizes
        params = DeformParams.pq(p, q)
        res = kernel(t, params)
        assert _is_split(params, t, res.terms_used) and res.tail_bound == 0.0
        exact, size = self.exact(kernel is psi_pq_prime, t, q, p)
        assert abs(res.value - exact) <= 16 * self.U * size, float(abs(res.value - exact) / (self.U * size))

    @pytest.mark.parametrize("kernel", [psi_pq, psi_pq_prime])
    def test_huge_p_is_the_sum_of_its_nonzero_terms(self, kernel):
        # p a would overflow in the head at p = 1e307; q^p is 0 at both p, so the values agree
        huge, large = (kernel(0.01, DeformParams.pq(p, 1e-9)) for p in (10**307, 10**300))
        assert _is_split(DeformParams.pq(10**307, 1e-9), 0.01, huge.terms_used) and huge == large

    @pytest.mark.parametrize("prime", [False, True])
    def test_head_terms_keep_their_digits(self, prime):
        # each head term within 8 u of sum_{n=1..p} x^n (times n for psi') at its own float a, on both
        # sides of b = p a = 1, down to p a = 1e-4 and to a t whose t eps underflows to 0
        mp = pytest.importorskip("mpmath")
        for q, p, t in [(1.0 - 1e-9, 10**8, 0.01), (1.0 - 1e-9, 10**8, 0.001), (0.999, 10**6, 1.95),
                        (0.395, 123, 0.00494), (0.9, 3, 0.2), (1.0 - 1e-9, 10**8, 1e-320)]:
            eps = -math.log(q)
            m = np.arange(40, dtype=np.float64)
            for mi, got in zip(m, qcore._head_terms(eps, p, prime)(t, m)):
                a = max((t + mi) * eps, math.ulp(0.0))
                with mp.workdps(60 + 2 * max(0, int(-math.log10(p * a)))):  # the closed form cancels to p a
                    a = mp.mpf(a)
                    x, u, v = mp.exp(-a), -mp.expm1(-a), -mp.expm1(-p * a)
                    want = x * (v - p * (1 - v) * u) / u ** 2 if prime else x * v / u
                    assert abs(got - want) <= 8 * self.U * want, (q, p, t, mi)


class TestLnGammaTinyT:
    def test_qk_shifted_factor_near_one(self):
        # q^t rounds to 1, so ln(1 - q^t) must come from expm1; ln Gamma -> -ln(t |ln q|) + ln(1-q)
        t, q = 1e-300, 0.5
        res = ln_gamma_qk(t, DeformParams.qk(q, 1.0))
        assert abs(res.value - (-math.log(t * -math.log(q)) + math.log1p(-q))) <= 1e-10
        assert res.tail_bound <= 1e-13

    def test_pq_shifted_factor_near_one(self):
        # the n = 0 shifted factor -ln[t]_q is all that is left as t -> 0
        t, q = 1e-300, 0.5
        res = ln_gamma_pq(t, DeformParams.pq(5, q))
        assert abs(res.value - (-math.log(t * -math.log(q)) + math.log1p(-q))) <= 1e-10

    @pytest.mark.parametrize("t,q", [(1e-310, 0.5), (5e-324, 1e-9)])
    def test_subnormal_t(self, t, q):
        # t |ln q| is subnormal, so ln(1 - q^t) would have lost its leading digits: both families refuse
        with pytest.raises(TruncationNotConverged):
            ln_gamma_qk(t, DeformParams.qk(q, 1.0))
        with pytest.raises(TruncationNotConverged):
            ln_gamma_pq(t, DeformParams.pq(5, q))

    def test_tiny_t_with_normal_product(self):
        # t |ln q| is normal; Gamma_qk(t + k) = [t]_q Gamma_qk(t) and Gamma_qk(k) = 1 give
        # ln Gamma_qk(t) = ln(1-q) - ln(1 - q^t) + O(t)
        mp = pytest.importorskip("mpmath")
        t, q = 1e-307, 0.5
        res = ln_gamma_qk(t, DeformParams.qk(q, 1e-3))
        with mp.workdps(50):
            exact = mp.log(1 - mp.mpf(q)) - mp.log(-mp.expm1(mp.mpf(t) * mp.log(mp.mpf(q))))
        assert abs(mp.mpf(res.value) - exact) <= res.tail_bound + 4 * math.ulp(res.value)

    def test_overflowing_majorant_fails_typed(self):
        # (1-q^t)(1-q^k) is subnormal here and the majorant overflows; no OverflowError may escape
        try:
            res = ln_gamma_qk(1e-310, DeformParams.qk(0.5, 1.0))
        except TruncationNotConverged:
            return
        assert math.isfinite(res.value)


class TestLnGammaLeadingTerms:
    """Log terms ln(1 - e^y) above y = -ln 2 are formed as log(-expm1(y)), as ln1m_exp forms them."""

    @pytest.mark.parametrize("family,t,q,k", [("qk", 1e-3, 1.0 - 1e-6, 1e6), ("qk", 1e-3, 1.0 - 1e-7, 1e6),
                                              ("pq", 1e-3, 1.0 - 1e-6, 50)])
    def test_direct_values_match_the_oracle(self, family, t, q, k):
        # log1p(-exp(y)) was off by about u / |y| at |y| = 1e-9: 3e-8 absolute in each value
        mp = pytest.importorskip("mpmath")
        if family == "qk":
            res, exact = ln_gamma_qk(t, DeformParams.qk(q, k)), qk_oracle("ln-gamma", t, q, k)
        else:
            res, exact = ln_gamma_pq(t, DeformParams.pq(k, q)), pq_ln_gamma_oracle(t, q, k)
        assert abs(mp.mpf(res.value) - exact) <= 1e-13, (res, float(abs(mp.mpf(res.value) - exact)))


class TestBlockedSums:
    """Long sums are built in blocks of _BLOCK_TERMS terms, combined in numpy's pairwise order."""

    LENGTHS = [1, 7, 8, 9, 128, 129, 8191, 8192, 8193, 16383, 16384, 16385, 32767, 32768, 32769, 2_000_000]

    def test_pairwise_sum_has_the_bits_of_numpy_reduce(self):
        # A numpy whose add.reduce stops splitting at n//2 rounded down to a multiple of 8
        # fails here, rather than moving the values of every long sum.
        rng = np.random.default_rng(14)
        lengths = self.LENGTHS + rng.integers(1, 300_000, 12).tolist()
        split_matters = 0
        for n in lengths:
            # magnitudes spread over 2^-40..2^40, so every change of order moves the sum
            a = rng.standard_normal(n) * np.exp2(rng.integers(-40, 40, n))
            want = float(np.add.reduce(a))
            for first in (0, 1):  # the index of a[0]: the sums start at 0 or 1
                got = pairwise_sum(lambda i: a[int(i[0]) - first:int(i[-1]) + 1 - first], first, first + n)
                assert got == want, (n, first, got, want)
            split_matters += float(np.add.reduce(a[:n // 2])) + float(np.add.reduce(a[n // 2:])) != want
        assert split_matters > 5  # the data tells a split at n//2 from numpy's

    def test_no_term_array_is_wider_than_a_block(self, monkeypatch):
        widths = []

        def recording(term_fn):
            def wrapped(n):
                widths.append(n.size)
                return term_fn(n)
            return wrapped
        sum_terms, series_terms = qcore.sum_terms, reference._series_terms
        monkeypatch.setattr(qcore, "sum_terms", lambda term_fn, lo, hi: sum_terms(recording(term_fn), lo, hi))
        monkeypatch.setattr(reference, "_series_terms", lambda *args: recording(series_terms(*args)))
        # the (q,k) kernels and ln Gamma_pq sum their long series on the Euler-Maclaurin route, no term
        # array; psi_pq and psi_pq' by the Lambert split: about 61,000 head and 61,000 tail terms at
        # q = 1 - 2e-7
        qk, pq, split = DeformParams.qk(0.9996, 1.0), DeformParams.pq(100_000, 0.9999), DeformParams.pq(10**6, 1 - 2e-7)
        assert ln_gamma_pq(1.0, pq).tail_bound > 0.0 and widths == []
        used = [kernel(1.0, split).terms_used for kernel in (psi_pq, psi_pq_prime)]
        assert min(used) > 3 * CHUNK
        for kind in SeriesKind:
            brute_force_series(kind, 0.5, qk, 200_000)
        assert sum(widths) == sum(used) + 3 * 200_000
        assert max(widths) == qcore._BLOCK_TERMS
