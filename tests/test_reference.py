"""Oracle module: classical digamma accuracy, analogue targets, plain sums."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import digamma as scipy_digamma

from qdigamma import (
    DeformParams,
    DomainError,
    OracleMethod,
    SeriesKind,
    brute_force_series,
    classical_digamma,
    k_digamma_ref,
    p_digamma_ref,
)
from qdigamma.reference import _split_counts, q_digamma_split

EULER_GAMMA = 0.5772156649015328606


class TestClassicalDigamma:
    def test_at_one(self):
        res = classical_digamma(1.0)
        assert res.value == pytest.approx(-EULER_GAMMA, abs=1e-12)
        assert res.method is OracleMethod.ASYMPTOTIC_SHIFT

    def test_recurrence_identities(self):
        assert classical_digamma(2.0).value == pytest.approx(
            classical_digamma(1.0).value + 1.0, abs=1e-12
        )
        assert classical_digamma(0.5).value == pytest.approx(
            classical_digamma(1.5).value - 2.0, abs=1e-12
        )

    def test_half_known_value(self):
        # psi(1/2) = -gamma - 2 ln 2
        assert classical_digamma(0.5).value == pytest.approx(
            -EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-12
        )

    def test_recurrence_over_grid(self):
        for t in np.linspace(0.1, 100.0, 241):
            t = float(t)
            lhs = classical_digamma(t + 1.0).value - classical_digamma(t).value
            assert lhs == pytest.approx(1.0 / t, abs=1e-12)

    def test_against_scipy(self):
        rng = random.Random(11)
        for _ in range(200):
            t = 10.0 ** rng.uniform(-2, 3)
            assert classical_digamma(t).value == pytest.approx(
                float(scipy_digamma(t)), abs=1e-12
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            classical_digamma(0.0)
        with pytest.raises(DomainError):
            classical_digamma(-3.0)


class TestKDigamma:
    def test_k1_bit_for_bit(self):
        for t in (0.3, 1.0, 7.5):
            assert k_digamma_ref(t, 1.0).value == classical_digamma(t).value

    def test_formula(self):
        expected = (math.log(2.0) + classical_digamma(1.0).value) / 2.0
        assert k_digamma_ref(2.0, 2.0).value == pytest.approx(expected, abs=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            k_digamma_ref(1.0, 0.0)


class TestPDigamma:
    def test_small_p_values(self):
        assert p_digamma_ref(1.0, 1).value == pytest.approx(-1.5, abs=1e-15)
        expected = math.log(3.0) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)
        assert p_digamma_ref(1.0, 3).value == pytest.approx(expected, abs=1e-14)
        assert p_digamma_ref(1.0, 3).method is OracleMethod.BRUTE_SUM

    def test_increases_toward_classical(self):
        for t in (0.5, 1.0, 2.0, 7.0):
            target = classical_digamma(t).value
            gap_100 = abs(p_digamma_ref(t, 100).value - target)
            gap_1000 = abs(p_digamma_ref(t, 1000).value - target)
            assert gap_1000 < gap_100
            assert p_digamma_ref(t, 1000).value < target

    def test_domain(self):
        with pytest.raises(DomainError):
            p_digamma_ref(1.0, 0)
        with pytest.raises(DomainError):
            p_digamma_ref(-1.0, 3)


class TestBruteForceSeries:
    def test_one_term_psi(self):
        # single term: -ln(1-q) + ln(q) * q/(1-q) = ln2 - ln2 = 0 at q = 1/2
        params = DeformParams.qk(0.5, 1.0)
        v = brute_force_series(SeriesKind.PSI_QK, 1.0, params, 1)
        assert v == pytest.approx(0.0, abs=1e-15)

    def test_ln_gamma_at_k_is_zero(self):
        for n in (1, 10, 1000):
            params = DeformParams.qk(0.4, 2.5)
            assert brute_force_series(SeriesKind.LNGAMMA_QK, 2.5, params, n) == 0.0

    def test_partial_sums_converge_monotonically_for_prime(self):
        params = DeformParams.qk(0.6, 1.0)
        vals = [brute_force_series(SeriesKind.PSI_QK_PRIME, 1.2, params, n) for n in (1, 4, 16, 64)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_input(self):
        params = DeformParams.qk(0.5, 1.0)
        with pytest.raises(DomainError):
            brute_force_series(SeriesKind.PSI_QK, 1.0, params, 0)
        with pytest.raises(DomainError):
            brute_force_series(SeriesKind.PSI_QK, -1.0, params, 10)
        with pytest.raises(DomainError):
            brute_force_series(SeriesKind.PSI_QK, 1.0, DeformParams.pq(2, 0.5), 10)


def _plain_series(kind: SeriesKind, t: float, q: float, k: float, n_terms: int) -> float:
    """The partial sums as one numpy expression each, a temporary per operation."""
    ln_q = math.log(q)
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    if kind is SeriesKind.PSI_QK:
        s = float(np.sum(np.exp(n * (t * ln_q)) / (-np.expm1(n * (k * ln_q)))))
        return -math.log1p(-q) / k + ln_q * s
    if kind is SeriesKind.PSI_QK_PRIME:
        s = float(np.sum(n * np.exp(n * (t * ln_q)) / (-np.expm1(n * (k * ln_q)))))
        return ln_q * ln_q * s
    m = n - 1.0
    s = float(np.sum(np.log1p(-np.exp((k + m * k) * ln_q)) - np.log1p(-np.exp((t + m * k) * ln_q))))
    return s - (t / k - 1.0) * math.log1p(-q)


@pytest.mark.parametrize("kind", list(SeriesKind), ids=lambda k: k.value)
def test_in_place_terms_keep_every_bit(kind):
    rng = random.Random(f"brute-in-place:{kind.value}")
    for _ in range(60):
        q, k = rng.uniform(0.05, 0.9999), 10.0 ** rng.uniform(-2.0, 2.0)
        t, n_terms = 10.0 ** rng.uniform(-3.0, 1.5), rng.randint(1, 50_000)
        got = brute_force_series(kind, t, DeformParams.qk(q, k), n_terms)
        assert got == _plain_series(kind, t, q, k, n_terms), (q, k, t, n_terms)


class TestLambertSplit:
    @given(n=st.integers(8, 2_000_000), t=st.floats(1e-4, 1.7e308))
    def test_counts_reach_the_plain_tail_in_fewer_terms(self, n, t):
        shifts, n_tail = _split_counts(t, n)
        assert shifts >= 0 and n_tail >= 1
        if shifts:
            assert (n_tail + 1) * (t + shifts) >= (n + 1) * t
        else:
            assert n_tail == n  # (N' + 1) t >= (n + 1) t, with no product that could overflow
        assert shifts + n_tail <= n
        # below (n + 1) t = 4 no shift pays, and the split sums the plain sum's n terms
        if (n + 1) * t >= 4.0:
            assert shifts + n_tail <= 2.0 * math.sqrt((n + 1) * t) + 2.0

    def test_split_matches_the_plain_sum(self):
        # both sum the same positive series; the plain sum of n terms is the reference
        rng = random.Random(31)
        for _ in range(40):
            q, t, n = rng.uniform(0.05, 0.999), 10.0 ** rng.uniform(-2.0, 1.3), rng.randint(8, 200_000)
            plain = brute_force_series(SeriesKind.PSI_QK, t, DeformParams.qk(q, 1.0), n)
            ln_q = math.log(q)
            tail = -ln_q * math.exp((n + 1) * t * ln_q) / (-math.expm1(ln_q) * -math.expm1(t * ln_q))
            slack = tail + 64 * 2.0 ** -53 * (abs(math.log1p(-q)) + abs(plain))
            assert q_digamma_split(t, q, n) == pytest.approx(plain, abs=slack), (q, t, n)

    def test_rejects_bad_input(self):
        for t, q, n in ((1.0, 0.5, 0), (-1.0, 0.5, 10), (math.inf, 0.5, 10), (1.0, 1.0, 10), (1.0, 0.0, 10)):
            with pytest.raises(DomainError):
                q_digamma_split(t, q, n)
