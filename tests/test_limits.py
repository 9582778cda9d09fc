"""Degeneration scans: identity at k=1, q->1- trends, p->infinity rate."""

from __future__ import annotations

import json
import math
import random
import time

import pytest

from qdigamma import (
    DeformParams,
    DomainError,
    Tolerance,
    TruncationNotConverged,
    classical_digamma,
    limit_combined_pq,
    limit_k_to_1,
    limit_p_to_inf,
    limit_q_to_1_pq,
    limit_q_to_1_qk,
    p_digamma_ref,
    psi_pq,
    psi_qk,
)
from qdigamma._jsonfmt import dumps
from qdigamma.params import DEFAULT_TOL
from qdigamma.qcore import _N0, psi_qk_direct_count

from lattice_oracle import qk_oracle

U = 2.0 ** -53


def _k1_oracle_tail(t: float, q: float) -> float:
    """The truncation bound limit_k_to_1 states for its oracle: the plain sum's tail at 4N terms."""
    n_direct, _ = psi_qk_direct_count(t, DeformParams.qk(q, 1.0), DEFAULT_TOL)
    n = min(4 * max(n_direct, 8), 2_000_000)
    ln_q = math.log(q)
    return -ln_q * math.exp((n + 1) * t * ln_q) / (-math.expm1(ln_q) * -math.expm1(t * ln_q))


class TestKToOneSubstitution:
    def test_random_points_within_allowance(self):
        rng = random.Random(13)
        for _ in range(30):
            t, q = rng.uniform(0.2, 5.0), rng.uniform(0.1, 0.9)
            check = limit_k_to_1(t, q)
            assert check.ok
            assert check.gap <= check.allowance

    def test_example_point(self):
        check = limit_k_to_1(2.0, 0.5)
        assert check.value == pytest.approx(psi_qk(2.0, DeformParams.qk(0.5, 1.0)).value, abs=1e-15)
        assert check.ok

    def test_oracle_keeps_its_length_on_the_euler_maclaurin_route(self):
        # psi takes the Euler-Maclaurin route here; the oracle's bound is still the plain sum's at 2e6 terms
        check = limit_k_to_1(0.5, 0.9999)
        assert psi_qk_direct_count(0.5, DeformParams.qk(0.9999, 1.0))[0] > _N0
        assert check.terms_used < 100
        assert check.oracle_value == -1.96346002397269
        assert check.allowance == 1.9999537451675442e-13
        assert check.ok

    @pytest.mark.parametrize("q", [1.0 - 1e-5, 1.0 - 1e-7])
    def test_oracle_out_of_reach_is_refused(self, q):
        # the oracle's 2e6 terms leave a tail far above abs_tol; an allowance that large checks nothing
        with pytest.raises(TruncationNotConverged) as info:
            limit_k_to_1(0.5, q)
        assert info.value.best_bound > 1.0 and info.value.terms_used == 2_000_000

    def test_oracle_past_n_max_is_refused(self):
        # the value alone would take a few dozen Euler-Maclaurin terms; the oracle would need 8e5
        with pytest.raises(TruncationNotConverged):
            limit_k_to_1(0.5, 0.9999, Tolerance(n_max=1000))

    def test_oracle_within_its_tail_of_the_lattice_oracle(self):
        rng = random.Random(19)
        checked = 0
        while checked < 100:
            if rng.random() < 0.5:
                q = 10.0 ** rng.uniform(-9.0, math.log10(0.9))
            else:
                q = 1.0 - 10.0 ** rng.uniform(math.log10(5e-5), math.log10(0.9))
            t = 10.0 ** rng.uniform(-4.0, math.log10(20.0))
            try:
                check = limit_k_to_1(t, q)
            except TruncationNotConverged:
                continue
            checked += 1
            slack = _k1_oracle_tail(t, q) + 32 * U * (abs(math.log1p(-q)) + abs(check.oracle_value))
            assert abs(check.oracle_value - qk_oracle("psi", t, q, 1.0)) <= slack, (t, q)

    def test_oracle_cost_does_not_grow_like_one_over_one_minus_q(self):
        # the bound is the plain sum's at 2e6 terms (about 20 ms to sum); the split reaches it in 1,999
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            limit_k_to_1(0.5, 0.9999)
            best = min(best, time.perf_counter() - start)
        assert best < 5e-3, best


class TestQToOneQK:
    def test_classical_target_at_k1(self):
        report = limit_q_to_1_qk(1.0, 1.0, j_max=5)
        assert report.target_values[0] == pytest.approx(classical_digamma(1.0).value, abs=1e-14)
        assert report.monotone_tail
        assert report.final_gap < 1e-2
        assert report.passed
        assert report.discrepancy is None

    def test_k_digamma_target_at_t_equals_k(self):
        k = 2.0
        report = limit_q_to_1_qk(k, k, j_max=5)
        expected = (math.log(k) + classical_digamma(1.0).value) / k
        assert report.target_values[0] == pytest.approx(expected, abs=1e-14)
        assert report.monotone_tail
        assert report.final_gap < 1e-2

    def test_gaps_shrink_with_j(self):
        report = limit_q_to_1_qk(1.5, 0.7, j_max=5)
        gaps = [g for _, g in report.sequence]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_j_max_validation(self):
        with pytest.raises(DomainError):
            limit_q_to_1_qk(1.0, 1.0, j_max=2)


class TestQToOnePQ:
    def test_p1_discrepancy_is_flagged(self):
        # the finite sum's own limit sits 0.5 away from the p-digamma target
        report = limit_q_to_1_pq(1.0, 1, j_max=5)
        assert not report.passed
        assert report.discrepancy is not None
        assert report.final_gap == pytest.approx(0.5, abs=1e-3)
        assert report.monotone_tail

    def test_large_p_passes_with_flag(self):
        report = limit_q_to_1_pq(1.0, 200, j_max=5)
        assert report.passed
        assert report.monotone_tail
        assert report.final_gap < 1e-2
        # the residual offset ~1/(p+1) is still reported, never absorbed
        assert report.discrepancy is not None
        assert report.target_values[0] == pytest.approx(p_digamma_ref(1.0, 200).value, abs=1e-14)


class TestPToInfinity:
    def test_example_scan(self):
        report = limit_p_to_inf(1.0, 0.5, [1, 2, 5, 10, 20])
        gaps = [g for _, g in report.sequence]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-5
        assert report.passed
        assert report.cert_bounds is not None

    def test_gap_respects_certified_bound(self):
        rng = random.Random(3)
        for _ in range(10):
            t, q = rng.uniform(0.3, 3.0), rng.uniform(0.2, 0.8)
            report = limit_p_to_inf(t, q, [1, 2, 4, 8, 16, 32])
            for (_, gap), bound in zip(report.sequence, report.cert_bounds):
                assert gap <= bound + 1e-12

    def test_p1_gap_value(self):
        report = limit_p_to_inf(1.0, 0.5, [1, 2])
        expected = abs(
            psi_pq(1.0, DeformParams.pq(1, 0.5)).value
            - psi_qk(1.0, DeformParams.qk(0.5, 1.0)).value
        )
        assert report.sequence[0][1] == pytest.approx(expected, abs=1e-15)

    def test_gaps_at_rounding_floor_pass_within_bound(self):
        # from p = 100 the gap sits at the rounding floor and repeats, inside
        # the certified bound plus the target's own tail
        report = limit_p_to_inf(1.0, 0.5, [10, 100, 10**4])
        assert report.sequence[1][1] == report.sequence[2][1]
        assert report.passed and report.discrepancy is None

    def test_p_list_validation(self):
        with pytest.raises(DomainError):
            limit_p_to_inf(1.0, 0.5, [5, 2])
        with pytest.raises(DomainError):
            limit_p_to_inf(1.0, 0.5, [])


class TestCombinedPQ:
    def test_trends_to_classical(self):
        report = limit_combined_pq(1.0, j_max=5)
        assert report.target_values[0] == pytest.approx(-0.5772156649015329, abs=1e-12)
        assert report.monotone_tail
        assert report.final_gap < 1e-4
        assert report.passed

    def test_cap_hit_is_a_scan_error(self):
        # p = 10^3 sums its 10^3 nonzero terms directly, past a cap of 999; p = 10^4 takes the lattice, about
        # 50 terms
        report = limit_combined_pq(1.0, j_max=4, tol=Tolerance(n_max=999))
        assert not report.passed
        assert len(report.errors) == 1 and "j=3" in report.errors[0] and "series cap hit" in report.errors[0]
        assert [j for j, _ in report.sequence] == [1.0, 2.0, 4.0]

    def test_stall_away_from_t1_is_reported(self):
        # q^p -> 1/e along the schedule, so the limit misses psi(2)
        report = limit_combined_pq(2.0, j_max=5)
        assert not report.passed
        assert report.discrepancy.startswith("gap sequence stalls near")


class TestReportSerialization:
    def test_roundtrip(self):
        report = limit_p_to_inf(1.0, 0.5, [1, 2, 5])
        doc = json.loads(dumps(report.as_dict()))
        assert doc["schema_version"] == "1"
        assert doc["monotone_tail"] == report.monotone_tail
        assert doc["final_gap"] == report.final_gap
        assert len(doc["sequence"]) == 3
        assert len(doc["cert_bounds"]) == 3

    def test_substitution_roundtrip(self):
        doc = json.loads(dumps(limit_k_to_1(1.0, 0.5).as_dict()))
        assert doc["ok"] is True
        assert doc["gap"] <= doc["allowance"]
