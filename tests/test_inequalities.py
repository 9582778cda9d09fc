"""Ratio bounds, cross lemma, grids, thresholds, report serialization."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random

import pytest

from qdigamma import (
    DeformParams,
    DomainError,
    Family,
    GridSpec,
    NoPositiveRegion,
    PositivityViolated,
    RatioSpec,
    Suite,
    Tolerance,
    TruncationNotConverged,
    check_lemma_cross,
    find_positive_threshold,
    make_verification_grid,
    psi_pq,
    psi_pq_prime,
    psi_qk,
    psi_qk_prime,
    ratio_G,
    ratio_H,
    validate_spec,
    verify_bounds,
)
from qdigamma._jsonfmt import dumps
from qdigamma import QDigammaError, inequalities
from qdigamma.cli import main
from qdigamma.inequalities import _MAX_FAILED_DRAWS, ratio_values

from conftest import brute_psi_qk


def spec_example() -> RatioSpec:
    return RatioSpec(a=2.0, b=1.0, c=3.0, d=1.0, alpha=1.0, beta=1.0)


class TestRatioSpec:
    def test_rejects_nonpositive_constant(self):
        with pytest.raises(DomainError):
            RatioSpec(a=0.0, b=1.0, c=1.0, d=1.0, alpha=1.0, beta=1.0)

    def test_rejects_bad_ordering(self):
        with pytest.raises(DomainError):
            RatioSpec(a=3.0, b=1.0, c=2.0, d=1.0, alpha=1.0, beta=1.0)
        with pytest.raises(DomainError):
            RatioSpec(a=1.0, b=3.0, c=1.5, d=1.0, alpha=10.0, beta=1.0)

    def test_rejects_exponent_condition(self):
        with pytest.raises(DomainError):
            RatioSpec(a=1.0, b=1.0, c=2.0, d=2.0, alpha=1.0, beta=1.0)

    def test_boundary_equalities_allowed(self):
        RatioSpec(a=2.0, b=1.0, c=2.0, d=1.0, alpha=1.5, beta=1.5)


class TestValidateSpec:
    def test_negative_left_endpoint_invalid(self):
        # psi_{0.5,1}(1) < 0, so a = 1 violates the positivity precondition
        spec = RatioSpec(a=1.0, b=1.0, c=3.0, d=1.0, alpha=1.0, beta=1.0)
        verdict = validate_spec(spec, DeformParams.qk(0.5, 1.0), (0.0, 1.0))
        assert not verdict.valid
        assert any("not certainly positive" in r for r in verdict.reasons)
        assert verdict.psi_lower_left < 0.0

    def test_example_spec_valid(self):
        verdict = validate_spec(spec_example(), DeformParams.qk(0.5, 1.0), (0.0, 1.0))
        assert verdict.valid
        assert verdict.reasons == ()
        assert verdict.psi_lower_left == pytest.approx(brute_psi_qk(2.0, 0.5, 1.0), abs=1e-12)

    def test_degenerate_spec_valid_above_threshold(self):
        spec = RatioSpec(a=2.0, b=1.0, c=2.0, d=1.0, alpha=1.0, beta=1.0)
        assert validate_spec(spec, DeformParams.qk(0.5, 1.0)).valid


class TestRatioG:
    def test_degenerate_is_exactly_one(self):
        spec = RatioSpec(a=2.0, b=0.7, c=2.0, d=0.7, alpha=1.3, beta=1.3)
        params = DeformParams.qk(0.5, 1.0)
        for t in (0.0, 0.25, 1.0, 3.0):
            assert ratio_G(spec, t, params).value == 1.0

    def test_value_against_oracle(self):
        params = DeformParams.qk(0.5, 1.0)
        res = ratio_G(spec_example(), 0.0, params)
        expected = brute_psi_qk(2.0, 0.5, 1.0) / brute_psi_qk(3.0, 0.5, 1.0)
        assert res.value == pytest.approx(expected, abs=1e-12)
        assert res.tail_bound < 1e-11

    def test_nondecreasing_sample(self):
        params = DeformParams.qk(0.5, 1.0)
        g0 = ratio_G(spec_example(), 0.0, params).value
        g_half = ratio_G(spec_example(), 0.5, params).value
        g1 = ratio_G(spec_example(), 1.0, params).value
        assert g0 <= g_half <= g1

    def test_positivity_violated(self):
        spec = RatioSpec(a=1.0, b=1.0, c=3.0, d=1.0, alpha=1.0, beta=1.0)
        with pytest.raises(PositivityViolated):
            ratio_G(spec, 0.0, DeformParams.qk(0.5, 1.0))

    def test_rejects_negative_t(self):
        with pytest.raises(DomainError):
            ratio_G(spec_example(), -0.5, DeformParams.qk(0.5, 1.0))

    def test_ratio_whose_log_leaves_the_floats_is_inf(self):
        # alpha ln psi_qk(200.5) = 1.7e308 * 1.50 overflows to inf before any exp, and exp(inf) = inf
        # raises nothing: G is inf, not refused
        spec = RatioSpec(a=200.0, b=1.0, c=300.0, d=1.0, alpha=1.7e308, beta=1.0)
        params = DeformParams.qk(0.99, 1.0)
        assert ratio_G(spec, 0.5, params).value == math.inf
        assert [g.value for g in ratio_values(spec, params, [0.25, 0.5])] == [math.inf, math.inf]


class TestRatioH:
    def test_degenerate_is_exactly_one(self):
        spec = RatioSpec(a=3.0, b=1.0, c=3.0, d=1.0, alpha=2.0, beta=2.0)
        params = DeformParams.pq(2, 0.5)
        for t in (0.0, 0.5, 2.0):
            res = ratio_H(spec, t, params)
            assert res.value == 1.0
            assert res.tail_bound == 0.0

    def test_value_composition(self):
        params = DeformParams.pq(2, 0.5)
        t0 = find_positive_threshold(params)
        spec = RatioSpec(a=t0 + 0.5, b=1.0, c=t0 + 1.5, d=1.0, alpha=1.2, beta=0.8)
        res = ratio_H(spec, 0.0, params)
        x = psi_pq(spec.a, params).value
        y = psi_pq(spec.c, params).value
        assert res.value == pytest.approx(x ** 1.2 / y ** 0.8, rel=1e-13)

    def test_corollary_direction(self):
        params = DeformParams.pq(2, 0.5)
        t0 = find_positive_threshold(params)
        spec = RatioSpec(a=t0 + 0.5, b=1.0, c=t0 + 1.5, d=1.0, alpha=1.0, beta=1.0)
        assert ratio_H(spec, 2.0, params).value >= ratio_H(spec, 1.0, params).value

    def test_n_max_caps_it(self):
        # a + b*0 = 1: psi_pq takes the lattice, 21 terms; c + d*0 = 2: it sums 537 plain terms
        spec = RatioSpec(a=1.0, b=1.0, c=2.0, d=1.0, alpha=1.0, beta=1.0)
        with pytest.raises(TruncationNotConverged):
            ratio_H(spec, 0.0, DeformParams.pq(10**8, 0.5), Tolerance(n_max=50))

    def test_overflowing_ratio_is_refused(self):
        # psi_pq(20.5) is about 2.13, so G = psi^5000 / psi(30.5) is about e^3780
        spec = RatioSpec(a=20.0, b=1.0, c=30.0, d=1.0, alpha=5000.0, beta=1.0)
        params = DeformParams.pq(30, 0.9)
        with pytest.raises(TruncationNotConverged, match="overflows a double"):
            ratio_H(spec, 0.5, params)
        with pytest.raises(TruncationNotConverged, match="overflows a double"):
            ratio_values(spec, params, [0.25, 0.5])


class TestLemmaCross:
    def test_degenerate_margin_zero(self):
        spec = RatioSpec(a=2.0, b=1.0, c=2.0, d=1.0, alpha=1.0, beta=1.0)
        margin = check_lemma_cross(spec, 0.5, DeformParams.qk(0.5, 1.0))
        assert margin == 0.0

    def test_positive_margin_example(self):
        margin = check_lemma_cross(spec_example(), 0.5, DeformParams.qk(0.5, 1.0))
        assert margin > 0.0

    def test_pq_margin_nonnegative(self):
        params = DeformParams.pq(3, 0.5)
        t0 = find_positive_threshold(params)
        spec = RatioSpec(a=t0 + 0.2, b=0.5, c=t0 + 1.0, d=0.4, alpha=1.0, beta=1.0)
        assert check_lemma_cross(spec, 0.7, params) >= 0.0

    def test_sign_matches_log_ratio_slope(self):
        # margin is the numerator of d/dt ln G scaled by psi*psi > 0
        params = DeformParams.qk(0.5, 1.0)
        h = 1e-5
        for t in (0.2, 0.5, 0.9):
            m = check_lemma_cross(spec_example(), t, params)
            fd = (
                math.log(ratio_G(spec_example(), t + h, params).value)
                - math.log(ratio_G(spec_example(), t - h, params).value)
            ) / (2 * h)
            x = psi_qk(spec_example().lower_arg(t), params).value
            y = psi_qk(spec_example().upper_arg(t), params).value
            assert m == pytest.approx(fd * x * y, rel=1e-4)


class TestVerifyBounds:
    def test_degenerate_grid_all_margins_zero(self):
        params = DeformParams.qk(0.5, 1.0)
        spec = RatioSpec(a=2.0, b=1.0, c=2.0, d=1.0, alpha=1.0, beta=1.0)
        grid = GridSpec(t_min=0.0, t_max=1.0, t_count=6, pairs=((params, spec),) * 3, seed=0)
        report = verify_bounds(Suite.QK_THEOREM, grid)
        assert report.passed
        assert report.worst_violation == 0.0
        assert report.checks_run == 3 * 6 * 2
        assert report.skipped == 0

    @pytest.mark.parametrize(
        "suite,family,t_range",
        [
            (Suite.QK_THEOREM, "qk", (0.0, 1.0)),
            (Suite.PQ_THEOREM, "pq", (0.0, 1.0)),
            (Suite.QK_COROLLARY, "qk", (1.2, 5.0)),
            (Suite.PQ_COROLLARY, "pq", (1.2, 5.0)),
            (Suite.LEMMA_CROSS, "qk", (0.0, 1.0)),
            (Suite.LEMMA_CROSS, "pq", (0.0, 1.0)),
            (Suite.MONOTONE_PSI, "qk", (0.1, 5.0)),
            (Suite.MONOTONE_PSI, "pq", (0.1, 5.0)),
            (Suite.MONOTONE_PSI_PRIME, "qk", (0.1, 5.0)),
            (Suite.MONOTONE_PSI_PRIME, "pq", (0.1, 5.0)),
        ],
    )
    def test_random_grids_pass(self, suite, family, t_range):
        grid = make_verification_grid(family, 10, 8, seed=21, t_min=t_range[0], t_max=t_range[1])
        report = verify_bounds(suite, grid)
        assert report.passed, report.worst_point
        assert report.checks_run > 0
        assert report.worst_violation >= -report.epsilon

    def test_invalid_specs_are_skipped_not_failed(self):
        params = DeformParams.qk(0.5, 1.0)
        bad = RatioSpec(a=0.5, b=1.0, c=1.0, d=1.0, alpha=1.0, beta=1.0)  # below threshold
        good = spec_example()
        grid = GridSpec(t_min=0.0, t_max=1.0, t_count=5, pairs=((params, bad), (params, good)), seed=0)
        report = verify_bounds(Suite.QK_THEOREM, grid)
        assert report.passed
        assert report.skipped == 1
        assert report.checks_run == 5 * 2

    def test_deterministic_reports(self):
        grid = make_verification_grid("qk", 6, 6, seed=5)
        r1 = verify_bounds(Suite.QK_THEOREM, grid)
        r2 = verify_bounds(Suite.QK_THEOREM, make_verification_grid("qk", 6, 6, seed=5))
        assert dumps(r1.as_dict()) == dumps(r2.as_dict())

    def test_report_json_roundtrip(self):
        grid = make_verification_grid("pq", 4, 5, seed=2)
        report = verify_bounds(Suite.PQ_THEOREM, grid)
        doc = json.loads(dumps(report.as_dict()))
        assert doc["schema_version"] == "1"
        assert doc["suite"] == "pq-theorem"
        assert doc["passed"] is True
        assert doc["worst_violation"] == report.worst_violation
        assert doc["checks_run"] == report.checks_run
        assert len(doc["grid"]["pairs"]) == 4


class TestGridAgainstSuite:
    @pytest.mark.parametrize("suite", ["monotone-psi", "monotone-psi-prime"])
    def test_monotone_suite_rejects_t_min_zero_before_evaluating(self, suite, monkeypatch):
        import qdigamma.inequalities as ineq

        grid = make_verification_grid("qk", 5, 10, 1)

        def no_kernel_call(*args, **kwargs):
            raise AssertionError("kernel called")
        monkeypatch.setattr(ineq, "evaluate_lines", no_kernel_call)
        with pytest.raises(DomainError, match=rf"{suite}.*t_min=0\.0"):
            verify_bounds(suite, grid)

    @pytest.mark.parametrize("suite, family", [
        ("qk-theorem", "pq"), ("qk-corollary", "pq"), ("pq-theorem", "qk"), ("pq-corollary", "qk"),
    ])
    def test_family_suite_rejects_the_other_family_before_evaluating(self, suite, family, monkeypatch):
        import qdigamma.inequalities as ineq

        grid = make_verification_grid(family, 3, 5, 1)

        def no_kernel_call(*args, **kwargs):
            raise AssertionError("kernel called")
        monkeypatch.setattr(ineq, "evaluate_lines", no_kernel_call)
        with pytest.raises(DomainError, match=suite):
            verify_bounds(suite, grid)


class TestFindPositiveThreshold:
    def test_qk_half_bracket(self, qk_half):
        t0 = find_positive_threshold(qk_half)
        assert 1.0 < t0 < 2.0
        assert abs(psi_qk(t0, qk_half).value) <= 1e-11
        assert psi_qk(t0 + 0.1, qk_half).value > 0.0
        assert psi_qk(t0 - 0.1, qk_half).value < 0.0

    def test_pq_p1_has_no_positive_region(self):
        with pytest.raises(NoPositiveRegion):
            find_positive_threshold(DeformParams.pq(1, 0.5))

    def test_pq_p3_root(self):
        params = DeformParams.pq(3, 0.5)
        t0 = find_positive_threshold(params)
        assert psi_pq(t0 + 0.1, params).value > 0.0
        assert psi_pq(t0 - 0.1, params).value < 0.0

    def test_matches_brute_bisection(self, qk_half):
        lo, hi = 1.0, 2.0
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if brute_psi_qk(mid, 0.5, 1.0, n_terms=2000) > 0.0:
                hi = mid
            else:
                lo = mid
        assert find_positive_threshold(qk_half) == pytest.approx(0.5 * (lo + hi), abs=1e-9)


class TestGridGeneration:
    def test_deterministic(self):
        g1 = make_verification_grid("qk", 8, 5, seed=13)
        g2 = make_verification_grid("qk", 8, 5, seed=13)
        assert dumps(g1.as_dict()) == dumps(g2.as_dict())
        g3 = make_verification_grid("qk", 8, 5, seed=14)
        assert dumps(g1.as_dict()) != dumps(g3.as_dict())

    def test_first_pairs_hit_boundary_cases(self):
        grid = make_verification_grid("pq", 5, 5, seed=4)
        _, s0 = grid.pairs[0]
        assert s0.a == s0.c and s0.b == s0.d and s0.alpha == s0.beta
        _, s1 = grid.pairs[1]
        assert s1.beta * s1.d == s1.alpha * s1.b

    def test_full_range_grids_keep_ordering(self):
        grid = make_verification_grid("qk", 12, 5, seed=8, t_min=1.2, t_max=5.0)
        for _, spec in grid.pairs:
            assert spec.lower_arg(5.0) <= spec.upper_arg(5.0)

    def test_specs_validate_by_construction(self):
        grid = make_verification_grid("qk", 10, 5, seed=99)
        for params, spec in grid.pairs:
            assert validate_spec(spec, params, (0.0, 1.0)).valid

    @pytest.mark.parametrize("n_specs", [0, -3])
    def test_grid_without_specs_is_refused(self, n_specs):
        # a grid without pairs would run no check and report PASS
        with pytest.raises(DomainError, match="must be >= 1"):
            make_verification_grid("qk", n_specs, 5, seed=1)

    @staticmethod
    def draw_by_draw(outcome):
        """A stand-in for the grid's lock-step thresholds that counts the draws a draw-by-draw loop makes.

        The grid discards every draw of a batch after the first without a
        threshold, so the draws counted are those up to it; outcome(n) gives
        draw n's threshold or raises its error.
        """
        calls = []

        def thresholds(params_list, tol):
            found = []
            for params in params_list:
                if found and isinstance(found[-1], Exception):
                    found.append(found[-1])  # a draw the grid draws again
                    continue
                calls.append(params)
                if len(calls) > 1000:
                    raise AssertionError("the grid draws without end")
                try:
                    found.append(outcome(len(calls)))
                except (NoPositiveRegion, TruncationNotConverged) as exc:
                    found.append(exc)
            return found
        return calls, thresholds

    def test_draws_without_threshold_give_up(self, monkeypatch):
        # every draw fails: the last draw's error is raised after _MAX_FAILED_DRAWS draws
        def outcome(n):
            raise TruncationNotConverged(f"draw {n}", 1.0, 5)
        calls, thresholds = self.draw_by_draw(outcome)
        monkeypatch.setattr(inequalities, "_thresholds", thresholds)
        with pytest.raises(TruncationNotConverged, match=f"^draw {_MAX_FAILED_DRAWS}$"):
            make_verification_grid("qk", 1, 3, seed=0)
        assert len(calls) == _MAX_FAILED_DRAWS

    def test_failed_draws_are_counted_in_a_row(self, monkeypatch):
        # one draw in _MAX_FAILED_DRAWS has a threshold, so no run of failures reaches the bound
        def outcome(n):
            if n % _MAX_FAILED_DRAWS:
                raise NoPositiveRegion("no threshold")
            return 1.0
        calls, thresholds = self.draw_by_draw(outcome)
        monkeypatch.setattr(inequalities, "_thresholds", thresholds)
        grid = make_verification_grid("qk", 3, 3, seed=0)
        assert len(grid.pairs) == 3 and len(calls) == 3 * _MAX_FAILED_DRAWS

    def test_redrawn_grid_is_the_draw_by_draw_grid(self, monkeypatch):
        # draws with q below 0.3 have no threshold here: the lock-step grid, which drew specs for them and
        # for the draws after them, restores the rng and gets the pairs a draw-by-draw loop samples
        rng = random.Random("qk:3:12")
        pairs = []
        while len(pairs) < 12:
            params = inequalities._sample_params(rng, Family.QK)
            if params.q < 0.3:
                continue
            spec = inequalities._spec_draws(rng, len(pairs), False)
            pairs.append((params, spec(find_positive_threshold(params))))
        thresholds = inequalities._thresholds

        def some_thresholds(params_list, tol):
            return [NoPositiveRegion("q below 0.3") if params.q < 0.3 else t0
                    for params, t0 in zip(params_list, thresholds(params_list, tol))]
        monkeypatch.setattr(inequalities, "_thresholds", some_thresholds)
        grid = make_verification_grid("qk", 12, 3, seed=3)
        assert grid.pairs == tuple(pairs)
        assert sum(params.q < 0.3 for params, _ in pairs) == 0 and len(pairs) == 12

    def test_grid_spec_invariants(self):
        with pytest.raises(DomainError):
            GridSpec(t_min=0.0, t_max=1.0, t_count=1, pairs=(), seed=0)
        with pytest.raises(DomainError):
            GridSpec(t_min=1.0, t_max=0.5, t_count=5, pairs=(), seed=0)
        with pytest.raises(DomainError):
            GridSpec(t_min=0.0, t_max=math.inf, t_count=5, pairs=(), seed=0)

    @pytest.mark.parametrize("t_min, t_max, t_count", [
        (0.0, math.inf, 5), (-1.7e308, 1.7e308, 5), (math.nan, 1.0, 5), (0.0, 1.0, 1), (1.0, 0.5, 5)])
    def test_a_bad_t_grid_is_refused_before_the_first_draw(self, t_min, t_max, t_count, monkeypatch):
        calls, thresholds = self.draw_by_draw(lambda n: 1.0)
        monkeypatch.setattr(inequalities, "_thresholds", thresholds)
        with pytest.raises(DomainError):
            make_verification_grid("qk", 3, t_count, seed=0, t_min=t_min, t_max=t_max)
        assert calls == []


class TestToleranceAccounting:
    def test_loose_tolerance_raises_epsilon_not_failures(self):
        # with a loose abs_tol the propagated slack must absorb the noise
        tol = Tolerance(abs_tol=1e-6)
        grid = make_verification_grid("qk", 6, 6, seed=17, tol=tol)
        report = verify_bounds(Suite.QK_THEOREM, grid, tol)
        assert report.passed


def _first_minimum(checks):
    """(margin, point) of the first smallest margin, as verify_bounds records them."""
    worst, worst_point = math.inf, None
    for margin, point in checks:
        if margin < worst:
            worst, worst_point = margin, point
    return worst, worst_point


class TestOnePointEntriesAreTheSuitesPath:
    """check_lemma_cross and ratio_G/ratio_H give the suites' margins bit for bit."""

    @staticmethod
    def grid(family):
        # without the two boundary pairs, whose margins are exact ties
        full = make_verification_grid(family, 6, 7, seed=11)
        return GridSpec(t_min=full.t_min, t_max=full.t_max, t_count=full.t_count,
                        pairs=full.pairs[2:], seed=full.seed)

    @pytest.mark.parametrize("family", ["qk", "pq"])
    def test_lemma_cross_matches_check_lemma_cross(self, family):
        grid = self.grid(family)
        report = verify_bounds(Suite.LEMMA_CROSS, grid)
        assert report.passed and report.skipped == 0
        worst, point = _first_minimum(
            (check_lemma_cross(spec, t, params), {"pair_index": i, "t": t, "check": "cross"})
            for i, (params, spec) in enumerate(grid.pairs) for t in grid.t_values()
        )
        assert (report.worst_violation, report.worst_point) == (worst, point)

    @pytest.mark.parametrize("family, suite, ratio", [
        ("qk", Suite.QK_THEOREM, ratio_G),
        ("pq", Suite.PQ_THEOREM, ratio_H),
    ])
    def test_theorem_matches_ratio_differences(self, family, suite, ratio):
        grid = self.grid(family)
        report = verify_bounds(suite, grid)
        assert report.passed and report.skipped == 0
        ts = grid.t_values()

        def checks():
            for i, (params, spec) in enumerate(grid.pairs):
                g_lo, g_hi = ratio(spec, ts[0], params).value, ratio(spec, ts[-1], params).value
                for t in ts:
                    g_t = ratio(spec, t, params).value
                    yield g_t - g_lo, {"pair_index": i, "t": t, "check": "lower"}
                    yield g_hi - g_t, {"pair_index": i, "t": t, "check": "upper"}

        assert (report.worst_violation, report.worst_point) == _first_minimum(checks())

    def test_one_positivity_refusal(self):
        # psi(0.5) and psi(1) are both negative at qk(0.5, 1)
        spec = RatioSpec(a=0.5, b=1.0, c=1.0, d=1.0, alpha=1.0, beta=1.0)
        params = DeformParams.qk(0.5, 1.0)
        with pytest.raises(PositivityViolated) as ratio_exc:
            ratio_G(spec, 0.0, params)
        with pytest.raises(PositivityViolated) as cross_exc:
            check_lemma_cross(spec, 0.0, params)
        assert str(cross_exc.value) == str(ratio_exc.value)
        assert "psi_num=-1.63855, psi_den=-0.420529" in str(cross_exc.value)

    def test_one_nonnegative_t_check(self):
        params = DeformParams.qk(0.5, 1.0)
        messages = set()
        for entry in (lambda: ratio_G(spec_example(), -1.0, params),
                      lambda: check_lemma_cross(spec_example(), -1.0, params),
                      lambda: ratio_values(spec_example(), params, [0.5, -1.0])):
            with pytest.raises(DomainError) as exc:
                entry()
            messages.add(str(exc.value))
        assert messages == {"t=-1.0 must be nonnegative"}


ONE_POINT = {("qk", "psi"): psi_qk, ("qk", "psi-prime"): psi_qk_prime,
             ("pq", "psi"): psi_pq, ("pq", "psi-prime"): psi_pq_prime}


@pytest.mark.parametrize("suite", list(Suite), ids=lambda s: s.value)
def test_suites_on_columns_report_as_on_one_point_calls(suite, monkeypatch):
    # the engine reads a line's columns from one batch; fed instead from one-point kernel calls, t by t,
    # every report keeps its bytes
    family = inequalities.SUITES[suite][0] or (Family.PQ if suite is Suite.MONOTONE_PSI else Family.QK)
    t_min, t_max = inequalities.SUITES[suite][1]
    grid = make_verification_grid(family, 20, 10, seed=29, t_min=t_min, t_max=t_max)
    report = dumps(verify_bounds(suite, grid).as_dict())

    def one_point_line(fn, params, ts, tol):
        try:
            results = [ONE_POINT[params.family.value, fn](t, params, tol) for t in ts]
        except QDigammaError as exc:
            return exc
        return [r.value for r in results], [r.tail_bound for r in results], [r.terms_used for r in results]

    def one_point_lines(fn, lines, tol):  # for the pair (psi, psi'), one entry per order
        if isinstance(fn, str):
            return [one_point_line(fn, params, ts, tol) for params, ts in lines]
        return [tuple(one_point_line(f, params, ts, tol) for f in fn) for params, ts in lines]
    monkeypatch.setattr(inequalities, "evaluate_lines", one_point_lines)
    assert dumps(verify_bounds(suite, grid).as_dict()) == report
    assert '"checks_run": 0' not in report


# sha256 of the stdout of verify --suite lemma-cross --specs 100 --t-points 50 --seed 1 --json
LEMMA_CROSS_SHA256 = "a02d210d63c92476d49751321bd8fe231f88f5d8db0204b68376506208587088"


@pytest.mark.parametrize("suite", list(Suite), ids=lambda s: s.value)
def test_a_suite_makes_one_kernel_call_per_function(suite, monkeypatch):
    # at 100 specs x 50 t: its function at every line in one call; lemma-cross takes psi and psi' in one call
    family = inequalities.SUITES[suite][0] or Family.QK
    t_min, t_max = inequalities.SUITES[suite][1]
    grid = make_verification_grid(family, 100, 50, seed=1, t_min=t_min, t_max=t_max)
    calls, lines = [], inequalities.evaluate_lines

    def counting_lines(fn, batch, tol):
        calls.append(fn)
        return lines(fn, batch, tol)
    monkeypatch.setattr(inequalities, "evaluate_lines", counting_lines)
    assert verify_bounds(suite, grid).passed
    fn = inequalities.SUITES[suite][3]
    assert calls == ([("psi", "psi-prime")] if suite is Suite.LEMMA_CROSS else [fn])
    if suite is Suite.LEMMA_CROSS:  # the CLI report keeps its bytes, as made with one psi and one psi' call
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["verify", "--suite", "lemma-cross", "--specs", "100", "--t-points", "50", "--seed", "1",
                         "--json"]) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == LEMMA_CROSS_SHA256


def test_args_are_the_scalar_arguments_bit_for_bit():
    # _args forms a + b t and c + d t over a numpy column: the product and then the sum, each rounded, as the
    # scalar lower_arg and upper_arg round them, for ts near 0, inside [0, 1], and large enough to overflow
    rng = random.Random("args")
    for _ in range(200):
        b, d, alpha = rng.uniform(0.05, 3.0), rng.uniform(3.0, 6.0), rng.uniform(1.0, 3.0)
        spec = RatioSpec(a=rng.uniform(0.1, 5.0), b=b, c=rng.uniform(5.0, 9.0), d=d, alpha=alpha,
                         beta=alpha * b / d * rng.uniform(0.05, 1.0))
        ts = [rng.uniform(0.0, 1.0), 0.0, 1.0, 10.0 ** rng.uniform(-300, 300), 1e308, rng.uniform(0.0, 1e-300)]
        got = inequalities._args(spec, ts)
        want = [x for t in ts for x in (spec.lower_arg(t), spec.upper_arg(t))]
        assert [x.hex() for x in got] == [x.hex() for x in want], spec
