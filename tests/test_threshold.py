"""Positivity threshold: the certified bracket, its width, and its kernel-call cost."""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest

from qdigamma import DeformParams, Family, Tolerance, find_positive_threshold, make_verification_grid
from qdigamma import inequalities as ineq
from qdigamma.cli import main
from qdigamma.inequalities import ROOT_WIDTH, _sample_params, _threshold_bracket
from qdigamma.params import DEFAULT_TOL
from qdigamma.qcore import evaluate

from conftest import brute_psi_pq, brute_psi_qk


def _cases(family: Family) -> list:
    """qk(0.5, 1), whose old threshold left the sign of psi undecided, then 200 sampled sets."""
    rng = random.Random(f"threshold-bracket:{family.value}")
    cases = [_sample_params(rng, family) for _ in range(200)]
    return ([DeformParams.qk(0.5, 1.0)] if family is Family.QK else []) + cases


def _brute_root(params: DeformParams) -> float:
    """Plain bisection of a plain-loop psi to 1e-11 on [0.5, 8]."""
    if params.family is Family.QK:
        def f(t):
            return brute_psi_qk(t, params.q, params.k, n_terms=2000)
    else:
        def f(t):
            return brute_psi_pq(t, params.p, params.q)
    lo, hi = 0.5, 8.0
    while hi - lo > 1e-11:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_bracket_is_certified_and_narrow(family):
    for i, params in enumerate(_cases(family)):
        lo, hi = _threshold_bracket(params, DEFAULT_TOL)
        at_lo, at_hi, at_mid = evaluate("psi", params, (lo, hi, 0.5 * (lo + hi)))
        assert at_lo.value + at_lo.tail_bound < 0.0 < at_hi.value - at_hi.tail_bound, params.label()
        # the band |psi| <= tail is about 2 tail / psi' wide
        slope = evaluate("psi-prime", params, (0.5 * (lo + hi),))[0].value
        band = 2.0 * max(at_lo.tail_bound, at_hi.tail_bound, at_mid.tail_bound) / slope
        if band < ROOT_WIDTH:
            assert hi - lo <= ROOT_WIDTH, (params.label(), hi - lo, band)
        t0 = find_positive_threshold(params)
        assert t0 == 0.5 * (lo + hi)
        if i < 20:
            assert abs(t0 - _brute_root(params)) <= 1e-9, params.label()


def test_undecided_sign_case():
    # psi at the parent's threshold 1.4463627156096663 was -6.6e-14 with a tail of 7.0e-14
    params = DeformParams.qk(0.5, 1.0)
    lo, hi = _threshold_bracket(params, DEFAULT_TOL)
    assert lo < 1.4463627156096663 < hi
    assert hi - lo <= ROOT_WIDTH
    at_lo, at_hi = evaluate("psi", params, (lo, hi))
    assert at_lo.value + at_lo.tail_bound < 0.0 < at_hi.value - at_hi.tail_bound


def test_grid_thresholds_take_at_most_12_kernel_calls(monkeypatch):
    calls, roots = [], []
    counted_threshold = ineq.find_positive_threshold

    def counting_evaluate(fn, params, ts, tol=DEFAULT_TOL):
        calls.append(fn)
        return evaluate(fn, params, ts, tol)

    def threshold(params, tol=DEFAULT_TOL):
        roots.append(params)
        return counted_threshold(params, tol)

    monkeypatch.setattr(ineq, "evaluate", counting_evaluate)
    monkeypatch.setattr(ineq, "find_positive_threshold", threshold)
    for family in ("qk", "pq"):
        for seed in (1, 2, 3, 4):
            make_verification_grid(family, 100, 5, seed)
    assert len(roots) >= 800
    assert len(calls) / len(roots) <= 12.0


def test_large_root_terminates():
    # the root is near 3e5, where floats are 6e-11 apart: the bracket stops at a few of them
    params = DeformParams.pq(2, 0.999998)
    lo, hi = _threshold_bracket(params, DEFAULT_TOL)
    at_lo, at_hi = evaluate("psi", params, (lo, hi))
    assert at_lo.value < 0.0 < at_hi.value
    assert 2e5 < lo < hi <= lo + 1e-9


def _root_json(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["root", *argv]) == 0
    return json.loads(out.getvalue())["result"]


def test_cli_root_prints_the_bracket():
    result = _root_json("--family", "qk", "--q", "0.5", "--k", "1")
    assert result["lo"] < result["threshold"] < result["hi"]
    assert result["hi"] - result["lo"] <= ROOT_WIDTH
    assert result["threshold"] == find_positive_threshold(DeformParams.qk(0.5, 1.0))


def test_cli_root_without_a_root_prints_null_ends():
    result = _root_json("--family", "pq", "--p", "1", "--q", "0.5")
    assert result["threshold"] is None and result["lo"] is None and result["hi"] is None
    assert result["reason"].startswith("no-positive-region")


def test_no_psi_prime_call_where_psi_summed_no_terms(monkeypatch):
    # at qk(8.9e-7, 6.99e5) the start 1 + k/2 lies far right of the root, where q^t underflows: psi there
    # sums no terms and psi' is exactly 0.0, so the halvings down to the root make no psi' call
    params, tol = DeformParams.qk(8.9e-7, 6.99e5), Tolerance(abs_tol=1e-10)
    calls = []

    def counting_evaluate(fn, params, ts, tol=DEFAULT_TOL):
        calls.append(fn)
        return evaluate(fn, params, ts, tol)

    monkeypatch.setattr(ineq, "evaluate", counting_evaluate)
    assert _threshold_bracket(params, tol) == (2.1550061628818926, 2.155006162882399)  # as before the skip
    assert len(calls) == 56
