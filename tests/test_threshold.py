"""Positivity threshold: the certified bracket, its width, and its kernel-call cost."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

import pytest

from qdigamma import DeformParams, Family, Tolerance, find_positive_threshold, make_verification_grid
from qdigamma import inequalities as ineq
from qdigamma._jsonfmt import dumps
from qdigamma.cli import main
from qdigamma.inequalities import ROOT_WIDTH, _sample_params, _threshold_bracket
from qdigamma.params import DEFAULT_TOL
from qdigamma.qcore import evaluate, evaluate_columns

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


# sha256 of _jsonfmt.dumps(grid.as_dict()) for make_verification_grid(family, 100, 5, seed), as the searches
# made them with one psi call and one psi' call per round: the fused rounds visit the same t and find the same t0
GRID_SHA256 = {
    ("qk", 1): "f910e80376de6801e5c1a06543cf636b6af766608b732c89dfc52e48b3c381aa",
    ("qk", 2): "6b9a75ec0ad246e0619e52a3944102a35316f61a5a155a490db265d5f847e36f",
    ("qk", 3): "c38ad0a13ed2e563ef84dc455b85053952a401e5803f3f73f6930c0edde8cb48",
    ("qk", 4): "245af0f0a9c64913e4d1c37fa9b39408176c51dd1dad531dd103b98433f40c9f",
    ("pq", 1): "f731d76fea4bfc19ab35981ef680c79eb30d3ac4ac3266939147d3843d19e1ab",
    ("pq", 2): "42d9bc1f75278e7cba9dedabb6d8e338c16b261e4a87b780412d1ee5634e3ac7",
    ("pq", 3): "1595b8d8483bdc9be53bf844dc0eb527a072e43fa2039f9a5c75cf8382c3338b",
    ("pq", 4): "edf8adfeb011d72644b3561aa2055dd08d2ba8ee5b8bfb5a3b9ad1ffaf3fd24c",
}


def test_grid_thresholds_take_at_most_12_kernel_calls(monkeypatch):
    # at most 12 kernel requests a threshold, one line each; the grid runs the searches of all its draws in
    # lock-step, psi' with psi in one call where a step may read it, at most two calls a round and 13 a grid
    calls, requests, roots = [], [], []
    lock_step, lines = ineq._lock_step, ineq.evaluate_lines

    def counting_lines(fn, batch, tol=DEFAULT_TOL):
        calls.append(fn)
        requests.extend(batch)
        return lines(fn, batch, tol)

    def counting_lock_step(params_list, tol=DEFAULT_TOL):
        roots.extend(params_list)
        return lock_step(params_list, tol)

    monkeypatch.setattr(ineq, "evaluate_lines", counting_lines)
    monkeypatch.setattr(ineq, "_lock_step", counting_lock_step)
    for family in ("qk", "pq"):
        for seed in (1, 2, 3, 4):
            before = len(calls)
            grid = make_verification_grid(family, 100, 5, seed)
            assert len(calls) - before <= 13, (family, seed)
            assert hashlib.sha256(dumps(grid.as_dict()).encode()).hexdigest() == GRID_SHA256[family, seed]
    assert len(roots) >= 800
    assert len(calls) / len(roots) <= 12.0 and len(requests) / len(roots) <= 12.0


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
    # sums no terms and psi' is exactly 0.0, so the halvings down to the root make no psi' call; psi' comes
    # with psi in one call where a step may read it, so the 36 psi requests make 36 calls in place of 56
    params, tol = DeformParams.qk(8.9e-7, 6.99e5), Tolerance(abs_tol=1e-10)
    calls = []

    def counting_columns(fn, params, ts, tol=DEFAULT_TOL):
        calls.append(fn)
        return evaluate_columns(fn, params, ts, tol)

    monkeypatch.setattr(ineq, "evaluate_columns", counting_columns)
    assert _threshold_bracket(params, tol) == (2.1550061628818926, 2.155006162882399)  # as before the skip
    assert len(calls) == 36 and "psi-prime" not in calls
