"""Tests of the benchmark's own checks:  python3 -m pytest bench -q

The oracles are compared with plain high-precision sums of the defining
series, and every check is shown to pass the program's output and to reject
an output moved outside its allowance.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks as ck  # noqa: E402
import program  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

qd = pytest.importorskip("qdigamma")
import qdigamma.cli  # noqa: E402,F401

DeformParams = qd.DeformParams


def direct_qk(fn, t, q, k, digits=45):
    """The defining series summed term by term in mpmath."""
    with mp.workdps(digits + 10):
        q, t, k = mp.mpf(q), mp.mpf(t), mp.mpf(k)
        ln_q = mp.log(q)
        n_max = int(mp.ceil((digits + 5) * mp.log(10) / (-ln_q * min(t, k)))) + 10
        if fn == "psi":
            s = mp.fsum(q ** (n * t) / (1 - q ** (n * k)) for n in range(1, n_max))
            return -mp.log(1 - q) / k + ln_q * s
        if fn == "psi-prime":
            return ln_q ** 2 * mp.fsum(n * q ** (n * t) / (1 - q ** (n * k)) for n in range(1, n_max))
        s = mp.fsum(mp.log(1 - q ** ((n + 1) * k)) - mp.log(1 - q ** (t + n * k)) for n in range(n_max))
        return s - (t / k - 1) * mp.log(1 - q)


@pytest.mark.parametrize("fn", ["psi", "psi-prime", "ln-gamma"])
@pytest.mark.parametrize("q,k,t", [(0.1, 3.0, 0.2), (0.5, 1.0, 2.0), (0.9, 0.3, 5.0), (0.97, 1.7, 0.6)])
def test_qk_oracle_matches_direct_sum(fn, q, k, t):
    assert abs(ck.qk_value(fn, t, q, k) - direct_qk(fn, t, q, k)) < mp.mpf(10) ** -20


@pytest.mark.parametrize("q", [1 - 1e-5, 1 - 1e-6, 1 - 1e-8])
def test_qk_oracle_identities_near_one(q):
    t, k = 0.7, 1.3
    with mp.workdps(40):
        eps = -mp.log(mp.mpf(q))
        x = mp.exp(-eps * t)
        d_psi = ck.qk_value("psi", t + k, q, k) - ck.qk_value("psi", t, q, k)
        d_lg = ck.qk_value("ln-gamma", t + k, q, k) - ck.qk_value("ln-gamma", t, q, k)
        d_pp = ck.qk_value("psi-prime", t + k, q, k) - ck.qk_value("psi-prime", t, q, k)
        assert abs(d_psi - eps * x / (1 - x)) < mp.mpf(10) ** -20
        assert abs(d_pp + eps ** 2 * x / (1 - x) ** 2) < mp.mpf(10) ** -20
        assert abs(d_lg - mp.log((1 - x) / (1 - mp.mpf(q)))) < mp.mpf(10) ** -20
        assert abs(ck.qk_value("ln-gamma", k, q, k)) < mp.mpf(10) ** -20


@pytest.mark.parametrize("fn", ["psi", "psi-prime", "ln-gamma"])
def test_qk_oracle_tends_to_k_limit(fn):
    t, k = 1.9, 0.8
    gaps = [abs(ck.qk_value(fn, t, 1 - 10.0 ** -j, k) - ck.k_limit(fn, t, k)) for j in (3, 5, 7)]
    assert gaps[0] > 50 * gaps[1] > 2500 * gaps[2]


@pytest.mark.parametrize("fn", ["psi", "psi-prime", "ln-gamma"])
@pytest.mark.parametrize("p,q,t", [(40, 0.9, 0.7), (300, 0.1, 2.5), (2000, 0.999, 0.4)])
def test_pq_fsum_matches_mpmath(fn, p, q, t):
    value, allowance = ck.pq_value(fn, t, q, p)
    with mp.workdps(40):
        qq, tt = mp.mpf(q), mp.mpf(t)

        def lb(x):
            return mp.log((1 - qq ** x) / (1 - qq))
        if fn == "psi":
            want = lb(p) + mp.log(qq) * mp.fsum(qq ** (n * tt) / (1 - qq ** n) for n in range(1, p + 1))
        elif fn == "psi-prime":
            want = mp.log(qq) ** 2 * mp.fsum(n * qq ** (n * tt) / (1 - qq ** n) for n in range(1, p + 1))
        else:
            want = tt * lb(p) + mp.fsum(lb(n) for n in range(1, p + 1)) - mp.fsum(lb(tt + n) for n in range(p + 1))
    assert abs(value - want) <= allowance


QK_POINTS = [("psi", 2.0, 0.5, 1.0), ("psi-prime", 0.3, 0.8, 2.5), ("ln-gamma", 4.0, 0.2, 0.6),
             ("psi", 1.0, 1 - 1e-4, 1.0), ("ln-gamma", 2.0, 1 - 1e-4, 0.9), ("psi-prime", 3.0, 0.999, 1.4)]


@pytest.mark.parametrize("fn,t,q,k", QK_POINTS)
def test_qk_check_accepts_program_and_rejects_moved_value(fn, t, q, k):
    kernel = getattr(qd.qcore, wl.QK_KERNEL[fn])
    res = kernel(t, DeformParams.qk(q=q, k=k))
    ck.check_qk_value("program", fn, t, q, k, res.value, res.tail_bound, res.terms_used)
    allowance = res.tail_bound + ck.qk_allowance(fn, res.value, t, q, k, res.terms_used)
    moved = res.value + 4 * allowance + 1e-15
    with pytest.raises(ck.CheckFailed):
        ck.check_qk_value("moved", fn, t, q, k, moved, res.tail_bound, res.terms_used)


@pytest.mark.parametrize("fn", ["psi", "psi-prime", "ln-gamma"])
def test_shift_identities_hold_for_program(fn):
    q, k, t = 1 - 1e-4, 1.2, 0.9
    kernel = getattr(qd.qcore, wl.QK_KERNEL[fn])
    a, b = kernel(t, DeformParams.qk(q=q, k=k)), kernel(t + k, DeformParams.qk(q=q, k=k))
    triple = lambda r: (r.value, r.tail_bound, r.terms_used)  # noqa: E731
    ck.check_qk_shift("program", fn, q, k, t, triple(a), triple(b))
    off = 10 * (a.tail_bound + b.tail_bound + ck.qk_allowance(fn, b.value, t + k, q, k, b.terms_used))
    with pytest.raises(ck.CheckFailed):
        ck.check_qk_shift("moved", fn, q, k, t, triple(a), (b.value + off, b.tail_bound, b.terms_used))


@pytest.mark.parametrize("fn,p,q,t", [("psi", 10**5, 0.999, 0.3), ("psi-prime", 10**4, 0.5, 1.1),
                                      ("ln-gamma", 10**5, 0.9, 2.0), ("ln-gamma", 30, 0.3, 0.5)])
def test_pq_check_accepts_program_and_rejects_moved_value(fn, p, q, t):
    res = getattr(qd.qcore, wl.PQ_KERNEL[fn])(t, DeformParams.pq(p=p, q=q))
    ck.check_pq_value("program", fn, t, q, p, res.value)
    _, allowance = ck.pq_value(fn, t, q, p)
    with pytest.raises(ck.CheckFailed):
        ck.check_pq_value("moved", fn, t, q, p, res.value + 4 * allowance + 1e-15)


def test_pq_lngamma_shift_for_program():
    params = DeformParams.pq(p=10**5, q=0.9)
    a, b = qd.qcore.ln_gamma_pq(1.3, params), qd.qcore.ln_gamma_pq(2.3, params)
    ck.check_pq_lngamma_shift("program", 0.9, 10**5, 1.3, a.value, b.value)
    with pytest.raises(ck.CheckFailed):
        ck.check_pq_lngamma_shift("moved", 0.9, 10**5, 1.3, a.value, b.value + 1e-8)


def test_shape_checks():
    ck.check_monotone("up", [1.0, 1.0, 2.0], [0.0] * 3, True)
    ck.check_monotone("down", [2.0, 1.0, 1.0], [0.0] * 3, False)
    ck.check_convex("convex", [x * x for x in range(5)], [0.0] * 5)
    ck.check_shrinking("gaps", [1e-2, 1e-3, 1e-3], [0.0] * 3)
    with pytest.raises(ck.CheckFailed):
        ck.check_monotone("up", [1.0, 0.9], [0.01, 0.01], True)
    with pytest.raises(ck.CheckFailed):
        ck.check_convex("concave", [-x * x for x in range(5)], [0.0] * 5)
    with pytest.raises(ck.CheckFailed):
        ck.check_shrinking("gaps", [1e-3, 2e-3], [0.0, 0.0])


def _verify_report(suite, family, specs=4, t_points=5):
    prog = program.Program(qd)
    outcome = prog.cli("verify", "--suite", suite, "--family", family, "--specs", specs,
                       "--t-points", t_points, "--seed", 3, "--json")()
    assert outcome.code == 0
    return outcome.json()["report"]


@pytest.mark.parametrize("suite,family", program.SUITES)
def test_verify_report_check(suite, family):
    report = _verify_report(suite, family)
    ck.check_verify_report("program", report, suite, 4, 5)
    for change in ({"checks_run": report["checks_run"] - 1}, {"errors": ["pair 0: boom"]},
                   {"passed": False}, {"skipped": 1}):
        with pytest.raises(ck.CheckFailed):
            ck.check_verify_report("changed", {**report, **change}, suite, 4, 5)


def test_ratio_spec_stays_positive():
    rng = random.Random(0)
    for _ in range(20):
        q, k = rng.uniform(0.1, 0.9), rng.uniform(0.5, 2.0)
        spec = wl._ratio_spec(rng, k)
        assert ck.qk_value("psi", spec["a"], q, k) > 0
        assert ck.psi_ratio(0.0, q, k, spec) <= ck.psi_ratio(4.0, q, k, spec)


def test_rounds_depend_only_on_seed():
    prog = program.Program(qd)
    for workload in program.WORKLOADS:
        a, b = wl.make_round(prog, workload, 5), wl.make_round(prog, workload, 5)
        assert [(op.label, op.points) for op in a.ops] == [(op.label, op.points) for op in b.ops]
        other = wl.make_round(prog, workload, 6)
        assert [op.label for op in other.ops] == [op.label for op in a.ops]


def test_known_faults_are_recognised():
    prog = program.Program(qd)
    for op in wl._near_one_faults(prog):
        op.outcome = op.call()
        assert op.failed and op.fault(op.outcome), op.label


def _failing_verify_op(fault=None):
    """A verify command that exits 1 with a failed report."""
    report = {**_verify_report("qk-theorem", "qk"), "passed": False}
    outcome = program.CliOutcome(1, json.dumps({"report": report}), "")
    return wl.Op("verify:qk-theorem", lambda: outcome, 20,
                 lambda o: ck.check_verify_report("verify", o.json()["report"], "qk-theorem", 4, 5),
                 fault)


@pytest.mark.parametrize("fault", [None, wl._is_truncation])
def test_unexpected_failure_makes_run_incorrect(fault):
    runner = run.Runner()
    runner.run_round(wl.Round([_failing_verify_op(fault)], []))
    assert runner.failed == 1 and not runner.correct


def test_known_fault_keeps_run_correct():
    runner = run.Runner()
    runner.run_round(wl.Round([_failing_verify_op(lambda o: o.code == 1)], []))
    assert runner.failed == 1 and runner.correct and runner.points == [0]


def test_setup_probe_imports_no_checks():
    code = ("import sys, run; run.main(['--workload', 'pq-large', '--setup-probe']); "
            "print(sorted({'mpmath', 'checks', 'workloads', 'tracing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True,
                          check=True, timeout=120)
    assert proc.stdout.split() == ["ready", "[]"]


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_tracer_restores_program_names():
    before = {(m, n): getattr(getattr(qd, m), n) for m, names in tracing.PATCHES.items() for n in names}
    tracer = tracing.Tracer(qd)
    tracer.install()
    try:
        qd.qcore.psi_qk(1.5, DeformParams.qk(q=0.5))
        assert tracer.count["qcore.calls"] == 1 and tracer.count["series.sum_calls"] == 1
    finally:
        tracer.uninstall()
    after = {(m, n): getattr(getattr(qd, m), n) for m, names in tracing.PATCHES.items() for n in names}
    assert before == after
    assert math.isfinite(tracer.metrics(1, 0, 0.0)["qcore.us_per_call"]["value"])
