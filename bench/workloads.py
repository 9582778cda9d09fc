"""The benchmark's workloads: rounds of program operations with their checks.

A round is a fixed list of operations whose inputs come from
``random.Random(f"{workload}:{seed}")``: the same seed gives the same inputs,
and every round of a run repeats the same operations on the same inputs.  An operation is
one CLI command, run in-process through ``qdigamma.cli.main(argv)`` with its
output captured, or one library call.  Program names are looked up on their
modules at call time, so the traced run's wrappers see every call.

Each operation carries the number of function points it certifies (counted
from its inputs), a check of its own output, and for the operations that hit
a known fault, a test that recognises that fault.  Checks that need several
outputs (identities, shrinking gaps) run after the round.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Optional

import mpmath as mp

import checks as ck
from program import PQ_KERNEL, QK_FNS, QK_KERNEL, SUITES, CliOutcome, Program

SPECS, T_POINTS, TABLE_ROWS = 100, 50, 1000
NEAR_ONE_Q = (1.0 - 1e-3, 1.0 - 1e-4, 1.0 - 1e-5)
T_STRATA = ((0.6, 1.0), (1.0, 1.6), (1.6, 2.5), (2.5, 4.0))
K_STRATA = ((0.8, 1.1), (1.1, 1.5), (1.5, 2.1), (2.1, 3.0))
PQ_P = (10**4, 10**5, 10**6, 10**7)
PQ_Q = (0.1, 0.5, 0.9, 0.999)
PQ_SHIFT_MAX_P = 10**6  # the ln Gamma shift pair is skipped at p = 1e7 to keep rounds short
UNKNOWN_TERMS = 10**7  # term cap, an upper bound when a CLI output omits the count


@dataclasses.dataclass
class Op:
    """One timed program operation.

    ``call`` returns a CliOutcome, a library result, or the library error it
    raised.  ``fault`` recognises the outcome of a known program fault.
    """

    label: str
    call: Callable[[], object]
    points: int
    check: Optional[Callable[[object], None]] = None
    fault: Optional[Callable[[object], bool]] = None
    outcome: object = None

    @property
    def failed(self) -> bool:
        o = self.outcome
        return isinstance(o, Exception) or (isinstance(o, CliOutcome) and o.failed)


@dataclasses.dataclass
class Round:
    ops: list
    group_checks: list  # (label, callable, ops it reads)


def _result_triple(outcome) -> tuple:
    """(value, tail, terms) from an EvalResult or an `eval` JSON document."""
    if isinstance(outcome, CliOutcome):
        r = outcome.json()["result"]
        return r["value"], r["tail_bound"], r["terms_used"]
    return outcome.value, outcome.tail_bound, outcome.terms_used


def _is_truncation(outcome) -> bool:
    if isinstance(outcome, CliOutcome):
        return outcome.code == 3 and "TruncationNotConverged" in outcome.err
    return type(outcome).__name__ == "TruncationNotConverged"


def _is_cap_hit(outcome) -> bool:
    return (isinstance(outcome, CliOutcome) and outcome.code == 1
            and "series cap hit" in outcome.out)


def _qk_check(label, fn, t, q, k):
    def check(outcome):
        value, tail, terms = _result_triple(outcome)
        ck.check_qk_value(label, fn, t, q, k, value, tail, terms)
    return check


def _pq_check(label, fn, t, q, p):
    def check(outcome):
        ck.check_pq_value(label, fn, t, q, p, outcome.value)
    return check


def _check_q_scan(label, doc, t, k, j_max):
    """A q -> 1- scan of psi_qk: values against the oracle, targets, shrinking gaps."""
    rep = doc["report"]
    ck.require(rep["passed"] and not rep["errors"], f"{label}: scan failed {rep['errors']}")
    target = ck.k_limit("psi", t, k)
    ck.require_close(f"{label} target", rep["target_values"][0], target, 1e-12)
    qs = [q for q, _ in rep["sequence"]]
    ck.require(qs == [1.0 - 10.0 ** -j for j in range(1, j_max + 1)], f"{label}: q schedule {qs}")
    gaps, slacks = [], []
    for q, value in zip(qs, rep["values"]):
        allowance = 1e-13 + ck.qk_allowance("psi", value, t, q, k, UNKNOWN_TERMS)
        ck.check_qk_value(f"{label} q={q}", "psi", t, q, k, value, 1e-13, UNKNOWN_TERMS)
        gaps.append(float(abs(ck.qk_value("psi", t, q, k) - target)))
        slacks.append(allowance)
    ck.check_shrinking(label, gaps, slacks)


def _check_root(label, doc, fn_value):
    """The reported threshold brackets a sign change of psi from the oracle."""
    result = doc["result"]
    ck.require(result["reason"] is None, f"{label}: {result['reason']}")
    t0 = result["threshold"]
    delta = 1e-9 * max(1.0, t0)
    ck.require(fn_value(t0 - delta) < 0 < fn_value(t0 + delta),
               f"{label}: psi does not change sign at {t0!r}")


def _grid_monotone_ops(prog, label, family, seed, make_params, t_count=6):
    """Build a small seeded grid, move its parameters, and check psi is monotone there."""
    holder = {}
    grid_call = prog.lib("inequalities", "make_verification_grid", family, 2, t_count, seed, 0.5, 4.0)

    def grid_op():
        grid = grid_call()
        holder["grid"] = grid
        return grid

    def grid_check(grid):
        ck.require(len(grid.pairs) == 2 and grid.t_count == t_count, f"{label}: grid size")
        for _, spec in grid.pairs:
            ck.require(spec.a <= spec.c and spec.a + spec.b <= spec.c + spec.d
                       and spec.beta * spec.d <= spec.alpha * spec.b * (1 + 4 * ck.U),
                       f"{label}: spec {spec} breaks the preconditions")

    def verify_op():
        grid = holder["grid"]
        moved = dataclasses.replace(grid, pairs=tuple((make_params(p), s) for p, s in grid.pairs))
        try:
            return prog.qd.inequalities.verify_bounds("monotone-psi", moved)
        except prog.error_type as exc:
            return exc

    def verify_check(report):
        ck.require(report.passed and not report.errors and report.skipped == 0,
                   f"{label}: report failed {report.errors[:1]}")
        ck.require(report.checks_run == 2 * (t_count - 1), f"{label}: checks_run {report.checks_run}")

    return [
        Op(f"{label}:grid", grid_op, 0, grid_check),
        Op(f"{label}:verify", verify_op, 2 * (t_count - 1), verify_check),
    ]


# ---------------------------------------------------------------------------
# suites: the acceptance CLI commands, thousands of short series


def suites_round(prog: Program, rng: random.Random) -> Round:
    ops = []
    verify_seed = rng.randrange(1, 10**6)
    for suite, family in SUITES:
        def check(outcome, suite=suite):
            ck.check_verify_report(f"verify {suite}", outcome.json()["report"], suite, SPECS, T_POINTS)
        ops.append(Op(f"verify:{suite}", prog.cli(
            "verify", "--suite", suite, "--family", family, "--specs", SPECS,
            "--t-points", T_POINTS, "--seed", verify_seed, "--json"),
            ck.implied_checks(suite, SPECS, T_POINTS), check))

    # table cost sets the median operation time, so its parameters vary little
    q, k = rng.uniform(0.4, 0.6), rng.uniform(0.8, 1.25)
    sample_rows = sorted(rng.sample(range(TABLE_ROWS), 3))
    for fn in QK_FNS:
        ops.append(Op(f"table:{fn}", prog.cli(
            "table", "--family", "qk", "--q", q, "--k", k, "--fn", fn,
            "--t-min", 0.5, "--t-max", 5.0, "--t-count", TABLE_ROWS),
            TABLE_ROWS, _table_check(fn, q, k, sample_rows)))
    spec = _ratio_spec(rng, k)
    ops.append(Op("table:ratio", prog.cli(
        "table", "--family", "qk", "--q", q, "--k", k, "--fn", "ratio",
        *[x for name, v in spec.items() for x in (f"--{name}", v)],
        "--t-min", 0.0, "--t-max", 4.0, "--t-count", TABLE_ROWS),
        TABLE_ROWS, _table_check("ratio", q, k, sample_rows, spec)))

    for fn in QK_FNS:
        eq, ek, et = rng.uniform(0.1, 0.9), rng.uniform(0.3, 3.0), rng.uniform(0.2, 6.0)
        ops.append(Op(f"eval:{fn}", prog.cli(
            "eval", "--family", "qk", "--q", eq, "--k", ek, "--t", et, "--fn", fn),
            1, _qk_check(f"eval {fn}", fn, et, eq, ek)))
    pp, pq_, pt = rng.randint(2, 50), rng.uniform(0.1, 0.9), rng.uniform(0.2, 6.0)

    def pq_eval_check(outcome, pp=pp, pq_=pq_, pt=pt):
        ck.check_pq_value("eval pq ln-gamma", "ln-gamma", pt, pq_, pp, _result_triple(outcome)[0])
    ops.append(Op("eval:pq-ln-gamma", prog.cli(
        "eval", "--family", "pq", "--p", pp, "--q", pq_, "--t", pt, "--fn", "ln-gamma"), 1, pq_eval_check))

    rq, rk = rng.uniform(0.1, 0.9), rng.uniform(0.3, 3.0)
    ops.append(Op("root:qk", prog.cli("root", "--family", "qk", "--q", rq, "--k", rk, "--json"), 1,
                  lambda o, rq=rq, rk=rk: _check_root(
                      "root qk", o.json(), lambda t: ck.qk_value("psi", t, rq, rk))))
    rp, rpq = rng.randint(2, 30), rng.uniform(0.1, 0.9)
    ops.append(Op("root:pq", prog.cli("root", "--family", "pq", "--p", rp, "--q", rpq, "--json"), 1,
                  lambda o, rp=rp, rpq=rpq: _check_root(
                      "root pq", o.json(), lambda t: ck.pq_value("psi", t, rpq, rp)[0])))

    lq, lt = rng.uniform(0.1, 0.9), rng.uniform(0.5, 3.0)
    ops.append(Op("limits:3.1", prog.cli("limits", "--remark", "3.1", "--q", lq, "--t", lt, "--json"), 1,
                  _k1_check(lq, lt)))
    # the scan passes only on strictly shrinking gaps: p from 2, t >= 1, gaps above 1e-9
    sq, st = rng.uniform(0.4, 0.6), rng.uniform(1.0, 3.0)
    ops.append(Op("limits:3.5", prog.cli(
        "limits", "--remark", "3.5", "--q", sq, "--t", st, "--p-list", "2,5,10,15,20", "--json"),
        5, _p_scan_check(sq, st, (2, 5, 10, 15, 20))))
    return Round(ops, [])


def _ratio_spec(rng: random.Random, k: float) -> dict:
    """A ratio spec whose arguments stay above the root of psi (below 2k) for t >= 0."""
    b = rng.uniform(0.2, 1.0)
    d = b * rng.uniform(1.0, 1.5)
    a = k * rng.uniform(2.0, 3.0) + 0.5
    return {"a": a, "b": b, "c": a + rng.uniform(0.1, 1.0), "d": d,
            "alpha": (d / b) * rng.uniform(1.0, 1.5), "beta": 1.0}


def _table_check(fn, q, k, sample_rows, spec=None):
    def check(outcome):
        lines = outcome.out.strip().split("\n")
        ck.require(lines[0] == "t,value,tail_bound" and len(lines) == TABLE_ROWS + 1,
                   f"table {fn}: {len(lines)} lines")
        rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
        ts = [r[0] for r in rows]
        values = [r[1] for r in rows]
        if fn == "ratio":
            slacks = [r[2] + 1e-11 * abs(r[1]) for r in rows]
        else:
            slacks = [r[2] + ck.qk_allowance(fn, r[1], r[0], q, k, UNKNOWN_TERMS) for r in rows]
        ck.check_monotone(f"table {fn} t", ts, [0.0] * len(ts), True)
        if fn == "psi-prime":
            ck.check_monotone("table psi-prime", values, slacks, False)
        elif fn == "ln-gamma":
            ck.check_convex("table ln-gamma", values, slacks)
        else:
            ck.check_monotone(f"table {fn}", values, slacks, True)
        for i in sample_rows:
            t, value, tail = rows[i]
            if fn == "ratio":
                ck.require_close(f"table ratio row {i}", value, ck.psi_ratio(t, q, k, spec),
                                 slacks[i] + 1e-13)
            else:
                ck.check_qk_value(f"table {fn} row {i}", fn, t, q, k, value, tail, UNKNOWN_TERMS)
    return check


def _k1_check(q, t):
    """Remark 3.1: psi_qk at k=1 and the program's partial-sum oracle, both vs ours."""
    def check(outcome):
        rep = outcome.json()["report"]
        ck.require(rep["ok"], f"limits 3.1: gap {rep['gap']!r} > {rep['allowance']!r}")
        want = ck.qk_value("psi", t, q, 1.0)
        half = 0.5 * rep["allowance"]
        ck.require_close("limits 3.1 value", rep["value"], want,
                         half + ck.qk_allowance("psi", rep["value"], t, q, 1.0, rep["terms_used"]))
        ck.require_close("limits 3.1 oracle", rep["oracle_value"], want,
                         half + ck.qk_allowance("psi", rep["oracle_value"], t, q, 1.0, UNKNOWN_TERMS))
    return check


def _p_scan_check(q, t, p_list):
    """Remark 3.5: every psi_pq value vs fsum, shrinking gaps to psi_qk(k=1)."""
    def check(outcome):
        rep = outcome.json()["report"]
        ck.require(rep["passed"], f"limits 3.5: failed ({rep['discrepancy']})")
        target = ck.qk_value("psi", t, q, 1.0)
        ck.require_close("limits 3.5 target", rep["target_values"][0], target, 1e-12)
        gaps, slacks = [], []
        for p, value in zip(p_list, rep["values"]):
            want, allowance = ck.pq_value("psi", t, q, p)
            ck.require_close(f"limits 3.5 p={p}", value, mp.mpf(want), allowance)
            gaps.append(float(abs(mp.mpf(want) - target)))
            slacks.append(allowance)
        ck.require(len(gaps) == len(p_list), "limits 3.5: missing values")
        ck.check_shrinking("limits 3.5", gaps, slacks)
    return check


# ---------------------------------------------------------------------------
# near-one: q -> 1- series of 1e4 to 1e7 terms


def near_one_round(prog: Program, rng: random.Random) -> Round:
    ops, groups = [], []
    # one (t, k) from each stratum, so every round sums about as many terms
    k_strata = rng.sample(K_STRATA, len(K_STRATA))
    for (t_lo, t_hi), (k_lo, k_hi) in zip(T_STRATA, k_strata):
        t, k = rng.uniform(t_lo, t_hi), rng.uniform(k_lo, k_hi)
        by_q = {}
        for q in NEAR_ONE_Q:
            params = prog.qd.params.DeformParams.qk(q=q, k=k)
            cell = {}
            for fn in QK_FNS:
                for arg in (t, t + k):
                    op = Op(f"qk:{fn}:q={q:.5f}", prog.lib("qcore", QK_KERNEL[fn], arg, params), 1,
                            _qk_check(f"{fn}(t={arg}, q={q}, k={k})", fn, arg, q, k))
                    cell[(fn, arg)] = op
                    ops.append(op)
            at_k = Op("qk:ln-gamma", prog.lib("qcore", "ln_gamma_qk", k, params), 1,
                      lambda r, q=q, k=k: ck.check_lngamma_at_k(f"q={q}, k={k}", q, k, *_result_triple(r)))
            ops.append(at_k)
            by_q[q] = cell
            for fn in QK_FNS:
                pair = (cell[(fn, t)], cell[(fn, t + k)])
                groups.append((f"{fn} shift q={q}", _shift_check(fn, q, k, t, *pair), pair))
        for fn in QK_FNS:
            cells = tuple(by_q[q][(fn, t)] for q in NEAR_ONE_Q)
            groups.append((f"{fn} gaps", _gap_check(fn, t, k, cells), cells))

    # at q = 0.9999, t = 0.5 the program's partial-sum oracle reaches its 2e6-term
    # cap, so this round's peak memory does not depend on the seed
    for lq, lt in ((0.999, rng.uniform(0.5, 3.0)), (0.9999, 0.5)):
        ops.append(Op("limits:3.1", prog.cli("limits", "--remark", "3.1", "--q", lq, "--t", lt, "--json"),
                      1, _k1_check(lq, lt)))
    st, sk = rng.uniform(0.6, 4.0), rng.uniform(0.8, 3.0)
    ops.append(Op("limits:3.2", prog.cli(
        "limits", "--remark", "3.2", "--t", st, "--k", sk, "--j-max", 5, "--json"), 5,
        lambda o, st=st, sk=sk: _check_q_scan("limits 3.2", o.json(), st, sk, 5)))
    ops.append(Op("limits:3.3", prog.cli("limits", "--remark", "3.3", "--t", st, "--j-max", 5, "--json"), 5,
                  lambda o, st=st: _check_q_scan("limits 3.3", o.json(), st, 1.0, 5)))
    for rq in (0.999, 0.9999):
        rk = rng.uniform(0.8, 3.0)
        ops.append(Op("root:qk", prog.cli("root", "--family", "qk", "--q", rq, "--k", rk, "--json"), 1,
                      lambda o, rq=rq, rk=rk: _check_root(
                          f"root q={rq}", o.json(), lambda x: ck.qk_value("psi", x, rq, rk))))
    ops += _grid_monotone_ops(prog, "near-one monotone-psi", "qk", rng.randrange(1, 10**6),
                              lambda p: prog.qd.params.DeformParams.qk(q=0.999, k=p.k))
    ops += _near_one_faults(prog)
    return Round(ops, groups)


def _near_one_faults(prog: Program) -> list:
    """Operations that hit the 1e7-term series cap inside the advertised q range.

    Their inputs do not depend on the seed.  Should the program evaluate them
    one day, the outputs are checked like any other.
    """
    qk = prog.qd.params.DeformParams.qk
    q6, q5 = 1.0 - 1e-6, 1.0 - 1e-5
    return [
        Op("fault:eval", prog.cli("eval", "--family", "qk", "--q", q6, "--k", 1, "--t", 1, "--fn", "psi"), 1,
           _qk_check("eval psi q=1-1e-6", "psi", 1.0, q6, 1.0), _is_truncation),
        Op("fault:psi-prime", prog.lib("qcore", "psi_qk_prime", 1.0, qk(q=q6, k=1.0)), 1,
           _qk_check("psi' q=1-1e-6", "psi-prime", 1.0, q6, 1.0), _is_truncation),
        Op("fault:ln-gamma", prog.lib("qcore", "ln_gamma_qk", 1.0, qk(q=q6, k=1.0)), 1,
           _qk_check("lnGamma q=1-1e-6", "ln-gamma", 1.0, q6, 1.0), _is_truncation),
        Op("fault:ln-gamma-k", prog.lib("qcore", "ln_gamma_qk", 1.0, qk(q=q5, k=0.5)), 1,
           _qk_check("lnGamma q=1-1e-5 k=0.5", "ln-gamma", 1.0, q5, 0.5), _is_truncation),
        Op("fault:limits", prog.cli("limits", "--remark", "3.3", "--t", 1, "--j-max", 6, "--json"), 6,
           lambda o: _check_q_scan("limits 3.3 j=6", o.json(), 1.0, 1.0, 6), _is_cap_hit),
    ]


def _shift_check(fn, q, k, t, op_t, op_tk):
    return lambda: ck.check_qk_shift(f"{fn} q={q} k={k} t={t}", fn, q, k, t,
                                     _result_triple(op_t.outcome), _result_triple(op_tk.outcome))


def _gap_check(fn, t, k, cells):
    def check():
        target = ck.k_limit(fn, t, k)
        gaps, slacks = [], []
        for q, op in zip(NEAR_ONE_Q, cells):
            value, tail, terms = _result_triple(op.outcome)
            gaps.append(float(abs(mp.mpf(value) - target)))
            slacks.append(tail + ck.qk_allowance(fn, value, t, q, k, terms))
        ck.check_shrinking(f"{fn} q->1 gaps at t={t}, k={k}", gaps, slacks)
    return check


# ---------------------------------------------------------------------------
# pq-large: finite sums of 1e4 to 1e7 terms, most of them exact zeros


def pq_large_round(prog: Program, rng: random.Random) -> Round:
    ops, groups = [], []
    for p in PQ_P:
        for q in PQ_Q:
            t = rng.uniform(0.3, 5.0)
            params = prog.qd.params.DeformParams.pq(p=p, q=q)
            for fn in QK_FNS:
                ops.append(Op(f"pq:{fn}:p={p:.0e}", prog.lib("qcore", PQ_KERNEL[fn], t, params), 1,
                              _pq_check(f"{fn}_pq(t={t}, q={q}, p={p})", fn, t, q, p)))
            if p > PQ_SHIFT_MAX_P:
                continue
            lg_t, lg_t1 = ops[-1], Op(f"pq:ln-gamma:p={p:.0e}", prog.lib("qcore", "ln_gamma_pq", t + 1.0, params), 1,
                                      _pq_check(f"ln_gamma_pq(t={t + 1.0}, q={q}, p={p})",
                                                "ln-gamma", t + 1.0, q, p))
            ops.append(lg_t1)
            groups.append((f"lnGamma_pq shift p={p} q={q}", lambda a=lg_t, b=lg_t1, q=q, p=p, t=t:
                           ck.check_pq_lngamma_shift(f"p={p} q={q} t={t}", q, p, t,
                                                     a.outcome.value, b.outcome.value), (lg_t, lg_t1)))

    p4 = rng.randint(150, 1000)
    ops.append(Op("limits:3.4", prog.cli("limits", "--remark", "3.4", "--p", p4, "--t", 1, "--j-max", 5, "--json"),
                  5, _pq_scan_check(p4)))
    # the joint scan keeps p(1-q) = 1 and stalls away from the digamma unless t = 1
    ops.append(Op("limits:3.6", prog.cli("limits", "--remark", "3.6", "--t", 1, "--j-max", 6, "--json"),
                  6, _joint_scan_check(1.0, 6)))
    sq = rng.choice((0.5, 0.9))
    p_list = (2, 5, 10, 20, 30) if sq == 0.5 else (2, 5, 10, 20, 50, 100, 200)
    st = rng.uniform(1.0, 3.0)
    ops.append(Op("limits:3.5", prog.cli(
        "limits", "--remark", "3.5", "--q", sq, "--t", st, "--p-list", ",".join(map(str, p_list)), "--json"),
        len(p_list), _p_scan_check(sq, st, p_list)))
    ops += _grid_monotone_ops(prog, "pq-large monotone-psi", "pq", rng.randrange(1, 10**6),
                              lambda p: prog.qd.params.DeformParams.pq(p=10**5, q=p.q))
    return Round(ops, groups)


def _pq_scan_check(p):
    """Remark 3.4 at t=1: psi_pq vs fsum as q -> 1-, approaching the p-digamma."""
    def check(outcome):
        rep = outcome.json()["report"]
        ck.require(rep["passed"], f"limits 3.4: failed ({rep['discrepancy']})")
        target = mp.log(p) - mp.fsum(mp.mpf(1) / (1 + n) for n in range(p + 1))
        ck.require_close("limits 3.4 target", rep["target_values"][0], target, 1e-12)
        for q, value in zip([q for q, _ in rep["sequence"]], rep["values"]):
            want, allowance = ck.pq_value("psi", 1.0, q, p)
            ck.require_close(f"limits 3.4 q={q}", value, mp.mpf(want), allowance)
    return check


def _joint_scan_check(t, j_max):
    """Remark 3.6: psi_pq at p = 10^j, q = 1 - 10^-j vs fsum, target the digamma."""
    def check(outcome):
        rep = outcome.json()["report"]
        ck.require(rep["passed"], f"limits 3.6: failed ({rep['discrepancy']})")
        ck.require_close("limits 3.6 target", rep["target_values"][0], mp.digamma(t), 1e-12)
        ck.require(len(rep["values"]) == j_max, "limits 3.6: missing values")
        for j, value in enumerate(rep["values"], start=1):
            want, allowance = ck.pq_value("psi", t, 1.0 - 10.0 ** -j, 10**j)
            ck.require_close(f"limits 3.6 j={j}", value, mp.mpf(want), allowance)
    return check


ROUNDS = {"suites": suites_round, "near-one": near_one_round, "pq-large": pq_large_round}


def make_round(prog: Program, workload: str, seed: int) -> Round:
    return ROUNDS[workload](prog, random.Random(f"{workload}:{seed}"))
