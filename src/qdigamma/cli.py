"""Command-line front end.

Subcommands: eval (one value), table (CSV over a t-grid), verify
(inequality suites), limits (degeneration scans), root (positivity
threshold).  Output is byte-deterministic for identical argv and seed;
every run echoes its fully resolved configuration.

Exit codes: 0 success / all checks passed, 1 inequality violation or
convergence failure, 2 invalid input or configuration, 3 internal
numerical failure (an unreachable truncation target).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import _jsonfmt
from ._jsonfmt import SCHEMA_VERSION
from .errors import DomainError, NoPositiveRegion, NoRootInBracket, PositivityViolated, TruncationNotConverged
from .inequalities import (
    RatioSpec,
    Suite,
    find_positive_threshold,
    make_verification_grid,
    ratio_values,
    verify_bounds,
)
from .limits import (
    CONV_TOL,
    limit_combined_pq,
    limit_k_to_1,
    limit_p_to_inf,
    limit_q_to_1_pq,
    limit_q_to_1_qk,
)
from .params import DeformParams, Family, Tolerance
from .qcore import evaluate
# the kernels and ratio functions stay bound here for tools that wrap them by module
from .inequalities import ratio_G, ratio_H, validate_spec  # noqa: F401
from .qcore import ln_gamma_pq, ln_gamma_qk, psi_pq, psi_pq_prime, psi_qk, psi_qk_prime  # noqa: F401

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_NUMERICAL = 3

_REMARKS = ("3.1", "3.2", "3.3", "3.4", "3.5", "3.6")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdigamma",
        description="Deformed digamma/gamma evaluation, inequality verification, and limit scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_tol=True):
        p.add_argument("--config", default=None, help="JSON file whose keys mirror the flags; flags win")
        if with_tol:
            p.add_argument("--abs-tol", type=float, default=1e-13, help="series truncation target")
            p.add_argument("--n-max", type=int, default=10_000_000, help="series term cap")

    def add_family(p):
        p.add_argument("--family", choices=[f.value for f in Family], default="qk")
        p.add_argument("--q", type=float, default=0.5, help="deformation base in (0,1)")
        p.add_argument("--k", type=float, default=1.0, help="QK family step k > 0")
        p.add_argument("--p", type=int, default=1, help="PQ family integer p >= 1")

    def add_spec(p):
        for name in ("a", "b", "c", "d", "alpha", "beta"):
            p.add_argument(f"--{name}", type=float, default=None, help=f"ratio constant {name}")

    p_eval = sub.add_parser("eval", help="evaluate one function at one point")
    add_family(p_eval)
    p_eval.add_argument("--t", type=float, required=True)
    p_eval.add_argument("--fn", choices=["psi", "psi-prime", "ln-gamma", "ratio"], default="psi")
    add_spec(p_eval)
    p_eval.add_argument("--format", choices=["json", "csv", "plain"], default="json")
    add_common(p_eval)

    p_table = sub.add_parser("table", help="tabulate a function over a t-grid (CSV)")
    add_family(p_table)
    p_table.add_argument("--fn", choices=["psi", "psi-prime", "ln-gamma", "ratio"], default="psi")
    add_spec(p_table)
    p_table.add_argument("--t-min", type=float, default=0.5)
    p_table.add_argument("--t-max", type=float, default=5.0)
    p_table.add_argument("--t-count", type=int, default=10)
    p_table.add_argument("--format", choices=["json", "csv", "plain"], default="csv")
    add_common(p_table)

    p_verify = sub.add_parser("verify", help="run an inequality verification suite")
    p_verify.add_argument("--suite", choices=[s.value for s in Suite], required=True)
    p_verify.add_argument("--family", choices=[f.value for f in Family], default="qk",
                          help="family for the family-agnostic suites")
    p_verify.add_argument("--specs", type=int, default=20, help="number of sampled parameter/spec pairs")
    p_verify.add_argument("--t-points", type=int, default=25)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--t-min", type=float, default=None)
    p_verify.add_argument("--t-max", type=float, default=None)
    p_verify.add_argument("--json", action="store_true", help="emit the full report document")
    add_common(p_verify)

    p_limits = sub.add_parser("limits", help="run a degeneration scan")
    p_limits.add_argument("--remark", choices=list(_REMARKS), required=True)
    p_limits.add_argument("--t", type=float, default=1.0)
    p_limits.add_argument("--q", type=float, default=0.5)
    p_limits.add_argument("--k", type=float, default=1.0)
    p_limits.add_argument("--p", type=int, default=100)
    p_limits.add_argument("--j-max", type=int, default=5)
    p_limits.add_argument("--p-list", default="1,2,5,10,20,50",
                          help="comma-separated increasing integers for the p scan")
    p_limits.add_argument("--conv-tol", type=float, default=CONV_TOL)
    p_limits.add_argument("--json", action="store_true")
    add_common(p_limits)

    p_root = sub.add_parser("root", help="locate the positivity threshold of psi")
    add_family(p_root)
    p_root.add_argument("--json", action="store_true")
    add_common(p_root)

    return parser


def _apply_config_file(args: argparse.Namespace, argv: list) -> None:
    """Merge --config file values under explicitly passed flags."""
    if not getattr(args, "config", None):
        return
    with open(args.config, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise DomainError("--config file must contain a JSON object")
    explicit = set()
    for token in argv:
        if token.startswith("--"):
            explicit.add(token.split("=", 1)[0][2:].replace("-", "_"))
    for key, value in data.items():
        dest = str(key).replace("-", "_")
        if not hasattr(args, dest) or dest in ("command", "config"):
            raise DomainError(f"unknown config key {key!r}")
        if dest not in explicit:
            setattr(args, dest, value)


def _params_from(args) -> DeformParams:
    family = Family(args.family)
    if family is Family.QK:
        return DeformParams.qk(q=args.q, k=args.k)
    return DeformParams.pq(p=args.p, q=args.q)


def _tol_from(args) -> Tolerance:
    return Tolerance(abs_tol=args.abs_tol, n_max=args.n_max)


def _spec_from(args) -> RatioSpec:
    missing = [n for n in ("a", "b", "c", "d", "alpha", "beta") if getattr(args, n) is None]
    if missing:
        raise DomainError(f"--fn ratio needs {', '.join('--' + m for m in missing)}")
    return RatioSpec(a=args.a, b=args.b, c=args.c, d=args.d, alpha=args.alpha, beta=args.beta)


def _family_config(args) -> dict:
    cfg = {"family": args.family, "q": args.q}
    if Family(args.family) is Family.QK:
        cfg["k"] = args.k
    else:
        cfg["p"] = args.p
    return cfg


def _spec_config(args) -> dict:
    if getattr(args, "fn", None) == "ratio":
        return {n: getattr(args, n) for n in ("a", "b", "c", "d", "alpha", "beta")}
    return {}


def _emit(doc: dict) -> None:
    sys.stdout.write(_jsonfmt.dumps(doc) + "\n")


def _evaluate_rows(args, ts: list, params, tol) -> list:
    """args.fn at every t of ts (ascending), in one batch."""
    if args.fn == "ratio":
        return ratio_values(_spec_from(args), params, ts, tol)
    return evaluate(args.fn, params, ts, tol)


def _cmd_eval(args) -> int:
    params = _params_from(args)
    tol = _tol_from(args)
    (res,) = _evaluate_rows(args, [float(args.t)], params, tol)
    config = {
        "command": "eval", **_family_config(args), "t": args.t, "fn": args.fn,
        **_spec_config(args), "abs_tol": args.abs_tol, "n_max": args.n_max,
        "output_format": args.format,
    }
    result = {"value": res.value, "tail_bound": res.tail_bound, "terms_used": res.terms_used}
    if args.format == "json":
        _emit({"schema_version": SCHEMA_VERSION, "config": config, "result": result})
    elif args.format == "csv":
        sys.stderr.write("# config " + _jsonfmt.one_line(config) + "\n")
        sys.stdout.write("value,tail_bound,terms_used\n")
        sys.stdout.write(
            f"{_jsonfmt.format_float(res.value)},{_jsonfmt.format_float(res.tail_bound)},{res.terms_used}\n"
        )
    else:
        sys.stdout.write("config: " + _jsonfmt.one_line(config) + "\n")
        sys.stdout.write(f"value = {_jsonfmt.format_float(res.value)}\n")
        sys.stdout.write(f"tail_bound = {_jsonfmt.format_float(res.tail_bound)}\n")
        sys.stdout.write(f"terms_used = {res.terms_used}\n")
    return EXIT_OK


def _cmd_table(args) -> int:
    import numpy as np

    if args.t_count < 2:
        raise DomainError("--t-count must be >= 2")
    if not (args.t_min < args.t_max):
        raise DomainError("need --t-min < --t-max")
    params = _params_from(args)
    tol = _tol_from(args)
    ts = [float(t) for t in np.linspace(args.t_min, args.t_max, args.t_count)]
    rows = [(t, res.value, res.tail_bound) for t, res in zip(ts, _evaluate_rows(args, ts, params, tol))]
    config = {
        "command": "table", **_family_config(args), "fn": args.fn, **_spec_config(args),
        "t_min": args.t_min, "t_max": args.t_max, "t_count": args.t_count,
        "abs_tol": args.abs_tol, "n_max": args.n_max, "output_format": args.format,
    }
    if args.format == "json":
        _emit({
            "schema_version": SCHEMA_VERSION,
            "config": config,
            "rows": [{"t": t, "value": v, "tail_bound": b} for t, v, b in rows],
        })
    else:
        ff = _jsonfmt.format_float
        if args.format == "plain":
            sys.stdout.write("config: " + _jsonfmt.one_line(config) + "\n")
        else:
            sys.stderr.write("# config " + _jsonfmt.one_line(config) + "\n")
        sys.stdout.write("t,value,tail_bound\n")
        for t, v, b in rows:
            sys.stdout.write(f"{ff(t)},{ff(v)},{ff(b)}\n")
    return EXIT_OK


_SUITE_FAMILY = {
    Suite.QK_THEOREM: Family.QK,
    Suite.QK_COROLLARY: Family.QK,
    Suite.PQ_THEOREM: Family.PQ,
    Suite.PQ_COROLLARY: Family.PQ,
}

_SUITE_RANGE = {
    Suite.QK_THEOREM: (0.0, 1.0),
    Suite.PQ_THEOREM: (0.0, 1.0),
    Suite.QK_COROLLARY: (1.2, 5.0),
    Suite.PQ_COROLLARY: (1.2, 5.0),
    Suite.LEMMA_CROSS: (0.0, 1.0),
    Suite.MONOTONE_PSI: (0.1, 5.0),
    Suite.MONOTONE_PSI_PRIME: (0.1, 5.0),
}


def _cmd_verify(args) -> int:
    suite = Suite(args.suite)
    family = _SUITE_FAMILY.get(suite, Family(args.family))
    t_lo, t_hi = _SUITE_RANGE[suite]
    if args.t_min is not None:
        t_lo = args.t_min
    if args.t_max is not None:
        t_hi = args.t_max
    tol = _tol_from(args)
    grid = make_verification_grid(
        family, n_specs=args.specs, t_count=args.t_points, seed=args.seed,
        t_min=t_lo, t_max=t_hi, tol=tol,
    )
    report = verify_bounds(suite, grid, tol)
    config = {
        "command": "verify", "suite": suite.value, "family": family.value,
        "specs": args.specs, "t_points": args.t_points, "seed": args.seed,
        "t_min": t_lo, "t_max": t_hi, "abs_tol": args.abs_tol, "n_max": args.n_max,
        "output_format": "json" if args.json else "plain",
    }
    if args.json:
        _emit({"schema_version": SCHEMA_VERSION, "config": config, "report": report.as_dict()})
    else:
        ff = _jsonfmt.format_float
        sys.stdout.write("config: " + _jsonfmt.one_line(config) + "\n")
        sys.stdout.write(f"suite = {report.suite}\n")
        sys.stdout.write(f"checks_run = {report.checks_run}\n")
        sys.stdout.write(f"skipped = {report.skipped}\n")
        sys.stdout.write(f"worst_violation = {ff(report.worst_violation)}\n")
        if report.worst_point is not None:
            sys.stdout.write(
                "worst_point = " + _jsonfmt.one_line(report.worst_point) + "\n"
            )
        for err in report.errors:
            sys.stdout.write(f"error: {err}\n")
        sys.stdout.write("PASS\n" if report.passed else "FAIL\n")
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _parse_p_list(text: str) -> list:
    try:
        return [int(x) for x in str(text).split(",") if x.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"bad --p-list {text!r}") from exc


def _cmd_limits(args) -> int:
    tol = _tol_from(args)
    config = {
        "command": "limits", "remark": args.remark, "t": args.t, "q": args.q,
        "k": args.k, "p": args.p, "j_max": args.j_max, "p_list": args.p_list,
        "conv_tol": args.conv_tol, "abs_tol": args.abs_tol, "n_max": args.n_max,
        "output_format": "json" if args.json else "plain",
    }
    if args.remark == "3.1":
        check = limit_k_to_1(args.t, args.q, tol)
        ok = check.ok
        doc = check.as_dict()
    elif args.remark == "3.2":
        rep = limit_q_to_1_qk(args.t, args.k, args.j_max, tol, args.conv_tol)
        ok, doc = rep.passed, rep.as_dict()
    elif args.remark == "3.3":
        rep = limit_q_to_1_qk(args.t, 1.0, args.j_max, tol, args.conv_tol)
        ok, doc = rep.passed, rep.as_dict()
    elif args.remark == "3.4":
        rep = limit_q_to_1_pq(args.t, args.p, args.j_max, args.conv_tol)
        ok, doc = rep.passed, rep.as_dict()
    elif args.remark == "3.5":
        rep = limit_p_to_inf(args.t, args.q, _parse_p_list(args.p_list), tol)
        ok, doc = rep.passed, rep.as_dict()
    else:
        rep = limit_combined_pq(args.t, args.j_max, args.conv_tol)
        ok, doc = rep.passed, rep.as_dict()
    if args.json:
        _emit({"schema_version": SCHEMA_VERSION, "config": config, "report": doc})
    else:
        sys.stdout.write("config: " + _jsonfmt.one_line(config) + "\n")
        for key, value in doc.items():
            if key == "schema_version":
                continue
            sys.stdout.write(f"{key} = " + _jsonfmt.one_line(value) + "\n")
        sys.stdout.write("PASS\n" if ok else "FAIL\n")
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_root(args) -> int:
    params = _params_from(args)
    tol = _tol_from(args)
    config = {
        "command": "root", **_family_config(args),
        "abs_tol": args.abs_tol, "n_max": args.n_max,
    }
    try:
        t0 = find_positive_threshold(params, tol)
        result = {"threshold": t0, "reason": None}
    except NoPositiveRegion as exc:
        result = {"threshold": None, "reason": f"no-positive-region: {exc}"}
    except NoRootInBracket as exc:
        result = {"threshold": exc.floor, "reason": f"no-root-in-bracket: {exc}"}
    _emit({"schema_version": SCHEMA_VERSION, "config": config, "result": result})
    return EXIT_OK


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else 0
    dispatch = {
        "eval": _cmd_eval,
        "table": _cmd_table,
        "verify": _cmd_verify,
        "limits": _cmd_limits,
        "root": _cmd_root,
    }
    try:
        _apply_config_file(args, list(argv))
        code = dispatch[args.command](args)
    except (DomainError, PositivityViolated) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_BAD_INPUT
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_BAD_INPUT
    except TruncationNotConverged as exc:
        sys.stderr.write(
            f"error: TruncationNotConverged: {exc} "
            f"(best_bound={_jsonfmt.format_float(exc.best_bound)}, terms={exc.terms_used})\n"
        )
        return EXIT_NUMERICAL
    sys.stdout.flush()
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
