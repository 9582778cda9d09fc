"""Command-line front end.

Subcommands: eval and table (one function at one t or over a t-grid,
as JSON, CSV or plain text), verify (inequality suites), limits
(degeneration scans), root (positivity threshold).  Output is
byte-deterministic for identical argv and seed; every run echoes its fully
resolved configuration.

Exit codes: 0 success / all checks passed, 1 inequality violation or
convergence failure, 2 invalid input or configuration, 3 internal
numerical failure (an unreachable truncation target).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import _jsonfmt
from ._jsonfmt import SCHEMA_VERSION
from .errors import DomainError, NoPositiveRegion, NoRootInBracket, PositivityViolated, TruncationNotConverged
from .inequalities import (
    SUITES,
    RatioSpec,
    Suite,
    _check_t_grid,
    _threshold_bracket,
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
from .params import DEFAULT_TOL, DeformParams, Family, Tolerance
from .qcore import evaluate
# the kernels, ratio and threshold functions stay bound here for tools that wrap them by module
from .inequalities import find_positive_threshold, ratio_G, ratio_H, validate_spec  # noqa: F401
from .qcore import ln_gamma_pq, ln_gamma_qk, psi_pq, psi_pq_prime, psi_qk, psi_qk_prime  # noqa: F401

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_NUMERICAL = 3

_REMARKS = ("3.1", "3.2", "3.3", "3.4", "3.5", "3.6")

# the flag each command needs; checked once a --config file is read, so the file may give it
# (a text flag defaults to "", so that its config value is written as text)
_REQUIRED = {"eval": "t", "verify": "suite", "limits": "remark"}

# the ratio constants a, b, c, d, alpha, beta, each a flag of eval and table
_SPEC_FIELDS = tuple(f.name for f in dataclasses.fields(RatioSpec))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: prog is fixed and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qdigamma",
        description="Deformed digamma/gamma evaluation, inequality verification, and limit scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None, help="JSON file whose keys mirror the flags; flags win")
        p.add_argument("--abs-tol", type=float, default=DEFAULT_TOL.abs_tol, help="series truncation target")
        p.add_argument("--n-max", type=int, default=DEFAULT_TOL.n_max, help="series term cap")

    def add_family(p):
        p.add_argument("--family", choices=[f.value for f in Family], default="qk")
        p.add_argument("--q", type=float, default=0.5, help="deformation base in (0,1)")
        p.add_argument("--k", type=float, default=1.0, help="QK family step k > 0")
        p.add_argument("--p", type=int, default=1, help="PQ family integer p >= 1")

    def add_spec(p):
        for name in _SPEC_FIELDS:
            p.add_argument(f"--{name}", type=float, default=None, help=f"ratio constant {name}")

    def add_values(name, help, fmt):
        p = sub.add_parser(name, help=help)
        add_family(p)
        p.add_argument("--fn", choices=["psi", "psi-prime", "ln-gamma", "ratio"], default="psi")
        add_spec(p)
        p.add_argument("--format", choices=["json", "csv", "plain"], default=fmt)
        add_common(p)
        return p

    p_eval = add_values("eval", "evaluate one function at one point", "json")
    p_eval.add_argument("--t", type=float, default=None, help="required")
    p_table = add_values("table", "tabulate a function over a t-grid", "csv")
    p_table.add_argument("--t-min", type=float, default=0.5)
    p_table.add_argument("--t-max", type=float, default=5.0)
    p_table.add_argument("--t-count", type=int, default=10)

    p_verify = sub.add_parser("verify", help="run an inequality verification suite")
    p_verify.add_argument("--suite", choices=[s.value for s in Suite], default="", help="required")
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
    p_limits.add_argument("--remark", choices=list(_REMARKS), default="", help="required")
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


def _with_config(args: argparse.Namespace, argv: list) -> list:
    """argv with the --config file's values as flags before the command line's own, which win.

    A string stands as it is for a text flag and any other value is written
    as JSON, so argparse checks types and choices (a number given as a string
    fails).  Keys must name a flag exactly; argparse alone would take ``spec``.
    """
    with open(args.config, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise DomainError("--config file must contain a JSON object")
    tokens = []
    for key, value in data.items():
        dest = str(key).replace("-", "_")
        if not hasattr(args, dest) or dest in ("command", "config"):
            raise DomainError(f"unknown config key {key!r}")
        flag = "--" + dest.replace("_", "-")
        current = getattr(args, dest)
        if isinstance(current, bool) and isinstance(value, bool):
            tokens += [flag] if value else []
        else:
            tokens.append(f"{flag}={value if isinstance(current, str) else json.dumps(value)}")
    at = argv.index(args.command) + 1
    return argv[:at] + tokens + argv[at:]


def _params_from(args) -> DeformParams:
    family = Family(args.family)
    if family is Family.QK:
        return DeformParams.qk(q=args.q, k=args.k)
    return DeformParams.pq(p=args.p, q=args.q)


def _tol_from(args) -> Tolerance:
    return Tolerance(abs_tol=args.abs_tol, n_max=args.n_max)


def _spec_from(args) -> RatioSpec:
    missing = [n for n in _SPEC_FIELDS if getattr(args, n) is None]
    if missing:
        raise DomainError(f"--fn ratio needs {', '.join('--' + m for m in missing)}")
    return RatioSpec(**{n: getattr(args, n) for n in _SPEC_FIELDS})


def _spec_config(args) -> dict:
    return {n: getattr(args, n) for n in _SPEC_FIELDS} if getattr(args, "fn", None) == "ratio" else {}


def _write(fmt: str, config: dict, key: str, doc, lines) -> None:
    """Write {schema_version, config, key: doc} as JSON, or the lines under a config echo.

    The echo goes to stdout for plain, to stderr for csv so that stdout is the bare table.
    """
    if fmt == "json":
        out = {"schema_version": SCHEMA_VERSION, "config": config, key: doc}
        sys.stdout.write(_jsonfmt.dumps(out) + "\n")
        return
    echo = "config: " if fmt == "plain" else "# config "
    (sys.stdout if fmt == "plain" else sys.stderr).write(echo + _jsonfmt.one_line(config) + "\n")
    sys.stdout.write("\n".join(lines) + "\n")


def _key_lines(doc: dict) -> list:
    return [f"{key} = {_jsonfmt.one_line(value)}" for key, value in doc.items() if key != "schema_version"]


def _cmd_values(args) -> int:
    """eval and table: args.fn at one t (eval) or over a t-grid (table), in one batch."""
    one_t = args.command == "eval"
    if one_t:
        ts = [float(args.t)]
    else:
        _check_t_grid(args.t_min, args.t_max, args.t_count, ("--t-min", "--t-max", "--t-count"))
        ts = [float(t) for t in np.linspace(args.t_min, args.t_max, args.t_count)]
    params = _params_from(args)
    tol = _tol_from(args)
    if args.fn == "ratio":
        results = ratio_values(_spec_from(args), params, ts, tol)
    else:
        results = evaluate(args.fn, params, ts, tol)
    grid = {} if one_t else {"t_min": args.t_min, "t_max": args.t_max, "t_count": args.t_count}
    config = {
        "command": args.command, **params.as_dict(), **({"t": args.t} if one_t else {}),
        "fn": args.fn, **_spec_config(args), **grid,
        "abs_tol": args.abs_tol, "n_max": args.n_max, "output_format": args.format,
    }
    ff = _jsonfmt.format_float
    if one_t:
        (r,) = results
        doc = {"value": r.value, "tail_bound": r.tail_bound, "terms_used": r.terms_used}
        csv = ["value,tail_bound,terms_used", f"{ff(r.value)},{ff(r.tail_bound)},{r.terms_used}"]
        _write(args.format, config, "result", doc, _key_lines(doc) if args.format == "plain" else csv)
    else:
        doc = [{"t": t, "value": r.value, "tail_bound": r.tail_bound} for t, r in zip(ts, results)]
        # lazy, so that the rows are formatted only when they are written
        csv = itertools.chain(["t,value,tail_bound"],
                              (f"{ff(t)},{ff(r.value)},{ff(r.tail_bound)}" for t, r in zip(ts, results)))
        _write(args.format, config, "rows", doc, csv)
    return EXIT_OK


def _cmd_verify(args) -> int:
    suite = Suite(args.suite)
    family, (t_lo, t_hi), _, _ = SUITES[suite]
    family = family or Family(args.family)
    if args.t_min is not None:
        t_lo = args.t_min
    if args.t_max is not None:
        t_hi = args.t_max
    tol = _tol_from(args)
    _check_t_grid(t_lo, t_hi, args.t_points, ("--t-min", "--t-max", "--t-points"))
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
    ff = _jsonfmt.format_float
    lines = [
        f"suite = {report.suite}",
        f"checks_run = {report.checks_run}",
        f"skipped = {report.skipped}",
        f"worst_violation = {ff(report.worst_violation)}",
        *([] if report.worst_point is None else ["worst_point = " + _jsonfmt.one_line(report.worst_point)]),
        *(f"error: {err}" for err in report.errors),
        "PASS" if report.passed else "FAIL",
    ]
    _write(config["output_format"], config, "report", report.as_dict(), lines)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _parse_p_list(text: str) -> list:
    try:
        return [int(x) for x in str(text).split(",") if x.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"bad --p-list {text!r}") from exc


def _cmd_limits(args) -> int:
    tol = _tol_from(args)
    if not (args.conv_tol > 0.0 and math.isfinite(args.conv_tol)):
        raise DomainError(f"--conv-tol={args.conv_tol!r} must be positive and finite")
    config = {
        "command": "limits", "remark": args.remark, "t": args.t, "q": args.q,
        "k": args.k, "p": args.p, "j_max": args.j_max, "p_list": args.p_list,
        "conv_tol": args.conv_tol, "abs_tol": args.abs_tol, "n_max": args.n_max,
        "output_format": "json" if args.json else "plain",
    }
    if args.remark == "3.1":
        check = limit_k_to_1(args.t, args.q, tol)
        ok, doc = check.ok, check.as_dict()
    else:
        if args.remark in ("3.2", "3.3"):
            k = args.k if args.remark == "3.2" else 1.0
            rep = limit_q_to_1_qk(args.t, k, args.j_max, tol, args.conv_tol)
        elif args.remark == "3.4":
            rep = limit_q_to_1_pq(args.t, args.p, args.j_max, tol, args.conv_tol)
        elif args.remark == "3.5":
            rep = limit_p_to_inf(args.t, args.q, _parse_p_list(args.p_list), tol)
        else:
            rep = limit_combined_pq(args.t, args.j_max, tol, args.conv_tol)
        ok, doc = rep.passed, rep.as_dict()
    _write(config["output_format"], config, "report", doc, _key_lines(doc) + ["PASS" if ok else "FAIL"])
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_root(args) -> int:
    params = _params_from(args)
    tol = _tol_from(args)
    config = {
        "command": "root", **params.as_dict(),
        "abs_tol": args.abs_tol, "n_max": args.n_max,
    }
    # threshold is find_positive_threshold's midpoint of the certified bracket [lo, hi]
    try:
        lo, hi = _threshold_bracket(params, tol)
        result = {"threshold": 0.5 * (lo + hi), "lo": lo, "hi": hi, "reason": None}
    except NoPositiveRegion as exc:
        result = {"threshold": None, "lo": None, "hi": None, "reason": f"no-positive-region: {exc}"}
    except NoRootInBracket as exc:
        result = {"threshold": exc.floor, "lo": None, "hi": None, "reason": f"no-root-in-bracket: {exc}"}
    _write("json", config, "result", result, ())
    return EXIT_OK


_COMMANDS = {
    "eval": _cmd_values,
    "table": _cmd_values,
    "verify": _cmd_verify,
    "limits": _cmd_limits,
    "root": _cmd_root,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args(_with_config(args, argv))
        required = _REQUIRED.get(args.command)
        if required and getattr(args, required) in (None, ""):
            parser.error(f"the following arguments are required: --{required}")
        code = _COMMANDS[args.command](args)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else 0
    except (DomainError, PositivityViolated, OSError, json.JSONDecodeError) as exc:
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
