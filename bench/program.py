"""How the benchmark calls the program, and the warm-up before the first job.

This module imports nothing beyond the standard library, so the set-up probe
(``run.py --setup-probe``) times interpreter start, ``import qdigamma`` and
the warm-up, and none of the benchmark's own checks or oracles.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from typing import Callable

WORKLOADS = ("suites", "near-one", "pq-large")

# verify suites with the family each one runs on
SUITES = (
    ("qk-theorem", "qk"), ("qk-corollary", "qk"), ("pq-theorem", "pq"), ("pq-corollary", "pq"),
    ("lemma-cross", "qk"), ("monotone-psi", "pq"), ("monotone-psi-prime", "qk"),
)
QK_FNS = ("psi", "psi-prime", "ln-gamma")
QK_KERNEL = {"psi": "psi_qk", "psi-prime": "psi_qk_prime", "ln-gamma": "ln_gamma_qk"}
PQ_KERNEL = {"psi": "psi_pq", "psi-prime": "psi_pq_prime", "ln-gamma": "ln_gamma_pq"}


@dataclasses.dataclass
class CliOutcome:
    code: int
    out: str
    err: str

    @property
    def failed(self) -> bool:
        return self.code != 0

    def json(self) -> dict:
        return json.loads(self.out)


class Program:
    """The imported qdigamma modules and the two ways the benchmark calls them."""

    def __init__(self, qd):
        self.qd = qd
        self.error_type = qd.errors.QDigammaError

    def cli(self, *argv) -> Callable[[], CliOutcome]:
        argv = [str(a) for a in argv]

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.qd.cli.main(argv)
            return CliOutcome(code, out.getvalue(), err.getvalue())
        return call

    def lib(self, module: str, name: str, *args) -> Callable[[], object]:
        mod = getattr(self.qd, module)

        def call():
            try:
                return getattr(mod, name)(*args)
            except self.error_type as exc:
                return exc
        return call


def warm_up(prog: Program, workload: str) -> None:
    """Run each kind of operation once on small inputs, unchecked and untimed."""
    cli = prog.cli
    calls = {
        "suites": [cli("verify", "--suite", s, "--family", f, "--specs", 2, "--t-points", 3, "--json")
                   for s, f in SUITES]
        + [cli("table", "--fn", fn, "--t-count", 3) for fn in QK_FNS]
        + [cli("table", "--fn", "ratio", "--a", 3, "--b", 1, "--c", 4, "--d", 1, "--alpha", 1,
               "--beta", 1, "--t-min", 0, "--t-max", 1, "--t-count", 3),
           cli("eval", "--t", 1), cli("eval", "--family", "pq", "--p", 3, "--t", 1, "--fn", "ln-gamma"),
           cli("root", "--json"), cli("root", "--family", "pq", "--p", 3, "--json"),
           cli("limits", "--remark", "3.1", "--json"), cli("limits", "--remark", "3.5", "--json")],
        "near-one": [prog.lib("qcore", QK_KERNEL[fn], 1.0, prog.qd.params.DeformParams.qk(q=0.99))
                     for fn in QK_FNS]
        + [cli("limits", "--remark", "3.1", "--q", 0.99, "--json"),
           cli("limits", "--remark", "3.2", "--j-max", 3, "--json"),
           cli("root", "--q", 0.99, "--json"), cli("eval", "--q", 0.99, "--t", 1)],
        "pq-large": [prog.lib("qcore", PQ_KERNEL[fn], 1.0, prog.qd.params.DeformParams.pq(p=1000, q=0.5))
                     for fn in QK_FNS]
        + [cli("limits", "--remark", "3.4", "--j-max", 3, "--json"),
           cli("limits", "--remark", "3.5", "--json"),
           cli("limits", "--remark", "3.6", "--j-max", 3, "--json")],
    }[workload]
    for call in calls:
        call()
    grid = prog.qd.inequalities.make_verification_grid(
        "qk" if workload != "pq-large" else "pq", 2, 3, 1, 0.5, 4.0)
    prog.qd.inequalities.verify_bounds("monotone-psi", grid)
