"""Golden CLI output: exit code, stdout and stderr of a fixed command matrix.

The expected bytes live in ``cli_golden.json`` next to this file.  After a
deliberate output change, rewrite them with

    PYTHONPATH=src python tests/test_cli_golden.py --update

and say in the change log which outputs moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from qdigamma.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

_FAMILIES = {
    "qk": ("--family", "qk", "--q", "0.5", "--k", "1", "--fn", "psi"),
    "pq": ("--family", "pq", "--p", "3", "--q", "0.6", "--fn", "ln-gamma"),
    "ratio": ("--family", "qk", "--q", "0.5", "--k", "1", "--fn", "ratio",
              "--a", "2", "--b", "1", "--c", "3", "--d", "1", "--alpha", "1", "--beta", "1"),
}

COMMANDS = [
    *[("eval", *args, "--t", "0.5", "--format", fmt)
      for args in _FAMILIES.values() for fmt in ("json", "csv", "plain")],
    *[("table", *args, "--t-min", "0.5", "--t-max", "3", "--t-count", "4", "--format", fmt)
      for args in _FAMILIES.values() for fmt in ("json", "csv", "plain")],
    ("verify", "--suite", "qk-theorem", "--specs", "3", "--t-points", "4", "--seed", "7"),
    ("verify", "--suite", "qk-theorem", "--specs", "3", "--t-points", "4", "--seed", "7", "--json"),
    ("limits", "--remark", "3.1", "--t", "2", "--q", "0.5"),
    ("limits", "--remark", "3.1", "--t", "2", "--q", "0.5", "--json"),
    ("limits", "--remark", "3.5", "--t", "1", "--q", "0.5", "--p-list", "1,2,5,10"),
    ("limits", "--remark", "3.5", "--t", "1", "--q", "0.5", "--p-list", "1,2,5,10", "--json"),
    ("limits", "--remark", "3.6", "--j-max", "4"),
    ("limits", "--remark", "3.6", "--j-max", "4", "--json"),
    ("root", "--family", "qk", "--q", "0.5", "--k", "1"),
    ("root", "--family", "pq", "--p", "1", "--q", "0.5", "--json"),
    # the Euler-Maclaurin route: (q,k) near q = 1, and ln Gamma_pq past N0 factors
    *[("eval", "--family", "qk", "--q", "0.99999", "--k", "1", "--t", "2.5", "--fn", fn)
      for fn in ("psi", "psi-prime", "ln-gamma")],
    ("eval", "--family", "pq", "--p", "1000000", "--q", "0.999", "--t", "2.5", "--fn", "ln-gamma"),
    # n_max = 100: within reach on the Euler-Maclaurin route at q = 0.99 (18 terms), out of reach
    # on the direct route at q = 0.9 (about 570 terms); and a bad grid
    ("eval", "--family", "qk", "--q", "0.99", "--t", "0.5", "--n-max", "100"),
    ("eval", "--family", "qk", "--q", "0.9", "--t", "0.5", "--n-max", "100"),
    ("table", "--t-min", "3", "--t-max", "1"),
    # a ln Gamma_qk value past double precision, refused on the Euler-Maclaurin route
    ("eval", "--family", "qk", "--q", "0.5", "--k", "0.001", "--t", "1e306", "--fn", "ln-gamma"),
    # the other suites of the inequality engine, the family-agnostic ones for both families
    *[("verify", "--suite", *suite, "--specs", "3", "--t-points", "4", "--seed", "7")
      for suite in (("qk-corollary",), ("pq-theorem",), ("pq-corollary",), ("lemma-cross",),
                    ("lemma-cross", "--family", "pq"), ("monotone-psi", "--family", "pq"),
                    ("monotone-psi-prime",))],
    # the ratio's precondition refused: psi(0.5) and psi(1) are negative at qk(0.5, 1)
    ("eval", "--family", "qk", "--q", "0.5", "--k", "1", "--fn", "ratio",
     "--a", "0.5", "--b", "1", "--c", "1", "--d", "1", "--alpha", "1", "--beta", "1", "--t", "0"),
    # a grid without specs, refused rather than passed unchecked
    ("verify", "--suite", "qk-theorem", "--specs", "0"),
    # q -> 1- scans: at n_max = 1000 every point evaluates (the Euler-Maclaurin route past N0
    # direct terms); at n_max = 100 the term cap is hit at q = 0.9 only, a failing report with one error
    ("limits", "--remark", "3.3", "--j-max", "4", "--n-max", "1000"),
    ("limits", "--remark", "3.3", "--j-max", "4", "--n-max", "1000", "--json"),
    ("limits", "--remark", "3.3", "--j-max", "4", "--n-max", "100"),
    ("limits", "--remark", "3.3", "--j-max", "4", "--n-max", "100", "--json"),
    # no draw of the grid has a certified threshold at n_max = 5: refused after a bounded number of draws
    ("verify", "--suite", "qk-theorem", "--specs", "1", "--t-points", "3", "--n-max", "5"),
]


def run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text(encoding="utf-8"))}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_matches_golden(argv, golden):
    assert run(argv) == golden[argv]


if __name__ == "__main__" and sys.argv[1:] == ["--update"]:
    entries = [run(argv) for argv in COMMANDS]
    GOLDEN.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {GOLDEN}")
