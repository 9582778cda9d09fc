"""The route rule of the (q,k) kernels over the whole advertised domain: every
point evaluates or raises a typed error, and points whose direct majorant
would leave the normal floats take the Euler-Maclaurin route."""

from __future__ import annotations

import contextlib
import io
import math
import random

import pytest

from qdigamma import (DeformParams, QDigammaError, Tolerance, TruncationNotConverged, evaluate, ln_gamma_qk,
                      psi_qk)
from qdigamma.cli import main
from qdigamma.params import K_MAX, K_MIN, Q_MAX, Q_MIN
from qdigamma.qcore import _em_qk


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def test_no_point_escapes_untyped():
    # q log-uniform near 0 and, in 1 - q, near 1; t and abs_tol down to the subnormals; n_max small
    # enough that the sweep stays fast, so a point may also meet the cap on either route
    rng = random.Random("route-rule:1")
    outcomes = {"value": 0, "typed": 0}
    for _ in range(3000):
        q = _log_uniform(rng, Q_MIN, 0.5) if rng.random() < 0.5 else 1.0 - _log_uniform(rng, 1.0 - Q_MAX, 0.5)
        k = _log_uniform(rng, K_MIN, K_MAX)
        params = DeformParams.qk(min(max(q, Q_MIN), Q_MAX), min(max(k, K_MIN), K_MAX))  # exp may round outside
        t = _log_uniform(rng, 5e-324, 1e3)
        tol = Tolerance(abs_tol=_log_uniform(rng, 1e-320, 1e-1), n_max=round(_log_uniform(rng, 1, 1 << 14)))
        for fn in ("psi", "psi-prime", "ln-gamma"):
            try:
                (res,) = evaluate(fn, params, [t], tol)
            except QDigammaError:
                outcomes["typed"] += 1
                continue
            assert math.isfinite(res.value) and res.tail_bound <= tol.abs_tol, (fn, params, t, tol)
            assert res.terms_used <= tol.n_max, (fn, params, t, tol)
            outcomes["value"] += 1
    assert min(outcomes.values()) > 200, outcomes


@pytest.mark.parametrize("t,k,abs_tol", [
    (1e-307, 1e-3, 1e-13),  # (1-q^t)(1-q^k) is about 6.9e-311: subnormal, though t |ln q| is normal
    (1e-300, 332.0, 1e-120),  # the majorant after the closed-form count is about 1e320 times abs_tol
])
def test_majorant_leaving_the_floats_takes_the_euler_maclaurin_route(t, k, abs_tol):
    params, tol = DeformParams.qk(0.5, k), Tolerance(abs_tol=abs_tol)
    res = ln_gamma_qk(t, params, tol)
    assert res == _em_qk("ln-gamma", params, t, tol)
    assert res.terms_used <= 64


def test_psi_refuses_an_overflowing_point():
    with pytest.raises(TruncationNotConverged):
        psi_qk(1e-318, DeformParams.qk(0.5, 1e-6))


@pytest.mark.parametrize("argv", [
    ["--fn", "ln-gamma", "--q", "0.5", "--t", "5e-324"],  # t |ln q| is subnormal
    ["--fn", "psi-prime", "--q", "0.5", "--t", "1e-170"],  # (1 - q^t)^2 underflows on the EM route
])
def test_cli_refuses_with_exit_3(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["eval", "--family", "qk", *argv])
    assert code == 3, err.getvalue()
    assert "TruncationNotConverged" in err.getvalue()
