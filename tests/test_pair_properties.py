"""Property tests of the (q,k) kernels psi_qk and psi_qk' over their whole advertised domain, and of the pair
("psi", "psi-prime") that one routing pass evaluates, for both families.

q runs from Q_MIN to Q_MAX (uniform, and 1 - 10^e up to Q_MAX, so the Euler-Maclaurin route is drawn as well
as the direct one), k from K_MIN to K_MAX, t from the smallest subnormal to the largest float.  Every point
either evaluates, to a finite value with tail_bound <= abs_tol, or is refused with a typed error (a
QDigammaError), with warnings as errors.  evaluate_lines gives each line the one-point calls' columns bit for
bit, with the sign of zero, or the error of its first refused t; and each order of the pair is that order's
own evaluate_lines entry, its columns or its refusal, whatever the other order gives.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from qdigamma import DeformParams, QDigammaError, Tolerance, psi_pq, psi_pq_prime, psi_qk, psi_qk_prime
from qdigamma.params import K_MAX, K_MIN
from qdigamma.qcore import evaluate_columns, evaluate_lines

from test_pq_properties import LINES as PQ_LINES, Q, T

KERNELS = {("qk", "psi"): psi_qk, ("qk", "psi-prime"): psi_qk_prime,
           ("pq", "psi"): psi_pq, ("pq", "psi-prime"): psi_pq_prime}
PAIR = ("psi", "psi-prime")

# k: log-uniform over its whole range, and near 1
K = st.one_of(st.floats(math.log10(K_MIN), math.log10(K_MAX)).map(lambda e: min(K_MAX, max(K_MIN, 10.0 ** e))),
              st.floats(0.3, 3.0))
QK_LINES = st.lists(st.tuples(st.builds(DeformParams.qk, Q, K), st.lists(T, min_size=1, max_size=6)),
                    min_size=1, max_size=3)
# a tolerance that moves the routes and the refusals: the default, a tight or loose abs_tol, a small n_max
TOL = st.one_of(st.just(Tolerance()), st.builds(Tolerance, abs_tol=st.sampled_from([1e-30, 1e-13, 1e-6])),
                st.builds(Tolerance, n_max=st.sampled_from([1, 5, 40, 2000])))


def _one_point_line(fn: str, params: DeformParams, ts: list, tol: Tolerance):
    """The line's columns from one-point calls, or the error of its first t that cannot be evaluated."""
    columns = ([], [], [])
    for t in ts:
        try:
            res = KERNELS[params.family.value, fn](t, params, tol)
        except QDigammaError as exc:  # any other exception fails the test
            return exc
        for column, x in zip(columns, (res.value, res.tail_bound, res.terms_used)):
            column.append(x)
    return columns


def _same(got, want) -> bool:
    """The same columns bit for bit, with the sign of zero, or refusals of one type and message."""
    if isinstance(want, QDigammaError) or isinstance(got, QDigammaError):
        return type(got) is type(want) and str(got) == str(want)
    return (tuple(got) == tuple(want)
            and [math.copysign(1.0, v) for v in got[0]] == [math.copysign(1.0, v) for v in want[0]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn", list(PAIR))
@settings(derandomize=True, deadline=None, max_examples=120)
@given(lines=QK_LINES)
def test_qk_lines_are_their_one_point_calls_and_every_value_is_finite(fn, lines):
    tol = Tolerance()
    for (params, ts), got in zip(lines, evaluate_lines(fn, lines), strict=True):
        want = _one_point_line(fn, params, ts, tol)
        assert _same(got, want), (params, ts, got, want)
        if isinstance(want, QDigammaError):
            continue
        for t, value, tail in zip(ts, *want[:2]):
            assert math.isfinite(value) and 0.0 <= tail <= tol.abs_tol, (params, t, value, tail)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", ["qk", "pq"])
@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data(), tol=TOL)
def test_the_pair_is_each_order_alone(family, data, tol):
    lines = data.draw(QK_LINES if family == "qk" else PQ_LINES)
    alone = [list(evaluate_lines(fn, lines, tol)) for fn in PAIR]
    for (params, ts), pair, *orders in zip(lines, evaluate_lines(PAIR, lines, tol), *alone, strict=True):
        assert len(pair) == 2
        # the one-line case returns both entries, refusals included, and raises none
        for fn, got, one, column in zip(PAIR, pair, orders, evaluate_columns(PAIR, params, ts, tol), strict=True):
            assert _same(got, one), (fn, params, ts, tol, got, one)
            assert _same(got, _one_point_line(fn, params, ts, tol)), (fn, params, ts, tol)
            assert _same(column, got)
