"""Property tests of the PQ sums psi_pq and psi_pq' over their whole advertised domain: p from 1 to past
the largest float, q from Q_MIN to Q_MAX, t from the smallest subnormal to the largest float.

Every point either evaluates, to a finite value with tail_bound <= abs_tol, or is refused with a typed
error (a QDigammaError), with warnings as errors; and evaluate_lines gives each line the one-point calls'
columns bit for bit, with the sign of zero, or the error of its first refused t.
"""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from qdigamma import DeformParams, QDigammaError, Tolerance, psi_pq, psi_pq_prime
from qdigamma.params import Q_MAX, Q_MIN
from qdigamma.qcore import evaluate_lines

KERNELS = {"psi": psi_pq, "psi-prime": psi_pq_prime}

# p: small, up to 10^9, and up to past the largest float (about 1.8e308)
P = st.one_of(st.integers(1, 3000), st.integers(1, 10**9), st.integers(1, 10**309))
# q: uniform, and 1 - 10^e, log-uniform up to Q_MAX
Q = st.one_of(st.floats(Q_MIN, Q_MAX),
              st.floats(math.log10(1.0 - Q_MAX), math.log10(1.0 - Q_MIN)).map(lambda e: min(Q_MAX, max(Q_MIN, 1.0 - 10.0 ** e))))
# t: uniform, and 10^e, log-uniform from the smallest subnormal to the largest float
T = st.one_of(st.floats(5e-324, sys.float_info.max),
              st.floats(-323.3, 308.25).map(lambda e: min(sys.float_info.max, max(5e-324, 10.0 ** e))))
LINES = st.lists(st.tuples(st.builds(DeformParams.pq, P, Q), st.lists(T, min_size=1, max_size=6)),
                 min_size=1, max_size=3)


def _one_point_line(fn: str, params: DeformParams, ts: list):
    """The line's columns from one-point calls, or the error of its first t that cannot be evaluated."""
    columns = ([], [], [])
    for t in ts:
        try:
            res = KERNELS[fn](t, params)
        except QDigammaError as exc:  # any other exception fails the test
            return exc
        for column, x in zip(columns, (res.value, res.tail_bound, res.terms_used)):
            column.append(x)
    return columns


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn", list(KERNELS))
@settings(derandomize=True, deadline=None, max_examples=250)
@given(lines=LINES)
def test_lines_are_their_one_point_calls_and_every_value_is_finite(fn, lines):
    tol = Tolerance()
    for (params, ts), got in zip(lines, evaluate_lines(fn, lines), strict=True):
        want = _one_point_line(fn, params, ts)
        if isinstance(want, QDigammaError):
            assert type(got) is type(want) and str(got) == str(want), (params, ts, got, want)
            continue
        assert not isinstance(got, QDigammaError), (params, ts, got)
        assert tuple(got) == want, (params, ts)
        assert [math.copysign(1.0, v) for v in got[0]] == [math.copysign(1.0, v) for v in want[0]]
        for t, value, tail in zip(ts, *want[:2]):
            assert math.isfinite(value) and 0.0 <= tail <= tol.abs_tol, (params, t, value, tail)
