"""The Euler-Maclaurin closures and lattice sums bit for bit against a transcription of
their per-term form: each Li_s(e^-y) through a function call, each Eulerian polynomial
by its own Horner call.  The module forms the same float operations in the same order
inline, so every value, bound and count must match exactly."""

from __future__ import annotations

import math
import random

import pytest

from qdigamma import Tolerance, TruncationNotConverged
from qdigamma import qcore
from qdigamma.qcore import (_BERNOULLI, _EM_M, _EM_P, _EULERIAN, _LN2, _P_MAX, _PI2_6, _SAFETY, _em_closure,
                            _em_lattice, _em_pair_closure, ln1m_exp)


# -- the per-term form ------------------------------------------------------


def eulerian(n: int, z: float) -> float:
    poly = 0.0
    for c in _EULERIAN[n]:
        poly = poly * z + c
    return poly


def li2_series(u: float) -> float:
    u2 = u * u
    acc = 0.0
    for j in range(_EM_P, 0, -1):
        acc = acc * u2 + _BERNOULLI[j - 1] / (2 * j + 1)
    return u - 0.25 * u2 + u * u2 * acc


def li(s: int, y: float) -> float:
    if s == 1:
        return -ln1m_exp(-y)
    z = math.exp(-y)
    return z * eulerian(-s, z) / (-math.expm1(-y)) ** (1 - s)


def closure(s: int, y: float, h: float, share: float) -> tuple:
    z, w = math.exp(-y), -math.expm1(-y)
    r = h / w
    r2 = r * r
    scale = z / w ** (1 - s)
    corrections, power, p = 0.0, r, 0
    while p < _P_MAX and (p < _EM_P or abs(last) * scale > share):
        term = _BERNOULLI[p] * eulerian(2 * p + 1 - s, z) * power
        if p >= _EM_P and abs(term) >= abs(last):
            break
        corrections += term
        last, power, p = term, power * r2, p + 1
    units = 0
    if s < 1:
        integral = li(s + 1, y)
    elif z <= 0.5:
        integral = li2_series(-math.log1p(-z))
    else:
        integral, units = y * math.log(w) - li2_series(y), 1
    corrections *= scale
    return integral / h + 0.5 * li(s, y) + corrections, abs(last) * scale, units, p, corrections


def li2_drop(y: float, d: float, z: float, w: float, share: float) -> tuple:
    drop, coeff, r = d * li(1, y), d * z, d / w
    for j in range(2, len(_EULERIAN) + 2):
        coeff *= -r / j
        term = coeff * eulerian(j - 2, z)
        if abs(term) <= share or j == len(_EULERIAN) + 1:
            break
        drop += term
    return drop, abs(term), j - 1


def pair_term(y: float, one_minus_e_d: float) -> float:
    return math.log1p(math.exp(-y) * one_minus_e_d / -math.expm1(-y))


def pair_closure(y: float, d: float, h: float, share: float) -> tuple:
    near, bound, near_units, p, corrections = closure(1, y, h, share)
    if d > min(y / 8.0, 1.0):
        far, far_bound, far_units, far_p, _ = closure(1, y + d, h, share)
        return near - far + (near_units - far_units) * _PI2_6 / h, bound + far_bound, p, 4 + p + far_p
    z, w = math.exp(-y), -math.expm1(-y)
    z_d, r_d = math.exp(-(y + d)), h / -math.expm1(-(y + d))
    far, power = 0.0, r_d
    for j in range(p):
        far += _BERNOULLI[j] * eulerian(2 * j, z_d) * power
        power *= r_d * r_d
    drop, drop_bound, n = li2_drop(y, d, z, w, share * h)
    half = 0.5 * pair_term(y, -math.expm1(-d))
    return drop / h + half + (corrections - far * z_d), bound + drop_bound / h, p, 1 + 2 * p + n


def lattice(s: int, pairs: tuple, h: float, lead: float, scale: float, tol: Tolerance,
            m_cap: float = math.inf, paired: tuple | None = None):
    """_em_lattice without its finite Lambert series, term by term: (value, tail, terms) or None."""
    starts = [a for pair in pairs for a in pair]
    share = tol.abs_tol / (_SAFETY * abs(scale) * (len(starts) + (2 if paired else 0)))
    dropped = 0.0
    if paired:
        c, d = paired
        whole = math.exp(-c) / (-math.expm1(-c) * -math.expm1(-h))
        if whole <= share:
            paired, dropped = None, whole
    m = _EM_M
    while True:
        closures, terms, tail = {}, 0, 0
        for a in starts:
            closures[a] = found = closure(s, a + m * h, h, share)
            terms, tail = terms + m + 2 + found[3], tail + found[1]
        if paired:
            pair_found = pair_closure(c + m * h, d, h, share)
            terms, tail = terms + m + pair_found[3], tail + pair_found[1]
        tail = _SAFETY * abs(scale) * (tail + dropped)
        if terms > tol.n_max:
            raise TruncationNotConverged("past the cap", tail, tol.n_max)
        if tail <= tol.abs_tol:
            break
        a = min(starts)
        grow = math.exp((math.log(tail) - math.log(tol.abs_tol)) / (2 * closures[a][3] - s))
        m = max(m + 1, math.ceil(((a + m * h) * grow - a) / h))
        if m > m_cap:
            return None
    sums = {}
    for a, (closed, _, units, _, _) in closures.items():
        direct = 0.0
        for i in range(m):
            direct += li(s, a + i * h)
        sums[a] = direct + closed, units
    total = 0.0
    for pair in pairs:
        near, near_units = sums[pair[0]]
        far, far_units = sums[pair[1]] if len(pair) == 2 else (0.0, 0)
        total += near - far + (near_units - far_units) * _PI2_6 / h
    if paired:
        one_minus_e_d, direct = -math.expm1(-d), 0.0
        for i in range(m):
            direct += pair_term(c + i * h, one_minus_e_d)
        total += direct + pair_found[0]
    value = lead + scale * total
    if not math.isfinite(value):
        raise TruncationNotConverged("overflows", math.inf, terms)
    return value, tail, terms


# -- comparisons -----------------------------------------------------------


def bits(f, *args):
    """f(*args) with its floats as hex strings (nan and inf included), or the type of what it raised."""
    try:
        out = f(*args)
    except (ArithmeticError, TruncationNotConverged) as exc:
        return type(exc).__name__
    if out is None:
        return None
    if hasattr(out, "value"):
        out = (out.value, out.tail_bound, out.terms_used)
    return tuple(x.hex() if isinstance(x, float) else x for x in out)


def draw_y(rng: random.Random) -> float:
    """y from 1e-300 to 700, log-uniform, with a third of the draws below ln 2 (z > 1/2, units = 1 for s = 1)."""
    if rng.random() < 1 / 3:
        return 10 ** rng.uniform(-300, math.log10(_LN2))
    return 10 ** rng.uniform(-300, math.log10(700.0))


def test_closures_match_the_per_term_form():
    rng = random.Random(20260427)
    ps, units = set(), set()
    for _ in range(4000):
        s, y, h = rng.choice((1, 0, -1)), draw_y(rng), 10 ** rng.uniform(-9, 1)
        share = 10 ** rng.uniform(-300, 0) if rng.random() < 0.5 else 0.0
        want = bits(closure, s, y, h, share)
        assert bits(_em_closure, s, y, h, share) == want, (s, y, h, share)
        if isinstance(want, tuple):
            ps.add(want[3])
            units.add((s, want[2]))
    # P grew to _P_MAX, stopped early on divergence or on the share, and stayed at _EM_P
    assert {_EM_P, _P_MAX} <= ps and len(ps - {_EM_P, _P_MAX}) > 5
    assert (1, 1) in units and (1, 0) in units


def test_pair_closures_match_the_per_term_form():
    rng = random.Random(20260428)
    near = 0  # draws with d <= y / 8, the Taylor form of the integral
    for _ in range(3000):
        y, h = draw_y(rng), 10 ** rng.uniform(-9, 1)
        d = y * 10 ** rng.uniform(-6, 1)
        share = 10 ** rng.uniform(-300, 0)
        want = bits(pair_closure, y, d, h, share)
        assert bits(_em_pair_closure, y, d, h, share) == want, (y, d, h, share)
        near += d <= min(y / 8.0, 1.0)
    assert near > 500


@pytest.mark.parametrize("s", [1, 0, -1])
def test_lattice_sums_match_the_per_term_form(s):
    rng = random.Random(20260429 + s)
    routes = set()
    for _ in range(400):
        h = 10 ** rng.uniform(-9, 1)
        a = 10 ** rng.uniform(-12, math.log10(50.0))
        tol = Tolerance(abs_tol=10 ** rng.uniform(-40, -4), n_max=rng.choice((10**7, 60)))  # M grows below about 1e-20
        m_cap = rng.choice((math.inf, float(_EM_M)))  # None wherever M grows
        if s == 1:
            pairs = ((a, 10 ** rng.uniform(-12, math.log10(50.0))),)
            paired = (10 ** rng.uniform(-3, 2), a * 10 ** rng.uniform(-3, 1)) if rng.random() < 0.5 else None
            lead, scale = rng.uniform(-5.0, 5.0), 1.0
        else:
            pairs, paired = ((a,),), None
            lead, scale = rng.uniform(-5.0, 5.0), (-h if s == 0 else h * h)
        want = bits(lattice, s, pairs, h, lead, scale, tol, m_cap, paired)
        assert bits(_em_lattice, s, pairs, h, lead, scale, tol, m_cap, paired) == want, (s, pairs, h, tol, paired)
        routes.add(want if want is None or isinstance(want, str) else "value")
    assert "value" in routes and None in routes


def test_the_inline_rows_are_the_eulerian_rows():
    # correction j of order s pairs B_2j/(2j)! with the row A_(2j+1-s), its first coefficient split off
    for s in (1, 0, -1):
        first, growth = qcore._EM_ROWS[s]
        assert len(first) == _EM_P and len(first) + len(growth) == _P_MAX
        for j, (b, c0, rest) in enumerate(first + growth):
            assert b == _BERNOULLI[j] and (c0,) + rest == _EULERIAN[2 * j + 1 - s]
