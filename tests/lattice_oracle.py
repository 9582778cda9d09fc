"""A 40-digit oracle for both families, from mpmath: every series of the library
is a sum, or a difference of sums, over the lattice y = a + m h of Li_s(e^-y).

    psi_qk(t)      = -ln(1-q)/k - eps S_0(eps t)
    psi_qk'(t)     =  eps^2 S_-1(eps t)
    ln Gamma_qk(t) =  S_1(eps t) - S_1(eps k) - (t/k - 1) ln(1-q)           (h = eps k)
    ln Gamma_pq(t) =  ln(1-q) + t ln[p]_q + [S_1(eps t) - S_1(eps (t+p+1))]
                      - [S_1(eps) - S_1(eps (p+1))]                          (h = eps)

with eps = -ln q.  mpmath is imported on first use, so a module that imports
this one still collects without it.
"""

from __future__ import annotations

import pytest

DIRECT = 24  # lattice terms summed directly before the Euler-Maclaurin closure
CORRECTIONS = 12


def lattice(s: int, a, h):
    """S_s(a) = sum_{m>=0} Li_s(e^-(a + m h)) at the working precision: DIRECT terms directly,
    then the integral, the half end term and CORRECTIONS Bernoulli corrections."""
    mp = pytest.importorskip("mpmath")
    y = a + DIRECT * h
    closure = [mp.polylog(s + 1, mp.exp(-y)) / h, mp.polylog(s, mp.exp(-y)) / 2]
    closure += [mp.bernoulli(2 * j) / mp.factorial(2 * j) * h ** (2 * j - 1)
                * mp.polylog(s - 2 * j + 1, mp.exp(-y)) for j in range(1, CORRECTIONS + 1)]
    return mp.fsum(mp.polylog(s, mp.exp(-(a + m * h))) for m in range(DIRECT)) + mp.fsum(closure)


def qk_oracle(fn: str, t: float, q: float, k: float):
    """fn ("psi", "psi-prime" or "ln-gamma") of the (q,k) family at t, as a 40-digit mpf."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        eps = -mp.log(mp.mpf(q))
        t, k = mp.mpf(t), mp.mpf(k)
        h = eps * k
        ln1mq = mp.log(-mp.expm1(-eps))
        if fn == "psi":
            return -ln1mq / k - eps * lattice(0, eps * t, h)
        if fn == "psi-prime":
            return eps * eps * lattice(-1, eps * t, h)
        return lattice(1, eps * t, h) - lattice(1, eps * k, h) - (t / k - 1) * ln1mq


def pq_ln_gamma_oracle(t: float, q: float, p: int):
    """ln Gamma_pq(t) as a 40-digit mpf: each finite sum of Li_1(e^-y) over y = eps (a + m),
    m < c, is S_1(eps a) - S_1(eps (a + c))."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        eps = -mp.log(mp.mpf(q))
        t = mp.mpf(t)

        def finite(a, c):
            return lattice(1, eps * a, eps) - lattice(1, eps * (a + c), eps)

        ln_bracket_p = mp.log(-mp.expm1(-eps * p)) - mp.log(-mp.expm1(-eps))
        return mp.log(-mp.expm1(-eps)) + t * ln_bracket_p + finite(t, p + 1) - finite(1, p)
