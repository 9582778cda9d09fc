"""Parameter and result types shared by every evaluation routine.

Two deformation families are supported:

* ``QK``: base q in (0,1) together with a positive step k.  Series are
  infinite and carry a certified truncation bound.
* ``PQ``: base q in (0,1) together with a positive integer p.  Sums are
  finite, so results are exact up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError

# Validation bounds chosen so every certified tail bound stays finite and
# computable in double precision.
Q_MIN = 1e-9
Q_MAX = 1.0 - 1e-9
K_MIN = 1e-6
K_MAX = 1e6


class Family(str, Enum):
    QK = "qk"
    PQ = "pq"


@dataclass(frozen=True)
class DeformParams:
    """Deformation parameters for one of the two families.

    ``k`` is meaningful only for the QK family, ``p`` only for PQ.
    """

    family: Family
    q: float
    k: float = 1.0
    p: int = 1

    def __post_init__(self):
        if not (Q_MIN <= self.q <= Q_MAX):
            raise DomainError(f"q={self.q!r} outside [{Q_MIN}, {Q_MAX}]")
        if self.family is Family.QK:
            if not (K_MIN <= self.k <= K_MAX):
                raise DomainError(f"k={self.k!r} outside [{K_MIN}, {K_MAX}]")
        elif self.family is Family.PQ:
            if int(self.p) != self.p or self.p < 1:
                raise DomainError(f"p={self.p!r} must be an integer >= 1")
        else:  # pragma: no cover - enum exhausts the cases
            raise DomainError(f"unknown family {self.family!r}")

    @classmethod
    def qk(cls, q: float, k: float = 1.0) -> "DeformParams":
        return cls(family=Family.QK, q=float(q), k=float(k))

    @classmethod
    def pq(cls, p: int, q: float) -> "DeformParams":
        return cls(family=Family.PQ, q=float(q), p=int(p))

    def require(self, family: Family) -> None:
        if self.family is not family:
            raise DomainError(f"expected {family.value} parameters, got {self.family.value}")

    def as_dict(self) -> dict:
        """{family, q, and k or p}: the fields that mean something for the family."""
        other = {"k": self.k} if self.family is Family.QK else {"p": self.p}
        return {"family": self.family.value, "q": self.q, **other}

    def label(self) -> str:
        if self.family is Family.QK:
            return f"qk(q={self.q:g}, k={self.k:g})"
        return f"pq(p={self.p}, q={self.q:g})"


@dataclass(frozen=True)
class Tolerance:
    """Truncation target for infinite series.

    ``abs_tol`` is the absolute bound the certified tail must reach;
    ``n_max`` caps the number of series terms before giving up.
    """

    abs_tol: float = 1e-13
    n_max: int = 10_000_000

    def __post_init__(self):
        if not (self.abs_tol > 0.0) or not math.isfinite(self.abs_tol):
            raise DomainError(f"abs_tol={self.abs_tol!r} must be positive and finite")
        if self.n_max < 1:
            raise DomainError(f"n_max={self.n_max!r} must be >= 1")


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class EvalResult:
    """A function value with its certified absolute truncation bound.

    ``tail_bound`` bounds |returned - exact| for the truncation alone (a
    finite sum summed directly reports 0; on the Euler-Maclaurin route it is
    the remainder bound).  ``terms_used`` is the number of series or product
    terms actually evaluated.
    """

    value: float
    tail_bound: float
    terms_used: int
