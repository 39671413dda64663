"""The polynomial Q(t) = t - sum_{n=2}^{N} a_n t^n and its critical point.

Q has Q'(0) = 1 and Q'(1) <= -1 for any admissible coefficient vector, so
Q' has a zero in (0, 1); non-negativity of the a_n makes P' = 1 - Q'
strictly increasing on (0, oo), hence that zero t_q is unique and Q attains
its positive maximum q_max = Q(t_q) there. t_q is the sharp L1 mass bound
for solutions of f >= sum a_n (*^n f), and q_max bounds admissible seeds.

This module is the only place that turns a_2..a_N into coefficients: P and
Q as ascending integer tuples (CoeffVector.p, CoeffVector.q), with
derivative() for the rest. Other modules apply P through this layout,
never by degree: _horner on mass symbols (field.apply_p, construct),
series by Horner over P on truncated power series and reciprocal_qprime
through P'. Two evaluators read the layout here. _horner is the one float
evaluator, in place on an array, at real or complex x or arrays of them:
also eval_p, eval_q and disk's roots, residuals and sampled pairs.
_exact_at is exact: every certified number rests on it, the signs of Q'
that prove t_q here, and the disk sups P'(r), P(r)/r and the
mass-certificate rows, each rounded once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidInput, _require_index


@dataclass(frozen=True)
class CoeffVector:
    """Non-negative integers a_2..a_N, at least one positive."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Sequence[int]):
        coeffs = tuple(_require_index(f"coefficient a_{n}", a) for n, a in enumerate(coeffs, 2))
        object.__setattr__(self, "coeffs", coeffs)
        self._validate()

    def _validate(self) -> None:
        if len(self.coeffs) < 1:
            raise InvalidInput("need at least a_2 (degree N >= 2)")
        if any(a < 0 for a in self.coeffs):
            raise InvalidInput(f"negative coefficient in {self.coeffs}")
        if all(a == 0 for a in self.coeffs):
            raise InvalidInput("all coefficients zero")
        try:  # bounds every n a_n that a float path converts
            float(sum(n * a for n, a in enumerate(self.coeffs, start=2)))
        except OverflowError:
            raise InvalidInput("sum n a_n exceeds the float range") from None

    @property
    def n2(self) -> int:
        """Largest n with a_n > 0."""
        return max(n for n, a in enumerate(self.coeffs, start=2) if a > 0)

    @property
    def p(self) -> tuple[int, ...]:
        """P(t) = sum a_n t^n, ascending: (0, 0, a_2, ..., a_N)."""
        return (0, 0, *self.coeffs)

    @property
    def q(self) -> tuple[int, ...]:
        """Q(t) = t - P(t), ascending: (0, 1, -a_2, ..., -a_N)."""
        return (0, 1, *(-a for a in self.coeffs))

    @classmethod
    def parse(cls, text: str) -> "CoeffVector":
        """Parse '1,0,2' as a_2=1, a_3=0, a_4=2. Each entry, spaces
        stripped, must be ASCII digits only: no sign, underscore or empty
        entry."""
        parts = [p.strip() for p in text.split(",")]
        if not all(p.isascii() and p.isdigit() for p in parts):
            raise InvalidInput(f"cannot parse coefficients {text!r}")
        try:
            values = [int(p) for p in parts]
        except ValueError as exc:  # beyond int()'s digit limit
            raise InvalidInput(f"cannot parse coefficients {text!r}") from exc
        return cls(values)


@dataclass(frozen=True)
class PolyQ:
    coeffs: CoeffVector
    t_q: float
    q_max: float


def eval_p(coeffs: CoeffVector, t: float) -> float:
    """P(t) = sum a_n t^n."""
    return _horner(coeffs.p, t)


def eval_q(coeffs: CoeffVector, t: float) -> float:
    return t - eval_p(coeffs, t)


def build_poly(coeffs: CoeffVector) -> PolyQ:
    """Locate t_q by bisection on the doubles in [0, 1], each sign of Q'
    taken exactly in integers.

    The loop keeps Q'(lo) > 0 >= Q'(hi), which holds at the start since
    Q'(0) = 1 and Q'(1) = 1 - sum n a_n <= -1, and stops when lo and hi are
    adjacent doubles: that proves t_q lies in [lo, hi]. The end with the
    smaller exact |Q'| is returned, lo on a tie. Q' is decreasing and
    concave on (0, oo), so when that end is hi, hi is also the nearer one.
    """
    qp = derivative(coeffs.q)
    lo, hi = 0.0, 1.0
    q_lo, q_hi = _exact_at(qp, lo), _exact_at(qp, hi)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        q_mid = _exact_at(qp, mid)
        if q_mid[0] > 0:
            lo, q_lo = mid, q_mid
        else:
            hi, q_hi = mid, q_mid
    # |Q'(lo)| <= |Q'(hi)|, cross-multiplied over the two denominators
    t = lo if q_lo[0] * q_hi[1] <= -q_hi[0] * q_lo[1] else hi
    return PolyQ(coeffs=coeffs, t_q=t, q_max=eval_q(coeffs, t))


def derivative(c: Sequence) -> tuple:
    """Ascending coefficients of the derivative of sum_k c_k t^k. Float
    entries beyond the float range become inf."""
    return tuple(k * ck for k, ck in enumerate(c) if k)


def _horner(c: Sequence, x, out=None):
    """sum_k c_k x^k for ascending coefficients c, in float or complex
    arithmetic as x is, from the top nonzero coefficient, adding no zero
    one. Works in place on an array: in out when given (a buffer of x's
    shape other than x), else in 0.0 * x + c_top, which keeps x's shape."""
    top = len(c) - 1
    while top and not c[top]:
        top -= 1
    if out is None:
        out = 0.0 * x
        out += c[top]
    else:
        out.fill(c[top])
    for ck in reversed(c[:top]):
        out *= x
        if ck:
            out += ck
    return out


def _exact_at(c: Sequence[int], t: float) -> tuple[int, int]:
    """sum_k c_k t^k for ascending integer coefficients c, exactly, as
    (num, den) with den a power of two: integer Horner on t = p/q, giving
    sum_k c_k p^k q^(K-k) over q^K. num / den rounds it once, correctly."""
    p, q = t.as_integer_ratio()
    num, den = c[-1], 1
    for ck in c[-2::-1]:
        den *= q
        num = num * p + ck * den
    return num, den
