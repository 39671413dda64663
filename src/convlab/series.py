"""Exact-integer combinatorics of the iterative construction.

The j-th iterate of Psi_{j+1} = psi + sum_n a_n (*^n Psi_j) is a finite
combination Psi_j = sum_l m_{j,l} (*^l psi). The table m_{j,l} lives in
non-negative integers and stabilizes down the diagonal: c_l = m_{l,l} are
the coefficients of the compositional inverse of Q. Everything here is
arbitrary-precision on purpose; the entries grow like Catalan numbers and
any silent overflow would corrupt the downstream mass certificates.

Polynomials are dense Python-int lists indexed by degree.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .errors import InvalidCoefficients, InvalidInput
from .qpoly import CoeffVector, PolyQ, _exact_at, derivative

DEFAULT_L_CAP = 64


@dataclass(frozen=True)
class CoeffTable:
    coeffs: CoeffVector
    rows: tuple[tuple[int, ...], ...]
    cap_too_small: bool

    @property
    def l_cap(self) -> int:
        return len(self.rows[0])

    def m(self, j: int, l: int) -> int:
        """Entry m_{j,l}; zero above the stored cap (valid only when the
        cap covers N2^j, see cap_too_small)."""
        if l < 1:
            raise IndexError("l starts at 1")
        if l > self.l_cap:
            return 0
        return self.rows[j][l - 1]

    def diagonal(self) -> tuple[int, ...]:
        k = min(len(self.rows) - 1, self.l_cap)
        return tuple(self.rows[l][l - 1] for l in range(1, k + 1))

    def to_json(self) -> dict:
        return {
            "a": list(self.coeffs.coeffs),
            "cap": self.l_cap,
            "cap_too_small": self.cap_too_small,
            "rows": [[str(v) for v in row] for row in self.rows],
        }


@dataclass(frozen=True)
class LimitSeries:
    coeffs: CoeffVector
    c: tuple[int, ...]

    def __getitem__(self, l: int) -> int:
        """Coefficient c_l, l >= 1; the tail past the computed length is
        unknown rather than zero, so it raises instead of padding."""
        if not 1 <= l <= len(self.c):
            raise IndexError(f"c_l computed for 1 <= l <= {len(self.c)}")
        return self.c[l - 1]


def _trunc_mul(a: list[int], b: list[int], cap: int) -> list[int]:
    out = [0] * (cap + 1)
    for i, ai in enumerate(a):
        if ai == 0 or i > cap:
            continue
        for j, bj in enumerate(b):
            if i + j > cap:
                break
            if bj:
                out[i + j] += ai * bj
    return out


def _apply_p_poly(coeffs: CoeffVector, poly: list[int], cap: int) -> list[int]:
    """sum_n a_n * poly^n, truncated at degree cap: Horner over
    CoeffVector.p with truncated products."""
    acc = [0] * (cap + 1)
    for ck in reversed(coeffs.p):
        acc = _trunc_mul(acc, poly, cap)
        acc[0] += ck
    return acc


def iterate_table(coeffs: CoeffVector, J: int, L_cap: int) -> CoeffTable:
    """Rows m_{j,.} for j = 0..J, truncated at column L_cap.

    Row 0 is e_1 (the seed itself); row j+1 = e_1 + sum_n a_n * (row j)^n
    as a Cauchy-product power. Truncation is flagged, not hidden: entries
    with l > L_cap are dropped once N2^J exceeds the cap.
    """
    if J < 0 or L_cap < 1:
        raise InvalidInput("need J >= 0 and L_cap >= 1")
    row = [0] * (L_cap + 1)
    row[1] = 1
    rows = [row]
    for _ in range(J):
        nxt = _apply_p_poly(coeffs, rows[-1], L_cap)
        nxt[1] += 1
        rows.append(nxt)
    cap_too_small = coeffs.n2**J > L_cap
    return CoeffTable(
        coeffs=coeffs,
        rows=tuple(tuple(r[1:]) for r in rows),
        cap_too_small=cap_too_small,
    )


def limit_series(coeffs: CoeffVector, L: int) -> LimitSeries:
    """Diagonal m_{l,l} for l = 1..L; stable because rows freeze below the
    running index (m_{j,l} = m_{j+1,l} once j >= l)."""
    if L < 1:
        raise InvalidInput("need L >= 1")
    table = iterate_table(coeffs, J=L, L_cap=L)
    return LimitSeries(coeffs=coeffs, c=table.diagonal())


def lagrange_inverse(coeffs: CoeffVector, L: int) -> LimitSeries:
    """Compositional inverse of Q by degree-by-degree solving.

    Independent oracle for limit_series: writing C(s) = sum c_l s^l,
    Q(C(s)) = s forces c_1 = 1 and, for l >= 2, c_l = [s^l] P(C_{<l})
    because P vanishes to second order. Integrality is automatic.
    """
    if L < 1:
        raise InvalidInput("need L >= 1")
    c = [0] * (L + 1)
    c[1] = 1
    for l in range(2, L + 1):
        comp = _apply_p_poly(coeffs, c[:l], l)
        c[l] = comp[l]
    return LimitSeries(coeffs=coeffs, c=tuple(c[1:]))


def compose_q(series: LimitSeries) -> list[int]:
    """Coefficients of Q(C(s)) up to the series length; the inverse-series
    identity says this is exactly [0, 1, 0, ..., 0]."""
    L = len(series.c)
    cpoly = [0] + list(series.c)
    comp = _apply_p_poly(series.coeffs, cpoly, L)
    return [cv - pv for cv, pv in zip(cpoly, comp)]


def mass_bound_certificate(table: CoeffTable, p: PolyQ) -> list[float]:
    """Per-row sums s_j = sum_l m_{j,l} q_max^l.

    These are the masses of the iterates when the seed has the critical
    mass q_max; the construction guarantees s_j <= t_q, non-decreasing in
    j. Each is evaluated exactly at the double q_max by qpoly's one exact
    evaluator and rounded once, because the integer entries overflow
    floats long before the weighted sums stop being small.
    """
    if table.coeffs != p.coeffs:
        raise InvalidCoefficients("table and polynomial built from different coefficients")
    return [num / den for num, den in (_exact_at((0, *row), p.q_max) for row in table.rows)]


def reciprocal_qprime(coeffs: CoeffVector, L: int) -> tuple[list[float], float]:
    """Coefficients b_nu of 1/Q' = 1 + sum_n (P')^n up to degree L, plus a
    root-test estimate of the radius of convergence.

    b = 1/(1 - P') solves b = 1 + P' b, and P' has no constant term, so
    b_0 = 1 and b_nu = sum_{k=1..nu} p'_k b_{nu-k}. All b_nu are
    non-negative integers, returned as floats (inf beyond the float range),
    which is the reason the smallest singularity of 1/Q' sits on the
    positive axis at t_q. The radius comes from the integers, as max
    b_nu^(1/nu) over the last quarter of the coefficients; the root test
    tolerates the zero gaps of lacunary cases where a ratio test would not.
    """
    if L < 8:
        raise InvalidInput("need L >= 8 for a stable tail window")
    pprime = derivative(coeffs.p)
    b = [1]
    for nu in range(1, L + 1):
        b.append(sum(pk * b[nu - k] for k, pk in enumerate(pprime[1 : nu + 1], start=1)))
    window = range(L - L // 4 + 1, L + 1)
    tail = [(nu, b[nu]) for nu in window if b[nu] > 0]
    if not tail:
        tail = [(nu, b[nu]) for nu in range(1, L + 1) if b[nu] > 0]
    limsup = max(math.exp(math.log(bv) / nu) for nu, bv in tail)
    return [_float_or_inf(v) for v in b], 1.0 / limsup


def _float_or_inf(v: int) -> float:
    try:
        return float(v)
    except OverflowError:
        return math.inf
