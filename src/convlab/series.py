"""Exact-integer combinatorics of the iterative construction.

The j-th iterate of Psi_{j+1} = psi + sum_n a_n (*^n Psi_j) is a finite
combination Psi_j = sum_l m_{j,l} (*^l psi). The table m_{j,l} lives in
non-negative integers and stabilizes down the diagonal: c_l = m_{l,l} are
the coefficients of the compositional inverse C of Q. Everything here is
arbitrary-precision on purpose; the entries grow like Catalan numbers and
any silent overflow would corrupt the downstream mass certificates.

The c_l come three ways: iterate_table's diagonal (the paper's
construction: L rows of one square and N2 - 1 truncated products each,
O(N L^3) integer products for L terms), limit_series (the
online recurrence on C = s + P(C): relaxed multiplication, van der Hoeven
2002, in its naive quadratic form) and lagrange_inverse (the
Lagrange-Buermann formula with J. C. P. Miller's power recurrence, Knuth
TAOCP vol. 2, sec. 4.7), both O(N L^2). lagrange_inverse shares no code
with the other two, so each checks the others.

Polynomials are dense Python-int lists indexed by degree. Each
coefficient of a product is one dot product at C level,
sum(map(mul, a_slice, reversed_b_slice)), over the nonzero spans of both
operands, and a square takes each cross product a_i a_j once.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from operator import mul

from .errors import InvalidInput, _require_index
from .qpoly import CoeffVector, PolyQ, _exact_at, derivative

DEFAULT_L_CAP = 64


@dataclass(frozen=True)
class CoeffTable:
    coeffs: CoeffVector
    rows: tuple[tuple[int, ...], ...]  # rows[j][l - 1] is m_{j,l}
    cap_too_small: bool

    @property
    def l_cap(self) -> int:
        return len(self.rows[0])

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
    c: tuple[int, ...]  # c[l - 1] is c_l


def _span(a: list[int], cap: int) -> tuple[int, int]:
    """First and last index of a nonzero entry of a[:cap + 1]; (0, -1) if
    there is none."""
    nz = [i for i, v in enumerate(a[: cap + 1]) if v]
    return (nz[0], nz[-1]) if nz else (0, -1)


def _trunc_mul(a: list[int], b: list[int], cap: int) -> list[int]:
    """The product a b truncated at degree cap, each coefficient one dot
    product over the nonzero spans of a and b."""
    out = [0] * (cap + 1)
    lo_a, hi_a = _span(a, cap)
    lo_b, hi_b = _span(b, cap)
    if hi_a < 0 or hi_b < 0:
        return out
    rb = b[hi_b::-1]  # rb[hi_b - j] is b[j]
    for k in range(lo_a + lo_b, min(cap, hi_a + hi_b) + 1):
        i0, i1 = max(lo_a, k - hi_b), min(hi_a, k - lo_b)
        out[k] = sum(map(mul, a[i0 : i1 + 1], rb[hi_b - k + i0 : hi_b - k + i1 + 1]))
    return out


def _trunc_square(a: list[int], cap: int) -> list[int]:
    """a^2 truncated at degree cap, each cross product a_i a_j (i < j)
    taken once and doubled."""
    out = [0] * (cap + 1)
    lo, hi = _span(a, cap)
    ra = a[hi::-1]  # ra[hi - j] is a[j]
    for k in range(2 * lo, min(cap, 2 * hi) + 1):
        i0, i1 = max(lo, k - hi), (k - 1) // 2  # i < j = k - i
        out[k] = 2 * sum(map(mul, a[i0 : i1 + 1], ra[hi - k + i0 : hi - k + i1 + 1]))
        if k % 2 == 0:
            out[k] += a[k // 2] ** 2
    return out


def _apply_p_poly(coeffs: CoeffVector, poly: list[int], cap: int) -> list[int]:
    """sum_n a_n * poly^n, truncated at degree cap, as poly^2 R(poly) with
    R = a_2 + a_3 t + ... by Horner over CoeffVector.p[2:]. R(poly) is
    needed only to degree cap - 2 v, v the lowest degree of poly. Each call
    costs one square and N2 - 1 products, one of them by the constant a_N."""
    square = _trunc_square(poly, cap)
    r_cap = cap - 2 * _span(poly, cap)[0]
    if r_cap < 0:
        return square  # all zero: poly^2 starts above cap
    r = [coeffs.p[coeffs.n2]]
    for ck in reversed(coeffs.p[2 : coeffs.n2]):
        r = _trunc_mul(r, poly, r_cap)
        r[0] += ck
    return _trunc_mul(square, r, cap)


def iterate_table(coeffs: CoeffVector, J: int, L_cap: int) -> CoeffTable:
    """Rows m_{j,.} for j = 0..J, truncated at column L_cap.

    Row 0 is e_1 (the seed itself); row j+1 = e_1 + sum_n a_n * (row j)^n
    as a Cauchy-product power. Truncation is flagged, not hidden: entries
    with l > L_cap are dropped once N2^J exceeds the cap.
    """
    J, L_cap = _require_index("J", J), _require_index("L_cap", L_cap)
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
    """The diagonal c_l = m_{l,l}, l = 1..L, by the online recurrence on
    C = s + P(C), in O(N L^2) integer products.

    With pw[n][l] = [s^l] C^n and pw[1] = c, each power is one Cauchy
    product with C: pw[n][l] = sum_{i=1}^{l-n+1} c_i pw[n-1][l-i]. For
    n >= 2 that reads only c_1..c_{l-1}, so c_l = sum_n a_n pw[n][l] is
    known once the degrees below l are. Only sums and products of
    non-negative integers occur, so every c_l is exact.
    """
    L = _require_index("L", L)
    if L < 1:
        raise InvalidInput("need L >= 1")
    a, N = coeffs.p, coeffs.n2
    c = [0, 1] + [0] * (L - 1)
    pw = [[], c] + [[0] * (L + 1) for _ in range(2, N + 1)]
    for l in range(2, L + 1):
        for n in range(2, N + 1):
            pw[n][l] = sum(map(mul, c[1 : l - n + 2], pw[n - 1][l - 1 : n - 2 : -1]))
        c[l] = sum(a[n] * pw[n][l] for n in range(2, N + 1))
    return LimitSeries(coeffs=coeffs, c=tuple(c[1:]))


def lagrange_inverse(coeffs: CoeffVector, L: int) -> LimitSeries:
    """Compositional inverse of Q by the Lagrange-Buermann formula, an
    oracle for limit_series that shares no code path with the fixed point.

    Q(w) = w h(w) with h(w) = 1 - P(w)/w = 1 - sum_j a_{j+1} w^j, so
    c_l = [w^{l-1}] h^{-l} / l. Since h_0 = 1, g = h^{-l} follows from
    Miller's recurrence k g_k = sum_{j=1}^{min(k, N-1)} ((1-l) j - k) h_j
    g_{k-j}, written below with h_j = -a_{j+1} so that every term is
    non-negative. 1/h has integer coefficients, hence so has g, and l c_l
    = g_{l-1} with c_l an integer: both divisions are exact.
    """
    L = _require_index("L", L)
    if L < 1:
        raise InvalidInput("need L >= 1")
    h = [(j, a) for j, a in enumerate(coeffs.p[2:], start=1) if a]
    c = []
    for l in range(1, L + 1):
        g = [1]
        for k in range(1, l):
            g.append(sum((k + (l - 1) * j) * a * g[k - j] for j, a in h if j <= k) // k)
        c.append(g[-1] // l)
    return LimitSeries(coeffs=coeffs, c=tuple(c))


def mass_bound_certificate(table: CoeffTable, p: PolyQ) -> list[float]:
    """Per-row sums s_j = sum_l m_{j,l} q_max^l.

    These are the masses of the iterates when the seed has the critical
    mass q_max; the construction guarantees s_j <= t_q, non-decreasing in
    j. Each is evaluated exactly at the double q_max by qpoly's one exact
    evaluator and rounded once, because the integer entries overflow
    floats long before the weighted sums stop being small.
    """
    if table.coeffs != p.coeffs:
        raise InvalidInput("table and polynomial built from different coefficients")
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
    L = _require_index("L", L)
    if L < 8:
        raise InvalidInput("need L >= 8 for a stable tail window")
    pprime = derivative(coeffs.p)
    low = next(k for k, pk in enumerate(pprime) if pk)  # n - 1, a_n the first positive
    if L < low:
        raise InvalidInput(f"need L >= {low}, the lowest degree of P'; below it b_1..b_L are 0")
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
