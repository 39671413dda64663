import itertools
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from convlab import (
    CoeffVector,
    InvalidInput,
    PolyQ,
    build_poly,
    iterate_table,
    lagrange_inverse,
    limit_series,
    mass_bound_certificate,
    reciprocal_qprime,
)
from convlab.qpoly import derivative
from convlab.series import _apply_p_poly, _trunc_mul, _trunc_square
from conftest import (
    apply_p_by_powers,
    certificate_vectors,
    compose_q,
    eval_p_exact,
    random_coeffs,
    trunc_mul_by_loops,
)

CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786)


def lagrange_by_degree(coeffs: CoeffVector, L: int) -> tuple[int, ...]:
    """The earlier lagrange_inverse, kept as an oracle: Q(C(s)) = s forces
    c_1 = 1 and, for l >= 2, c_l = [s^l] P(C_{<l}), because P vanishes to
    second order; P(C_{<l}) is recomputed for every l."""
    c = [0] * (L + 1)
    c[1] = 1
    for l in range(2, L + 1):
        c[l] = apply_p_by_powers(coeffs, c[:l], l)[l]
    return tuple(c[1:])


def truncated_product(a: list[int], b: list[int], cap: int) -> list[int]:
    """Every product a_i b_j, then the coefficients up to degree cap."""
    full = [0] * (len(a) + len(b))
    for (i, x), (j, y) in itertools.product(enumerate(a), enumerate(b)):
        full[i + j] += x * y
    return (full + [0] * (cap + 1))[: cap + 1]


# Operand pairs and caps the kernels must get right: all-zero operands,
# leading zeros, operands shorter and longer than the cap, a cap below
# both nonzero spans, and negative entries.
KERNEL_CASES = [
    ([0, 0, 0], [1, 2, 3], 4),
    ([0], [0], 0),
    ([0, 0], [0, 0, 0], 5),
    ([0, 0, 3, 1], [0, 2, 0, 5], 6),
    ([0, 0, 0, 0, 7], [0, 0, 0, 1], 12),
    ([1, 2], [3], 8),
    ([4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9], [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], 5),
    ([0, 0, 0, 5, 6], [0, 0, 0, 7, 8], 2),
    ([0, 0, 0, 5, 6], [0, 0, 0, 7, 8], 4),
    ([0, 0, 0, 5, 6], [0, 0, 0, 7, 8], 5),
    ([0, 0, 1], [0, 0, 1], 3),
    ([-3, 2, -1, 0, 4], [2, -2, 0, -5], 6),
    ([0, -1, 0, 2**70], [-(2**65), 0, 3], 9),
]


class TestIterateTable:
    def test_horner_matches_power_loop(self):
        # the rows iterate_table feeds it, a poly with a constant term, one
        # with leading zeros, one all zero, one longer than the cap and one
        # whose square starts above the cap
        extra = [[2, 1, 0, 3], [0, 0, 0, 2, 1], [0, 0, 0], [1] * 20, [0, 0, 0, 0, 0, 0, 0, 1]]
        for c in certificate_vectors():
            polys = [list(r) for r in iterate_table(c, J=3, L_cap=12).rows] + extra
            for poly in polys:
                assert _apply_p_poly(c, poly, 12) == apply_p_by_powers(c, poly, 12)

    @pytest.mark.parametrize("a,b,cap", KERNEL_CASES)
    def test_kernels_on_edge_cases(self, a, b, cap):
        want = truncated_product(a, b, cap)
        assert trunc_mul_by_loops(a, b, cap) == want
        assert _trunc_mul(a, b, cap) == want
        assert _trunc_mul(b, a, cap) == want
        assert _trunc_square(a, cap) == truncated_product(a, a, cap)
        assert _trunc_square(b, cap) == truncated_product(b, b, cap)

    def test_trunc_mul_is_the_truncated_product(self):
        # random operands longer and shorter than the cap, with constant
        # terms, leading zeros and negative entries, against every product
        rng = np.random.default_rng(24)
        for _ in range(300):
            a = [0] * int(rng.integers(0, 4)) + [int(v) for v in rng.integers(-3, 4, size=rng.integers(1, 12))]
            b = [0] * int(rng.integers(0, 4)) + [int(v) for v in rng.integers(-3, 4, size=rng.integers(1, 12))]
            cap = int(rng.integers(0, 10))
            assert _trunc_mul(a, b, cap) == truncated_product(a, b, cap)
            assert _trunc_square(a, cap) == truncated_product(a, a, cap)
            assert trunc_mul_by_loops(a, b, cap) == truncated_product(a, b, cap)

    def test_first_rows_two_fold(self):
        t = iterate_table(CoeffVector([1]), J=2, L_cap=8)
        assert t.rows[0] == (1, 0, 0, 0, 0, 0, 0, 0)
        assert t.rows[1] == (1, 1, 0, 0, 0, 0, 0, 0)
        assert t.rows[2] == (1, 1, 2, 1, 0, 0, 0, 0)
        assert not t.cap_too_small

    def test_row_zero_is_seed(self):
        t = iterate_table(CoeffVector([0, 0, 5]), J=0, L_cap=4)
        assert t.rows == ((1, 0, 0, 0),)

    def test_support_bound(self):
        # m_{j,l} = 0 whenever l > N2^j
        rng = np.random.default_rng(21)
        for _ in range(20):
            c = random_coeffs(rng)
            t = iterate_table(c, J=3, L_cap=c.n2**3 + 3)
            for j in range(4):
                for l in range(c.n2**j + 1, t.l_cap + 1):
                    assert t.rows[j][l - 1] == 0

    def test_rows_monotone_in_j(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            c = random_coeffs(rng)
            t = iterate_table(c, J=6, L_cap=24)
            for j in range(6):
                for l in range(1, 25):
                    assert t.rows[j + 1][l - 1] >= t.rows[j][l - 1]

    def test_rows_freeze_below_index(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            c = random_coeffs(rng)
            t = iterate_table(c, J=12, L_cap=10)
            for l in range(1, 11):
                frozen = t.rows[l][l - 1]
                for j in range(l, 13):
                    assert t.rows[j][l - 1] == frozen

    def test_cap_flag(self):
        assert iterate_table(CoeffVector([1]), J=5, L_cap=8).cap_too_small
        assert not iterate_table(CoeffVector([1]), J=3, L_cap=8).cap_too_small

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            iterate_table(CoeffVector([1]), J=-1, L_cap=8)
        with pytest.raises(ValueError):
            iterate_table(CoeffVector([1]), J=2, L_cap=0)


class TestLimitSeries:
    def test_catalan(self):
        s = limit_series(CoeffVector([1]), L=12)
        assert s.c == CATALAN

    def test_three_fold(self):
        s = limit_series(CoeffVector([0, 1]), L=9)
        assert s.c == (1, 0, 1, 0, 3, 0, 12, 0, 55)

    def test_length_one(self):
        assert limit_series(CoeffVector([1]), L=1).c == (1,)

    @pytest.mark.parametrize("inverse", [limit_series, lagrange_inverse])
    def test_length_zero_rejected(self, inverse):
        with pytest.raises(InvalidInput, match=r"^need L >= 1$"):
            inverse(CoeffVector([1]), L=0)

    def test_lagrange_anchors(self):
        assert lagrange_inverse(CoeffVector([1]), L=12).c == CATALAN
        assert lagrange_inverse(CoeffVector([1, 1]), L=4).c == (1, 1, 3, 10)

    def test_two_routes_agree(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            c = random_coeffs(rng)
            L = int(rng.integers(4, 20))
            assert limit_series(c, L).c == lagrange_inverse(c, L).c

    def test_every_route_on_certificate_vectors(self):
        # the recurrence, Lagrange-Buermann, the table diagonal (the paper's
        # construction) and the degree-by-degree solve: equal integers
        for i, c in enumerate(certificate_vectors()):
            L = 12 if i < 1359 else 8
            want = lagrange_by_degree(c, L)
            assert limit_series(c, L).c == want
            assert lagrange_inverse(c, L).c == want
            assert iterate_table(c, J=L, L_cap=L).diagonal() == want

    @pytest.mark.parametrize(
        "a",
        [*itertools.product((1, 2, 3), repeat=2), (0, 0, 0, 3), (817704, 0, 408733, 881644)],
    )
    def test_long_series(self, a):
        c = CoeffVector(a)
        s = limit_series(c, L=100)
        assert s.c == lagrange_inverse(c, L=100).c
        assert compose_q(s) == [0, 1] + [0] * 99

    def test_compose_q_is_identity(self):
        rng = np.random.default_rng(32)
        for _ in range(15):
            c = random_coeffs(rng)
            s = limit_series(c, L=int(rng.integers(3, 16)))
            comp = compose_q(s)
            assert comp[1] == 1
            assert all(v == 0 for i, v in enumerate(comp) if i != 1)


class TestMassCertificate:
    def test_two_fold_values(self):
        c = CoeffVector([1])
        p = build_poly(c)
        t = iterate_table(c, J=10, L_cap=64)
        sums = mass_bound_certificate(t, p)
        assert sums[0] == pytest.approx(0.25, abs=1e-15)
        assert all(b >= a - 1e-15 for a, b in zip(sums, sums[1:]))
        assert all(v <= p.t_q + 1e-12 for v in sums)

    def test_random_bound(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            c = random_coeffs(rng)
            p = build_poly(c)
            t = iterate_table(c, J=8, L_cap=48)
            sums = mass_bound_certificate(t, p)
            assert all(v <= p.t_q + 1e-12 for v in sums)
            assert all(b >= a - 1e-15 for a, b in zip(sums, sums[1:]))

    def test_coeff_mismatch(self):
        t = iterate_table(CoeffVector([1]), J=4, L_cap=16)
        message = "^table and polynomial built from different coefficients$"
        with pytest.raises(InvalidInput, match=message):
            mass_bound_certificate(t, build_poly(CoeffVector([0, 1])))

    def test_matches_scalar_recursion(self):
        # with no truncation the row sums are exactly the mass iterates,
        # rounded once
        rng = np.random.default_rng(42)
        for _ in range(10):
            c = random_coeffs(rng, max_degree=4)
            t = iterate_table(c, J=3, L_cap=c.n2**3)
            q = 1.0 / int(rng.integers(5, 30))
            sums = mass_bound_certificate(t, PolyQ(c, build_poly(c).t_q, q))
            sigma = Fraction(q)
            for j in range(4):
                assert sums[j] == float(sigma)
                sigma = Fraction(q) + eval_p_exact(c, sigma)

    def test_rows_at_zero(self):
        c = CoeffVector([1, 1])
        t = iterate_table(c, J=4, L_cap=16)
        assert mass_bound_certificate(t, PolyQ(c, build_poly(c).t_q, 0.0)) == [0.0] * 5


def reciprocal_by_powers(coeffs: CoeffVector, L: int) -> tuple[list[int], float]:
    """The earlier reciprocal_qprime, kept as an oracle: 1/Q' summed as the
    geometric series sum_n (P')^n, one truncated product per power, with
    the radius from the same root-test window."""
    pprime = derivative(coeffs.p)
    b = [0] * (L + 1)
    term = [0] * (L + 1)
    term[0] = 1
    while any(term):
        for i, v in enumerate(term):
            if v:
                b[i] += v
        term = trunc_mul_by_loops(term, pprime, L)
    window = range(L - L // 4 + 1, L + 1)
    tail = [(nu, b[nu]) for nu in window if b[nu] > 0]
    if not tail:
        tail = [(nu, b[nu]) for nu in range(1, L + 1) if b[nu] > 0]
    limsup = max(math.exp(math.log(bv) / nu) for nu, bv in tail)
    return b, 1.0 / limsup


class TestReciprocal:
    def test_recurrence_matches_power_sum(self):
        # Python compares an int with a float exactly, so where b_nu is
        # below 2^53 this checks the integer itself
        exact = 0
        for c in certificate_vectors():
            want, radius = reciprocal_by_powers(c, 16)
            got, got_radius = reciprocal_qprime(c, 16)
            assert got == [float(v) for v in want]
            assert got_radius == radius
            if max(want) < 2**53:
                assert got == want
                exact += 1
        assert exact >= 1000

    def test_two_fold_geometric(self):
        b, radius = reciprocal_qprime(CoeffVector([1]), L=24)
        assert b[0] == 1.0
        assert all(b[nu] == float(2**nu) for nu in range(25))
        assert radius == pytest.approx(0.5, rel=1e-12)

    def test_three_fold_lacunary(self):
        b, radius = reciprocal_qprime(CoeffVector([0, 1]), L=24)
        for nu in range(25):
            want = float(3 ** (nu // 2)) if nu % 2 == 0 else 0.0
            assert b[nu] == want
        assert radius == pytest.approx(3.0**-0.5, rel=1e-12)

    def test_radius_matches_critical_point(self):
        rng = np.random.default_rng(51)
        for _ in range(12):
            c = random_coeffs(rng, max_degree=5)
            p = build_poly(c)
            _, radius = reciprocal_qprime(c, L=64)
            assert radius == pytest.approx(p.t_q, rel=0.02)

    def test_entries_beyond_float_range(self):
        # t_q = 6.1e-7, so b_64 is about 1e397
        c = CoeffVector([817704, 0, 408733, 881644])
        b, radius = reciprocal_qprime(c, 64)
        want, want_radius = reciprocal_by_powers(c, 64)
        assert radius == want_radius
        assert b[-1] == math.inf and b[1] < math.inf
        for got, v in zip(b, want):
            if got == math.inf:
                assert v > sys.float_info.max
            else:
                assert got == float(v)

    def test_short_window_rejected(self):
        with pytest.raises(ValueError):
            reciprocal_qprime(CoeffVector([1]), L=7)

    @pytest.mark.parametrize("a,L,low", [([0] * 8 + [1], 8, 9), ([0] * 20 + [1], 16, 21)])
    def test_length_below_lowest_degree_of_p_prime(self, a, L, low):
        # every b_nu with 1 <= nu <= L is 0, so the root test has nothing to read
        with pytest.raises(InvalidInput, match=rf"^need L >= {low}, the lowest degree of P'; "):
            reciprocal_qprime(CoeffVector(a), L=L)
        b, radius = reciprocal_qprime(CoeffVector(a), L=low)
        assert b[1:low] == [0.0] * (low - 1) and b[low] == float(low + 1)  # n a_n
        assert 0.0 < radius < math.inf


INTEGER_PARAMETERS = {
    "limit_series-L": (lambda c: limit_series(c, 4.0), "L", "4.0"),
    "lagrange_inverse-L": (lambda c: lagrange_inverse(c, 4.0), "L", "4.0"),
    "iterate_table-J": (lambda c: iterate_table(c, J=2.0, L_cap=8), "J", "2.0"),
    "iterate_table-L_cap": (lambda c: iterate_table(c, J=2, L_cap=8.0), "L_cap", "8.0"),
    "reciprocal_qprime-L": (lambda c: reciprocal_qprime(c, 8.0), "L", "8.0"),
}


@pytest.mark.parametrize("case", INTEGER_PARAMETERS.values(), ids=INTEGER_PARAMETERS)
def test_integer_parameters(case):
    # a float is refused even when it is integral; a numpy integer is an index
    call, name, value = case
    with pytest.raises(InvalidInput, match=rf"^{name} must be an integer, got {value}$"):
        call(CoeffVector([1]))


def test_numpy_integer_parameters():
    c, four, eight = CoeffVector([1]), np.int64(4), np.int64(8)
    assert limit_series(c, four) == limit_series(c, 4)
    assert lagrange_inverse(c, four) == lagrange_inverse(c, 4)
    assert iterate_table(c, J=np.int64(2), L_cap=eight) == iterate_table(c, J=2, L_cap=8)
    assert reciprocal_qprime(c, eight) == reciprocal_qprime(c, 8)


class TestJson:
    def test_table_roundtrip_bigints(self):
        c = CoeffVector([1])
        t = iterate_table(c, J=40, L_cap=40)
        assert max(t.diagonal()) > 2**63
        obj = json.loads(json.dumps(t.to_json()))
        assert isinstance(obj["rows"][-1][-1], str)
        assert tuple(tuple(int(v) for v in row) for row in obj["rows"]) == t.rows
        assert (obj["a"], obj["cap"], obj["cap_too_small"]) == ([1], 40, t.cap_too_small)
