import math
from fractions import Fraction

import numpy as np
import pytest

from convlab import CoeffVector, InvalidInput, build_poly
from convlab.qpoly import _exact_at, _horner, derivative, eval_p, eval_q

from conftest import (
    certificate_vectors,
    eval_p_exact,
    eval_p_prime_exact,
    eval_q_exact,
    eval_q_prime_exact,
    horner_from_zero,
)


def monomial(m: int, a: int = 1) -> CoeffVector:
    return CoeffVector([0] * (m - 2) + [a])


def p_prime(c: CoeffVector, t: float) -> float:
    """P'(t) in floats: Horner over the derivative of the layout's P."""
    return _horner(derivative(c.p), t)


def q_prime(c: CoeffVector, t: float) -> float:
    """Q'(t) in floats as 1 - P'(t), the form the old bisection read."""
    return 1.0 - p_prime(c, t)


def _p_second(a: tuple[int, ...], t: float) -> float:
    acc = 0.0
    for n in range(len(a) + 1, 1, -1):
        acc = acc * t + n * (n - 1) * a[n - 2]
    return acc


def old_critical_point(coeffs: CoeffVector) -> float:
    """The earlier float algorithm, kept as an oracle: 60 bisection steps on
    [0, 1], then Newton on Q' until a step is below 1e-17 max(1, t)."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if q_prime(coeffs, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    a = coeffs.coeffs
    for _ in range(50):
        deriv = -_p_second(a, t)
        if deriv == 0.0:
            break
        step = q_prime(coeffs, t) / deriv
        t -= step
        if abs(step) <= 1e-17 * max(1.0, abs(t)):
            break
    return t


@pytest.fixture(scope="module")
def certified():
    """(c, t_q, the other end of the proved bracket) for every vector."""
    rows = []
    for c in certificate_vectors():
        t = build_poly(c).t_q
        # t is lo exactly when Q'(t) > 0, so the bracket's other end is above it
        other = math.nextafter(t, 1.0 if eval_q_prime_exact(c, Fraction(t)) > 0 else 0.0)
        rows.append((c, t, other))
    return rows


class TestCoeffVector:
    def test_markers(self):
        c = CoeffVector([0, 1, 0, 2])
        assert c.n2 == 5

    def test_layout(self):
        c = CoeffVector([0, 1, 0, 2])
        assert c.p == (0, 0, 0, 1, 0, 2)
        assert c.q == (0, 1, 0, -1, 0, -2)
        assert derivative(c.p) == (0, 0, 3, 0, 10)
        assert derivative(c.q) == (1, 0, -3, 0, -10)
        assert derivative((7,)) == ()
        assert derivative([1e308, 1e308]) == (1e308,)
        assert derivative([0.0, 0.0, 1e308]) == (0.0, math.inf)

    def test_validation(self):
        with pytest.raises(InvalidInput, match=r"need at least a_2 \(degree N >= 2\)"):
            CoeffVector([])
        with pytest.raises(InvalidInput, match="all coefficients zero"):
            CoeffVector([0, 0])
        with pytest.raises(InvalidInput, match=r"negative coefficient in \(1, -1\)"):
            CoeffVector([1, -1])

    @pytest.mark.parametrize("coeffs", [[1.5], [1.9, 0], [0.5]], ids=["1.5", "1.9,0", "0.5"])
    def test_validation_refuses_non_integer(self, coeffs):
        # a truncated entry would give t_q of another Q
        with pytest.raises(InvalidInput, match=f"^coefficient a_2 must be an integer, got {coeffs[0]}$"):
            CoeffVector(coeffs)

    def test_parse(self):
        c = CoeffVector.parse("0,1")
        assert c.coeffs == (0, 1)
        with pytest.raises(InvalidInput, match="cannot parse coefficients '1,x'"):
            CoeffVector.parse("1,x")
        assert CoeffVector.parse(" 1 , 0 ").coeffs == (1, 0)

    @pytest.mark.parametrize("text", ["0,,1", "1,", ",1", "", " ", "1, ,2"])
    def test_parse_rejects_empty_entries(self, text):
        with pytest.raises(InvalidInput, match="^cannot parse coefficients "):
            CoeffVector.parse(text)

    @pytest.mark.parametrize(
        "text", ["1_0", "+1", "1,-0", "1,-1", "\u0661", "1,\u00b2", "0x1", "1e2", "9" * 5000]
    )
    def test_parse_accepts_ascii_digits_only(self, text):
        with pytest.raises(InvalidInput, match="^cannot parse coefficients "):
            CoeffVector.parse(text)

    def test_float_range(self):
        # sum n a_n must be a finite double: every float path converts n a_n
        for a in ([10**400], [10**308], [0, 6 * 10**307], [1, 0, 5 * 10**307]):
            with pytest.raises(InvalidInput, match="^sum n a_n exceeds the float range$"):
                CoeffVector(a)
        assert build_poly(CoeffVector([10**307])).t_q > 0.0


class TestBuildPoly:
    def test_two_fold_anchor(self):
        p = build_poly(CoeffVector([1]))
        assert p.t_q == pytest.approx(0.5, rel=1e-15)
        assert p.q_max == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_monomial_closed_form(self, m):
        p = build_poly(monomial(m))
        assert p.t_q == pytest.approx(m ** (-1.0 / (m - 1)), rel=1e-12)

    def test_quadratic_cubic_anchor(self):
        # 3t^2 + 2t - 1 = (3t - 1)(t + 1), so t_q = 1/3 and Q(1/3) = 5/27
        p = build_poly(CoeffVector([1, 1]))
        assert p.t_q == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert p.q_max == pytest.approx(float(Fraction(5, 27)), rel=1e-14)

    def test_critical_point_residual_contract(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            a = rng.integers(0, 6, size=n - 1)
            if not a.any():
                a[0] = 1
            c = CoeffVector([int(v) for v in a])
            p = build_poly(c)
            scale = max(1, sum(n_ * a_ for n_, a_ in enumerate(c.p)))
            resid = abs(eval_q_prime_exact(c, Fraction(p.t_q)))
            assert resid <= Fraction(1, 10**14) * scale

    def test_invariants_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 11))
            a = rng.integers(0, 6, size=n - 1)
            if not a.any():
                a[-1] = 1
            p = build_poly(CoeffVector([int(v) for v in a]))
            assert 0.0 < p.t_q < 1.0
            assert 0.0 < p.q_max < p.t_q
            # Q increases left of t_q, decreases right of it
            ts = np.linspace(0.0, p.t_q, 17)
            qs = [eval_q(p.coeffs, t) for t in ts]
            assert all(b > a_ for a_, b in zip(qs, qs[1:]))
            ts = np.linspace(p.t_q, 2.0, 17)
            qs = [eval_q(p.coeffs, t) for t in ts]
            assert all(b < a_ for a_, b in zip(qs, qs[1:]))
            # Q' changes sign exactly once on the sampled ray
            signs = [q_prime(p.coeffs, t) > 0 for t in np.linspace(1e-9, 3.0, 301)]
            assert sum(s1 and not s2 for s1, s2 in zip(signs, signs[1:])) == 1

    def test_p_prime_strictly_increasing(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = [int(v) for v in rng.integers(0, 4, size=4)]
            if not any(a):
                a[0] = 1
            c = CoeffVector(a)
            s, t = sorted(rng.uniform(0.01, 3.0, size=2))
            if s == t:
                continue
            assert p_prime(c, s) < p_prime(c, t)

    def test_exact_roots_returned_exactly(self):
        # Q'(t) = 1 - 2 a_2 t - 4 a_4 t^3 vanishes on a double here
        for coeffs, root in (([1], 0.5), ([1, 0, 0], 0.5), ([2], 0.25), ([0, 0, 16], 0.25),
                             ([1024], 2.0**-11)):
            c = CoeffVector(coeffs)
            assert eval_q_prime_exact(c, Fraction(root)) == 0
            p = build_poly(c)
            assert p.t_q == root
            assert p.q_max == eval_q(c, root)


class TestCertificate:
    def test_set_size(self, certified):
        assert len(certified) == 1659

    def test_exact_bracket(self, certified):
        for c, t, other in certified:
            lo, hi = sorted((t, other))
            assert math.nextafter(lo, 1.0) == hi
            assert eval_q_prime_exact(c, Fraction(lo)) > 0 >= eval_q_prime_exact(c, Fraction(hi))

    def test_smaller_residual_end(self, certified):
        for c, t, _ in certified:
            here = abs(eval_q_prime_exact(c, Fraction(t)))
            assert here <= abs(eval_q_prime_exact(c, Fraction(math.nextafter(t, 0.0))))
            assert here <= abs(eval_q_prime_exact(c, Fraction(math.nextafter(t, 1.0))))

    def test_nearer_end(self, certified):
        # Q' is decreasing, so the root lies above the bracket's midpoint
        # exactly when Q' is positive there; a root on the midpoint goes to lo
        for c, t, other in certified:
            mid = (Fraction(t) + Fraction(other)) / 2
            assert (eval_q_prime_exact(c, mid) > 0) == (t > other)

    def test_against_old_algorithm(self, certified):
        for c, t, other in certified:
            old = old_critical_point(c)
            q_old = abs(eval_q_prime_exact(c, Fraction(old)))
            assert abs(eval_q_prime_exact(c, Fraction(t))) <= q_old
            if old not in (math.nextafter(t, 0.0), t, math.nextafter(t, 1.0)):
                # the old Newton stop, an absolute 1e-17, is coarser than an
                # ulp once t_q << 1: the old point then lies outside the
                # proved bracket, and the new one is the nearer end of it
                lo, hi = sorted((t, other))
                assert not lo <= old <= hi


class TestExactAt:
    """The one exact evaluator against the Fraction power sums."""

    @staticmethod
    def power_sum(c, t) -> Fraction:
        t = Fraction(t)
        return sum((ck * t**k for k, ck in enumerate(c)), Fraction(0))

    def test_random_signed(self):
        rng = np.random.default_rng(17)
        ts = [0.0, 1.0, -0.5, 5e-324, 2.0**-1022, 1e30, 0.1, -3.75]
        ts += [float(x) for x in rng.uniform(-2.0, 2.0, size=40)]
        for _ in range(60):
            c = [int(v) for v in rng.integers(-10**6, 10**6, size=int(rng.integers(1, 12)))]
            for t in ts:
                num, den = _exact_at(c, t)
                assert den & (den - 1) == 0
                assert Fraction(num, den) == self.power_sum(c, t)
                assert num / den == float(self.power_sum(c, t))

    def test_q_prime_on_certificate_set(self, certified):
        for c, t, _ in certified:
            qp = (1, *(-n * a for n, a in enumerate(c.coeffs, start=2)))
            for x in (t, 0.5 * t, 0.75):
                assert Fraction(*_exact_at(qp, x)) == eval_q_prime_exact(c, Fraction(x))


class TestHorner:
    """The one float evaluator against the exact one and numpy."""

    def test_real_within_rounding(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            c = [int(v) for v in rng.integers(-10**6, 10**6, size=int(rng.integers(1, 12)))]
            size = [abs(ck) for ck in c]
            for t in [0.0, 1.0, -0.5, 0.1, *rng.uniform(-2.0, 2.0, size=20)]:
                t = float(t)
                num, den = _exact_at(c, t)
                # each of the len(c) steps rounds once
                bound = 2 * len(c) * 2.0**-53 * _horner(size, abs(t))
                assert abs(_horner(c, t) - num / den) <= bound

    def test_complex_matches_polyval(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            c = [float(v) for v in rng.integers(-100, 100, size=int(rng.integers(1, 12)))]
            z = complex(*rng.uniform(-1.5, 1.5, size=2))
            got = _horner(c, z)
            assert isinstance(got, complex)
            want = np.polyval(c[::-1], z)
            assert abs(got - want) <= 1e-12 * _horner([abs(ck) for ck in c], abs(z))

    def test_eval_bit_identical_to_direct_horner(self, certified):
        # direct Horner on a_2..a_N, then the factor t^2 or t: the oracle
        # that reading the ascending layout changes no bit
        def old_p(a, t):
            acc = 0.0
            for an in reversed(a):
                acc = acc * t + an
            return acc * t * t

        def old_p_prime(a, t):
            acc = 0.0
            for n in range(len(a) + 1, 1, -1):
                acc = acc * t + n * a[n - 2]
            return acc * t

        for c, t, _ in certified:
            for x in (0.0, 0.1, t, 0.75, -0.3):
                assert eval_p(c, x).hex() == old_p(c.coeffs, x).hex()
                assert p_prime(c, x).hex() == old_p_prime(c.coeffs, x).hex()

    # ascending layouts with zero coefficients below, between and above the
    # others, negative and float ones, and a constant
    LAYOUTS = [(5,), (0, 0, 1), (0, 0, 1, 0), (0, 0, 0, 0, 3), (0, 1, -2, 0, -3),
               (0, 0, 2**60 + 1, 0, 7), (1.5, 0.0, -0.25, 0.0, 2.0, 0.0)]
    PARTS = [0.0, -0.0, 1e-300, -2.5e-160, 3.0e-3, 0.75, -1.0, 1.5, -2.0]

    @staticmethod
    def arguments(kind):
        rng = np.random.default_rng(29)
        parts = TestHorner.PARTS
        if kind == "float":
            return parts
        if kind == "complex":
            return [complex(x, y) for x in parts for y in parts]
        real = np.concatenate([parts, rng.uniform(-2.0, 2.0, 500)])
        if kind == "float-array":
            return [real]
        return [real + 1j * np.concatenate([parts[::-1], rng.uniform(-2.0, 2.0, 500)])]

    @pytest.mark.parametrize(
        "kind, with_out",
        [("float", False), ("complex", False), ("float-array", False),
         ("float-array", True), ("complex-array", False), ("complex-array", True)],
        ids=["float", "complex", "float-array", "float-array-out", "complex-array",
             "complex-array-out"],
    )
    def test_matches_horner_from_zero(self, kind, with_out):
        # equal under == to the Horner from 0; the bytes may differ only in
        # the sign of an exact-zero part, where no + 0 is added
        for c in self.LAYOUTS:
            for x in self.arguments(kind):
                before = np.copy(x)
                out = np.empty_like(x) if with_out else None
                got = _horner(c, x, out=out)
                want = horner_from_zero(c, x)
                if with_out:
                    assert got is out
                else:
                    assert type(got) is type(want)
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).dtype == np.asarray(want).dtype
                assert np.array_equal(got, want)
                g = np.asarray(got, dtype=complex).ravel()
                w = np.asarray(want, dtype=complex).ravel()
                for gp, wp in ((g.real, w.real), (g.imag, w.imag)):
                    assert gp[wp != 0].tobytes() == wp[wp != 0].tobytes()
                assert np.asarray(x).tobytes() == before.tobytes()

    @pytest.mark.parametrize("with_out", [False, True], ids=["new", "out"])
    def test_constant_keeps_the_shape(self, with_out):
        x = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        out = np.empty_like(x) if with_out else None
        got = _horner((5,), x, out=out)
        assert got.shape == (3, 4) and np.all(got == 5.0)
        scalar = _horner((5,), 0.25)
        assert scalar == 5.0 and type(scalar) is float

    def test_eval_p_at_negative_zero(self):
        # P(-0) = (-0)^low a_low: -0.0 when the lowest degree with a_n > 0 is
        # odd. The Horner from 0 adds + 0 at each zero coefficient: +0.0
        for a, sign in (([1], "0x0.0p+0"), ([0, 1], "-0x0.0p+0"), ([2, 0, 1], "0x0.0p+0"),
                        ([0, 3, 0, 1], "-0x0.0p+0"), ([0, 0, 4], "0x0.0p+0")):
            c = CoeffVector(a)
            assert eval_p(c, -0.0).hex() == sign
            assert horner_from_zero(c.p, -0.0).hex() == "0x0.0p+0"


class TestEval:
    def test_q_trivial_and_exact(self):
        c = CoeffVector([1])
        assert eval_q(c, 0.0) == 0.0
        assert eval_q(c, 0.5) == pytest.approx(0.25, abs=1e-16)
        p2 = build_poly(CoeffVector([1, 1]))
        assert eval_q(p2.coeffs, 1.0 / 3.0) == pytest.approx(float(Fraction(5, 27)), rel=1e-14)
        assert eval_q_exact(p2.coeffs, Fraction(1, 3)) == Fraction(5, 27)

    def test_derivative_values(self):
        c = CoeffVector([1])
        assert p_prime(c, 0.5) == pytest.approx(1.0, abs=1e-15)
        assert _horner(derivative(c.q), 0.5) == pytest.approx(0.0, abs=1e-15)
        c2 = CoeffVector([1, 1])
        assert p_prime(c2, 0.0) == 0.0
        assert _horner(derivative(c2.q), 0.0) == 1.0
        c5 = monomial(5, 2)
        assert p_prime(c5, 0.1) == pytest.approx(1e-3, rel=1e-14)

    def test_qprime_pprime_identity(self):
        rng = np.random.default_rng(3)
        c = CoeffVector([1, 0, 2, 1])
        for _ in range(20):
            t = float(rng.uniform(0.0, 1.5))
            # Horner over the layout's Q' against 1 - Horner over its P'
            assert abs(_horner(derivative(c.q), t) + p_prime(c, t) - 1.0) <= 1e-14 * max(
                1.0, abs(p_prime(c, t))
            )
            tf = Fraction(t)
            assert eval_q_prime_exact(c, tf) + eval_p_prime_exact(c, tf) == 1

    def test_float_matches_exact_twin(self):
        rng = np.random.default_rng(9)
        c = CoeffVector([2, 1, 0, 3])
        for _ in range(30):
            t = Fraction(int(rng.integers(0, 2000)), 1000)
            ref_q = float(eval_q_exact(c, t))
            ref_p = float(eval_p_exact(c, t))
            scale = max(1.0, abs(ref_q), abs(ref_p))
            assert abs(eval_q(c, float(t)) - ref_q) <= 1e-12 * scale
            assert abs(eval_p(c, float(t)) - ref_p) <= 1e-12 * scale
