from fractions import Fraction

import numpy as np
import pytest

from convlab import CoeffVector, InvalidInput, accel, build_poly, disk, disk_scan, qprime_roots
from convlab.disk import SCAN_RADIUS_FACTOR
from convlab.qpoly import _horner, derivative

from conftest import eval_p_exact, eval_p_prime_exact, random_coeffs


def _pprime_desc(coeffs: CoeffVector) -> np.ndarray:
    """P' from degree N2 - 1 down to 0, for np.polyval."""
    return np.array([float(n * a) for n, a in enumerate(coeffs.p)][coeffs.n2 : 1 : -1] + [0.0])


def _p_over_z_desc(coeffs: CoeffVector) -> np.ndarray:
    """P(z)/z is itself a polynomial (P vanishes at 0 to second order)."""
    return np.array([float(a) for a in coeffs.p][coeffs.n2 : 1 : -1] + [0.0])


def sup_abs_on_circle(desc: np.ndarray, radius: float, angular_steps: int) -> float:
    th = 2.0 * np.pi * np.arange(angular_steps) / angular_steps
    z = radius * np.exp(1j * th)
    return float(np.abs(np.polyval(desc, z)).max())


def polar_scan_sup(desc: np.ndarray, radius: float, radial_steps=64, angular_steps=128) -> float:
    """The sampled estimate disk_scan once made: max |poly| on a polar grid."""
    radii = np.linspace(0.0, radius, radial_steps)
    th = 2.0 * np.pi * np.arange(angular_steps) / angular_steps
    z = (radii[:, None] * np.exp(1j * th)[None, :]).ravel()
    return float(np.abs(np.polyval(desc, z)).max())


def sample_disk(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    """The earlier disk._sample_disk, kept as the oracle of the scan's pairs:
    n points uniform on |z| <= radius, drawn afresh from rng."""
    r = radius * np.sqrt(rng.random(n))
    th = 2.0 * np.pi * rng.random(n)
    return r * np.exp(1j * th)


def scanned_pairs(monkeypatch, p, pair_samples: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (z1, z2) that each disk_scan(p, pair_samples) hands to accel, for
    two calls in a row."""
    seen = []
    real = accel.count_lipschitz_violations

    def spy(q, z1, z2, lip, slack):
        seen.append((z1, z2))
        return real(q, z1, z2, lip, slack)

    monkeypatch.setattr(accel, "count_lipschitz_violations", spy)
    for _ in range(2):
        disk_scan(p, pair_samples=pair_samples)
    return seen


class TestRoots:
    def test_two_fold(self):
        roots = qprime_roots(CoeffVector([1]))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.5, abs=1e-14)

    def test_three_fold_pair(self):
        roots = qprime_roots(CoeffVector([0, 1]))
        r = 3.0**-0.5
        assert len(roots) == 2
        assert sorted(z.real for z in roots) == pytest.approx([-r, r], abs=1e-12)
        assert all(abs(z.imag) <= 1e-12 for z in roots)

    def test_mixed_factorisation(self):
        # 3t^2 + 2t - 1 = (3t - 1)(t + 1)
        roots = qprime_roots(CoeffVector([1, 1]))
        assert roots[0] == pytest.approx(1.0 / 3.0, abs=1e-13)
        assert roots[1] == pytest.approx(-1.0, abs=1e-13)

    def test_residual_contract(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            c = random_coeffs(rng)
            qp = derivative(c.q)
            scale = float(sum(n * a for n, a in enumerate(c.p)))
            for z in qprime_roots(c):
                assert abs(_horner(qp, z)) <= 1e-10 * scale

    def test_min_modulus_root_is_positive_critical_point(self):
        # smallest-modulus singularity sits on the positive axis; for
        # lacunary vectors the modulus is attained by a symmetric orbit,
        # so assert membership rather than uniqueness
        rng = np.random.default_rng(62)
        for _ in range(30):
            c = random_coeffs(rng)
            p = build_poly(c)
            roots = qprime_roots(c)
            assert min(abs(z) for z in roots) == pytest.approx(p.t_q, abs=1e-10)
            assert min(abs(z - p.t_q) for z in roots) <= 1e-10

    def test_polish_survives_float_overflow(self):
        # Q'' = -72e307 t^7 exceeds the float range, so the polish stops
        # instead of raising; Q' = 1 - 9e307 t^8 still has 8 roots
        c = CoeffVector([0] * 7 + [10**307])
        roots = qprime_roots(c)
        assert len(roots) == 8
        t_q = build_poly(c).t_q
        assert all(abs(z) == pytest.approx(t_q, rel=1e-12) for z in roots)

    def test_lacunary_orbit(self):
        # P' = 8t^3: the root set of Q' is a full fourth-root orbit
        c = CoeffVector([0, 0, 2])
        roots = qprime_roots(c)
        assert len(roots) == 3
        t_q = build_poly(c).t_q
        assert all(abs(z) == pytest.approx(t_q, abs=1e-12) for z in roots)
        assert min(abs(z - t_q) for z in roots) <= 1e-12


class TestScan:
    def test_two_fold_bounds(self):
        p = build_poly(CoeffVector([1]))
        rep = disk_scan(p)
        r = SCAN_RADIUS_FACTOR * 0.5
        assert rep.sup_p_prime == pytest.approx(2.0 * r, rel=1e-12)
        assert rep.sup_p_over_z == pytest.approx(r, rel=1e-12)
        assert rep.sup_p_prime < 1.0
        assert rep.sup_p_over_z < 1.0
        assert rep.injectivity_violations == 0
        assert rep.min_modulus_root == pytest.approx(0.5, abs=1e-13)

    def test_mixed_sup_on_axis(self):
        # both sups are attained on the positive real axis (coefficients
        # are non-negative)
        p = build_poly(CoeffVector([1, 1]))
        rep = disk_scan(p)
        r = SCAN_RADIUS_FACTOR * p.t_q
        assert rep.sup_p_prime == pytest.approx(2.0 * r + 3.0 * r * r, rel=1e-12)
        assert rep.sup_p_over_z == pytest.approx(r + r * r, rel=1e-12)

    def test_random_certification(self):
        rng = np.random.default_rng(63)
        for _ in range(15):
            p = build_poly(random_coeffs(rng))
            rep = disk_scan(p, pair_samples=2_000)
            assert rep.sup_p_prime < 1.0
            assert rep.sup_p_over_z < 1.0
            assert rep.injectivity_violations == 0

    @pytest.mark.parametrize("kwargs,name", [({"pair_samples": -5}, "pair_samples")])
    def test_negative_arguments(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
            disk_scan(build_poly(CoeffVector([1])), **kwargs)

    def test_pair_samples_must_be_an_integer(self):
        # refused before the pair cache sees it: 100.0 hashes as 100
        p = build_poly(CoeffVector([1]))
        disk_scan(p, pair_samples=100)
        before = disk._unit_pairs.cache_info()
        with pytest.raises(InvalidInput, match=r"^pair_samples must be an integer, got 100\.0$"):
            disk_scan(p, pair_samples=100.0)
        assert disk._unit_pairs.cache_info() == before
        assert disk_scan(p, pair_samples=np.int64(100)) == disk_scan(p, pair_samples=100)

    def test_no_pairs(self):
        assert disk_scan(build_poly(CoeffVector([1])), pair_samples=0).injectivity_violations == 0

    def test_determinism(self):
        p = build_poly(CoeffVector([2, 0, 1]))
        assert disk_scan(p) == disk_scan(p)

    def test_closed_form_matches_polar_scan(self):
        # the closed-form sups agree with the 64x128 polar-grid maximum, and
        # the exact values behind them are below 1 and below R
        rng = np.random.default_rng(64)
        for _ in range(200):
            c = random_coeffs(rng, max_degree=6, max_a=3)
            p = build_poly(c)
            rep = disk_scan(p, pair_samples=10)
            radius = SCAN_RADIUS_FACTOR * p.t_q
            scan_pp = polar_scan_sup(_pprime_desc(c), radius)
            scan_poz = polar_scan_sup(_p_over_z_desc(c), radius)
            assert abs(rep.sup_p_prime - scan_pp) <= 1e-15 * scan_pp
            assert abs(rep.sup_p_over_z - scan_poz) <= 1e-15 * scan_poz
            r = Fraction(radius)
            assert eval_p_prime_exact(c, r) < 1
            assert eval_p_exact(c, r) < r
            assert rep.sup_p_prime == float(eval_p_prime_exact(c, r))
            assert rep.sup_p_over_z == float(eval_p_exact(c, r) / r)

    def test_report_json(self):
        rep = disk_scan(build_poly(CoeffVector([0, 1])))
        obj = rep.to_json()
        assert obj["injectivity_violations"] == 0
        assert len(obj["qprime_roots"]) == 2
        assert all(len(z) == 2 for z in obj["qprime_roots"])


class TestPairs:
    @pytest.mark.parametrize("n", [0, 10, 10_000])
    @pytest.mark.parametrize("a", [[1], [1, 1]], ids=["a=1", "a=1,1"])
    def test_pairs_are_the_seed_zero_draw(self, monkeypatch, a, n):
        # byte for byte, on the call that draws them and on the next, which
        # reads them from the cache
        p = build_poly(CoeffVector(a))
        rng = np.random.default_rng(0)
        radius = SCAN_RADIUS_FACTOR * p.t_q
        want = sample_disk(rng, n, radius), sample_disk(rng, n, radius)
        for z1, z2 in scanned_pairs(monkeypatch, p, n):
            for got, w in zip((z1, z2), want):
                assert got.dtype == np.complex128 and got.shape == (n,)
                assert got.tobytes() == w.tobytes()

    def test_cache_holds_the_last_count_read_only(self):
        p = build_poly(CoeffVector([1]))
        disk._unit_pairs.cache_clear()
        disk_scan(p, pair_samples=10)
        parts = disk._unit_pairs(10)
        assert len(parts) == 4 and not any(part.flags.writeable for part in parts)
        with pytest.raises(ValueError, match="read-only"):
            parts[0][0] = 0.0
        disk_scan(p, pair_samples=20)
        info = disk._unit_pairs.cache_info()
        assert (info.maxsize, info.currsize, info.misses) == (1, 1, 2)
        assert [part.shape for part in disk._unit_pairs(20)] == [(20,)] * 4
        assert disk._unit_pairs(10) is not parts  # replaced, so drawn again
        assert disk._unit_pairs.cache_info().misses == 3


class TestAccel:
    def test_polyval_matches_numpy(self):
        # qpoly's Horner on the ascending float coefficients of Q gives
        # np.polyval's bits at every sampled disk point
        rng = np.random.default_rng(66)
        for _ in range(6):
            c = random_coeffs(rng)
            radius = SCAN_RADIUS_FACTOR * build_poly(c).t_q
            z = radius * np.sqrt(rng.random(10_000)) * np.exp(2j * np.pi * rng.random(10_000))
            got = accel.polyval_many([float(v) for v in c.q], z)
            want = np.polyval(np.array(c.q[::-1], dtype=float), z)
            assert got.dtype == np.complex128 and got.tobytes() == want.tobytes()

    def test_counts_pairs_below_the_bound(self):
        # Q(z) = z: |z1 - z2| against lip |z1 - z2| - slack
        z1, z2 = np.array([0.0, 0.0, 0.0]), np.array([0.5, 0.25, 0.0])
        assert accel.count_lipschitz_violations([0.0, 1.0], z1, z2, 1.0, 0.0) == 0
        assert accel.count_lipschitz_violations([0.0, 1.0], z1, z2, 1.5, 0.0) == 2
        assert accel.count_lipschitz_violations([0.0, 1.0], z1, z2, 1.5, 0.2) == 1


class TestSharpness:
    @pytest.mark.parametrize("m,a", [(2, 1), (3, 1), (4, 2), (5, 1)])
    def test_derivative_exceeds_one_just_outside(self, m, a):
        c = CoeffVector([0] * (m - 2) + [a])
        t_q = build_poly(c).t_q
        sup_in = sup_abs_on_circle(_pprime_desc(c), SCAN_RADIUS_FACTOR * t_q, 256)
        sup_out = sup_abs_on_circle(_pprime_desc(c), 1.05 * t_q, 256)
        assert sup_in < 1.0
        assert sup_out > 1.0
        assert sup_out == pytest.approx(m * a * (1.05 * t_q) ** (m - 1), rel=1e-12)

    def test_circle_radius_zero(self):
        c = CoeffVector([1, 1])
        assert sup_abs_on_circle(_pprime_desc(c), 0.0, 16) == 0.0
