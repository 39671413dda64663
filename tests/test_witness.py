import math

import numpy as np
import pytest

from convlab import (
    CoeffVector,
    Field,
    Grid,
    InvalidInput,
    PoissonParams,
    build_poly,
    check_two_fold,
    convolve,
    integral,
    l1_norm,
    min_value,
    poisson_field,
)

from conftest import uniqueness_roundtrip

G1 = Grid(dim=1, extent=8.0, points_per_axis=256)
G2 = Grid(dim=2, extent=8.0, points_per_axis=64)


def plain_kernel_1d(a, t, x):
    # transform of a e^{-2 pi t |xi|} on the line
    return a * t / (np.pi * (t * t + x * x))


def closed_form_1d(a, t, grid):
    """The periodized 1-d kernel (a/L) sinh(u) / (cosh(u) - cos(2 pi x/L)),
    u = 2 pi t/L, written in expm1 so that it stays finite at any t: a
    route to the same field that shares no step with the synthesis."""
    u = 2.0 * np.pi * t / grid.extent
    x = grid.axis_coords()
    return (a / grid.extent) * -np.expm1(-2.0 * u) / (
        np.expm1(-u) ** 2 + 4.0 * np.exp(-u) * np.sin(np.pi * x / grid.extent) ** 2
    )


class TestParams:
    def test_amplitude_range(self):
        with pytest.raises(ValueError):
            PoissonParams(a=0.0, t=1.0, grid=G1)
        with pytest.raises(ValueError):
            PoissonParams(a=0.6, t=1.0, grid=G1)
        PoissonParams(a=0.5, t=1.0, grid=G1)

    def test_scale_positive(self):
        with pytest.raises(ValueError):
            PoissonParams(a=0.3, t=0.0, grid=G1)
        for t in (np.inf, np.nan):
            with pytest.raises(ValueError, match="scale t must be positive and finite"):
                PoissonParams(a=0.3, t=t, grid=G1)

    def test_decay_guard(self):
        message = r"^t \* M / L = 6\.4 < 8; kernel too narrow for this grid$"
        with pytest.raises(InvalidInput, match=message):
            poisson_field(PoissonParams(a=0.3, t=0.2, grid=G1))

    @pytest.mark.parametrize(
        "dim, extent, points, t",
        # t L >= 4 but t M / L = 1 here, too coarse: unguarded they give a
        # negative f - f*f (2-d; min -1.22e-3), a negative f (2-d, L = 64)
        # and, in 1-d, a negative f - f*f (min -6.29e-5) for a = 0.5
        [(2, 16.0, 64, 0.25), (2, 64.0, 64, 0.1), (1, 8.0, 16, 0.5)],
    )
    def test_decay_guard_reads_resolution(self, dim, extent, points, t):
        grid = Grid(dim=dim, extent=extent, points_per_axis=points)
        message = r"^t \* M / L = [0-9.]+ < 8; kernel too narrow for this grid$"
        with pytest.raises(InvalidInput, match=message):
            poisson_field(PoissonParams(a=0.5, t=t, grid=grid))

    @pytest.mark.parametrize(
        "dim, extent, points", [(1, 16.0, 64), (1, 64.0, 4096), (2, 16.0, 64), (3, 8.0, 32)]
    )
    def test_witness_at_the_guard(self, dim, extent, points):
        # t M / L = 8 exactly: a witness with mass a, as in the continuum
        grid = Grid(dim=dim, extent=extent, points_per_axis=points)
        f = poisson_field(PoissonParams(a=0.5, t=8.0 * extent / points, grid=grid))
        slack, mass = check_two_fold(f)
        assert slack >= 0.0
        assert min_value(f) > 0.0
        assert mass == pytest.approx(0.5, abs=1e-15)


class TestKernel:
    @pytest.mark.parametrize("t", [1e4, 1e300, 1.7e308])
    def test_one_dim_huge_scale(self, t):
        # u = 2 pi t / L is far past exp's range: each value is a/L to
        # roundoff, and nothing overflows on the way (e^-u underflows to 0)
        grid = Grid(dim=1, extent=64.0, points_per_axis=1024)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            f = poisson_field(PoissonParams(a=0.5, t=t, grid=grid))
        flat = 0.5 / 64.0
        assert np.abs(f.values - flat).max() <= 2.0**-52 * flat
        slack, mass = check_two_fold(f)
        assert mass == pytest.approx(0.5, abs=1e-15)
        assert slack == pytest.approx(flat * 0.5, rel=1e-12)

    @pytest.mark.parametrize("t", [2.9e307, 1.7e308])
    @pytest.mark.parametrize("dim, points", [(2, 64), (3, 16)])
    def test_huge_scale(self, dim, points, t):
        # -2 pi t is -inf: every value is a/L^d, and the zero frequency,
        # where (-inf) 0 would be nan, is a itself
        grid = Grid(dim=dim, extent=16.0, points_per_axis=points)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            f = poisson_field(PoissonParams(a=0.5, t=t, grid=grid))
        flat = 0.5 / 16.0**dim
        assert np.abs(f.values - flat).max() <= 2.0**-52 * flat
        slack, mass = check_two_fold(f)
        assert mass == pytest.approx(0.5, abs=1e-15)
        assert slack == pytest.approx(flat * 0.5, rel=1e-12)

    def test_one_dim_tiny_box(self):
        # |k| reaches 8e300 at L = 1e-300: its square is inf, quietly, and
        # e^{-inf} = 0, so every value is a/L
        grid = Grid(dim=1, extent=1e-300, points_per_axis=16)
        f = poisson_field(PoissonParams(a=0.5, t=1.0, grid=grid))
        flat = 0.5 / 1e-300
        assert np.abs(f.values - flat).max() <= 2.0**-52 * flat
        assert check_two_fold(f) == pytest.approx((flat * 0.5, 0.5), rel=1e-12)

    @pytest.mark.parametrize("dim, extent", [(2, 1e-155), (1, 1e-320)])
    def test_values_beyond_float_range(self, dim, extent):
        # a / L^d alone overflows; at L = 1e-320 the frequency spacing 1/L is inf too
        grid = Grid(dim=dim, extent=extent, points_per_axis=16)
        message = (
            rf"^extent {extent} in dim {dim}: the witness values are outside the float range$"
        )
        with pytest.raises(InvalidInput, match=message):
            poisson_field(PoissonParams(a=0.5, t=1.0, grid=grid))

    def test_mass_is_amplitude(self):
        f = poisson_field(PoissonParams(a=0.5, t=1.0, grid=G1))
        assert abs(integral(f) - 0.5) <= 1e-12
        assert abs(integral(f) - 0.5) <= 1e-4

    def test_peak_near_continuum(self):
        # wrap-around lifts the peak by roughly 4 a t / (pi L^2): about 5%
        # relative on the L = 8 box, under 1e-3 once L = 64
        a, t = 0.5, 1.0
        f = poisson_field(PoissonParams(a=a, t=t, grid=G1))
        k0 = G1.points_per_axis // 2
        assert np.argmax(f.values) == k0
        assert f.values[k0] == pytest.approx(a / (np.pi * t), rel=0.06)
        wide = Grid(dim=1, extent=64.0, points_per_axis=1024)
        g = poisson_field(PoissonParams(a=a, t=t, grid=wide))
        k0 = wide.points_per_axis // 2
        assert g.values[k0] == pytest.approx(a / (np.pi * t), rel=1e-3)

    def test_positive_everywhere(self):
        f = poisson_field(PoissonParams(a=0.25, t=0.5, grid=G1))
        assert min_value(f) > 0.0

    def test_closed_form_matches_synthesis(self):
        # t M / L = 32: the synthesis drops a symbol tail of about e^{-32 pi},
        # so it agrees with the closed form to roundoff
        a, t = 0.5, 1.0
        f = poisson_field(PoissonParams(a=a, t=t, grid=G1))
        want = closed_form_1d(a, t, G1)
        assert np.abs(f.values - want).max() <= 1e-13 * want.max()

    def test_closed_form_matches_synthesis_at_the_guard(self):
        # t M / L = 8: the dropped tail is e^{-8 pi} ~ 1.2e-11 of max f
        a, t = 0.5, 8.0 * G1.extent / G1.points_per_axis
        f = poisson_field(PoissonParams(a=a, t=t, grid=G1))
        want = closed_form_1d(a, t, G1)
        assert np.abs(f.values - want).max() <= 2e-11 * want.max()

    def test_closed_form_matches_lattice_sum(self):
        # independent route: periodize the plain kernel by brute force
        a, t, L = 0.5, 1.0, G1.extent
        x = G1.axis_coords()
        k = np.arange(-20000, 20001)
        summed = plain_kernel_1d(a, t, x[:, None] + L * k[None, :]).sum(axis=1)
        f = poisson_field(PoissonParams(a=a, t=t, grid=G1))
        for values in (closed_form_1d(a, t, G1), f.values):
            assert np.abs(values - summed).max() <= 1e-5 * values.max()

    def test_linear_in_amplitude(self):
        t = 1.0
        base = poisson_field(PoissonParams(a=0.5, t=t, grid=G1))
        for a in (0.1, 0.25, 0.3):
            f = poisson_field(PoissonParams(a=a, t=t, grid=G1))
            scaled = (a / 0.5) * base
            assert np.abs(f.values - scaled.values).max() <= 1e-15 * base.values.max()


class TestTwoFold:
    @pytest.mark.parametrize("a", [0.1, 0.25, 0.5])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_slack_family(self, a, t):
        f = poisson_field(PoissonParams(a=a, t=t, grid=G1))
        slack, mass = check_two_fold(f)
        assert slack >= -1e-8 * l1_norm(f)
        assert mass == pytest.approx(a, abs=1e-12)

    def test_scaled_amplitude_fails(self):
        # 1.2 x the critical witness pushes the amplitude to 0.6 where the
        # inequality genuinely breaks
        f = poisson_field(PoissonParams(a=0.5, t=1.0, grid=G1))
        g = 1.2 * f
        slack, mass = check_two_fold(g)
        assert slack < 0.0
        assert mass == pytest.approx(0.6, rel=1e-12)

    def test_roundtrip_through_constructor(self):
        f = poisson_field(PoissonParams(a=0.45, t=1.0, grid=G1))
        c = CoeffVector([1])
        assert uniqueness_roundtrip(f, c, build_poly(c)) <= 1e-5


class TestTwoFoldOracle:
    @pytest.mark.parametrize("grid", [G1, G2, Grid(dim=3, extent=4.0, points_per_axis=32)])
    def test_matches_direct_convolution(self, grid):
        # check_two_fold once took min(f - f*f) itself; it must agree to the bit
        for a in (0.1, 0.3, 0.5):
            for t in (1.0, 2.0):
                f = poisson_field(PoissonParams(a=a, t=t, grid=grid))
                for g in (f, 1.2 * f):
                    want = (min_value(g - convolve(g, g)), integral(g))
                    assert [v.hex() for v in check_two_fold(g)] == [v.hex() for v in want]


class TestTwoDim:
    def test_mass_and_slack(self):
        f = poisson_field(PoissonParams(a=0.5, t=1.0, grid=G2))
        slack, mass = check_two_fold(f)
        assert abs(mass - 0.5) <= 1e-12
        assert slack >= -1e-8 * l1_norm(f)
        assert min_value(f) > 0.0
        k0 = G2.points_per_axis // 2
        assert np.unravel_index(np.argmax(f.values), f.values.shape) == (k0, k0)

    def test_lattice_sum_oracle(self):
        # plain kernel a t / (2 pi (t^2 + |x|^2)^{3/2}), periodized over a
        # K-truncated lattice; checks the synthesis route and its constant
        a, t, L = 0.5, 1.0, G2.extent
        f = poisson_field(PoissonParams(a=a, t=t, grid=G2))
        x = G2.axis_coords()
        K = 600
        k = L * np.arange(-K, K + 1)
        # truncating at |k| <= K drops about a t / (L^3 K) ~ 1.6e-6
        tail = a * t / (L**3 * K)
        nodes = [(0, 0), (32, 32), (32, 48), (5, 17), (0, 32), (60, 3), (20, 44)]
        for i, j in nodes:
            dx = (x[i] + k)[:, None]
            dy = (x[j] + k)[None, :]
            r2 = t * t + dx * dx + dy * dy
            summed = (a * t / (2.0 * np.pi)) * (r2**-1.5).sum()
            assert abs(f.values[i, j] - summed) <= 3.0 * tail
        k0 = G2.points_per_axis // 2
        assert f.values[k0, k0] == pytest.approx(a / (2.0 * np.pi * t * t), rel=0.05)
