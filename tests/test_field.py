import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.fft

from convlab import (
    BoseProblem,
    CoeffVector,
    Field,
    Grid,
    InvalidInput,
    apply_p,
    bose_solve,
    build_poly,
    construct,
    conv_power,
    convolve,
    delta_field,
    field_from_bytes,
    field_to_bytes,
    gaussian_field,
    integral,
    l1_norm,
    min_value,
    read_cvlf,
    uniform_field,
    write_csv,
    write_cvlf,
)
import convlab.field as field_module
from convlab.bose import resolvent_apply
from convlab.field import _exact_sum, _field_from_symbol, _k_squared, _mass_symbol
from convlab.qpoly import _horner
from convlab.witness import MIN_RESOLUTION, PoissonParams, poisson_field

from conftest import fill_first_horner, full_k_squared, linf_diff, random_smooth_field

G1 = Grid(dim=1, extent=8.0, points_per_axis=256)
G2 = Grid(dim=2, extent=8.0, points_per_axis=64)


class TestGrid:
    def test_node_convention(self):
        x = G1.axis_coords()
        assert x[0] == -4.0
        assert x[G1.points_per_axis // 2] == 0.0
        assert x[1] - x[0] == pytest.approx(G1.h, rel=1e-15)
        assert G1.h == 8.0 / 256
        assert G2.cell_volume == pytest.approx(0.125**2, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(dim=4, extent=8.0, points_per_axis=64)
        with pytest.raises(ValueError):
            Grid(dim=1, extent=0.0, points_per_axis=64)
        with pytest.raises(ValueError):
            Grid(dim=1, extent=8.0, points_per_axis=100)
        with pytest.raises(ValueError):
            Grid(dim=1, extent=8.0, points_per_axis=8)
        for extent in (np.inf, np.nan):
            with pytest.raises(ValueError, match="extent must be positive and finite"):
                Grid(dim=1, extent=extent, points_per_axis=64)

    @pytest.mark.parametrize("name,value", [("dim", 1.0), ("points_per_axis", 64.0)])
    def test_integer_parameters(self, name, value):
        params = {"dim": 1, "extent": 8.0, "points_per_axis": 64, name: value}
        with pytest.raises(InvalidInput, match=f"^{name} must be an integer, got {value}$"):
            Grid(**params)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_transform_beyond_address_space(self, dim):
        # the smallest M whose 16 M^d bytes, a bound on the complex symbol,
        # no index can address is refused; M / 2 is accepted, since a Grid
        # allocates nothing
        m = 16
        while 16 * m**dim <= np.iinfo(np.intp).max:
            m *= 2
        with pytest.raises(InvalidInput, match=f"points_per_axis {m} is too large for dim {dim}"):
            Grid(dim=dim, extent=8.0, points_per_axis=m)
        assert Grid(dim=dim, extent=8.0, points_per_axis=m // 2).shape == (m // 2,) * dim

    @pytest.mark.parametrize(
        "dim,extent,points,accepted",
        [(3, 1e-120, 16, 1e-100), (2, 1e200, 1024, 1e150), (1, 1e-322, 1024, 1e-300)],
        ids=["h^3-underflows", "L^2-overflows", "h-underflows"],
    )
    def test_volume_beyond_float_range(self, dim, extent, points, accepted):
        with pytest.raises(InvalidInput, match=re.escape(f"extent {extent} in dim {dim}: the box")):
            Grid(dim=dim, extent=extent, points_per_axis=points)
        assert Grid(dim=dim, extent=accepted, points_per_axis=points).cell_volume > 0.0

    def test_frequency_layout(self):
        (xi,) = G1.frequencies()
        assert xi.ravel()[0] == 0.0
        assert xi.ravel()[1] == pytest.approx(1.0 / G1.extent, rel=1e-15)

    def test_frequencies_on_a_box_below_the_reciprocal_range(self):
        # 1/L is inf at L = 1e-320: frequency zero stays 0, the others are +-inf
        (xi,) = Grid(dim=1, extent=1e-320, points_per_axis=16).frequencies()
        assert xi[0] == 0.0
        assert np.array_equal(np.abs(xi[1:]), np.full(15, np.inf))
        assert np.array_equal(_k_squared(Grid(1, 1e-320, 16))[1:], np.full(8, np.inf))

    @pytest.mark.parametrize("grid", [G1, G2, Grid(dim=3, extent=6.0, points_per_axis=16)])
    def test_k_squared(self, grid):
        # the half spectrum: fftfreq on the leading axes, rfftfreq on the last
        m = grid.points_per_axis
        full = np.fft.fftfreq(m, d=grid.h)
        axes = [full] * (grid.dim - 1) + [np.fft.rfftfreq(m, d=grid.h)]
        norm = np.zeros([len(k) for k in axes])
        for a, k in enumerate(axes):
            norm = norm + k.reshape((1,) * a + (-1,) + (1,) * (grid.dim - 1 - a)) ** 2
        got = _k_squared(grid)
        assert got.shape == (m,) * (grid.dim - 1) + (m // 2 + 1,)
        assert np.array_equal(got, norm)
        assert not got.flags.writeable
        assert _k_squared(Grid(grid.dim, grid.extent, grid.points_per_axis)) is got


class TestField:
    def test_shape_and_finiteness(self):
        with pytest.raises(ValueError):
            Field(G1, np.zeros(128))
        bad = np.zeros(256)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            Field(G1, bad)

    def test_immutable_and_detached(self):
        src = np.ones(256)
        f = Field(G1, src)
        with pytest.raises(ValueError):
            f.values[0] = 2.0
        src[0] = 5.0
        assert f.values[0] == 1.0

    def test_results_are_not_copied(self):
        # the sum of two fields allocates its values once
        g = Grid(dim=1, extent=8.0, points_per_axis=2**16)
        f = uniform_field(g, mass=1.0)
        h = uniform_field(g, mass=2.0)
        tracemalloc.start()
        try:
            total = f + h
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * f.values.nbytes
        assert not total.values.flags.writeable
        assert integral(total) == pytest.approx(3.0, rel=1e-14)

    def test_arithmetic(self):
        f = uniform_field(G1, mass=1.0)
        g = uniform_field(G1, mass=2.0)
        assert integral(f + g) == pytest.approx(3.0, rel=1e-14)
        assert integral(g - f) == pytest.approx(1.0, rel=1e-14)
        assert integral(2.5 * f) == pytest.approx(2.5, rel=1e-14)
        assert integral(f * 2.5) == pytest.approx(2.5, rel=1e-14)
        assert min_value(-f) == pytest.approx(-1.0 / 8.0, rel=1e-15)

    def test_grid_mismatch(self):
        f = uniform_field(G1)
        g = uniform_field(Grid(dim=1, extent=8.0, points_per_axis=128))
        with pytest.raises(InvalidInput, match="^grids differ: Grid"):
            f + g
        with pytest.raises(InvalidInput, match="^grids differ: Grid"):
            convolve(f, g)
        with pytest.raises(InvalidInput, match="^grids differ: Grid"):
            linf_diff(f, g)


class TestConvolve:
    def test_delta_identity(self):
        rng = np.random.default_rng(71)
        f = random_smooth_field(G1, rng)
        d = delta_field(G1, mass=1.0)
        got = convolve(d, f)
        assert linf_diff(got, f) <= 1e-13 * max(1.0, np.abs(f.values).max())

    def test_delta_square_scales(self):
        d = delta_field(G1, mass=0.5)
        sq = convolve(d, d)
        k = np.argmax(sq.values)
        assert k == G1.points_per_axis // 2
        assert integral(sq) == pytest.approx(0.25, rel=1e-12)

    def test_mass_multiplicative(self):
        rng = np.random.default_rng(72)
        for _ in range(10):
            f = random_smooth_field(G1, rng)
            g = random_smooth_field(G1, rng)
            prod = integral(f) * integral(g)
            assert integral(convolve(f, g)) == pytest.approx(prod, abs=1e-12, rel=1e-12)

    def test_gaussian_semigroup(self):
        f = gaussian_field(G1, sigma=0.3, mass=0.7)
        g = gaussian_field(G1, sigma=0.4, mass=0.5)
        want = gaussian_field(G1, sigma=0.5, mass=0.35)
        got = convolve(f, g)
        assert linf_diff(got, want) <= 1e-8 * np.abs(want.values).max()

    def test_commutative_associative(self):
        rng = np.random.default_rng(73)
        f = random_smooth_field(G1, rng)
        g = random_smooth_field(G1, rng)
        k = random_smooth_field(G1, rng)
        peak = max(np.abs(x.values).max() for x in (f, g, k)) ** 3 + 1.0
        assert linf_diff(convolve(f, g), convolve(g, f)) <= 1e-12 * peak
        lhs = convolve(convolve(f, g), k)
        rhs = convolve(f, convolve(g, k))
        assert linf_diff(lhs, rhs) <= 1e-12 * peak

    def test_nonneg_closure(self):
        rng = np.random.default_rng(74)
        for _ in range(5):
            f = random_smooth_field(G1, rng, nonneg=True)
            g = random_smooth_field(G1, rng, nonneg=True)
            c = convolve(f, g)
            assert min_value(c) >= -1e-12 * (l1_norm(f) * l1_norm(g) + 1.0)

    def test_young_equality_nonneg(self):
        rng = np.random.default_rng(75)
        f = random_smooth_field(G1, rng, nonneg=True)
        g = random_smooth_field(G1, rng, nonneg=True)
        prod = l1_norm(f) * l1_norm(g)
        assert l1_norm(convolve(f, g)) == pytest.approx(prod, rel=1e-12)

    def test_two_dim(self):
        f = gaussian_field(G2, sigma=0.3, mass=1.2)
        g = gaussian_field(G2, sigma=0.4, mass=0.5)
        got = convolve(f, g)
        want = gaussian_field(G2, sigma=0.5, mass=0.6)
        assert integral(got) == pytest.approx(0.6, rel=1e-12)
        assert linf_diff(got, want) <= 1e-8 * np.abs(want.values).max()


class TestConvPower:
    def test_matches_repeated(self):
        rng = np.random.default_rng(76)
        f = random_smooth_field(G1, rng, nonneg=True)
        acc = f
        for n in range(2, 6):
            acc = convolve(acc, f)
            scale = np.abs(acc.values).max() + 1.0
            assert linf_diff(conv_power(f, n), acc) <= 1e-11 * scale

    def test_order_one_is_identity(self):
        f = uniform_field(G1)
        assert conv_power(f, 1) is f

    def test_invalid_order(self):
        with pytest.raises(InvalidInput, match="^convolution power needs n >= 1, got 0$"):
            conv_power(uniform_field(G1), 0)

    def test_order_must_be_an_integer(self):
        # 2.5 used to return a fractional power: mass 0.3^2.5 for mass 0.3
        with pytest.raises(InvalidInput, match=r"^n must be an integer, got 2\.5$"):
            conv_power(uniform_field(G1), 2.5)


def apply_p_by_coeffs(f: Field, coeffs: CoeffVector) -> Field:
    """The earlier apply_p, kept as an oracle: Horner over a_N..a_2, then
    the t^2 factor as two trailing products."""
    t = _mass_symbol(f)
    acc = np.zeros_like(t)
    for a_n in reversed(coeffs.coeffs):
        acc *= t
        if a_n:
            acc += a_n
    acc *= t
    acc *= t
    return _field_from_symbol(f.grid, acc)


def full_phase(grid: Grid) -> np.ndarray:
    """(-1)^(k_1 + ... + k_d) over the full M^d spectrum."""
    one = 1.0 - 2.0 * (np.arange(grid.points_per_axis) % 2)
    ph = one
    for _ in range(grid.dim - 1):
        ph = np.multiply.outer(ph, one)
    return ph


def full_mass_symbol(f: Field) -> np.ndarray:
    """The mass symbol through a complex fftn on the full M^d spectrum, as
    the package once computed it: the oracle for the half spectrum."""
    return f.grid.cell_volume * scipy.fft.fftn(f.values) * full_phase(f.grid)


def full_field_values(grid: Grid, symbol: np.ndarray) -> np.ndarray:
    return scipy.fft.ifftn(symbol * full_phase(grid)).real / grid.cell_volume


def full_horner(t: np.ndarray, coeffs: CoeffVector) -> np.ndarray:
    acc = np.zeros_like(t)
    for ck in reversed(coeffs.p):
        acc *= t
        if ck:
            acc += ck
    return acc


class TestComplexOracle:
    """Every transform route against the full complex path. The two round
    differently; over 1-d to 3-d grids up to 4096, 128^2 and 32^3 they
    differed by at most 3.2 ulps of max|f|, and the bound is 8."""

    ULPS = 8 * 2.0**-52
    GRIDS = [G1, G2, Grid(dim=3, extent=6.0, points_per_axis=16)]
    IDS = ["1d", "2d", "3d"]

    def close(self, got: Field, want: np.ndarray) -> None:
        assert got.values.shape == want.shape
        assert np.abs(got.values - want).max() <= self.ULPS * np.abs(want).max()

    def fields(self, grid):
        rng = np.random.default_rng(90 + grid.dim)
        g = random_smooth_field(grid, rng)
        h = random_smooth_field(grid, rng, nonneg=True)
        return [
            gaussian_field(grid, sigma=0.6, mass=0.3),
            (0.2 / l1_norm(g)) * g,
            (0.4 / l1_norm(h)) * h,
        ]

    @pytest.mark.parametrize("grid", GRIDS, ids=IDS)
    def test_symbol_is_the_half_of_the_full_one(self, grid):
        m = grid.points_per_axis
        for f in self.fields(grid):
            half, full = _mass_symbol(f), full_mass_symbol(f)
            assert half.shape == (m,) * (grid.dim - 1) + (m // 2 + 1,)
            scale = np.abs(full).max()
            assert np.abs(half - full[..., : m // 2 + 1]).max() <= self.ULPS * scale

    @pytest.mark.parametrize("grid", GRIDS, ids=IDS)
    def test_convolve_and_powers(self, grid):
        fs = self.fields(grid)
        for f, g in itertools.combinations(fs, 2):
            self.close(convolve(f, g), full_field_values(grid, full_mass_symbol(f) * full_mass_symbol(g)))
        for f in fs:
            for n in (2, 3, 5):
                self.close(conv_power(f, n), full_field_values(grid, full_mass_symbol(f) ** n))

    @pytest.mark.parametrize("grid", GRIDS, ids=IDS)
    def test_apply_p(self, grid):
        for f in self.fields(grid):
            for a in ([1], [1, 1], [2, 0, 1], [0, 0, 0, 3]):
                c = CoeffVector(a)
                self.close(apply_p(f, c), full_field_values(grid, full_horner(full_mass_symbol(f), c)))

    @pytest.mark.parametrize("grid", GRIDS, ids=IDS)
    def test_resolvent(self, grid):
        for f in self.fields(grid):
            for xi, m in ((1.0, 1), (1.2, 2), (0.3, 3)):
                mult = (xi + 4.0 * np.pi**2 * full_k_squared(grid)) ** (-m)
                self.close(resolvent_apply(f, xi, m), full_field_values(grid, full_mass_symbol(f) * mult))

    @pytest.mark.parametrize("grid", GRIDS[1:], ids=IDS[1:])
    def test_poisson_witness(self, grid):
        # the 1-d witness is the closed form, with no transform
        norm = np.sqrt(full_k_squared(grid))
        for scale in (1.0, 1.5, 4.0):
            t = scale * MIN_RESOLUTION * grid.extent / grid.points_per_axis
            got = poisson_field(PoissonParams(a=0.4, t=t, grid=grid))
            self.close(got, full_field_values(grid, 0.4 * np.exp(-2.0 * np.pi * t * norm)))

    @pytest.mark.parametrize("grid", GRIDS, ids=IDS)
    @pytest.mark.parametrize("plane", ["zero", "nyquist"])
    def test_imaginary_part_on_a_self_conjugate_plane(self, grid, plane):
        # irfftn reads the planes k_d = 0 and k_d = M/2 whole, and keeps the
        # real part of their inverse, as .real of the full inverse did
        m = grid.points_per_axis
        k = 0 if plane == "zero" else m // 2
        f = self.fields(grid)[1]
        full = full_mass_symbol(f)
        rng = np.random.default_rng(95)
        full[..., k] += 0.05 * rng.standard_normal(full[..., k].shape) * 1j
        half = np.ascontiguousarray(full[..., : m // 2 + 1])
        want = full_field_values(grid, full)
        self.close(_field_from_symbol(grid, half), want)
        # the imaginary part reaches the field in d >= 2 and is dropped in 1-d
        plain = full_field_values(grid, full.real + 1j * full_mass_symbol(f).imag)
        assert (np.abs(want - plain).max() > 1e-3 * np.abs(want).max()) == (grid.dim > 1)


class TestApplyP:
    @pytest.mark.parametrize("grid", [G1, G2, Grid(dim=3, extent=6.0, points_per_axis=16)])
    def test_matches_old_loop(self, grid):
        rng = np.random.default_rng(81)
        g = random_smooth_field(grid, rng)
        for f in (gaussian_field(grid, sigma=0.5, mass=0.2), (0.3 / l1_norm(g)) * g):
            for a in itertools.product(range(3), repeat=3):
                if any(a):
                    c = CoeffVector(a)
                    assert apply_p(f, c).values.tobytes() == apply_p_by_coeffs(f, c).values.tobytes()

    def test_zero_field(self):
        z = Field(G1, np.zeros(G1.shape))
        out = apply_p(z, CoeffVector([1, 1]))
        assert np.all(out.values == 0.0)

    def test_delta_mass_map(self):
        d = delta_field(G1, mass=0.3)
        out = apply_p(d, CoeffVector([1]))
        assert integral(out) == pytest.approx(0.09, rel=1e-12)
        assert np.argmax(out.values) == G1.points_per_axis // 2

    def test_mass_functional(self):
        f = gaussian_field(G1, sigma=0.4, mass=2.0)
        out = apply_p(f, CoeffVector([1, 1]))
        assert integral(out) == pytest.approx(12.0, rel=1e-10)

    def test_matches_power_sum(self):
        rng = np.random.default_rng(77)
        coeffs = CoeffVector([2, 0, 1])
        f = random_smooth_field(G1, rng, nonneg=True)
        f = (0.5 / l1_norm(f)) * f
        want = 2.0 * conv_power(f, 2) + conv_power(f, 4)
        got = apply_p(f, coeffs)
        assert linf_diff(got, want) <= 1e-12 * (np.abs(want.values).max() + 1.0)

    @pytest.mark.parametrize(
        "a", [[1], [1, 0], [0, 0, 0, 3], [2, 1, 1, 2], [0, 5, 0, 0], [2**60 + 1, 0, 7]],
        ids=lambda a: ",".join(map(str, a)),
    )
    def test_horner_from_the_top_coefficient(self, a):
        # every pair of signs of zero in either part, exact zeros, and values
        # of every size that keeps P(t) finite
        c = CoeffVector(a)
        zeros = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
        parts = [0.0, -0.0, 1e-300, -2.5e-160, 0.75, -1.0, 3.0e-3]
        mixed = [complex(x, y) for x in parts for y in parts]
        rng = np.random.default_rng(sum(a) % 1000)
        noise = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
        t = np.concatenate([zeros, mixed, noise * np.ldexp(1.0, rng.integers(-80, 1, 4000))])
        with np.errstate(over="raise", invalid="raise"):
            got = _horner(c.p, t, out=np.empty_like(t))
            want = fill_first_horner(t, c, np.empty_like(t))
        assert got.tobytes() == want.tobytes()


class TestFunctionals:
    def test_delta_values(self):
        d = delta_field(G1, mass=1.0)
        assert integral(d) == pytest.approx(1.0, rel=1e-15)
        assert l1_norm(d) == pytest.approx(1.0, rel=1e-15)
        assert min_value(d) == 0.0

    def test_nonneg_integral_equals_l1(self):
        rng = np.random.default_rng(78)
        f = random_smooth_field(G2, rng, nonneg=True)
        assert integral(f) == l1_norm(f)

    def test_oscillation_cancels(self):
        x = G1.axis_coords()
        f = Field(G1, np.sin(2.0 * np.pi * x / G1.extent))
        assert abs(integral(f)) <= 1e-12

    def test_integral_bit_stable(self):
        rng = np.random.default_rng(79)
        f = random_smooth_field(G2, rng)
        assert integral(f) == integral(Field(G2, f.values.copy()))


def same_as_fsum(x: np.ndarray) -> None:
    assert _exact_sum(x).hex() == math.fsum(x.ravel()).hex()
    assert _exact_sum(x, absolute=True).hex() == math.fsum(np.abs(x).ravel()).hex()


@pytest.fixture
def fsum_calls(monkeypatch):
    """Sizes of the arrays handed to math.fsum while the test runs."""
    calls = []
    fsum = math.fsum

    def spy(v):
        calls.append(len(v))
        return fsum(v)

    monkeypatch.setattr(math, "fsum", spy)
    return calls


class TestExactSum:
    """_exact_sum against math.fsum, compared by float.hex."""

    # 256 values, the smallest grid the benchmark's workloads sum; the kernel
    # takes every size, down to a single value
    CUT = 256
    BLOCK = field_module._BLOCK
    SIZES = [CUT - 1, CUT, CUT + 1, 2047, 2048, 2049, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3, 3 * BLOCK]

    @staticmethod
    def wide(rng, n, lo=-1074, hi=995):
        """Signed values whose binary exponents are uniform in [lo, hi]."""
        return np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(lo + 1, hi + 1, n))

    @pytest.mark.parametrize("n", SIZES)
    def test_sizes_across_cutoff_and_blocks(self, n):
        rng = np.random.default_rng(n)
        same_as_fsum(self.wide(rng, n))
        same_as_fsum(np.abs(self.wide(rng, n)))
        same_as_fsum(rng.standard_normal(n))

    def test_takes_the_kernel_at_every_size(self, fsum_calls):
        # ordinary data reaches no fsum, however short the array
        rng = np.random.default_rng(1)
        for n in (1, 2, 16, 100, self.CUT - 1, self.CUT, 3 * self.BLOCK):
            for x in (rng.standard_normal(n), self.wide(rng, n, -1000, 900)):
                _exact_sum(x)
                _exact_sum(x, absolute=True)
        assert fsum_calls == []

    @pytest.mark.parametrize("n", [1, 3, 16, 64, 128, 200, 255])
    def test_short_arrays_match_fsum(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(200):
            same_as_fsum(self.wide(rng, n))
            same_as_fsum(rng.standard_normal(n))

    @pytest.mark.parametrize("m", [16, 256, 1024, 2048, 4096, 16384])
    def test_l1_norm_across_cutoff(self, m):
        # mixed signs, from the smallest grid on; 16384 values fill two blocks
        grid = Grid(dim=1, extent=8.0, points_per_axis=m)
        rng = np.random.default_rng(m)
        for v in (rng.standard_normal(m), self.wide(rng, m, -1074, 980), -np.abs(self.wide(rng, m))):
            want = grid.cell_volume * math.fsum(np.abs(v))
            assert l1_norm(Field(grid, v)).hex() == want.hex()

    def test_l1_norm_makes_no_full_size_copy(self):
        g = Grid(dim=2, extent=8.0, points_per_axis=512)
        f = random_smooth_field(g, np.random.default_rng(9))
        tracemalloc.start()
        try:
            l1_norm(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the kernel's two block buffers, not the 2 MB of |values|
        assert peak < f.values.nbytes // 4

    def test_adversarial_arrays(self):
        rng = np.random.default_rng(2)
        for i in range(120):
            n = int(rng.integers(self.CUT, 3 * self.BLOCK))
            kind = i % 6
            if kind == 0:
                x = self.wide(rng, n)
            elif kind == 1:  # heavy cancellation, a small residue
                y = self.wide(rng, n // 2, -200, 200)
                x = rng.permutation(np.concatenate([y, -y, self.wide(rng, n - 2 * (n // 2), -400, -300)]))
            elif kind == 2:  # Gaussian-like tails reaching the subnormals
                x = np.exp(-rng.uniform(0.0, 745.0, n)) * rng.choice([-1.0, 1.0], n)
            elif kind == 3:  # full 53-bit mantissas in a narrow band: many carries
                x = np.ldexp(rng.integers(2**52, 2**53, n).astype(float), rng.integers(-60, -50, n))
            elif kind == 4:  # large values whose low bits decide the rounding
                x = np.concatenate([[2.0**990, -(2.0**990)], self.wide(rng, n - 2, -1074, -900)])
            else:  # one sign and equal exponents: a single bucket takes everything
                x = np.ldexp(rng.uniform(0.5, 1.0, n), 3)
            same_as_fsum(x)

    def test_span_of_magnitudes(self):
        n = self.CUT
        tiny, top = 2.0**-1074, np.nextafter(2.0**996, 0.0)
        for x in (np.full(n, tiny), np.full(n, top), np.full(n, -top)):
            same_as_fsum(x)
        x = np.zeros(n)
        x[:4] = [tiny, top, -tiny, 2.0**995]
        same_as_fsum(x)

    def test_subnormal_inputs_and_results(self):
        rng = np.random.default_rng(3)
        n = 5000
        sub = np.ldexp(rng.integers(-(2**52), 2**52, n).astype(float), -1074)
        same_as_fsum(sub)
        same_as_fsum(np.abs(sub))
        # normal values that cancel down to a subnormal sum
        y = self.wide(rng, n, -1022, -1000)
        same_as_fsum(np.concatenate([y, -y, [3 * 2.0**-1074]]))
        # the sum of subnormals crosses into the normal range
        same_as_fsum(np.full(n, np.nextafter(2.0**-1022, 0.0)))

    def test_signed_zeros(self):
        n = self.BLOCK + 5
        # the last cancels to zero at max|x| = 2^-1074, where both ends of
        # the kernel's interval round to a zero, of opposite signs
        cancel = np.full(n, -0.0)
        cancel[:2] = [2.0**-1074, -(2.0**-1074)]
        for x in (np.zeros(n), np.full(n, -0.0), np.where(np.arange(n) % 2, 0.0, -0.0), cancel):
            same_as_fsum(x)
            assert _exact_sum(x).hex() == "0x0.0p+0"
        same_as_fsum(np.concatenate([np.full(n, -0.0), [-(2.0**-1074)]]))

    def test_exact_cancellation(self):
        rng = np.random.default_rng(4)
        y = self.wide(rng, 3000)
        x = rng.permutation(np.concatenate([y, -y]))
        same_as_fsum(x)
        assert _exact_sum(x) == 0.0

    @pytest.mark.parametrize(
        "head,want",
        [
            ([1.0, 2.0**-53], 1.0),  # a tie rounds to the even neighbour below
            ([1.0 + 2.0**-52, 2.0**-53], 1.0 + 2.0**-51),  # and above
            ([1.0, 2.0**-53, 2.0**-1074], 1.0 + 2.0**-52),  # a far sticky bit breaks it
            ([1.0, 2.0**-53, -(2.0**-1074)], 1.0),
            ([-1.0, -(2.0**-53)], -1.0),
            ([2.0**-1021, 2.0**-1074], 2.0**-1021),  # the first binade with ties
            ([2.0**900, 2.0**847, 2.0**846, -(2.0**846)], 2.0**900),
        ],
    )
    def test_round_half_even(self, head, want):
        x = np.zeros(2 * self.BLOCK + 7)
        for i, v in enumerate(head):
            x[i * (self.BLOCK // 2 + 1)] = v  # spread over two blocks
        same_as_fsum(x)
        assert _exact_sum(x) == want

    def test_shape_and_strides(self):
        rng = np.random.default_rng(5)
        a = self.wide(rng, 64 * 64).reshape(64, 64)
        same_as_fsum(a)
        same_as_fsum(a.T)
        same_as_fsum(self.wide(rng, 3 * self.BLOCK)[::3])

    def test_bracket_fallback(self, fsum_calls):
        # an exact tie is a rounding boundary: the kernel's interval holds
        # it, and fsum rounds it; per sign mode, the kernel's call and the
        # oracle's
        n = 2 * self.BLOCK + 7
        x = np.zeros(n)
        x[0], x[self.BLOCK + 3] = 1.0, 2.0**-53
        same_as_fsum(x)
        assert fsum_calls == [n] * 4

    def test_truncation_loss_is_bracketed(self, fsum_calls):
        # with max|x| = 1 a unit of N is 2^-79; n - 2 values of just below
        # one unit each truncate to nothing, which puts N n/2 units below
        # the tie 1 + 2^-53 while the exact sum is above it
        n = 2 * self.BLOCK
        x = np.full(n, (1.0 - 2.0**-12) * 2.0**-79)
        x[0], x[1] = 1.0, 2.0**-53 - (n // 2) * 2.0**-79
        same_as_fsum(x)
        assert fsum_calls == [n] * 4
        assert _exact_sum(x) == 1.0 + 2.0**-52

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_block_sums_stay_exact(self, sign, fsum_calls):
        # every value scales to just below 2^40, so both parts of every
        # value are as large as they can be, in a full block and the next;
        # near 2^-1000 the scale 2^s is past the float range
        n = 2 * self.BLOCK
        for e in (0, -1000, 900):
            x = np.full(n, sign * np.nextafter(2.0**e, 0.0))
            x[1::2] = sign * np.nextafter(2.0**e, 0.0) * (1.0 - 2.0**-40)
            same_as_fsum(x)
        # every oracle call, and nothing from the kernel
        assert fsum_calls == [n] * 6

    def test_magnitude_bound(self, fsum_calls):
        # n max|x| just below 2^1000 takes the kernel, at 2^1000 fsum
        n = self.CUT
        x = np.random.default_rng(11).standard_normal(n)
        x[5] = np.nextafter(2.0**1000 / n, 0.0)
        same_as_fsum(x)
        x[5] = 2.0**1000 / n
        same_as_fsum(x)
        # the oracle's two calls, then the kernel's two and the oracle's
        assert fsum_calls == [n] * 6

    @pytest.mark.parametrize("n", [1, CUT - 1, CUT, BLOCK + 1])
    def test_top_read_by_the_caller(self, n):
        # bose.solve passes the max|x| it has read; the sums stay fsum's
        rng = np.random.default_rng(n)
        for x in (self.wide(rng, n), rng.standard_normal(n), np.full(n, -0.0)):
            top = float(max(-x.min(), x.max()))
            for absolute in (False, True):
                want = _exact_sum(x, absolute=absolute)
                assert _exact_sum(x, absolute=absolute, top=top).hex() == want.hex()
            assert _exact_sum(x, top=top).hex() == math.fsum(x).hex()

    @pytest.mark.parametrize("big", [2.0**996, -(2.0**996), 2.0**1023, -np.inf, np.nan])
    def test_magnitude_fallback(self, big, fsum_calls):
        x = np.random.default_rng(7).standard_normal(self.CUT)
        x[17] = big
        same_as_fsum(x)
        assert fsum_calls == [self.CUT] * 4

    def test_intermediate_overflow_raises_as_fsum(self):
        x = np.zeros(self.BLOCK)
        x[:3] = [2.0**1023, 2.0**1023, -(2.0**1023)]
        with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
            math.fsum(x)
        with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
            _exact_sum(x)
        # |x| overflows where x does not
        x[2] = 0.0
        x[:2] = [2.0**1023, -(2.0**1023)]
        assert _exact_sum(x) == math.fsum(x) == 0.0
        with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
            math.fsum(np.abs(x))
        with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
            _exact_sum(x, absolute=True)

    def test_no_fallback_on_solver_data(self, fsum_calls):
        # the path perfbench measures: every sum here has CUT values or
        # more, and none of them leaves the kernel for fsum
        g = Grid(dim=2, extent=8.0, points_per_axis=128)
        psi = gaussian_field(g, sigma=0.8, mass=0.1)
        one = CoeffVector([1])
        construct(psi, one, build_poly(one))
        g3 = Grid(dim=3, extent=8.0, points_per_axis=32)
        v = gaussian_field(g3, sigma=1.0, mass=0.1)
        sol = bose_solve(BoseProblem(m=1, xi=1.0, mu=0.1, V=v, grid=g3))
        assert sol.report.converged
        assert fsum_calls == []

    def test_callers_match_fsum(self):
        g = Grid(dim=2, extent=8.0, points_per_axis=128)
        rng = np.random.default_rng(8)
        f = random_smooth_field(g, rng)
        v = f.values
        assert integral(f) == g.cell_volume * math.fsum(v.ravel())
        assert l1_norm(f) == g.cell_volume * math.fsum(np.abs(v).ravel())
        psi = gaussian_field(g, sigma=0.4, mass=0.3)
        r2 = sum(xa**2 for xa in g.coordinate_arrays())
        raw = np.exp(-r2 / (2.0 * 0.4 * 0.4))
        want = raw * (0.3 / (g.cell_volume * math.fsum(raw.ravel())))
        assert psi.values.tobytes() == want.tobytes()


class TestReferenceFields:
    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, math.nan])
    def test_gaussian_sigma_positive_and_finite(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            gaussian_field(G1, sigma=sigma)

    @pytest.mark.parametrize("sigma", [1.05e-154, 1e-160, 1e-302, 5e-324])
    def test_gaussian_sigma_underflow(self, sigma):
        # 2 sigma^2 below the smallest normal double would divide by zero
        # or overflow; the threshold is sigma ~ 1.0547e-154
        with pytest.raises(ValueError, match=f"sigma {sigma} is too small"):
            gaussian_field(G1, sigma=sigma)

    def test_gaussian_sigma_near_floor_is_silent(self):
        # r2 / 2 sigma^2 overflows to inf away from the origin, where exp
        # gives 0: the field is the delta of the same mass, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = gaussian_field(G1, sigma=1.1e-154, mass=0.1)
        assert f.values.tobytes() == delta_field(G1, mass=0.1).values.tobytes()

    def test_gaussian_sigma_and_box_beyond_float_range(self):
        # 2 sigma^2 and the corner's |x|^2 are both inf: r^2 / (2 sigma^2)
        # would be nan there
        grid = Grid(dim=1, extent=1e300, points_per_axis=16)
        with pytest.raises(
            InvalidInput,
            match=re.escape("sigma 1e+299 on extent 1e+300: both |x|^2 and 2 sigma^2 are outside"),
        ):
            gaussian_field(grid, sigma=1e299, mass=0.1)


class TestIO:
    @pytest.mark.parametrize(
        "grid",
        [
            Grid(dim=1, extent=8.0, points_per_axis=256),
            Grid(dim=2, extent=6.0, points_per_axis=32),
            Grid(dim=3, extent=4.0, points_per_axis=16),
        ],
    )
    def test_roundtrip_bit_exact(self, grid, tmp_path):
        rng = np.random.default_rng(80 + grid.dim)
        f = random_smooth_field(grid, rng)
        path = str(tmp_path / "f.cvlf")
        write_cvlf(f, path)
        back = read_cvlf(path)
        assert back.grid == grid
        assert np.array_equal(back.values, f.values)

    def test_bytes_header_guards(self):
        f = uniform_field(G1)
        data = field_to_bytes(f)
        assert field_from_bytes(data).grid == G1
        with pytest.raises(ValueError):
            field_from_bytes(b"XXXX" + data[4:])
        bad_version = data[:4] + (99).to_bytes(4, "little") + data[8:]
        with pytest.raises(ValueError):
            field_from_bytes(bad_version)
        assert len(data) == 24 + 8 * 256
        for bad in (data[:4], data[:23], data[:24], data[:-1], data + b"junk"):
            with pytest.raises(ValueError):
                field_from_bytes(bad)

    def test_csv(self, tmp_path):
        path = str(tmp_path / "f.csv")
        write_csv(delta_field(G1, mass=1.0), path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 257
        x0, v0 = lines[1].split(",")
        assert float(x0) == -4.0 and float(v0) == 0.0
        xm, vm = lines[1 + 128].split(",")
        assert float(xm) == 0.0 and float(vm) == pytest.approx(32.0, rel=1e-15)
        with pytest.raises(ValueError):
            write_csv(uniform_field(G2), str(tmp_path / "g.csv"))

    def test_convolution_deterministic(self):
        rng = np.random.default_rng(81)
        f = random_smooth_field(G1, rng)
        g = random_smooth_field(G1, rng)
        a = convolve(f, g).values
        b = convolve(Field(G1, f.values.copy()), Field(G1, g.values.copy())).values
        assert np.array_equal(a, b)


def direct_circular_conv1d(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """O(M^2) circular convolution, out[n] = sum_k f[k] g[(n-k) mod M]."""
    m = f.shape[0]
    idx = (np.arange(m)[:, None] - np.arange(m)[None, :]) % m
    return (f[None, :] * g[idx]).sum(axis=1)


class TestDirectVsSpectral:
    def test_convolve_matches_direct_sum(self):
        # the FFT route must agree with the O(M^2) definition: the grid
        # origin sits at node M/2, so the raw circular output is rolled
        g = Grid(dim=1, extent=8.0, points_per_axis=256)
        rng = np.random.default_rng(114)
        f1 = random_smooth_field(g, rng)
        f2 = random_smooth_field(g, rng)
        direct = g.h * np.roll(
            direct_circular_conv1d(f1.values, f2.values),
            -(g.points_per_axis // 2),
        )
        spectral = convolve(f1, f2).values
        scale = np.abs(direct).max() + 1.0
        assert np.abs(direct - spectral).max() <= 1e-12 * scale
