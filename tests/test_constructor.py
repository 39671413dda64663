import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from convlab import (
    CoeffVector,
    Field,
    Grid,
    InvalidInput,
    NotConverged,
    PoissonParams,
    apply_p,
    build_poly,
    conv_power,
    construct,
    convolve,
    delta_field,
    gaussian_field,
    integral,
    iterate_table,
    l1_norm,
    min_value,
    poisson_field,
    uniform_field,
    verify_inequality,
)
from convlab import constructor as constructor_mod
from convlab import field as field_mod
from convlab.config import DEFAULT_TOLS
from convlab.constructor import DEFAULT_MAX_ITER, DEFAULT_TOL, _iterate_symbol
from convlab.field import _within_roundoff
from convlab.qpoly import eval_p

from conftest import (
    count_transforms, fixed_point, full_iterate_symbol, linf_diff, random_coeffs,
    uniqueness_roundtrip,
)

G = Grid(dim=1, extent=8.0, points_per_axis=256)
C2 = CoeffVector([1])
P2 = build_poly(C2)


def seed(mass, sigma=0.5):
    return gaussian_field(G, sigma=sigma, mass=mass)


class TestConstruct:
    def test_zero_seed(self):
        f, rep = construct(Field(G, np.zeros(G.shape)), C2, P2)
        assert rep.iterations == 1
        assert rep.converged and rep.monotone_ok
        assert np.all(f.values == 0.0)
        assert rep.residual == 0.0

    @pytest.mark.parametrize("points", [256, 4096], ids=["fsum", "superaccumulator"])
    def test_negative_zero_seed(self, points):
        # the clamp keeps -0.0, and the seed mass is integral(psi) where it
        # was once l1_norm(psi): both sums give +0.0 here
        grid = Grid(dim=1, extent=8.0, points_per_axis=points)
        f, rep = construct(Field(grid, np.full(grid.shape, -0.0)), C2, P2)
        assert rep.converged and rep.iterations == 1
        assert [x.hex() for x in rep.masses] == ["0x0.0p+0"] * 2
        assert f.values.tobytes() == bytes(8 * points)

    @pytest.mark.parametrize("extent", [16.0, 1.0, 0.01, 1e-4])
    def test_monotone_slack_scales_with_max_abs(self, extent, monkeypatch):
        # values, and with them their roundoff, grow like 1/L^d as the box
        # shrinks: f - psi and the next increment psi - (f - P(f)) stay
        # above -2e-16 max(1, max|f|) at every scale
        grid = Grid(dim=1, extent=extent, points_per_axis=4096)
        psi = gaussian_field(grid, sigma=extent / 100.0, mass=0.2)
        f, rep = construct(psi, C2, P2)
        assert rep.converged and rep.monotone_ok
        floor = min(min_value(f - psi), min_value(psi - (f - apply_p(f, C2))))
        top = max(1.0, float(np.abs(f.values).max()))
        assert -floor <= 1e-15 * top
        # the flag reads floor >= -nonneg_slack max(1, max|f|), both ways
        for factor, ok in ((1.01, True), (0.99, False)):
            tols = dataclasses.replace(DEFAULT_TOLS, nonneg_slack=factor * -floor / top)
            monkeypatch.setattr(constructor_mod, "DEFAULT_TOLS", tols)
            assert construct(psi, C2, P2)[1].monotone_ok is ok

    @pytest.mark.parametrize(
        "grid,sigma",
        # narrow seeds whose next increment dips lower than f - psi does
        [
            (Grid(dim=1, extent=0.01, points_per_axis=4096), 1e-4),
            (Grid(dim=2, extent=16.0, points_per_axis=64), 0.16),
            (Grid(dim=3, extent=1.0, points_per_axis=16), 0.01),
        ],
        ids=["1d", "2d", "3d"],
    )
    def test_monotone_flag_reads_the_next_increment(self, grid, sigma, monkeypatch):
        psi = gaussian_field(grid, sigma=sigma, mass=0.2)
        f, rep = construct(psi, C2, P2)
        assert rep.converged and rep.monotone_ok
        low = min_value(psi - (f - apply_p(f, C2)))
        assert low < min(min_value(f - psi), 0.0)
        # the flag reads low >= -nonneg_slack max(1, max|f|), both ways
        top = max(1.0, float(np.abs(f.values).max()))
        for factor, ok in ((1.01, True), (0.99, False)):
            tols = dataclasses.replace(DEFAULT_TOLS, nonneg_slack=factor * -low / top)
            monkeypatch.setattr(constructor_mod, "DEFAULT_TOLS", tols)
            assert construct(psi, C2, P2)[1].monotone_ok is ok

    def test_mass_fixed_point(self):
        # subcritical masses land on the smaller root of s = q + s^2
        for q in (0.05, 0.1, 0.2):
            f, rep = construct(seed(q), C2, P2)
            want = (1.0 - math.sqrt(1.0 - 4.0 * q)) / 2.0
            assert rep.final_mass == pytest.approx(want, abs=1e-8)
            assert integral(f) == rep.final_mass
            assert rep.converged

    def test_mass_guard(self):
        with pytest.raises(InvalidInput, match=r"^seed mass 0\.26\d* exceeds Q\(t_q\) = 0\.25$"):
            construct(seed(0.26), C2, P2)

    @pytest.mark.parametrize(
        "coeffs,other,mass",
        # unrefused, a q_max above the coefficients' own lets the step
        # overflow (NotConverged), and one below it refuses a valid seed
        [([3], [1], 0.2), ([1], [30], 0.05)],
        ids=["p-of-smaller-coeffs", "p-of-larger-coeffs"],
    )
    def test_polynomial_of_other_coefficients(self, coeffs, other, mass):
        p = build_poly(CoeffVector(other))
        with pytest.raises(InvalidInput, match="^polynomial built from different coefficients$"):
            construct(seed(mass), CoeffVector(coeffs), p)

    def test_near_critical_reports_failure(self):
        with pytest.raises(NotConverged) as exc:
            construct(seed(P2.q_max), C2, P2)
        rep = exc.value.report
        assert not rep.converged
        assert rep.iterations == 10_000
        assert abs(rep.final_mass - P2.t_q) <= 1e-3
        assert rep.monotone_ok
        assert exc.value.field is not None
        assert integral(exc.value.field) == rep.final_mass

    def test_seed_clamp(self):
        v = seed(0.1).values.copy()
        v[0] = -1e-13
        f, _ = construct(Field(G, v), C2, P2)
        assert integral(f) > 0
        v[0] = -1e-9
        with pytest.raises(ValueError):
            construct(Field(G, v), C2, P2)

    @pytest.mark.parametrize("dim,points", [(1, 1024), (2, 128)])
    @pytest.mark.parametrize("extent", [16.0, 1.0, 0.1, 0.01])
    def test_seed_clamp_scales_with_max_abs(self, dim, points, extent):
        # s * s has negatives of pure roundoff, about 1e-16 max|psi|, which
        # grow like 1/L^d: the clamp accepts them at every scale, and refuses
        # a node at -1e-9 max|psi|
        grid = Grid(dim=dim, extent=extent, points_per_axis=points)
        s = gaussian_field(grid, sigma=extent / 40.0, mass=0.4)
        psi = convolve(s, s)
        top = float(np.abs(psi.values).max())
        assert -3e-16 * top <= min_value(psi) < 0.0
        f, rep = construct(psi, C2, P2)
        assert rep.converged and rep.monotone_ok and min_value(f) >= 0.0
        v = psi.values.copy()
        v.flat[0] = -1e-9 * top
        with pytest.raises(InvalidInput, match="^seed minimum .* below -nonneg_slack"):
            construct(Field(grid, v), C2, P2)

    def test_deltas_decrease(self):
        _, rep = construct(seed(0.2), C2, P2)
        d = rep.l1_deltas
        assert all(b <= a * (1.0 + 1e-9) for a, b in zip(d[2:], d[3:]))

    def test_converged_residual(self):
        rng = np.random.default_rng(91)
        for _ in range(5):
            c = random_coeffs(rng, max_degree=4)
            p = build_poly(c)
            psi = seed(0.8 * p.q_max)
            f, rep = construct(psi, c, p)
            assert rep.converged
            assert rep.residual <= 10.0 * rep.tol
            assert l1_norm(f) <= p.t_q * (1.0 + 1e-9)
            # the residual in the other order of subtraction, f - (psi +
            # P(f)): equal up to one rounding per node in each expression
            other = l1_norm(f - (psi + apply_p(f, c)))
            bound = 2.0**-52 * (l1_norm(psi) + 2.0 * l1_norm(f))
            assert abs(rep.residual - other) <= bound

    def test_mass_shadowing(self):
        # field masses track the scalar recursion to roundoff
        _, rep = construct(seed(0.2), C2, P2)
        q = rep.masses[0]
        sigma = q
        for j, got in enumerate(rep.masses):
            if j:
                sigma = q + eval_p(C2, sigma)
            assert abs(got - sigma) <= 1e-11
            if j == 20:
                break

    def test_series_shadowing(self):
        # early iterates equal the integer-table combination of seed powers
        c = CoeffVector([1, 1])
        p = build_poly(c)
        psi = seed(0.5 * p.q_max)
        table = iterate_table(c, J=3, L_cap=c.n2**3)
        for j in (1, 2, 3):
            with pytest.raises(NotConverged) as exc:
                construct(psi, c, p, tol=1e-30, max_iter=j)
            iterate = exc.value.field
            combo = Field(psi.grid, np.zeros(psi.grid.shape))
            for l in range(1, c.n2**j + 1):
                mv = table.rows[j][l - 1]
                if mv:
                    combo = combo + float(mv) * conv_power(psi, l)
            scale = np.abs(combo.values).max() + 1.0
            assert linf_diff(iterate, combo) <= 1e-9 * scale


def field_space_construct(psi, c, tol, max_iter):
    """construct's iteration written in field space, on fixed_point:
    a forward and an inverse transform per step."""
    return fixed_point(lambda f: psi + apply_p(f, c), psi, tol, max_iter)


def scalar_masses(q, c, count):
    """sigma_0 = q, sigma_{j+1} = q + P(sigma_j) in floats, Horner over c.p."""
    sigmas = [q]
    for _ in range(count - 1):
        acc = 0.0
        for ck in reversed(c.p):
            acc = acc * sigmas[-1] + ck
        sigmas.append(q + acc)
    return tuple(sigmas)


class TestSpectralOracle:
    # The symbol loop and the field-space loop round differently: the fields
    # may differ by a few ulps of max|f|, stated here as 16.
    REL_LINF = 16 * 2.0**-52
    GRIDS = [
        Grid(dim=1, extent=8.0, points_per_axis=256),
        Grid(dim=2, extent=8.0, points_per_axis=64),
        Grid(dim=3, extent=8.0, points_per_axis=16),
    ]
    VECTORS = [CoeffVector(v) for v in ([1], [1, 1], [0, 2], [2, 0, 1], [0, 0, 0, 3])]

    @pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("c", VECTORS, ids=lambda c: ",".join(map(str, c.coeffs)))
    @pytest.mark.parametrize("frac", [0.3, 0.9])
    def test_matches_field_space_loop(self, grid, c, frac):
        p = build_poly(c)
        psi = gaussian_field(grid, sigma=0.7, mass=frac * p.q_max)
        f, rep = construct(psi, c, p)
        want, oracle = field_space_construct(psi, c, rep.tol, DEFAULT_MAX_ITER)
        assert rep.converged and oracle.converged and rep.monotone_ok
        assert rep.iterations == oracle.iterations
        assert linf_diff(f, want) <= self.REL_LINF * np.abs(want.values).max()
        assert rep.masses == scalar_masses(integral(psi), c, rep.iterations + 1)
        assert rep.final_mass == integral(f)
        assert rep.min_slack == verify_inequality(f, c)[0]
        assert "min_slack" not in rep.to_json()
        # the residual is the L1 norm of the next increment
        # Psi_{J+1} - Psi_J = psi - g, bit for bit; negation is exact, so
        # l1_norm(g - psi) agrees
        g = f - apply_p(f, c)
        assert rep.residual == l1_norm(psi - g) == l1_norm(g - psi)
        # the iterates rise to roundoff: the last increment's L1 norm is
        # its integral l1_deltas[-1], and the next increment's, the residual,
        # is its integral, each to 2 nonneg_slack max(1, max|f|) L^d
        if rep.iterations > 1:
            with pytest.raises(NotConverged) as exc:
                construct(psi, c, p, max_iter=rep.iterations - 1)
            before = exc.value.field
        else:
            before = psi
        top = max(1.0, float(np.abs(f.values).max()))
        bound = 2.0 * DEFAULT_TOLS.nonneg_slack * top * grid.extent**grid.dim
        assert abs(l1_norm(f - before) - rep.l1_deltas[-1]) <= bound
        assert abs(rep.residual - integral(psi - g)) <= bound

    @pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("c", VECTORS, ids=lambda c: ",".join(map(str, c.coeffs)))
    def test_masses_are_the_eval_p_recursion(self, grid, c):
        # the zero frequency's imaginary part stays +0, so its real part
        # runs the float recursion s <- masses[0] + eval_p(c, s), bit for bit
        p = build_poly(c)
        for frac in (0.3, 0.9):
            psi = gaussian_field(grid, sigma=0.7, mass=frac * p.q_max)
            _, rep = construct(psi, c, p)
            want = [rep.masses[0]]
            for _ in rep.l1_deltas:
                want.append(rep.masses[0] + eval_p(c, want[-1]))
            assert [m.hex() for m in rep.masses] == [m.hex() for m in want]

    def test_no_transform_in_the_loop(self, monkeypatch):
        calls = count_transforms(monkeypatch)
        counts = {}
        for frac in (0.1, 0.9):
            calls.clear()
            _, rep = construct(seed(frac * P2.q_max), C2, P2)
            counts[rep.iterations] = len(calls)
        # the seed's forward transform, Psi_J back, and the pair of
        # f - P(f), for the next increment, the residual and min_slack,
        # whatever the iteration count
        assert len(counts) == 2 and set(counts.values()) == {4}

    def test_diverging_symbol_keeps_last_finite_iterate(self):
        s = np.full(16, 2.0 + 0.0j)
        w, overflowed, deltas, masses = _iterate_symbol(s, C2, 1e-10, 100)
        assert overflowed
        # 2, 6, 38, ... until the square passes the float range
        assert masses == list(scalar_masses(2.0, C2, len(masses)))
        assert deltas == [b - a for a, b in zip(masses, masses[1:])]
        assert np.isfinite(w).all() and (w == masses[-1]).all()
        assert masses[-1] * masses[-1] == math.inf

    @pytest.mark.parametrize("extent", [8.0, 1e-48], ids=["field", "field-overflows"])
    def test_overflow_ends_construct_unconverged(self, extent):
        # at the admissible edge the masses crawl past t_q and then diverge;
        # on the tiny box the last finite symbol's field, of mass over
        # L^d = 1e-48, is beyond the float range too
        grid = Grid(dim=1, extent=extent, points_per_axis=16)
        psi = gaussian_field(grid, sigma=0.7, mass=P2.q_max * (1.0 + DEFAULT_TOLS.seed_mass_slack))
        with pytest.raises(NotConverged) as exc:
            construct(psi, C2, P2, max_iter=10**6)
        rep, f = exc.value.report, exc.value.field
        assert not rep.converged and rep.residual is None
        assert rep.iterations < 10**6 and rep.final_mass == rep.masses[-1] > 1e150
        if extent == 8.0:
            assert np.isfinite(f.values).all() and rep.monotone_ok
            # no next increment: P(f) overflows, and the flag reads f - psi alone
            with np.errstate(over="raise", invalid="raise"), pytest.raises(FloatingPointError):
                apply_p(f, C2)
            floor = min_value(f - psi)
            for slack in (DEFAULT_TOLS.nonneg_slack, 0.0):
                assert rep.monotone_ok is _within_roundoff(floor, f, slack)
        else:
            assert f is None and not rep.monotone_ok
        json.dumps(rep.to_json(), allow_nan=False)
        assert str(exc.value) == f"the step overflowed after {rep.iterations} iterations"

    def test_traced_peak_memory(self):
        # the symbol of psi, two iterate buffers and the transforms'
        # temporaries, all on the half spectrum: measured at 5.20 * 8 M^d
        # bytes, where full-size complex symbols took 10.02 * 8 M^d; the
        # peak comes while f - P(f) is formed, and the loop, the shorter
        # arrays of the moving frequencies included, stays below it
        grid = Grid(dim=3, extent=24.0, points_per_axis=32)
        psi = gaussian_field(grid, sigma=0.8, mass=0.5 * P2.q_max)
        tracemalloc.start()
        try:
            _, rep = construct(psi, C2, P2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.converged
        assert peak <= 5.9 * 8 * grid.points_per_axis**grid.dim


def same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFrozenFrequencies:
    # _iterate_symbol drops the frequencies whose value repeats bit for bit;
    # conftest.full_iterate_symbol computes every one at every step
    GRIDS = TestSpectralOracle.GRIDS
    VECTORS = [CoeffVector(v) for v in ([1], [1, 0], [0, 0, 0, 3], [2, 1, 1, 2])]
    # some runs stop on a compaction step (2, 4, 8), some just after it
    MAX_ITERS = (1, 2, 3, 4, 5, 8, 9, DEFAULT_MAX_ITER)

    @staticmethod
    def spy_sizes(monkeypatch):
        sizes = []
        real = constructor_mod._horner
        monkeypatch.setattr(
            constructor_mod, "_horner", lambda c, x, out: sizes.append(x.size) or real(c, x, out=out)
        )
        return sizes

    @pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("c", VECTORS, ids=lambda c: ",".join(map(str, c.coeffs)))
    @pytest.mark.parametrize("frac", [0.3, 0.9])
    def test_matches_full_loop(self, grid, c, frac, monkeypatch):
        sizes = self.spy_sizes(monkeypatch)
        p = build_poly(c)
        psi = gaussian_field(grid, sigma=0.7, mass=frac * p.q_max)
        s = field_mod._mass_symbol(psi)
        s[(0,) * grid.dim] = integral(psi)
        for max_iter in self.MAX_ITERS:
            sizes.clear()
            w, overflowed, deltas, masses = _iterate_symbol(s, c, DEFAULT_TOL, max_iter)
            want = full_iterate_symbol(s, c, DEFAULT_TOL, max_iter)
            assert same_bytes(w, want[0]) and not overflowed and not want[1], max_iter
            assert deltas == want[2] and masses == want[3], max_iter
        # the full run left most frequencies behind
        assert min(sizes) < s.size / 2

    def test_overflow_after_compaction(self, monkeypatch):
        # every entry but the zero frequency is a fixed point from the first
        # step on (1e-20 + 1e-40 == 1e-20); the zero frequency runs 2, 6,
        # 38, ... until its square passes the float range
        sizes = self.spy_sizes(monkeypatch)
        s = np.full(4096, 1e-20 + 0.0j)
        s[0] = 2.0
        w, overflowed, deltas, masses = _iterate_symbol(s, C2, 1e-10, 100)
        want, want_overflowed, want_deltas, want_masses = full_iterate_symbol(s, C2, 1e-10, 100)
        assert overflowed and want_overflowed
        assert same_bytes(w, want)
        assert deltas == want_deltas and masses == want_masses
        assert masses[-1] * masses[-1] == math.inf
        assert sizes[:2] == [4096, 4096] and set(sizes[2:]) == {1}

    def test_work_count(self, monkeypatch):
        # the loop evaluates P on 12.8 % of iterations x half-spectrum size
        # here; every frequency at every step would be 100 %
        sizes = self.spy_sizes(monkeypatch)
        grid = Grid(dim=2, extent=8.0, points_per_axis=128)
        psi = gaussian_field(grid, sigma=0.7, mass=0.5 * P2.q_max)
        _, rep = construct(psi, C2, P2)
        half_spectrum = 128 * (128 // 2 + 1)
        assert rep.converged and len(sizes) == rep.iterations
        assert sum(sizes) <= 0.16 * rep.iterations * half_spectrum


class TestFixedPoint:
    # conftest.fixed_point, the oracle of construct and bose.solve, on steps
    # whose values and cell volume are dyadic, so every iterate is exact
    GD = Grid(dim=1, extent=16.0, points_per_axis=16)

    def ones(self):
        return Field(self.GD, np.ones(self.GD.shape))

    def test_affine_contraction(self):
        # u_j = (2 - 2^-j) psi from u_0 = psi: the increments are
        # 16 * 2^-j, and the first one below 2^-10 is at j = 15
        psi = self.ones()
        u, rep = fixed_point(lambda f: psi + 0.5 * f, psi, 2.0**-10, 100)
        assert rep.converged and rep.monotone_ok
        assert rep.iterations == 15
        assert rep.l1_deltas == tuple(16.0 * 2.0**-j for j in range(1, 16))
        assert rep.masses == tuple(16.0 * (2.0 - 2.0**-j) for j in range(16))
        assert rep.final_mass == rep.masses[-1] == integral(u)
        assert rep.residual == 16.0 * 2.0**-16
        assert rep.tol == 2.0**-10

    def test_cap_reached(self):
        psi = self.ones()
        u, rep = fixed_point(lambda f: psi + 0.5 * f, psi, 2.0**-10, 3)
        assert not rep.converged
        assert rep.iterations == 3 and len(rep.masses) == 4
        assert integral(u) == rep.masses[-1]
        err = rep.not_converged(field=u)
        assert isinstance(err, NotConverged)
        assert err.field is u and err.report is rep and err.solution is None
        assert str(err) == "increment 2.000e+00 still above tol 0.0009765625 after 3 iterations"

    def test_backsliding_is_flagged(self):
        _, rep = fixed_point(lambda f: 0.5 * f, self.ones(), 2.0**-10, 100)
        assert rep.converged
        assert not rep.monotone_ok
        assert rep.masses[-1] < rep.masses[0]

    def test_slack_tolerates_roundoff_backsliding(self):
        drop = Field(self.GD, np.full(self.GD.shape, 1e-13))
        _, rep = fixed_point(lambda f: f - drop, self.ones(), 1.0, 5)
        assert rep.converged and rep.monotone_ok

    @pytest.mark.parametrize(
        "step,iterations",
        [
            (lambda f: 2.0**1000 * f, 1),  # numpy overflows on the second step
            (lambda f: Field(f.grid, np.full(f.grid.shape, 2.0**1020)), 0),  # fsum overflows
        ],
        ids=["ufunc", "fsum"],
    )
    def test_overflow_ends_the_run(self, step, iterations):
        u, rep = fixed_point(step, self.ones(), 2.0**-10, 100)
        assert not rep.converged and rep.residual is None
        assert rep.iterations == len(rep.l1_deltas) == iterations
        assert len(rep.masses) == iterations + 1 and rep.final_mass == integral(u)
        assert np.isfinite(u.values).all()
        json.dumps(rep.to_json(), allow_nan=False)
        err = rep.not_converged(field=u)
        assert str(err) == f"the step overflowed after {iterations} iterations"

    def test_overflow_above_the_fsum_cutoff(self):
        # 4096 values take the superaccumulator; 2^1020 sends the mass to
        # math.fsum, which overflows, and the run ends as on the small grid
        big = Grid(dim=1, extent=16.0, points_per_axis=4096)
        ones = Field(big, np.ones(big.shape))
        u, rep = fixed_point(lambda f: Field(big, np.full(big.shape, 2.0**1020)), ones, 2.0**-10, 100)
        assert not rep.converged and rep.residual is None
        assert rep.iterations == 0 and rep.masses == (integral(ones),) == (16.0,)
        assert u is ones
        assert str(rep.not_converged(field=u)) == "the step overflowed after 0 iterations"

    @pytest.mark.parametrize("max_iter", [0, -1, 3.0])
    def test_max_iter_rejected(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            fixed_point(lambda f: f, self.ones(), 1e-10, max_iter)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
    def test_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            fixed_point(lambda f: f, self.ones(), tol, 10)

    def test_infinite_tol_rejected(self):
        # an infinite tol would stop after one step and report convergence
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            fixed_point(lambda f: f, self.ones(), math.inf, 10)

    def test_construct_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            construct(seed(0.1), C2, P2, max_iter=0)
        with pytest.raises(ValueError):
            construct(seed(0.1), C2, P2, tol=0.0)


class TestVerify:
    def test_zero(self):
        z = Field(G, np.zeros(G.shape))
        assert verify_inequality(z, C2) == (0.0, 0.0)

    def test_constructed_solution(self):
        f, _ = construct(seed(0.2), C2, P2)
        slack, mass = verify_inequality(f, C2)
        assert _within_roundoff(slack, f, DEFAULT_TOLS.verify_slack)
        assert mass == pytest.approx(0.27639320225002106, abs=1e-8)

    def test_mass_functional_is_reported(self):
        # delta of mass 0.6 satisfies the two-fold inequality pointwise
        # but sits above t_q; the caller sees both numbers
        d = delta_field(G, mass=0.6)
        slack, mass = verify_inequality(d, C2)
        assert slack >= 0.0
        assert mass == pytest.approx(0.6, rel=1e-12)
        assert mass > P2.t_q

    def test_violation_is_visible(self):
        u = uniform_field(G, mass=3.0)
        slack, _ = verify_inequality(u, C2)
        assert slack < -0.5


class TestRoundtrip:
    def test_zero(self):
        z = Field(G, np.zeros(G.shape))
        assert uniqueness_roundtrip(z, C2, P2) == 0.0

    def test_constructed_self(self):
        f, rep = construct(seed(0.15), C2, P2)
        assert uniqueness_roundtrip(f, C2, P2) <= 10.0 * rep.tol

    def test_one_seed_transform_pair(self, monkeypatch):
        # f - P(f) is formed once for the slack and the seed: one transform
        # pair, then construct's four; the same bits as forming it twice
        f, _ = construct(seed(0.15), C2, P2)
        psi = f - apply_p(f, C2)
        rebuilt, _ = construct(Field(G, np.maximum(psi.values, 0.0)), C2, P2)
        calls = count_transforms(monkeypatch)
        assert uniqueness_roundtrip(f, C2, P2) == l1_norm(f - rebuilt)
        assert len(calls) == 6 and set(calls) == {"rfftn", "irfftn"}

    def test_random_coeff_self(self):
        rng = np.random.default_rng(92)
        for _ in range(3):
            c = random_coeffs(rng, max_degree=4)
            p = build_poly(c)
            f, rep = construct(seed(0.7 * p.q_max), c, p)
            assert uniqueness_roundtrip(f, c, p) <= 10.0 * rep.tol

    @pytest.mark.parametrize(
        "coeffs,other", [([3], [1]), ([1], [30])], ids=["p-of-smaller-coeffs", "p-of-larger-coeffs"]
    )
    def test_polynomial_of_other_coefficients(self, coeffs, other):
        c = CoeffVector(coeffs)
        f, _ = construct(seed(0.01), c, build_poly(c))
        p = build_poly(CoeffVector(other))
        with pytest.raises(InvalidInput, match="^polynomial built from different coefficients$"):
            uniqueness_roundtrip(f, c, p)

    def test_violating_field_rejected(self):
        with pytest.raises(ValueError):
            uniqueness_roundtrip(uniform_field(G, mass=3.0), C2, P2)

    @pytest.mark.parametrize("extent", [16.0, 1.0, 0.01])
    def test_constructed_field_at_every_scale(self, extent):
        # min(f - f*f) is -8.8e-12 at L = 16 and -1.4e-11 max|f| below, so an
        # absolute bound of tol refused it at L = 1 (-1.4e-10) and 0.01 (-1.4e-8)
        grid = Grid(dim=1, extent=extent, points_per_axis=1024)
        f, rep = construct(gaussian_field(grid, sigma=extent / 100.0, mass=0.2), C2, P2)
        assert uniqueness_roundtrip(f, C2, P2) <= 10.0 * rep.tol

    @pytest.mark.parametrize("which", ["uniform-mass-3", "scaled-witness"])
    def test_violating_field_rejected_on_small_box(self, which):
        grid = Grid(dim=1, extent=0.01, points_per_axis=1024)
        if which == "uniform-mass-3":
            f = uniform_field(grid, mass=3.0)
        else:
            f = 1.2 * poisson_field(PoissonParams(a=0.5, t=0.01 / 64.0, grid=grid))
        with pytest.raises(InvalidInput, match="^field violates the inequality"):
            uniqueness_roundtrip(f, C2, P2)

    def test_negative_mass_rejected(self):
        # f - f*f is -6.25e-14 everywhere, within verify_slack: the mass refuses it
        grid = Grid(dim=1, extent=16.0, points_per_axis=256)
        with pytest.raises(InvalidInput, match="^field has negative mass$"):
            uniqueness_roundtrip(uniform_field(grid, mass=-1e-12), C2, P2)
