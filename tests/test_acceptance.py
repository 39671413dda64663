"""End-to-end acceptance gate: ten numbered criteria, each printing a
single PASS/FAIL line with its runtime. Tolerances are part of the
contract and are asserted, not logged."""

import math
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

import numpy as np
import pytest

from convlab import (
    BoseProblem,
    CoeffVector,
    Field,
    Grid,
    PoissonParams,
    apriori_certificate,
    bose_solve,
    build_poly,
    check_two_fold,
    construct,
    conv_power,
    convolve,
    delta_field,
    disk_scan,
    gaussian_field,
    integral,
    iterate_table,
    l1_norm,
    lagrange_inverse,
    limit_series,
    mass_bound_certificate,
    min_value,
    poisson_field,
    qprime_roots,
    reciprocal_qprime,
    resolvent_apply,
    verify_inequality,
)
from convlab.qpoly import eval_p

from conftest import linf_diff, random_coeffs, random_smooth_field, uniqueness_roundtrip

from test_bose import dense_solution


@contextmanager
def criterion(n, description, budget_s):
    start = perf_counter()
    try:
        yield
        dt = perf_counter() - start
        assert dt < budget_s, f"criterion {n} took {dt:.2f}s, budget {budget_s}s"
    except BaseException:
        dt = perf_counter() - start
        print(f"\nACCEPTANCE {n:02d} FAIL - {description} ({dt:.2f}s)")
        raise
    print(f"\nACCEPTANCE {n:02d} PASS - {description} ({dt:.2f}s)")


def test_criterion_01_closed_form_critical_points():
    with criterion(1, "closed-form critical points for single-term vectors", 1.0):
        for m in range(2, 7):
            p = build_poly(CoeffVector([0] * (m - 2) + [1]))
            want = m ** (-1.0 / (m - 1))
            assert abs(p.t_q - want) <= 1e-12 * want


def test_criterion_02_catalan_and_inversion_routes():
    with criterion(2, "Catalan diagonal; iteration matches Lagrange inversion", 10.0):
        catalan = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786)
        assert limit_series(CoeffVector([1]), L=12).c == catalan
        rng = np.random.default_rng(1002)
        for _ in range(50):
            c = random_coeffs(rng, max_degree=6, max_a=3)
            assert limit_series(c, L=10).c == lagrange_inverse(c, L=10).c


def test_criterion_03_table_properties_and_mass_certificate():
    with criterion(3, "table support/monotonicity/freezing and mass certificate", 30.0):
        rng = np.random.default_rng(1003)
        for _ in range(50):
            c = random_coeffs(rng, max_degree=6, max_a=3)
            p = build_poly(c)
            cap = 48
            t = iterate_table(c, J=8, L_cap=cap)
            for j in range(9):
                support = c.n2**j
                if support < cap:
                    assert all(t.rows[j][l - 1] == 0 for l in range(support + 1, cap + 1))
                if j < 8:
                    assert all(t.rows[j + 1][l - 1] >= t.rows[j][l - 1] for l in range(1, cap + 1))
            for l in range(1, 9):
                assert all(t.rows[j][l - 1] == t.rows[l][l - 1] for j in range(l, 9))
            sums = mass_bound_certificate(t, p)
            assert all(v <= p.t_q + 1e-12 for v in sums)


def test_criterion_04_min_modulus_root_and_radius():
    with criterion(4, "smallest Q' root is the positive critical point; series radius", 10.0):
        rng = np.random.default_rng(1004)
        for _ in range(100):
            c = random_coeffs(rng, max_degree=6, max_a=3)
            p = build_poly(c)
            roots = qprime_roots(c)
            # modulus ties occur for lacunary vectors; the positive real
            # root must still be present and attain the minimum
            assert abs(min(abs(z) for z in roots) - p.t_q) <= 1e-10
            assert min(abs(z - p.t_q) for z in roots) <= 1e-10
        for coeffs, t_q in ((CoeffVector([1]), 0.5), (CoeffVector([0, 1]), 3.0**-0.5)):
            _, radius = reciprocal_qprime(coeffs, L=64)
            assert abs(radius - t_q) <= 0.02 * t_q


def test_criterion_05_disk_certificates():
    with criterion(5, "derivative and ratio bounds plus injectivity on the open disk", 30.0):
        rng = np.random.default_rng(1005)
        for _ in range(20):
            p = build_poly(random_coeffs(rng, max_degree=6, max_a=3))
            rep = disk_scan(p, pair_samples=10_000)
            assert rep.sup_p_prime < 1.0
            assert rep.sup_p_over_z < 1.0
            assert rep.injectivity_violations == 0


def test_criterion_06_constructor_convergence_and_bound():
    with criterion(6, "fixed-point construction at mass 0.2 with scalar shadowing", 20.0):
        grid = Grid(dim=1, extent=16.0, points_per_axis=1024)
        c = CoeffVector([1])
        p = build_poly(c)
        psi = gaussian_field(grid, sigma=0.5, mass=0.2)
        f, rep = construct(psi, c, p)
        assert rep.converged
        assert abs(l1_norm(f) - 0.27639320225002106) <= 1e-6
        assert min_value(f) >= -1e-11
        slack, _ = verify_inequality(f, c)
        assert slack >= -1e-10
        sigma = rep.masses[0]
        for j, got in enumerate(rep.masses):
            if j:
                sigma = rep.masses[0] + eval_p(c, sigma)
            assert abs(got - sigma) <= 1e-11 * max(1.0, abs(sigma))


def test_criterion_07_witness_slack_and_mass():
    with criterion(7, "periodized witness satisfies the two-fold inequality", 10.0):
        grid = Grid(dim=1, extent=64.0, points_per_axis=4096)
        f = poisson_field(PoissonParams(a=0.5, t=1.0, grid=grid))
        slack, mass = check_two_fold(f)
        assert slack >= -1e-8 * l1_norm(f)
        assert abs(mass - 0.5) <= 1e-3
        bad_slack, _ = check_two_fold(1.2 * f)
        assert bad_slack < 0.0


def test_criterion_08_uniqueness_roundtrips():
    with criterion(8, "seed recovery and rebuild return the same field", 60.0):
        wide = Grid(dim=1, extent=64.0, points_per_axis=4096)
        f = poisson_field(PoissonParams(a=0.3, t=1.0, grid=wide))
        c2 = CoeffVector([1])
        assert uniqueness_roundtrip(f, c2, build_poly(c2)) <= 1e-5

        grid = Grid(dim=1, extent=16.0, points_per_axis=1024)
        for c in (CoeffVector([1]), CoeffVector([1, 1])):
            p = build_poly(c)
            for target in (0.1, 0.15, 0.2):
                seed_mass = target - eval_p(c, target)
                assert seed_mass <= p.q_max
                g, _ = construct(gaussian_field(grid, sigma=0.5, mass=seed_mass), c, p)
                assert abs(integral(g) - target) <= 1e-8
                assert uniqueness_roundtrip(g, c, p) <= 1e-5


def test_criterion_09_bose_solver_and_certificate():
    with criterion(9, "resolvent fixed point, certificate, and dense oracle", 60.0):
        grid = Grid(dim=1, extent=8.0, points_per_axis=256)
        v = gaussian_field(grid, sigma=0.6, mass=0.1)
        prob = BoseProblem(m=1, xi=1.0, mu=0.01, V=v, grid=grid)
        sol = bose_solve(prob, tol=1e-10)
        assert sol.report.converged
        assert sol.hypothesis_value < 1.0
        assert min_value(sol.u) >= -1e-8 * l1_norm(sol.u)
        f = prob.mu * resolvent_apply(sol.u, prob.xi, 1)
        assert min_value(f - conv_power(f, 2)) >= -1e-8 * l1_norm(f)
        want = prob.mu * integral(sol.u) / prob.xi
        assert abs(integral(f) - want) <= 1e-12 * max(1.0, abs(want))
        cert = apriori_certificate(sol)
        assert cert.applicable and cert.passed

        linear = BoseProblem(m=1, xi=1.0, mu=0.0, V=v, grid=grid)
        u = bose_solve(linear, tol=1e-12).u
        dense = dense_solution(linear)
        assert grid.h * np.abs(u.values - dense).sum() <= 1e-8


def test_criterion_10_field_algebra():
    with criterion(10, "convolution algebra across dimensions", 60.0):
        rng = np.random.default_rng(1010)
        grids = [
            Grid(dim=1, extent=8.0, points_per_axis=256),
            Grid(dim=2, extent=8.0, points_per_axis=64),
            Grid(dim=3, extent=8.0, points_per_axis=64),
        ]
        for grid in grids:
            d = delta_field(grid, mass=1.0)
            for _ in range(100):
                f = random_smooth_field(grid, rng, nonneg=True)
                g = random_smooth_field(grid, rng, nonneg=True)
                fg = convolve(f, g)
                prod = integral(f) * integral(g)
                assert abs(integral(fg) - prod) <= 1e-12 * max(1.0, abs(prod))
                assert linf_diff(fg, convolve(g, f)) <= 1e-12 * (
                    np.abs(fg.values).max() + 1.0
                )
                young = l1_norm(f) * l1_norm(g)
                assert abs(l1_norm(fg) - young) <= 1e-11 * max(1.0, young)
                assert linf_diff(convolve(d, f), f) <= 1e-12 * (
                    np.abs(f.values).max() + 1.0
                )
