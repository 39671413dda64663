import dataclasses
import json
import math
import re
import sys

import numpy as np
import pytest
import scipy.fft
from scipy.linalg import dft

from convlab import (
    BoseProblem,
    BoseSolution,
    CeilingViolated,
    Field,
    Grid,
    InvalidInput,
    NotConverged,
    apriori_certificate,
    bose_solve,
    conv_power,
    convolve,
    delta_field,
    gaussian_field,
    integral,
    l1_norm,
    min_value,
    resolvent_apply,
    uniform_field,
)
from convlab import bose as bose_module
from convlab.config import DEFAULT_TOLS, Tolerances

from conftest import count_transforms, fixed_point, full_k_squared, random_smooth_field

G = Grid(dim=1, extent=8.0, points_per_axis=256)
G2 = Grid(dim=2, extent=8.0, points_per_axis=64)


def problem(v_mass=0.3, xi=1.0, mu=0.0, m=1, sigma=0.6, grid=G):
    v = gaussian_field(grid, sigma=sigma, mass=v_mass)
    return BoseProblem(m=m, xi=xi, mu=mu, V=v, grid=grid)


def dense_solution(prob):
    # (xi - Lap + V) u = V assembled as an explicit matrix in node basis
    g = prob.grid
    m = g.points_per_axis
    w = dft(m)
    winv = np.conj(w) / m
    (k,) = g.frequencies()
    symbol = (prob.xi + 4.0 * np.pi**2 * k.ravel() ** 2) ** prob.m
    a = winv @ np.diag(symbol) @ w + np.diag(prob.V.values)
    return np.linalg.solve(a, prob.V.values.astype(complex)).real


def old_resolvent(f, xi, m):
    # the multiplier applied through raw transforms, as the solver once did
    mult = (xi + 4.0 * np.pi**2 * full_k_squared(f.grid)) ** (-m)
    return Field(f.grid, scipy.fft.ifftn(scipy.fft.fftn(f.values) * mult).real)


def old_step(prob):
    # u -> R^m[V(1-u)] + (*^m f) * u with f = mu^(1/m) R[u]: the equation
    # assembled in field space, sharing no code with the solver's step
    def step(u):
        nxt = old_resolvent(Field(prob.grid, prob.V.values * (1.0 - u.values)), prob.xi, prob.m)
        if prob.mu > 0:
            f = prob.mu ** (1.0 / prob.m) * old_resolvent(u, prob.xi, 1)
            nxt = nxt + convolve(conv_power(f, prob.m), u)
        return nxt

    return step


def old_solve(prob, tol=1e-10, max_iter=10_000):
    return fixed_point(old_step(prob), Field(prob.grid, np.zeros(prob.grid.shape)), tol, max_iter)


class TestProblem:
    def test_validation(self):
        v = gaussian_field(G, sigma=0.5, mass=0.2)
        with pytest.raises(ValueError):
            BoseProblem(m=0, xi=1.0, mu=0.0, V=v, grid=G)
        with pytest.raises(ValueError):
            BoseProblem(m=1, xi=0.0, mu=0.0, V=v, grid=G)
        with pytest.raises(ValueError):
            BoseProblem(m=1, xi=1.0, mu=-0.1, V=v, grid=G)
        other = Grid(dim=1, extent=8.0, points_per_axis=128)
        with pytest.raises(ValueError):
            BoseProblem(m=1, xi=1.0, mu=0.0, V=v, grid=other)
        with pytest.raises(ValueError):
            BoseProblem(m=1, xi=1.0, mu=0.0, V=-1.0 * v, grid=G)

    @pytest.mark.parametrize("m", [1.5, 2.0])
    def test_order_must_be_an_integer(self, m):
        # a fractional resolvent power is a different equation
        v = gaussian_field(G, sigma=0.5, mass=0.2)
        with pytest.raises(InvalidInput, match=f"^resolvent order m must be an integer, got {m}$"):
            BoseProblem(m=m, xi=1.0, mu=0.0, V=v, grid=G)

    @pytest.mark.parametrize("xi,mu,name", [(np.inf, 0.0, "xi"), (np.nan, 0.0, "xi"),
                                            (1.0, np.inf, "mu"), (1.0, np.nan, "mu")])
    def test_non_finite_parameters(self, xi, mu, name):
        v = gaussian_field(G, sigma=0.5, mass=0.2)
        with pytest.raises(ValueError, match=f"{name} must be .* finite"):
            BoseProblem(m=1, xi=xi, mu=mu, V=v, grid=G)


class TestResolvent:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_mass_identity(self, m):
        rng = np.random.default_rng(101)
        f = random_smooth_field(G, rng, nonneg=True)
        xi = 1.7
        out = resolvent_apply(f, xi, m)
        assert integral(out) == pytest.approx(integral(f) / xi**m, rel=1e-13)

    def test_constant_field(self):
        f = uniform_field(G, mass=2.0)
        out = resolvent_apply(f, 4.0, 2)
        want = 2.0 / 8.0 / 16.0
        assert np.abs(out.values - want).max() <= 1e-15

    def test_kernel_oracle_1d(self):
        # continuum kernel e^{-sqrt(xi) |x|} / (2 sqrt(xi)), periodized;
        # the discrete multiplier truncates at Nyquist, denting only the
        # origin node by about L / (12 M) relative
        xi = 1.0
        out = resolvent_apply(delta_field(G, mass=1.0), xi)
        x = G.axis_coords()
        r = math.sqrt(xi)
        want = np.zeros_like(x)
        for k in range(-10, 11):
            want += np.exp(-r * np.abs(x + k * G.extent)) / (2.0 * r)
        diff = np.abs(out.values - want)
        k0 = G.points_per_axis // 2
        assert diff[k0] <= 4e-3
        # the ringing decays like 1/j^2 off the origin node
        assert diff[k0 - 2 : k0 + 3].max() <= 4e-3
        mask = np.ones_like(diff, bool)
        mask[k0 - 2 : k0 + 3] = False
        assert diff[mask].max() <= 1e-4
        assert G.h * diff.sum() <= 3e-4

    def test_preserves_nonnegativity(self):
        rng = np.random.default_rng(102)
        f = random_smooth_field(G, rng, nonneg=True)
        out = resolvent_apply(f, 0.8, 1)
        assert min_value(out) >= -1e-13 * l1_norm(f)

    @pytest.mark.parametrize(
        "extent,points,xi,low",
        [
            (512.0, 1024, 9.0, -1.654e-4),
            (256.0, 1024, 4.0, -6.939e-6),
            (8.0, 256, 1.0, 1.832e-2),  # the spacing of cli-script's bose step
            (16.0, 128, 1.0, 3.339e-4),  # the spacing of bose-mix's 128^2 grids
        ],
    )
    def test_grid_kernel_sign(self, extent, points, xi, low):
        # the multiplier stops at Nyquist, so the grid kernel dips below zero
        # where the spacing L/M is not small against the decay length xi^(-1/2);
        # its mass stays 1/xi
        grid = Grid(dim=1, extent=extent, points_per_axis=points)
        kernel = resolvent_apply(delta_field(grid, mass=1.0), xi)
        assert min_value(kernel) == pytest.approx(low, rel=1e-3)
        assert integral(kernel) == pytest.approx(1.0 / xi, rel=1e-14)

    def test_argument_validation(self):
        f = uniform_field(G)
        with pytest.raises(ValueError):
            resolvent_apply(f, 0.0)
        with pytest.raises(ValueError):
            resolvent_apply(f, 1.0, m=0)

    @pytest.mark.parametrize(
        "xi, m, message",
        [(math.inf, 1, "spectral shift xi must be positive and finite, got inf"),
         (1e-320, 1, "xi^m is outside the float range for xi = 1e-320, m = 1"),
         (1e300, 2, "xi^m is outside the float range for xi = 1e+300, m = 2")],
        ids=["inf", "1e-320", "1e300-m2"],
    )
    def test_shift_beyond_float_range(self, xi, m, message):
        # refused as BoseProblem refuses it: R_m(0) = xi^(-m) must be finite
        # and nonzero
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            resolvent_apply(uniform_field(G), xi, m)

    def test_small_box_runs_quietly(self):
        # ||k||^2 reaches 6.4e307, finite, and 4 pi^2 ||k||^2 passes the float
        # range: R_m is 0 there, with no warning. Every other mode is damped
        # below 1e-300, so the delta's image is flat with the mass 1 / xi
        grid = Grid(dim=1, extent=1e-153, points_per_axis=16)
        out = resolvent_apply(delta_field(grid, mass=1.0), 2.0)
        assert integral(out) == pytest.approx(0.5, rel=1e-14)
        assert np.allclose(out.values, 0.5 / grid.extent, rtol=1e-14, atol=0.0)

    def test_order_must_be_an_integer(self):
        # 1.5 used to apply a fractional power of the resolvent
        with pytest.raises(InvalidInput, match=r"^m must be an integer, got 1\.5$"):
            resolvent_apply(uniform_field(G), 1.0, 1.5)


class TestSolve:
    def test_zero_potential(self):
        v = Field(G, np.zeros(G.shape))
        sol = bose_solve(BoseProblem(m=1, xi=1.0, mu=0.1, V=v, grid=G))
        assert np.all(sol.u.values == 0.0)
        assert sol.delta == math.inf
        assert sol.hypothesis_value == 0.0
        assert sol.report.converged and sol.report.iterations == 1
        assert sol.report.monotone_ok
        assert apriori_certificate(sol).passed

    def test_ceiling_violation_carries_the_solution(self, monkeypatch):
        # no admissible problem is known to reach u = 1, so a negative slack
        # puts the ceiling below this converged solution's maximum
        want = bose_solve(problem(mu=0.01))
        monkeypatch.setattr(bose_module, "DEFAULT_TOLS", Tolerances(ceiling_slack=-1.0))
        with pytest.raises(CeilingViolated) as exc:
            bose_solve(problem(mu=0.01))
        top = want.u.values.max()
        assert 0.0 < top < 1.0
        assert str(exc.value) == f"max(u) = {top:.6g} exceeds 1; certificate hypotheses fail"
        sol = exc.value.solution
        assert sol.report == want.report and sol.u.values.tobytes() == want.u.values.tobytes()

    def test_smallness_guard(self):
        with pytest.raises(ValueError):
            bose_solve(problem(v_mass=0.6))
        with pytest.raises(ValueError):
            bose_solve(problem(v_mass=0.3, xi=0.7, m=2))  # 0.3 / 0.49 >= 0.5

    @pytest.mark.parametrize(
        "xi, v_mass", [(1e300, 0.3), (1e-200, 0.3), (1e-160, 0.0)],
        ids=["1e+300", "1e-200", "1e-160"],
    )
    def test_smallness_guard_power_beyond_float_range(self, xi, v_mass):
        # xi^m overflows (a Python float power raises) or underflows to 0,
        # or is subnormal, so that R_m(0) = xi^(-m) overflows: refused even
        # where V = 0 would give u = 0
        with pytest.raises(InvalidInput, match=re.escape(f"xi = {xi}, m = 2")):
            bose_solve(problem(xi=xi, m=2, v_mass=v_mass))

    def test_linear_case_dense_oracle(self):
        prob = problem(v_mass=0.3)
        sol = bose_solve(prob)
        u_dense = dense_solution(prob)
        assert G.h * np.abs(sol.u.values - u_dense).sum() <= 1e-8
        assert sol.report.residual <= 10.0 * sol.report.tol

    def test_linear_mass_balance(self):
        # integrating the equation kills the Laplacian:
        # xi * integral(u) = integral(V) - integral(V u)
        prob = problem(v_mass=0.4, xi=1.3)
        sol = bose_solve(prob)
        vu = G.cell_volume * math.fsum((prob.V.values * sol.u.values).ravel())
        want = (integral(prob.V) - vu) / prob.xi
        assert integral(sol.u) == pytest.approx(want, rel=1e-10)

    def test_delta_is_reciprocal_mass(self):
        sol = bose_solve(problem(v_mass=0.3))
        assert sol.delta == pytest.approx(1.0 / integral(sol.u), rel=1e-15)

    def test_coupled_case(self):
        sol = bose_solve(problem(v_mass=0.3, mu=0.01))
        assert sol.report.converged
        assert min_value(sol.u) >= -1e-8 * l1_norm(sol.u)
        f = (sol.problem.mu ** (1.0 / sol.problem.m)) * resolvent_apply(
            sol.u, sol.problem.xi, 1
        )
        assert integral(f) == pytest.approx(sol.hypothesis_value, rel=1e-12)
        cert = apriori_certificate(sol)
        assert cert.applicable and cert.passed
        assert cert.hypothesis_ok and cert.proof_inequality_ok and cert.nonneg_ok

    def test_higher_order_coupled(self):
        sol = bose_solve(problem(v_mass=0.3, xi=1.2, mu=0.05, m=2))
        assert sol.report.converged
        cert = apriori_certificate(sol)
        assert cert.passed and cert.applicable

    def test_not_converged_payload(self):
        with pytest.raises(NotConverged) as exc:
            bose_solve(problem(v_mass=0.45), max_iter=2)
        assert exc.value.solution is not None
        assert exc.value.solution.report is exc.value.report
        assert exc.value.field is None
        assert exc.value.report.iterations == 2
        assert not exc.value.report.converged
        assert str(exc.value) == (
            f"increment {exc.value.report.l1_deltas[-1]:.3e} still above tol 1e-10 after 2 iterations"
        )

    @pytest.mark.parametrize(
        "limits",
        [{"max_iter": 0}, {"max_iter": -1}, {"max_iter": 3.0}, {"tol": 0.0}, {"tol": -1e-10},
         {"tol": math.nan}, {"tol": math.inf}],
        ids=["max_iter=0", "max_iter=-1", "max_iter=3.0", "tol=0", "tol<0", "tol=nan", "tol=inf"],
    )
    def test_limits_rejected(self, limits):
        (name,) = limits
        with pytest.raises(InvalidInput, match=f"{name} must be"):
            bose_solve(problem(v_mass=0.3), **limits)

    def test_backsliding_is_flagged(self):
        # from u_0 = 0 the iterates of the linear equation alternate:
        # u_2 = u_1 - R[V u_1] lies below u_1
        prob = problem(v_mass=0.3)
        sol = bose_solve(prob)
        _, rep_old = old_solve(prob)
        assert sol.report.converged
        assert not sol.report.monotone_ok and not rep_old.monotone_ok

    def test_backsliding_skips_the_residual_step(self):
        # the step after u_1 backslides, but at max_iter = 1 it is the
        # residual step: not accepted, so not checked
        prob = problem(v_mass=0.3)
        one = pytest.raises(NotConverged, bose_solve, prob, max_iter=1).value.report
        two = pytest.raises(NotConverged, bose_solve, prob, max_iter=2).value.report
        assert one.monotone_ok and not two.monotone_ok
        assert one.residual == two.l1_deltas[1] == 0.025594501366199233

    @pytest.mark.parametrize("mu,m", [(0.0, 1), (0.01, 1), (0.05, 2)])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_residual_is_the_next_step(self, mu, m, k):
        # the residual of a run capped at k steps is the increment that the
        # run capped at k + 1 accepts as its last, bit for bit
        prob = problem(v_mass=0.3, mu=mu, m=m)
        capped = pytest.raises(NotConverged, bose_solve, prob, max_iter=k).value.report
        longer = pytest.raises(NotConverged, bose_solve, prob, max_iter=k + 1).value.report
        assert capped.l1_deltas == longer.l1_deltas[:k]
        assert capped.masses == longer.masses[: k + 1]
        assert capped.residual == longer.l1_deltas[k]

    def test_increment_norm_overflow_is_accepted(self, monkeypatch):
        # the finiteness test reads the exact sum of |u_next - u|, not its
        # product with the cell volume: a finite sum whose L1 norm rounds to
        # inf is accepted, and the run goes on
        grid = Grid(dim=1, extent=1024.0, points_per_axis=256)  # cell volume 4
        prob = problem(v_mass=0.3, mu=0.01, sigma=16.0, grid=grid)
        real, calls = bose_module._exact_sum, []

        def big(x, absolute=False, top=None):
            if absolute:
                calls.append(1)
                if len(calls) == 2:
                    return sys.float_info.max
            return real(x, absolute=absolute, top=top)

        monkeypatch.setattr(bose_module, "_exact_sum", big)
        rep = bose_solve(prob).report
        assert rep.l1_deltas[1] == math.inf
        assert rep.converged and rep.iterations > 2

    def test_overflow_ends_the_run(self):
        # mu = 1e6 all but squares the mass every step (0.3, 9e4, 8.1e15, ...,
        # 1.9e169), and the seventh step overflows
        prob = problem(v_mass=0.3, mu=1e6)
        with pytest.raises(NotConverged) as exc:
            bose_solve(prob, max_iter=50)
        rep, u = exc.value.report, exc.value.solution.u
        _, rep_old = old_solve(prob, max_iter=50)
        assert not rep.converged and rep.residual is None
        assert rep.iterations == len(rep.l1_deltas) == rep_old.iterations == 6
        assert len(rep.masses) == 7 and rep.final_mass == integral(u) > 1e169
        assert rep.monotone_ok == rep_old.monotone_ok
        assert np.isfinite(u.values).all()
        json.dumps(rep.to_json(), allow_nan=False)
        assert str(exc.value) == "the step overflowed after 6 iterations"

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("where", ["step", "residual"])
    def test_non_finite_inverse_transform_ends_the_run(self, monkeypatch, bad, where):
        # an inverse transform that leaves the float range raises nothing in
        # numpy; the run still ends there as an overflow, keeping the last
        # finite iterate
        prob = problem(v_mass=0.3, mu=0.01)
        done = bose_solve(prob).report.iterations
        stop = 3 if where == "step" else done
        if where == "step":
            with pytest.raises(NotConverged) as exc:
                bose_solve(prob, max_iter=stop)
            want = exc.value.solution.u.values
        else:
            want = bose_solve(prob).u.values
        real, calls = scipy.fft.irfftn, []

        def spoiled(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append(1)
            if len(calls) == stop + 1:
                out[3] = bad
            return out

        monkeypatch.setattr(scipy.fft, "irfftn", spoiled)
        with pytest.raises(NotConverged) as exc:
            bose_solve(prob)
        rep = exc.value.report
        assert not rep.converged and rep.residual is None
        assert rep.iterations == len(rep.l1_deltas) == stop
        assert np.array_equal(exc.value.solution.u.values, want)
        json.dumps(rep.to_json(), allow_nan=False)
        assert str(exc.value) == f"the step overflowed after {stop} iterations"

    @pytest.mark.parametrize("mu,m", [(0.0, 1), (0.01, 1), (0.05, 2)])
    def test_residual_is_integral_form(self, mu, m):
        # the residual of u = R^m[V(1-u)] + (*^m f) * u, f = mu^(1/m) R[u],
        # assembled by the field-space oracle; the two evaluation orders
        # differ by roundoff only
        sol = bose_solve(problem(v_mass=0.3, xi=1.2, mu=mu, m=m))
        u = sol.u
        rhs = old_step(sol.problem)(u)
        gap = abs(sol.report.residual - l1_norm(u - rhs))
        assert gap <= 2.0**-52 * (l1_norm(u) + l1_norm(rhs))
        assert sol.report.residual <= 10.0 * sol.report.tol
        assert sol.report.final_mass == integral(u) == sol.report.masses[-1]
        assert sol.report.masses[0] == 0.0

    @pytest.mark.parametrize("grid", [G, G2], ids=["1d", "2d"])
    @pytest.mark.parametrize("mu", [0.0, 0.05])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_field_space_oracle(self, grid, mu, m):
        prob = problem(v_mass=0.3, xi=1.2, mu=mu, m=m, grid=grid)
        sol = bose_solve(prob)
        u_old, rep_old = old_solve(prob)
        assert rep_old.converged
        assert sol.report.iterations == rep_old.iterations
        assert sol.report.monotone_ok == rep_old.monotone_ok
        scale = np.abs(u_old.values).max()
        assert np.abs(sol.u.values - u_old.values).max() <= 2.0**-49 * scale

    @pytest.mark.parametrize("mu", [0.0, 0.05])
    def test_two_steps_match_oracle(self, mu):
        # the second step is the first to see a non-zero u
        prob = problem(v_mass=0.3, xi=1.2, mu=mu, m=2)
        with pytest.raises(NotConverged) as exc:
            bose_solve(prob, max_iter=2)
        u_old, _ = old_solve(prob, max_iter=2)
        got = exc.value.solution.u.values
        assert np.abs(got - u_old.values).max() <= 2.0**-49 * np.abs(u_old.values).max()

    # the symbol of u is carried from step to step, so no step transforms u
    @pytest.mark.parametrize("mu,per_step", [(0.0, 2), (0.05, 2)])
    def test_transforms_per_step(self, monkeypatch, mu, per_step):
        calls = count_transforms(monkeypatch)
        sol = bose_solve(problem(v_mass=0.3, xi=1.2, mu=mu, m=2))
        # one step per iteration plus the residual's, all real-to-complex
        assert len(calls) == per_step * (sol.report.iterations + 1)
        assert set(calls) == {"rfftn", "irfftn"}

    def test_deterministic(self):
        a = bose_solve(problem(v_mass=0.3, mu=0.01)).u.values
        b = bose_solve(problem(v_mass=0.3, mu=0.01)).u.values
        assert np.array_equal(a, b)


class TestCertificate:
    def test_report_json(self):
        cert = apriori_certificate(bose_solve(problem(v_mass=0.3, mu=0.01)))
        obj = cert.to_json()
        assert set(obj) == {
            "hypothesis_value",
            "hypothesis_ok",
            "proof_inequality_slack",
            "proof_inequality_ok",
            "min_u",
            "nonneg_ok",
            "applicable",
            "passed",
        }

    @pytest.mark.parametrize("m,mu", [(1, 1.0), (2, 2.0)])
    def test_bounds_are_slacks_times_max_abs(self, monkeypatch, m, mu):
        # on 1-d L = 512 with xi = 9 the spectral resolvent's kernel has
        # negative lobes (-1.4e-3 of its peak): u dips to about -4e-12 and
        # f - *^(m+1) f to -2e-13 .. -5e-13, which is not roundoff. Each slack
        # just above and just below |min| / max(1, max|.|) decides its check.
        xi, grid = 9.0, Grid(dim=1, extent=512.0, points_per_axis=1024)
        sol = bose_solve(problem(v_mass=0.3 * xi**m, xi=xi, mu=mu, m=m, sigma=1.0, grid=grid))
        cert = apriori_certificate(sol)
        assert cert.hypothesis_ok and cert.proof_inequality_ok and not cert.nonneg_ok
        f = mu ** (1.0 / m) * resolvent_apply(sol.u, xi, 1)
        proof_edge = -cert.proof_inequality_slack / max(1.0, float(np.abs(f.values).max()))
        nonneg_edge = -cert.min_u / max(1.0, float(np.abs(sol.u.values).max()))
        assert proof_edge > 0.0 and nonneg_edge > 0.0
        for factor, ok in ((1.01, True), (0.99, False)):
            # each check in turn, with the other one passing
            for change in (
                {"verify_slack": factor * proof_edge, "nonneg_slack": 1.0},
                {"nonneg_slack": factor * nonneg_edge},
            ):
                tols = dataclasses.replace(DEFAULT_TOLS, **change)
                monkeypatch.setattr(bose_module, "DEFAULT_TOLS", tols)
                cert = apriori_certificate(sol)
                assert (cert.proof_inequality_ok and cert.nonneg_ok) is ok
                assert cert.passed is ok

    def test_not_applicable_is_vacuous(self):
        # blow the hypothesis up by scaling u; no claim is made then
        sol = bose_solve(problem(v_mass=0.3, mu=0.01))
        scale = 2.0 / sol.hypothesis_value
        big = BoseSolution(
            problem=sol.problem,
            u=scale * sol.u,
            delta=1.0 / integral(scale * sol.u),
            hypothesis_value=scale * sol.hypothesis_value,
            report=sol.report,
        )
        cert = apriori_certificate(big)
        assert not cert.applicable
        assert not cert.hypothesis_ok
        assert cert.passed
