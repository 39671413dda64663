"""Resolvent fixed-point solver for (xi - Laplacian)^m u = V(1-u) + mu (*^(m+1) u)
on the periodic grid, plus the a-priori non-negativity certificate.

The m-th resolvent power is a diagonal spectral multiplier
R_m = (xi + 4 pi^2 ||k||^2)^(-m). Its continuum kernel is non-negative
with total mass xi^(-m), the zero-frequency value. On the grid the
multiplier stops at the Nyquist frequency, and the kernel it gives keeps
that mass but can dip below zero where the spacing L/M is not small
against the decay length xi^(-1/2): in 1-d with m = 1, its minimum is
-1.65e-4 (peak 0.119) at L = 512, M = 1024, xi = 9, and +1.8e-2 at
L = 8, M = 256, xi = 1. Picard iteration starts from
u = 0 and takes the equation itself as its step, written on mass
symbols (where *^n becomes the n-th power):

    ms(u_next) = R_m (ms(V(1-u)) + mu ms(u)^(m+1)).

solve runs that step on buffers it keeps. Each step forms V(1-u) in
place, takes its forward transform, adds mu S^(m+1), where S is the
symbol of u carried over from the step before, multiplies by R_m, and
takes the inverse transform: two transforms per step for every mu. The
symbol S so formed is carried forward as the symbol of u_next, in place
of a third transform of u_next; it differs from that transform by
roundoff. The increment u_next - u is written into the buffer that held
V(1-u). Its L1 norm and the mass of u_next are the exact sums of
integral and l1_norm, cell_volume * fsum. One loop takes every step,
one per pass. Once the last increment is below tol, or max_iter steps
are accepted, it takes one step more: that step is not accepted and
not checked for backsliding, and its L1 increment is the residual. An
iterate that leaves the float range, in a step or in the inverse
transform, ends the run as an overflow.

The non-negativity argument runs through f = mu^(1/m) R[u]: the
certificate checks mu^(1/m) integral(u) / xi < 1, f >= *^(m+1) f, and
u >= 0 on the converged solution, in field space, sharing no code path
with the step.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from math import inf

import numpy as np

from .config import DEFAULT_MAX_ITER, DEFAULT_TOL, DEFAULT_TOLS
from .constructor import SolveReport, _minus_p, _require_limits
from .errors import CeilingViolated, InvalidInput, _require_index
from .field import Field, Grid, integral, min_value
from .field import _exact_sum, _field_from_symbol, _fresh, _k_squared, _mass_symbol
from .field import _symbol_of, _values_of, _within_roundoff
from .qpoly import CoeffVector


@dataclass(frozen=True)
class BoseProblem:
    m: int
    xi: float
    mu: float
    V: Field
    grid: Grid

    def __post_init__(self):
        _require_shift(self.xi, self.m, "resolvent order m")
        if not 0 <= self.mu < inf:
            raise InvalidInput(f"coupling mu must be non-negative and finite, got {self.mu}")
        if self.V.grid != self.grid:
            raise InvalidInput("potential sampled on a different grid")
        if min_value(self.V) < 0:
            raise InvalidInput("potential must be non-negative")


@dataclass(frozen=True)
class BoseSolution:
    problem: BoseProblem
    u: Field
    delta: float
    hypothesis_value: float
    report: SolveReport


@dataclass(frozen=True)
class CertificateReport:
    hypothesis_value: float
    hypothesis_ok: bool
    proof_inequality_slack: float
    proof_inequality_ok: bool
    min_u: float
    nonneg_ok: bool
    applicable: bool
    passed: bool

    def to_json(self) -> dict:
        return self.__dict__.copy()


def _require_shift(xi: float, m: int, order: str) -> None:
    """Where xi and the order m enter: refuses an m that is not an integer
    >= 1 (named order), a xi that is not positive and finite, and a xi^m
    whose value or reciprocal R_m(0) = xi^(-m) passes the float range. A
    Python float power raises on overflow and gives 0 below the range."""
    if _require_index(order, m) < 1:
        raise InvalidInput(f"{order} must be >= 1, got {m}")
    if not 0 < xi < inf:
        raise InvalidInput(f"spectral shift xi must be positive and finite, got {xi}")
    try:
        xi_m, r_0 = float(xi) ** m, float(xi) ** -m
    except OverflowError:
        xi_m = r_0 = 0.0
    if xi_m == 0.0 or r_0 == 0.0:
        raise InvalidInput(f"xi^m is outside the float range for xi = {xi}, m = {m}")


def _resolvent_symbol(grid: Grid, xi: float, m: int) -> np.ndarray:
    """R_m = (xi + 4 pi^2 ||k||^2)^(-m) over the grid's half spectrum.
    Where 4 pi^2 ||k||^2 passes the float range it is inf, quietly, and
    R_m is 0 there, as for _k_squared."""
    with np.errstate(over="ignore"):
        return (xi + 4.0 * np.pi**2 * _k_squared(grid)) ** (-m)


def resolvent_apply(f: Field, xi: float, m: int = 1) -> Field:
    """(xi - Laplacian)^(-m) f via the spectral multiplier; divides the mass
    by xi^m to roundoff. It preserves non-negativity only where the grid
    kernel is non-negative, which coarse grids break (module docstring)."""
    _require_shift(xi, m, "m")
    return _field_from_symbol(f.grid, _mass_symbol(f) * _resolvent_symbol(f.grid, xi, m))


def solve(
    problem: BoseProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> BoseSolution:
    """Picard iteration ms(u_{k+1}) = R_m (ms(V(1-u_k)) + mu ms(u_k)^(m+1))
    from u_0 = 0, R_m formed once per solve, on the buffers and the carried
    symbol of the module docstring, until the L1 increment drops below tol
    or max_iter steps have run.

    The report records every accepted L1 increment and every mass (the
    first being integral(u_0) = 0), whether any step before the residual's
    moved a node down by more than nonneg_slack, and the residual: the L1
    norm of step(u) - u for the last iterate u, the step after the last
    accepted one, taken and not kept. A step that overflows ends the run
    unconverged, with residual None and u the last finite iterate.

    The smallness guard integral(V)/xi^m < 0.5 keeps the iteration inside
    the empirically contractive regime where the ceiling u <= 1 holds; the
    non-negativity argument assumes the ceiling rather than proving it, so
    the solver can only observe it, and raises CeilingViolated when it
    fails.
    """
    xi_m = problem.xi**problem.m  # BoseProblem checked that it and its reciprocal are finite
    mass_v = integral(problem.V)
    if not mass_v / xi_m < 0.5:
        raise InvalidInput(
            f"integral(V)/xi^m = {mass_v / xi_m:.3g} >= 0.5; "
            "outside the guarded smallness regime"
        )
    _require_limits(tol, max_iter)
    grid, m, mu, v = problem.grid, problem.m, problem.mu, problem.V.values
    cell_volume = grid.cell_volume
    r_m = _resolvent_symbol(grid, problem.xi, m)
    # u_0 = 0 and its symbol; work holds V(1-u), then the increment
    u, work = np.zeros(grid.shape), np.empty(grid.shape)
    s = np.zeros(r_m.shape, dtype=complex)
    deltas: list[float] = []
    masses = [0.0]
    monotone_ok, residual = True, None
    try:
        with np.errstate(over="raise", invalid="raise"):
            while True:
                last = len(deltas) == max_iter or (deltas and deltas[-1] < tol)
                np.multiply(v, np.subtract(1.0, u, out=work), out=work)
                s_next = _symbol_of(grid, work)
                if mu > 0:  # s, the symbol of u, is overwritten
                    np.power(s, m + 1, out=s)
                    s *= mu
                    s_next += s
                s_next *= r_m
                nxt = _values_of(grid, s_next, out=s)
                np.subtract(nxt, u, out=work)
                low = work.min()
                # absolute: u <= 1, so max(1, max|u|) = 1
                if not last and low < -DEFAULT_TOLS.nonneg_slack:
                    monotone_ok = False
                total = _exact_sum(work, absolute=True, top=float(max(-low, work.max())))
                if not math.isfinite(total):
                    break  # the inverse transform left the float range
                if last:
                    residual = cell_volume * total  # the step is taken, not kept
                    break
                deltas.append(cell_volume * total)
                masses.append(cell_volume * _exact_sum(nxt))
                u, s = nxt, s_next
    except (FloatingPointError, OverflowError):
        pass  # a diverging step: u is the last finite iterate
    report = SolveReport(
        l1_deltas=tuple(deltas),
        masses=tuple(masses),
        final_mass=masses[-1],
        residual=residual,
        monotone_ok=monotone_ok,
        tol=tol,
    )
    u = _fresh(grid, u)
    mass_u = report.final_mass
    solution = BoseSolution(
        problem=problem,
        u=u,
        delta=(1.0 / mass_u) if mass_u != 0.0 else inf,
        hypothesis_value=mu ** (1.0 / m) * mass_u / problem.xi,
        report=report,
    )
    if not report.converged:
        raise report.not_converged(solution=solution)
    if u.values.max() > 1.0 + DEFAULT_TOLS.ceiling_slack:
        raise CeilingViolated(
            f"max(u) = {u.values.max():.6g} exceeds 1; certificate hypotheses fail",
            solution=solution,
        )
    return solution


def apriori_certificate(sol: BoseSolution) -> CertificateReport:
    """Check the non-negativity certificate on a converged solution.

    Applicable only when the hypothesis mu^(1/m) integral(u) / xi < 1
    holds; then f = mu^(1/m) R[u] must dominate its own (m+1)-fold convolution
    power and u must be non-negative, to verify_slack and nonneg_slack by
    field._within_roundoff. When the hypothesis fails no claim is made and
    the certificate passes vacuously as not-applicable.
    """
    problem = sol.problem
    mu_root = problem.mu ** (1.0 / problem.m)
    f = mu_root * resolvent_apply(sol.u, problem.xi, 1)
    hypothesis_ok = sol.hypothesis_value < 1.0
    slack = _minus_p(f, CoeffVector([0] * (problem.m - 1) + [1]))[1]
    proof_ok = _within_roundoff(slack, f, DEFAULT_TOLS.verify_slack)
    min_u = min_value(sol.u)
    nonneg_ok = _within_roundoff(min_u, sol.u, DEFAULT_TOLS.nonneg_slack)
    passed = (proof_ok and nonneg_ok) if hypothesis_ok else True
    return CertificateReport(
        hypothesis_value=sol.hypothesis_value,
        hypothesis_ok=hypothesis_ok,
        proof_inequality_slack=slack,
        proof_inequality_ok=proof_ok,
        min_u=min_u,
        nonneg_ok=nonneg_ok,
        applicable=hypothesis_ok,
        passed=passed,
    )
