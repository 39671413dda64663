"""Resolvent fixed-point solver for (xi - Laplacian)^m u = V(1-u) + mu (*^(m+1) u)
on the periodic grid, plus the a-priori non-negativity certificate.

The m-th resolvent power is a diagonal spectral multiplier
(xi + 4 pi^2 ||k||^2)^(-m); its kernel is non-negative with total mass
xi^(-m), which is the zero-frequency value and therefore exact here.
Picard iteration starts from u = 0 and assembles the coupling term as
(*^m f_k) * u_k with f_k = mu^(1/m) R[u_k]; at the fixed point that is
literally mu R^m[*^(m+1) u] by commutativity of convolution, and f is
the object the non-negativity argument runs through: the certificate
checks mu^(1/m) integral(u) / xi < 1, f >= *^(m+1) f, and u >= 0 on the
converged solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .constructor import DEFAULT_MAX_ITER, DEFAULT_TOL, SolveReport, fixed_point
from .errors import CeilingViolated
from .field import Field, Grid, conv_power, convolve, integral, l1_norm, min_value
from .field import _fftn, _ifftn, _k_squared

CEILING_SLACK = 1e-10
CERT_SLACK = 1e-8


@dataclass(frozen=True)
class BoseProblem:
    m: int
    xi: float
    mu: float
    V: Field
    grid: Grid

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"resolvent order m must be >= 1, got {self.m}")
        if not self.xi > 0:
            raise ValueError(f"spectral shift xi must be positive, got {self.xi}")
        if self.mu < 0:
            raise ValueError(f"coupling mu must be non-negative, got {self.mu}")
        if self.V.grid != self.grid:
            raise ValueError("potential sampled on a different grid")
        if min_value(self.V) < 0:
            raise ValueError("potential must be non-negative")


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


def resolvent_apply(f: Field, xi: float, m: int = 1) -> Field:
    """(xi - Laplacian)^(-m) f via the spectral multiplier; preserves
    non-negativity to roundoff and divides the mass by xi^m exactly."""
    if not xi > 0:
        raise ValueError("xi must be positive")
    if m < 1:
        raise ValueError("m must be >= 1")
    mult = (xi + 4.0 * np.pi**2 * _k_squared(f.grid)) ** (-m)
    return Field(f.grid, _ifftn(_fftn(f.values) * mult).real)


def solve(
    problem: BoseProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> BoseSolution:
    """Picard iteration u_{k+1} = R^m[V(1-u_k)] + (*^m f_k)*u_k from u_0 = 0.

    The smallness guard integral(V)/xi^m < 0.5 keeps the iteration inside
    the empirically contractive regime where the ceiling u <= 1 holds; the
    non-negativity argument assumes the ceiling rather than proving it, so
    the solver can only observe it, and raises CeilingViolated when it
    fails.
    """
    mass_v = integral(problem.V)
    if not mass_v / problem.xi**problem.m < 0.5:
        raise ValueError(
            f"integral(V)/xi^m = {mass_v / problem.xi ** problem.m:.3g} >= 0.5; "
            "outside the guarded smallness regime"
        )
    mu_root = problem.mu ** (1.0 / problem.m)

    def step(u: Field) -> Field:
        v_gap = Field(problem.grid, problem.V.values * (1.0 - u.values))  # V(1-u), node by node
        nxt = resolvent_apply(v_gap, problem.xi, problem.m)
        if problem.mu > 0:
            f_k = mu_root * resolvent_apply(u, problem.xi, 1)
            nxt = nxt + convolve(conv_power(f_k, problem.m), u)
        return nxt

    u, report = fixed_point(
        step, Field(problem.grid, np.zeros(problem.grid.shape)), tol, max_iter
    )
    mass_u = report.final_mass
    solution = BoseSolution(
        problem=problem,
        u=u,
        delta=(1.0 / mass_u) if mass_u != 0.0 else inf,
        hypothesis_value=mu_root * mass_u / problem.xi,
        report=report,
    )
    if not report.converged:
        raise report.not_converged(solution=solution)
    if u.values.max() > 1.0 + CEILING_SLACK:
        raise CeilingViolated(
            f"max(u) = {u.values.max():.6g} exceeds 1; certificate hypotheses fail",
            solution=solution,
        )
    return solution


def apriori_certificate(sol: BoseSolution) -> CertificateReport:
    """Check the non-negativity certificate on a converged solution.

    Applicable only when the hypothesis mu^(1/m) integral(u) / xi < 1
    holds; then f = mu^(1/m) R[u] must dominate its own (m+1)-fold
    convolution power and u must be non-negative, both at 1e-8 of the
    respective L1 norms. When the hypothesis fails no claim is made and
    the certificate passes vacuously as not-applicable.
    """
    problem = sol.problem
    mu_root = problem.mu ** (1.0 / problem.m)
    f = mu_root * resolvent_apply(sol.u, problem.xi, 1)
    hypothesis_ok = sol.hypothesis_value < 1.0
    slack = min_value(f - conv_power(f, problem.m + 1))
    proof_ok = slack >= -CERT_SLACK * l1_norm(f)
    min_u = min_value(sol.u)
    nonneg_ok = min_u >= -CERT_SLACK * l1_norm(sol.u)
    applicable = hypothesis_ok
    passed = (proof_ok and nonneg_ok) if applicable else True
    return CertificateReport(
        hypothesis_value=sol.hypothesis_value,
        hypothesis_ok=hypothesis_ok,
        proof_inequality_slack=slack,
        proof_inequality_ok=proof_ok,
        min_u=min_u,
        nonneg_ok=nonneg_ok,
        applicable=applicable,
        passed=passed,
    )
