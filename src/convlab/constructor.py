"""Fixed-point construction of solutions of f >= sum_n a_n (*^n f).

Iterates Psi_{j+1} = psi + sum_n a_n (*^n Psi_j) from Psi_0 = psi. For
seeds with 0 <= psi and integral(psi) <= q_max the iterates increase
pointwise and their masses follow the scalar recursion
sigma_{j+1} = integral(psi) + sum a_n sigma_j^n, which converges to the
smaller fixed point <= t_q; that is the whole content of the mass bound.
Near the critical seed mass q_max the contraction factor degrades to 1
and the solver reports failure honestly instead of loosening tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Callable

import numpy as np

from .config import DEFAULT_TOLS
from .errors import InvalidInput, MassTooLarge, NotConverged
from .field import Field, apply_p, integral, l1_norm, min_value
from .qpoly import CoeffVector, PolyQ

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    l1_deltas: tuple[float, ...]
    masses: tuple[float, ...]
    final_mass: float
    residual: float | None
    monotone_ok: bool
    converged: bool
    tol: float

    def to_json(self) -> dict:
        return {
            "iterations": self.iterations,
            "l1_deltas": list(self.l1_deltas),
            "masses": list(self.masses),
            "final_mass": self.final_mass,
            "residual": self.residual,
            "monotone_ok": self.monotone_ok,
            "converged": self.converged,
            "tol": self.tol,
        }

    def not_converged(self, **attached) -> NotConverged:
        """The error for this unconverged run, with the caller's partial
        result (field= or solution=) attached."""
        if self.residual is None:
            why = "the step overflowed"
        else:
            why = f"increment {self.l1_deltas[-1]:.3e} still above tol {self.tol}"
        return NotConverged(f"{why} after {self.iterations} iterations", report=self, **attached)


def fixed_point(
    step: Callable[[Field], Field], start: Field, tol: float, max_iter: int
) -> tuple[Field, SolveReport]:
    """Iterate current <- step(current) from start until the L1 increment
    drops below tol or max_iter steps have run; return the last iterate
    and its report, converged or not.

    The report records every increment and every mass (the first being
    integral(start)), whether any step moved a node down by more than
    the monotone slack, and the residual L1 norm of last - step(last).
    A step that overflows ends the run unconverged, with residual None
    and last the final finite iterate.
    """
    if not max_iter >= 1:
        raise InvalidInput(f"max_iter must be >= 1, got {max_iter}")
    if not 0 < tol < math.inf:
        raise InvalidInput(f"tol must be positive and finite, got {tol}")
    deltas: list[float] = []
    masses: list[float] = [integral(start)]
    monotone_ok = True
    residual = None
    # The start and each increment are released before the next step, so a
    # solve holds no more arrays at once than a loop written inline.
    current = start
    del start
    try:
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(max_iter):
                nxt = step(current)
                increment = nxt - current
                if min_value(increment) < -DEFAULT_TOLS.monotone_slack:
                    monotone_ok = False
                delta, mass = l1_norm(increment), integral(nxt)
                del increment
                deltas.append(delta)
                masses.append(mass)
                current = nxt
                if delta < tol:
                    break
            residual = l1_norm(current - step(current))
    except (FloatingPointError, OverflowError):
        pass  # a diverging step: current is the last finite iterate
    report = SolveReport(
        iterations=len(deltas),
        l1_deltas=tuple(deltas),
        masses=tuple(masses),
        final_mass=masses[-1],
        residual=residual,
        monotone_ok=monotone_ok,
        converged=residual is not None and deltas[-1] < tol,
        tol=tol,
    )
    return current, report


def _clamped_seed(psi: Field) -> Field:
    floor = min_value(psi)
    if floor < -DEFAULT_TOLS.negative_clamp:
        raise InvalidInput(
            f"seed minimum {floor:.3e} below the -{DEFAULT_TOLS.negative_clamp} clamp threshold"
        )
    if floor < 0.0:
        return Field(psi.grid, np.maximum(psi.values, 0.0))
    return psi


def construct(
    psi: Field,
    coeffs: CoeffVector,
    p: PolyQ,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[Field, SolveReport]:
    """Iterate to the L1 fixed point; stop when the L1 increment drops
    below tol.

    Raises MassTooLarge when the seed mass exceeds q_max (the iteration
    can diverge beyond it) and NotConverged when max_iter runs out, with
    the last iterate and its report attached to the exception.
    """
    psi = _clamped_seed(psi)
    seed_mass = l1_norm(psi)
    if seed_mass > p.q_max * (1.0 + DEFAULT_TOLS.seed_mass_slack):
        raise MassTooLarge(
            f"seed mass {seed_mass:.12g} exceeds Q(t_q) = {p.q_max:.12g}"
        )
    current, report = fixed_point(lambda f: psi + apply_p(f, coeffs), psi, tol, max_iter)
    if not report.converged:
        raise report.not_converged(field=current)
    return current, report


def verify_inequality(f: Field, coeffs: CoeffVector) -> tuple[float, float]:
    """(min slack of f - sum a_n (*^n f), mass of f)."""
    slack = min_value(f - apply_p(f, coeffs))
    return slack, integral(f)


def uniqueness_roundtrip(
    f: Field,
    coeffs: CoeffVector,
    p: PolyQ,
    tol: float = DEFAULT_TOL,
) -> float:
    """Recover the seed psi = f - sum a_n (*^n f), rebuild from it, and
    return the L1 distance between f and the rebuilt solution.

    For any f satisfying the inequality this distance is forced to zero
    in exact arithmetic (the solution is unique given its seed); away
    from the critical mass the iteration converges geometrically and the
    contract is a distance <= 10 * tol.
    """
    slack, mass = verify_inequality(f, coeffs)
    if slack < -tol:
        raise InvalidInput(f"field violates the inequality (slack {slack:.3e} < -{tol})")
    if mass < 0:
        raise InvalidInput("field has negative mass")
    psi = f - apply_p(f, coeffs)
    psi = Field(psi.grid, np.maximum(psi.values, 0.0))
    rebuilt, _ = construct(psi, coeffs, p, tol=tol)
    return l1_norm(f - rebuilt)
