"""Construction of solutions of f >= sum_n a_n (*^n f) as the fixed point
Psi = psi + P(Psi) of the seed psi.

construct runs the Picard iteration Psi_{j+1} = psi + sum a_n (*^n Psi_j)
from Psi_0 = psi on mass symbols, where *^n is the n-th power: at every
frequency it is the scalar recursion w <- s + P(w) from w = s, s the
symbol of psi with its zero-frequency value set to integral(psi). That is
the paper's Psi_hat = C(psi_hat), taken to finitely many steps: one
forward transform before the loop and one inverse transform after it.
A frequency whose value repeats bit for bit is frozen: it is equal in the
last iterate and the one before it, and the loop stops computing it. The
loop allocates only at steps 2, 4, 8, ..., where it looks for frozen
frequencies: one flag per frequency and, where it drops them, gathers
into arrays at most half as long as the last. For seeds with 0 <= psi
and integral(psi) <= q_max the iterates increase pointwise and their
masses converge to the smaller fixed point <= t_q of sigma =
integral(psi) + P(sigma); that is the whole content of the mass bound.
Near the critical seed mass q_max the contraction factor degrades to 1
and the solver reports failure honestly instead of loosening tolerances.

construct's report:
- masses are the zero-frequency values, the first being integral(psi):
  exactly the float recursion sigma <- integral(psi) + eval_p(sigma), as
  the loop runs eval_p's _horner on the symbol. final_mass is integral(f).
- l1_deltas are the zero-frequency increments; the run stops at the first
  one below tol. They are the L1 increments whenever the increments are
  non-negative.
- monotone_ok checks the output in real space, where the intermediate
  iterates never exist: min(Psi_{J+1} - Psi_J), the next increment formed
  as psi - (f - P(f)), and min(f - psi) are both >= -nonneg_slack
  max(1, max|f|) (field._within_roundoff, as for the seed); P(f) = sum
  a_n (*^n f). Given it, the next increment's L1 norm is within
  2 nonneg_slack max(1, max|f|) L^d of its mass, to roundoff.
- residual is the L1 norm of that same increment, psi - (f - P(f)): the
  check of the fixed point that shares no step with the loop.
- min_slack is min(f - P(f)), from the same f - P(f) (_minus_p is the one
  place that forms it). f misses the inequality by the next increment, as
  f - P(f) = psi - (Psi_{J+1} - Psi_J), not by roundoff: -3.7e-13 on 1-d 4096
  at tol 1e-10, -8.2e-16 at 1e-13. verify_slack absorbs that gap.
- residual is None exactly when the run overflowed: in a step, which
  leaves the last finite iterate, or while f, f - P(f), the increment, the
  residual or integral(f) was formed. monotone_ok then checks f - psi
  alone (f is None if it could not be formed, and monotone_ok False).
  final_mass is then the last zero-frequency value.

bose.solve runs its own loop and reports in the same SolveReport. The
tests keep the field-space form of both loops as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .config import DEFAULT_MAX_ITER, DEFAULT_TOL, DEFAULT_TOLS
from .errors import InvalidInput, NotConverged, _require_index
from .field import Field, apply_p, integral, l1_norm, min_value
from .field import _field_from_symbol, _mass_symbol, _within_roundoff
from .qpoly import CoeffVector, PolyQ, _horner


@dataclass(frozen=True)
class SolveReport:
    l1_deltas: tuple[float, ...]
    masses: tuple[float, ...]
    final_mass: float
    residual: float | None
    monotone_ok: bool
    tol: float
    min_slack: float | None = None  # set by construct; not in to_json

    @property
    def iterations(self) -> int:
        return len(self.l1_deltas)

    @property
    def converged(self) -> bool:
        """The last increment is below tol and no step overflowed."""
        return self.residual is not None and self.l1_deltas[-1] < self.tol

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


def _require_limits(tol: float, max_iter: int) -> None:
    if not _require_index("max_iter", max_iter) >= 1:
        raise InvalidInput(f"max_iter must be >= 1, got {max_iter}")
    if not 0 < tol < math.inf:
        raise InvalidInput(f"tol must be positive and finite, got {tol}")


def _require_poly(coeffs: CoeffVector, p: PolyQ) -> None:
    if p.coeffs != coeffs:
        raise InvalidInput("polynomial built from different coefficients")


def _iterate_symbol(
    s: np.ndarray, coeffs: CoeffVector, tol: float, max_iter: int
) -> tuple[np.ndarray, bool, list[float], list[float]]:
    """Run w <- s + P(w) from w = s at every frequency until the
    zero-frequency increment drops below tol or max_iter steps have run.

    Returns the last iterate, whether a step overflowed, the
    zero-frequency increments and the zero-frequency values. A step that
    overflows ends the run, and the last iterate is the final finite one.

    A frequency whose last two values are equal bit for bit is frozen: the
    step maps its value to itself from then on. At steps 2, 4, 8, ... the
    run compares the last two iterates, and when at least half of the
    frequencies still iterated have frozen, it goes on with the others
    only, gathered into shorter arrays. Flat index 0, the zero frequency,
    stays among them until the run stops. The full-size buffer keeps the
    frozen values; the rest are written back when the run stops.
    """
    shape, s = s.shape, s.reshape(-1)
    masses = [float(s[0].real)]
    deltas: list[float] = []
    # Two buffers, swapped each step: the step is written into the older one.
    w, acc = s.copy(), np.empty_like(s)
    full_w = live = None  # set at the first compaction
    overflowed = False
    check = 2
    try:
        with np.errstate(over="raise", invalid="raise"):
            for step in range(1, max_iter + 1):
                _horner(coeffs.p, w, out=acc)
                acc += s
                w, acc = acc, w
                mass = float(w[0].real)
                deltas.append(mass - masses[-1])
                masses.append(mass)
                if deltas[-1] < tol:
                    break
                if step == check and step < max_iter:
                    check *= 2
                    # the bytes of both parts compared: one flag per frequency;
                    # the zero frequency's flag is set, as it moved by >= tol
                    moving = np.not_equal(w.view(np.uint64), acc.view(np.uint64))
                    moving = moving.view(np.uint16)
                    if 2 * np.count_nonzero(moving) > moving.size:
                        continue
                    keep = np.flatnonzero(moving)
                    if live is None:
                        full_w, live = w, keep
                    else:
                        full_w[live] = w
                        live = live[keep]
                    # the next step overwrites acc, so it needs no gather
                    s, w, acc = s[keep], w[keep], np.empty(keep.size, dtype=w.dtype)
    except FloatingPointError:
        overflowed = True
    if live is not None:
        full_w[live] = w
        w = full_w
    return w.reshape(shape), overflowed, deltas, masses


def construct(
    psi: Field,
    coeffs: CoeffVector,
    p: PolyQ,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[Field, SolveReport]:
    """Iterate Psi <- psi + P(Psi) on mass symbols to the fixed point; stop
    when the zero-frequency increment drops below tol. The report follows
    the contract in the module docstring.

    Raises InvalidInput when p was built from other coefficients or the
    seed mass exceeds q_max (the iteration can diverge beyond it), and
    NotConverged when max_iter runs out or a step overflows, with the last
    iterate and its report attached to the exception.
    """
    _require_poly(coeffs, p)
    floor = min_value(psi)
    if not _within_roundoff(floor, psi, DEFAULT_TOLS.nonneg_slack):
        raise InvalidInput(f"seed minimum {floor:.3e} below -nonneg_slack max(1, max|psi|)")
    if floor < 0.0:  # clamped: negatives within roundoff
        psi = Field(psi.grid, np.maximum(psi.values, 0.0))
    # psi >= 0 now, so its integral is its L1 norm, up to the sign of a zero
    seed_mass = integral(psi)
    if seed_mass > p.q_max * (1.0 + DEFAULT_TOLS.seed_mass_slack):
        raise InvalidInput(
            f"seed mass {seed_mass:.12g} exceeds Q(t_q) = {p.q_max:.12g}"
        )
    _require_limits(tol, max_iter)
    grid = psi.grid
    s = _mass_symbol(psi)
    s[(0,) * grid.dim] = seed_mass
    w, overflowed, deltas, masses = _iterate_symbol(s, coeffs, tol, max_iter)
    # Each symbol is released as soon as it is no longer read, so the inverse
    # transforms below hold no more complex arrays than the loop did.
    del s
    f, floor, final_mass, residual, slack = None, -math.inf, masses[-1], None, None
    try:
        with np.errstate(over="raise", invalid="raise"):
            f = _field_from_symbol(grid, w)
            del w
            floor = min_value(f - psi)
            if not overflowed:
                g, slack = _minus_p(f, coeffs)
                if g is not None:
                    step = psi - g  # Psi_{J+1} - Psi_J
                    final_mass, residual = integral(f), l1_norm(step)
                    floor = min(floor, min_value(step))
    except (FloatingPointError, OverflowError):
        pass  # past the float range in real space: reported as an overflow
    report = SolveReport(
        l1_deltas=tuple(deltas),
        masses=tuple(masses),
        final_mass=final_mass,
        residual=residual,
        monotone_ok=f is not None and _within_roundoff(floor, f, DEFAULT_TOLS.nonneg_slack),
        tol=tol,
        min_slack=slack,
    )
    if not report.converged:
        raise report.not_converged(field=f)
    return f, report


def _minus_p(f: Field, coeffs: CoeffVector) -> tuple[Field | None, float]:
    """(g, min(g)) for g = f - sum a_n (*^n f), or (None, -inf) when
    sum a_n (*^n f) or the difference leaves the float range."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            g = f - apply_p(f, coeffs)
    except FloatingPointError:
        return None, -math.inf
    return g, min_value(g)


def verify_inequality(f: Field, coeffs: CoeffVector) -> tuple[float, float]:
    """(min slack of f - sum a_n (*^n f), mass of f); the slack is -inf
    when sum a_n (*^n f) or the difference leaves the float range."""
    return _minus_p(f, coeffs)[1], integral(f)

