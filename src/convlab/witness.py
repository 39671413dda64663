"""Closed-form witnesses for the two-fold inequality f >= f * f.

The family is the Fourier transform of a e^{-2 pi t ||x||}, i.e. the
Poisson kernel a C_d t / (t^2 + ||x||^2)^((d+1)/2) with mass a; it
satisfies f >= f*f exactly when a <= 1/2. The kernel decays only
polynomially, so on the torus we use its periodization rather than raw
samples: wrapping the tails back in keeps the discrete mass at exactly a
and turns f >= f*f into an exact
pointwise statement for the circular convolution (the periodization of a
non-negative function dominates the periodization of f*f node by node).
In one dimension the periodized kernel has the classical closed form
(a/L) sinh(u) / (cosh(u) - cos(2 pi x/L)) with u = 2 pi t/L, evaluated as
(a/L) (-expm1(-2u)) / (expm1(-u)^2 + 4 e^{-u} sin^2(pi x/L)), both parts
times 2 e^{-u}, which stays finite at any t and tends to a/L; in higher
dimensions it is synthesized from its Fourier coefficients
a e^{-2 pi t ||xi||}, truncated at the Nyquist shell ||xi|| = M/(2L).
Both routes depend on the resolution t M / L, the scale t in grid
spacings: the synthesis drops a symbol tail of about e^{-pi t M/L} and
the 1-d closed form aliases the mass by about 2a e^{-2 pi t M/L}. The
guard t M / L >= 8 keeps the dropped tail below e^{-8 pi} ~ 1.2e-11 and
the 1-d mass at a to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constructor import verify_inequality
from .errors import InvalidInput
from .field import Field, Grid, _field_from_symbol, _k_squared
from .qpoly import CoeffVector

MIN_RESOLUTION = 8.0  # t M / L, the scale t in grid spacings


@dataclass(frozen=True)
class PoissonParams:
    a: float
    t: float
    grid: Grid

    def __post_init__(self):
        if not 0.0 < self.a <= 0.5:
            raise InvalidInput(f"amplitude a must be in (0, 0.5], got {self.a}")
        if not 0.0 < self.t < np.inf:
            raise InvalidInput(f"scale t must be positive and finite, got {self.t}")


def poisson_field(params: PoissonParams) -> Field:
    """Periodized Poisson witness; discrete mass equals a to roundoff.
    Raises InvalidInput when t M / L < MIN_RESOLUTION."""
    grid = params.grid
    resolution = params.t * grid.points_per_axis / grid.extent
    if resolution < MIN_RESOLUTION:
        raise InvalidInput(
            f"t * M / L = {resolution:.3g} < {MIN_RESOLUTION:g}; "
            "kernel too narrow for this grid"
        )
    if grid.dim == 1:
        u = 2.0 * np.pi * params.t / grid.extent
        x = grid.axis_coords()
        vals = (params.a / grid.extent) * -np.expm1(-2.0 * u) / (
            np.expm1(-u) ** 2 + 4.0 * np.exp(-u) * np.sin(np.pi * x / grid.extent) ** 2
        )
        return Field(grid, vals)
    symbol = params.a * np.exp(-2.0 * np.pi * params.t * np.sqrt(_k_squared(grid)))
    return _field_from_symbol(grid, symbol)


def check_two_fold(f: Field) -> tuple[float, float]:
    """(min slack of f - f*f, mass of f): verify_inequality at a_2 = 1."""
    return verify_inequality(f, CoeffVector([1]))
