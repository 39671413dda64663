"""Poisson witnesses for the two-fold inequality f >= f * f.

The family is the Fourier transform of a e^{-2 pi t ||x||}, i.e. the
Poisson kernel a C_d t / (t^2 + ||x||^2)^((d+1)/2) with mass a; it
satisfies f >= f*f exactly when a <= 1/2. The kernel decays only
polynomially, so on the torus we use its periodization rather than raw
samples: wrapping the tails back in keeps the discrete mass at exactly a
and turns f >= f*f into an exact
pointwise statement for the circular convolution (the periodization of a
non-negative function dominates the periodization of f*f node by node).
In every dimension the periodized kernel is synthesized from its Fourier
coefficients a e^{-2 pi t ||xi||} on the half spectrum, truncated at the
Nyquist shell ||xi|| = M/(2L). The zero frequency is a itself, so the
mass is a to roundoff, and every other coefficient lies in [0, a]: the
synthesis is finite at any t, where the values tend to a/L^d. It depends
on the resolution t M / L, the scale t in grid spacings: it drops a
symbol tail of about e^{-pi t M/L} times max f. The guard t M / L >= 8
keeps that tail below e^{-8 pi} ~ 1.2e-11. Values past the float range,
on a box too small for a, are refused.
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
    Raises InvalidInput when t M / L < MIN_RESOLUTION, or when its values
    leave the float range."""
    grid = params.grid
    resolution = params.t * grid.points_per_axis / grid.extent
    if resolution < MIN_RESOLUTION:
        raise InvalidInput(
            f"t * M / L = {resolution:.3g} < {MIN_RESOLUTION:g}; "
            "kernel too narrow for this grid"
        )
    norm = np.sqrt(_k_squared(grid))
    # -2 pi t is -inf for t past about 2.9e307, and (-inf) 0 is nan at frequency
    # zero, where e^{-c 0} = 1 for every finite c: that value is written directly
    with np.errstate(invalid="ignore"):
        symbol = params.a * np.exp(-2.0 * np.pi * params.t * norm)
    symbol[(0,) * grid.dim] = params.a
    try:
        with np.errstate(over="raise"):
            return _field_from_symbol(grid, symbol)
    except FloatingPointError:
        raise InvalidInput(
            f"extent {grid.extent} in dim {grid.dim}: the witness values are outside "
            "the float range"
        ) from None


def check_two_fold(f: Field) -> tuple[float, float]:
    """(min slack of f - f*f, mass of f): verify_inequality at a_2 = 1."""
    return verify_inequality(f, CoeffVector([1]))
