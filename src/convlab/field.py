"""Real functions sampled on a periodic grid, with L1 calculus and fast
n-fold convolution.

The torus [-L/2, L/2)^d stands in for R^d; nodes sit at x_k = -L/2 + k h
so the origin is the index M/2 corner. Convolution is spectral and scaled
by the cell volume, which makes mass multiplicativity
integral(f*g) = integral(f) integral(g) an exact zero-frequency identity
rather than a quadrature approximation. The off-center origin costs a
half-period shift, applied as the alternating-sign phase in frequency.

Every field is real, so its transform is Hermitian and half of it is
redundant. Mass symbols are kept on the half spectrum, of shape
(M,)*(d-1) + (M//2+1,), through scipy.fft.rfftn and irfftn; the origin
index (0,)*d is still frequency zero. Everything done to a symbol is
pointwise, so it sees only those entries. Where a symbol on the planes
k_d = 0 and k_d = M/2 is not Hermitian, irfftn keeps the real part of
their inverse, as the real part of a full complex inverse would.

scipy.fft is imported by the first transform, not with this module, so a
command that makes no transform (tq, series, disk) never imports scipy,
which is most of the cost of importing convlab. The transforms are
looked up on the scipy.fft module at call time, so a wrapper set on that
module sees every call. They run on scipy's default of one worker.

Wrap-around contamination from the R^d-to-torus substitution is the
caller's risk.

Every reduction (integral, l1_norm and the renormalisation in
gaussian_field) is the exact sum of the values rounded once, equal bit
for bit to math.fsum and so independent of summation order. _exact_sum
pre-rounds (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31, 2008; Demmel
and Nguyen, ARITH 2013): it scales the values below 2^40, truncates each
twice into integer parts whose block sums are exact in double precision,
and adds those as Python ints. That brackets the exact sum in an interval
of 4n units of the last part; when both ends round to one double, it is
fsum's, since rounding is monotone. A zero sum, nan, inf, values whose sum
could come near overflow, and the rare interval that holds a rounding
boundary go to math.fsum itself.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInput, _require_index
from .qpoly import CoeffVector, _horner

CVLF_MAGIC = b"CVLF"
CVLF_VERSION = 1
_HEADER = struct.Struct("<4sIIId")


@dataclass(frozen=True)
class Grid:
    dim: int
    extent: float
    points_per_axis: int

    def __post_init__(self):
        _require_index("dim", self.dim)
        _require_index("points_per_axis", self.points_per_axis)
        if self.dim not in (1, 2, 3):
            raise InvalidInput(f"dim must be 1, 2 or 3, got {self.dim}")
        if not 0 < self.extent < math.inf:
            raise InvalidInput(f"extent must be positive and finite, got {self.extent}")
        m = self.points_per_axis
        if m < 16 or (m & (m - 1)) != 0:
            raise InvalidInput(f"points_per_axis must be a power of two >= 16, got {m}")
        if 16 * m**self.dim > np.iinfo(np.intp).max:  # bounds a complex symbol's bytes
            raise InvalidInput(f"points_per_axis {m} is too large for dim {self.dim}")
        try:
            volume = self.extent**self.dim
        except OverflowError:
            volume = math.inf
        if not (volume < math.inf and self.cell_volume > 0.0):
            raise InvalidInput(
                f"extent {self.extent} in dim {self.dim}: the box volume L^d or the "
                "cell volume h^d is outside the float range"
            )

    @property
    def h(self) -> float:
        return self.extent / self.points_per_axis

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    def axis_coords(self) -> np.ndarray:
        m = self.points_per_axis
        return -0.5 * self.extent + self.h * np.arange(m)

    def coordinate_arrays(self) -> tuple[np.ndarray, ...]:
        """Per-axis coordinates shaped for broadcasting over the grid."""
        return self._along_each_axis(self.axis_coords())

    def frequencies(self) -> tuple[np.ndarray, ...]:
        """Per-axis discrete frequencies (cycles per length), broadcastable.
        On a box below about 5.6e-309 the spacing 1/L is inf, and so is every
        frequency but the zero one, which fftfreq's 0 inf would make nan."""
        with np.errstate(invalid="ignore"):
            k = np.fft.fftfreq(self.points_per_axis, d=self.h)
        k[0] = 0.0
        return self._along_each_axis(k)

    def _along_each_axis(self, v: np.ndarray) -> tuple[np.ndarray, ...]:
        """One view of the 1-d v per axis, shaped M along that axis and 1
        along the others."""
        d = self.dim
        return tuple(v.reshape((1,) * a + (-1,) + (1,) * (d - 1 - a)) for a in range(d))


@dataclass(frozen=True, eq=False)
class Field:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise InvalidInput(f"values shape {v.shape} does not match grid {self.grid.shape}")
        if not np.isfinite(v).all():
            raise InvalidInput("field values must be finite")
        if v is self.values and v.flags.writeable:
            v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __add__(self, other: "Field") -> "Field":
        _require_same_grid(self, other)
        return _fresh(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        _require_same_grid(self, other)
        return _fresh(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "Field":
        return _fresh(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return _fresh(self.grid, -self.values)


def _fresh(grid: Grid, values: np.ndarray) -> Field:
    """Field over an array just computed here, which nothing else holds:
    frozen in place, where Field() would copy a writeable array."""
    values.flags.writeable = False
    return Field(grid, values)


def _require_same_grid(f: Field, g: Field) -> None:
    if f.grid != g.grid:
        raise InvalidInput(f"grids differ: {f.grid} vs {g.grid}")


@lru_cache(maxsize=32)
def _half_shift_phase(dim: int, m: int) -> np.ndarray:
    """(-1)^(k_1 + ... + k_d) on the half spectrum: the spectral form of
    rolling every axis by M/2, which moves the convolution origin back to
    the grid's node M/2."""
    one = (1.0 - 2.0 * (np.arange(m) % 2)).astype(np.float64)
    ph = one[: m // 2 + 1]
    for _ in range(dim - 1):
        ph = np.multiply.outer(one, ph)
    return ph


@lru_cache(maxsize=32)
def _k_squared(grid: Grid) -> np.ndarray:
    """||k||^2 over the half spectrum, summed axis by axis; on the last
    axis |k| runs over the first M/2 + 1 of |fftfreq|, the rfftfreq values.
    Where ||k||^2 passes the float range (|k| above about 1.3e154, on a box
    below about 4e-155 M) it is inf, quietly: the resolvent and the witness
    damp such a mode to 0. Read-only, since every caller shares it."""
    half = grid.points_per_axis // 2 + 1
    norm = np.zeros(grid.shape[:-1] + (half,))
    with np.errstate(over="ignore"):
        for k in grid.frequencies():
            norm = norm + k[..., :half] ** 2
    norm.flags.writeable = False
    return norm


def _transforms():
    """The scipy.fft module, imported by the first call (module docstring)."""
    import scipy.fft

    return scipy.fft


def _symbol_of(grid: Grid, values: np.ndarray) -> np.ndarray:
    """cell_volume * DFT * phase of values on the half spectrum, of shape
    (M,)*(d-1) + (M//2+1,); its value at frequency zero is the mass, and
    products of symbols correspond to convolutions of fields. The phase is
    +-1, so the order of the two scalings does not change a bit."""
    s = _transforms().rfftn(values)
    s *= _half_shift_phase(grid.dim, grid.points_per_axis)
    s *= grid.cell_volume
    return s


def _mass_symbol(f: Field) -> np.ndarray:
    return _symbol_of(f.grid, f.values)


def _values_of(grid: Grid, symbol: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The real values of a half-spectrum symbol, by irfftn; where the
    symbol is not Hermitian they keep the real part (module docstring).
    symbol * phase is formed in out when it is given, a buffer of the
    symbol's shape other than symbol. Nothing checks that they are finite."""
    ph = _half_shift_phase(grid.dim, grid.points_per_axis)
    v = _transforms().irfftn(np.multiply(symbol, ph, out=out), s=grid.shape)
    v /= grid.cell_volume
    return v


def _field_from_symbol(grid: Grid, symbol: np.ndarray) -> Field:
    return _fresh(grid, _values_of(grid, symbol))


def convolve(f: Field, g: Field) -> Field:
    """Circular convolution, h^d-scaled: approximates integral f(y)g(x-y) dy."""
    _require_same_grid(f, g)
    return _field_from_symbol(f.grid, _mass_symbol(f) * _mass_symbol(g))


def conv_power(f: Field, n: int) -> Field:
    """n-fold self-convolution with one transform pair."""
    if _require_index("n", n) < 1:
        raise InvalidInput(f"convolution power needs n >= 1, got {n}")
    if n == 1:
        return f
    return _field_from_symbol(f.grid, _mass_symbol(f) ** n)


def apply_p(f: Field, coeffs: CoeffVector) -> Field:
    """sum_n a_n (*^n f), accumulated in the spectral domain (_horner over
    CoeffVector.p on the mass symbol), one transform pair total."""
    t = _mass_symbol(f)
    return _field_from_symbol(f.grid, _horner(coeffs.p, t, out=np.empty_like(t)))


# --- exactly rounded sums -------------------------------------------------

_FSUM_FROM_MAGNITUDE = 2.0**1000  # bounds n max|x|, 2^24 below overflow
_BLOCK = 8192
_SPLIT = 40  # bits per part: every partial sum of a block of parts is below 2^53


def _exact_sum(x: np.ndarray, absolute: bool = False, top: float | None = None) -> float:
    """math.fsum(x.ravel()), bit for bit: the exact sum S rounded once; with
    absolute, the same of |x|, taken block by block with no full-size copy.
    A caller that has read x's extremes passes top = max(-x.min(), x.max())
    so that they are not read again.

    Let top = max|x| and s = 40 - e, where 2^(e-1) <= top < 2^e. Each y,
    x 2^s rounded, is below 2^40 in magnitude. It is exact when s >= 0
    (two multiplies when 2^s is past the float range); when s < 0 only the
    values scaled into the subnormals round, each by at most 2^-1075. Two
    truncations split y into integers h = trunc(y) and l = trunc((y - h)
    2^40), both below 2^40; y - h and its scaling are exact, so
    h 2^40 + l is within 1 + 2^-1035 < 2 of x 2^k, with k = s + 40.
    Every partial sum of 8192 = 2^13 such integers stays below 2^53, so the
    double sum of a block is exact in any order; the block sums are added
    as Python ints into N = H 2^40 + L. So S lies in the open interval
    ((N - 2n) / 2^k, (N + 2n) / 2^k). CPython divides ints correctly
    rounded, half to even as fsum does, and rounding is monotone: if both
    ends round to the same nonzero double, that double is fsum(x).

    Anything else goes to math.fsum itself: nan, inf and n max|x| >= 2^1000,
    so that the sum of |x|, and with it every partial sum fsum forms, stays
    far below overflow, and an OverflowError and its text come from fsum
    alone; a zero sum, whose sign fsum decides; and an interval that holds
    a rounding boundary. The interval spans about 4n 2^-80 max|x|, so that
    last case comes about once in 2^26 / n sums of size near max|x|, and
    more rarely for larger sums. x is never empty: every Field holds at
    least 16 values.
    """
    x = x.ravel()
    n = x.size
    if top is None:
        top = float(max(-x.min(), x.max()))
    if not 0.0 < n * top < _FSUM_FROM_MAGNITUDE:
        return math.fsum(np.abs(x) if absolute else x)
    s = _SPLIT - math.frexp(top)[1]
    scale, rest = 2.0 ** min(s, 1000), 2.0 ** max(s - 1000, 0)
    size = min(n, _BLOCK)
    y, h = np.empty(size), np.empty(size)
    high = low = 0
    for start in range(0, n, _BLOCK):
        block = x[start : start + _BLOCK]
        b, t = y[: block.size], h[: block.size]
        if absolute:
            block = np.abs(block, out=b)
        np.multiply(block, scale, out=b)
        if s > 1000:
            b *= rest
        high += int(np.trunc(b, out=t).sum())
        b -= t
        b *= 2.0**_SPLIT
        low += int(np.trunc(b, out=b).sum())
    total, k = (high << _SPLIT) + low, s + _SPLIT
    below, above = (((total + d) << max(-k, 0)) / (1 << max(k, 0)) for d in (-2 * n, 2 * n))
    if below == above != 0.0:
        return below
    return math.fsum(np.abs(x) if absolute else x)


def integral(f: Field) -> float:
    """Sum of the values times the cell volume; the sum is exactly rounded
    (equal to math.fsum), whatever the order."""
    return f.grid.cell_volume * _exact_sum(f.values)


def l1_norm(f: Field) -> float:
    """Sum of |values| times the cell volume, exactly rounded like integral."""
    return f.grid.cell_volume * _exact_sum(f.values, absolute=True)


def min_value(f: Field) -> float:
    return float(f.values.min())


def _within_roundoff(low: float, f: Field, slack: float) -> bool:
    """low >= -slack max(1, max|f|), slack >= 0: a minimum of f, or of a field formed
    from f, is >= 0 to roundoff. f's extremes are read only when low < -slack."""
    return low >= -slack or low >= -slack * max(1.0, -min_value(f), float(f.values.max()))


# --- reference fields ---------------------------------------------------

def delta_field(grid: Grid, mass: float = 1.0) -> Field:
    """Discrete delta: all mass in the origin cell (node M/2 per axis)."""
    v = np.zeros(grid.shape)
    v[(grid.points_per_axis // 2,) * grid.dim] = mass / grid.cell_volume
    return Field(grid, v)


def gaussian_field(grid: Grid, sigma: float, mass: float = 1.0) -> Field:
    """Isotropic centered Gaussian, renormalized so the discrete integral
    is exactly the requested mass. A sigma whose 2 sigma^2 is below the
    smallest normal double is refused, and so is one whose 2 sigma^2 is
    inf on a box where some |x|^2 is inf too."""
    if not 0 < sigma < math.inf:
        raise InvalidInput(f"sigma must be positive and finite, got {sigma}")
    two_var = 2.0 * sigma * sigma
    if two_var < sys.float_info.min:
        raise InvalidInput(f"sigma {sigma} is too small: 2 sigma^2 underflows a normal double")
    r2 = np.zeros(grid.shape)
    # |x|^2 or |x|^2 / (2 sigma^2) beyond the float range is inf: exp gives 0
    with np.errstate(over="ignore"):
        for xa in grid.coordinate_arrays():
            r2 = r2 + xa**2
        if two_var == math.inf and np.isinf(r2).any():
            raise InvalidInput(
                f"sigma {sigma} on extent {grid.extent}: both |x|^2 and 2 sigma^2 "
                "are outside the float range"
            )
        v = np.exp(-r2 / two_var)
    got = grid.cell_volume * _exact_sum(v)
    return Field(grid, v * (mass / got))


def uniform_field(grid: Grid, mass: float = 1.0) -> Field:
    return Field(grid, np.full(grid.shape, mass / grid.extent**grid.dim))


# --- I/O ------------------------------------------------------------------

def field_to_bytes(f: Field) -> bytes:
    head = _HEADER.pack(
        CVLF_MAGIC, CVLF_VERSION, f.grid.dim, f.grid.points_per_axis, f.grid.extent
    )
    return head + f.values.astype("<f8").tobytes(order="C")


def field_from_bytes(data: bytes) -> Field:
    if len(data) < _HEADER.size:
        raise InvalidInput(f"CVLF payload of {len(data)} bytes is shorter than its header")
    magic, version, dim, m, extent = _HEADER.unpack_from(data, 0)
    if magic != CVLF_MAGIC:
        raise InvalidInput("not a CVLF payload")
    if version != CVLF_VERSION:
        raise InvalidInput(f"unsupported CVLF version {version}")
    grid = Grid(dim=dim, extent=extent, points_per_axis=m)
    count = m**dim
    if len(data) != _HEADER.size + 8 * count:
        raise InvalidInput(
            f"CVLF payload has {len(data) - _HEADER.size} value bytes, header says {8 * count}"
        )
    vals = np.frombuffer(data, dtype="<f8", count=count, offset=_HEADER.size)
    return Field(grid, vals.reshape(grid.shape).astype(np.float64))


def write_cvlf(f: Field, path: str) -> None:
    from .ioutil import atomic_write_bytes

    atomic_write_bytes(path, field_to_bytes(f))


def read_cvlf(path: str) -> Field:
    with open(path, "rb") as fh:
        return field_from_bytes(fh.read())


def write_csv(f: Field, path: str) -> None:
    """Two-column x,value dump; 1-d only."""
    if f.grid.dim != 1:
        raise InvalidInput("CSV export is for 1-d fields")
    from .ioutil import atomic_write_text

    lines = ["x,value"]
    for x, v in zip(f.grid.axis_coords(), f.values):
        lines.append(f"{float(x)!r},{float(v)!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")
