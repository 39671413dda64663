import itertools
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.fft

import convlab
from convlab import (
    CoeffVector, Field, Grid, InvalidInput, PolyQ, SolveReport, construct, integral, l1_norm,
    min_value,
)
from convlab.config import DEFAULT_TOL, DEFAULT_TOLS
from convlab.constructor import _minus_p, _require_limits, _require_poly
from convlab.field import _require_same_grid, _within_roundoff
from convlab.series import LimitSeries


def child_env(**overrides: str) -> dict[str, str]:
    """Environment for a child interpreter that imports the same convlab as
    the test session, whatever its working directory: PYTHONPATH is led by
    the absolute directory holding the imported package."""
    src = str(Path(convlab.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    path = src + os.pathsep + rest if rest else src
    return dict(os.environ, PYTHONPATH=path, **overrides)


def count_transforms(monkeypatch) -> list[str]:
    """The names of the scipy.fft transforms called from here on, in order."""
    calls = []
    for name in ("rfftn", "irfftn", "fftn", "ifftn"):
        real = getattr(scipy.fft, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counted)
    return calls


# Exact-rational oracles for the evaluator in convlab.qpoly. Direct power
# sums, deliberately not Horner, so the package and its oracle share no
# evaluation code.

def eval_p_exact(coeffs: CoeffVector, t: Fraction) -> Fraction:
    t = Fraction(t)
    return sum((Fraction(a) * t**n for n, a in enumerate(coeffs.p) if a), Fraction(0))


def eval_p_prime_exact(coeffs: CoeffVector, t: Fraction) -> Fraction:
    t = Fraction(t)
    return sum((Fraction(n * a) * t ** (n - 1) for n, a in enumerate(coeffs.p) if a), Fraction(0))


def eval_q_exact(coeffs: CoeffVector, t: Fraction) -> Fraction:
    return Fraction(t) - eval_p_exact(coeffs, t)


def eval_q_prime_exact(coeffs: CoeffVector, t: Fraction) -> Fraction:
    return 1 - eval_p_prime_exact(coeffs, t)


# Integer power-series oracles for convlab.series, whose kernels take dot
# products over nonzero spans and one square per row: the double loop and
# the power-by-power sum that series used before, sharing no code with it.

def trunc_mul_by_loops(a: list[int], b: list[int], cap: int) -> list[int]:
    """The earlier series._trunc_mul, kept as an oracle: the product a b
    truncated at degree cap, term by term in a Python double loop."""
    out = [0] * (cap + 1)
    for i, ai in enumerate(a[: cap + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j > cap:
                break
            if bj:
                out[i + j] += ai * bj
    return out


def apply_p_by_powers(coeffs: CoeffVector, poly: list[int], cap: int) -> list[int]:
    """The earliest series._apply_p_poly, kept as an oracle: sum_n a_n poly^n
    truncated at degree cap, one trunc_mul_by_loops per power, accumulated
    a_n by a_n."""
    out = [0] * (cap + 1)
    power = list(poly) + [0] * (cap + 1 - len(poly))
    for a_n in coeffs.coeffs:
        power = trunc_mul_by_loops(power, poly, cap)
        if a_n:
            for i, v in enumerate(power):
                if v:
                    out[i] += a_n * v
    return out


def compose_q(series: LimitSeries) -> list[int]:
    """Coefficients of Q(C(s)) up to the series length; the inverse-series
    identity says this is exactly [0, 1, 0, ..., 0]."""
    L = len(series.c)
    cpoly = [0] + list(series.c)
    comp = apply_p_by_powers(series.coeffs, cpoly, L)
    return [cv - pv for cv, pv in zip(cpoly, comp)]


# The seed-recovery roundtrip: construct must rebuild f from the seed that
# f - P(f) recovers. Only tests call it.
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
    contract is a distance <= 10 * tol, tol being only construct's stopping
    tolerance. f is refused as verify refuses it, or for a negative mass.
    """
    _require_poly(coeffs, p)
    g, slack = _minus_p(f, coeffs)
    if not _within_roundoff(slack, f, DEFAULT_TOLS.verify_slack):
        raise InvalidInput(f"field violates the inequality (slack {slack:.3e}) beyond roundoff")
    if integral(f) < 0:
        raise InvalidInput("field has negative mass")
    psi = Field(g.grid, np.maximum(g.values, 0.0))
    rebuilt, _ = construct(psi, coeffs, p, tol=tol)
    return l1_norm(f - rebuilt)


def linf_diff(f: Field, g: Field) -> float:
    """max |f - g| over the nodes of a common grid."""
    _require_same_grid(f, g)
    return float(np.abs(f.values - g.values).max())


def certificate_vectors() -> list[CoeffVector]:
    """Every vector of degree <= 6 with a_n <= 3 (1359), then 300 seeded
    random ones of degree <= 10 with a_n up to 10^6, about 40% zeros."""
    vecs = [
        CoeffVector(v)
        for length in range(1, 6)
        for v in itertools.product(range(4), repeat=length)
        if any(v)
    ]
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(2, 11))
        a = rng.integers(0, 10**6 + 1, size=n - 1) * (rng.random(n - 1) < 0.6)
        if not a.any():
            a[-1] = int(rng.integers(1, 10**6 + 1))
        vecs.append(CoeffVector([int(v) for v in a]))
    return vecs


def random_coeffs(rng: np.random.Generator, max_degree: int = 6, max_a: int = 3) -> CoeffVector:
    n = int(rng.integers(2, max_degree + 1))
    a = rng.integers(0, max_a + 1, size=n - 1)
    if not a.any():
        a[rng.integers(0, n - 1)] = 1
    return CoeffVector([int(v) for v in a])


def full_k_squared(grid: Grid) -> np.ndarray:
    """||k||^2 over the full M^d frequency grid, summed axis by axis: the
    layout of a complex fftn, independent of the package's half spectrum."""
    norm = np.zeros(grid.shape)
    for k in grid.frequencies():
        norm = norm + k**2
    return norm


def random_smooth_field(
    grid: Grid, rng: np.random.Generator, nonneg: bool = False
) -> Field:
    """Band-limited noise: white noise pushed through a spectral Gaussian
    filter, optionally shifted to be non-negative."""
    white = rng.standard_normal(grid.shape)
    norm = full_k_squared(grid)
    cutoff = (0.125 * grid.points_per_axis / grid.extent) ** 2
    smooth = np.fft.ifftn(np.fft.fftn(white) * np.exp(-norm / cutoff)).real
    if nonneg:
        smooth = smooth - smooth.min()
    return Field(grid, smooth)


def fixed_point(step, start: Field, tol: float, max_iter: int):
    """The field-space Picard loop: iterate current <- step(current) from
    start until the L1 increment drops below tol or max_iter steps have
    run; return the last iterate and its SolveReport, converged or not.

    The oracle of construct's symbol loop and of bose.solve. The report
    records every increment and every mass (the first being
    integral(start)), whether any step moved a node down by more than
    nonneg_slack, and the residual L1 norm of last - step(last). A step
    that overflows ends the run unconverged, with residual None and last
    the final finite iterate.
    """
    _require_limits(tol, max_iter)
    deltas, masses = [], [integral(start)]
    monotone_ok, residual = True, None
    current = start
    try:
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(max_iter):
                nxt = step(current)
                increment = nxt - current
                if min_value(increment) < -DEFAULT_TOLS.nonneg_slack:
                    monotone_ok = False
                delta, mass = l1_norm(increment), integral(nxt)
                deltas.append(delta)
                masses.append(mass)
                current = nxt
                if delta < tol:
                    break
            residual = l1_norm(current - step(current))
    except (FloatingPointError, OverflowError):
        pass  # a diverging step: current is the last finite iterate
    report = SolveReport(
        l1_deltas=tuple(deltas),
        masses=tuple(masses),
        final_mass=masses[-1],
        residual=residual,
        monotone_ok=monotone_ok,
        tol=tol,
    )
    return current, report


def horner_from_zero(c, x):
    """sum_k c_k x^k by Horner from 0, adding every coefficient and
    allocating at every step: the float evaluator qpoly._horner was before
    it started from the top nonzero coefficient, kept as its oracle."""
    acc = 0.0
    for ck in reversed(c):
        acc = acc * x + ck
    return acc


def fill_first_horner(t: np.ndarray, coeffs: CoeffVector, out: np.ndarray) -> np.ndarray:
    """out <- P(t), Horner over CoeffVector.p in place from out = 0: the
    form of the mass-symbol Horner before it started from the top nonzero
    coefficient, kept as the oracle of qpoly._horner with out."""
    out.fill(0)
    for ck in reversed(coeffs.p):
        out *= t
        if ck:
            out += ck
    return out


def full_iterate_symbol(s: np.ndarray, coeffs: CoeffVector, tol: float, max_iter: int):
    """constructor._iterate_symbol computing every frequency at every step,
    on fill_first_horner: the oracle of the loop that drops the frozen
    frequencies. Returns the last iterate, whether a step overflowed, the
    zero-frequency increments and values."""
    origin = (0,) * s.ndim
    masses = [float(s[origin].real)]
    deltas: list[float] = []
    w, acc = s.copy(), np.empty_like(s)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(max_iter):
                fill_first_horner(w, coeffs, out=acc)
                acc += s
                w, acc = acc, w
                mass = float(w[origin].real)
                deltas.append(mass - masses[-1])
                masses.append(mass)
                if deltas[-1] < tol:
                    break
    except FloatingPointError:
        return w, True, deltas, masses
    return w, False, deltas, masses
