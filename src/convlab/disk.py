"""Complex-analytic certificates on the disk |z| < t_q.

Three facts carry the injectivity argument: the smallest-modulus root of
Q' is real, positive, and equal to t_q (non-negative power series put the
dominant singularity of 1/Q' on the positive axis); |P'(z)| < 1 on the
open disk; and |P(z)/z| < 1 there. The first is checked on the computed
root set. For the other two, P' and P/z have non-negative coefficients, so
|P'(z)| <= P'(|z|) and their suprema on |z| <= r are P'(r) and P(r)/r; these
are evaluated exactly at the double r = 0.999 t_q by qpoly's one exact
evaluator and rounded once. The lower Lipschitz bound
|Q(z1) - Q(z2)| >= (1 - P'(r)) |z1 - z2| then gives injectivity of Q;
random pairs cross-check it. They are drawn with seed 0 as a unit radius
and a phase, kept for the last pair count asked for (so a process draws
them once), and scaled to each disk. Every coefficient here is qpoly's
layout; qpoly._horner, the one float evaluator, checks roots and pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools

import numpy as np

from . import accel
from .config import DEFAULT_TOLS
from .errors import ConvergenceFailure, InvalidInput, _require_index
from .qpoly import CoeffVector, PolyQ, _exact_at, _horner, derivative

SCAN_RADIUS_FACTOR = 0.999


@dataclass(frozen=True)
class DiskReport:
    t_q: float
    qprime_roots: tuple[complex, ...]
    min_modulus_root: float
    sup_p_prime: float
    sup_p_over_z: float
    injectivity_violations: int

    def to_json(self) -> dict:
        return {
            "t_q": self.t_q,
            "qprime_roots": [[z.real, z.imag] for z in self.qprime_roots],
            "min_modulus_root": self.min_modulus_root,
            "sup_p_prime": self.sup_p_prime,
            "sup_p_over_z": self.sup_p_over_z,
            "injectivity_violations": self.injectivity_violations,
        }


def qprime_roots(coeffs: CoeffVector) -> list[complex]:
    """All N2 - 1 roots of Q' via companion-matrix eigenvalues, polished by
    Newton while it improves the residual. Sorted by modulus."""
    qp = [float(c) for c in derivative(coeffs.q)]  # finite: CoeffVector bounds sum n a_n
    qpp = derivative(qp)  # an entry beyond the float range is inf, which ends the polish
    polished = []
    for z in np.roots(qp[::-1]):
        z = complex(z)
        for _ in range(20):
            d = _horner(qpp, z)
            if d == 0:
                break
            cand = z - _horner(qp, z) / d
            if not abs(_horner(qp, cand)) < abs(_horner(qp, z)):
                break
            z = cand
        polished.append(z)
    # backward error: |Q'(z)| against sum |c_k| |z|^k, the size of the terms
    qp_abs = [abs(c) for c in qp]
    worst = max(abs(_horner(qp, z)) / _horner(qp_abs, abs(z)) for z in polished)
    tol = DEFAULT_TOLS.root_residual
    if worst > tol:
        raise ConvergenceFailure(f"relative root residual {worst:.3e} above {tol}")
    return sorted(polished, key=lambda z: (abs(z), z.real, z.imag))


@functools.lru_cache(maxsize=1)
def _unit_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """sqrt(U) and exp(i theta) of n pairs drawn with seed 0, as read-only
    arrays (s1, e1, s2, e2): z_k = (radius * s_k) * e_k is uniform on the
    disk of that radius. Kept for the last n only, so it is drawn once per
    process at a fixed pair count."""
    rng = np.random.default_rng(0)
    parts = []
    for _ in range(2):
        parts.append(np.sqrt(rng.random(n)))
        parts.append(np.exp(1j * (2.0 * np.pi * rng.random(n))))
    for part in parts:
        part.setflags(write=False)
    return tuple(parts)


def disk_scan(p: PolyQ, pair_samples: int = 10_000) -> DiskReport:
    """Sup of |P'| and |P/z| on |z| <= 0.999 t_q, in closed form, plus random
    pairwise injectivity checks of Q. Violations are counted, not raised;
    the strict bounds hold only on the open disk, hence the 0.999.

    Each sup is the exact value at the radius, a double, correctly rounded,
    so a reported value below 1.0 proves the bound on the closed disk."""
    pair_samples = _require_index("pair_samples", pair_samples)
    if pair_samples < 0:
        raise InvalidInput(f"pair_samples must be >= 0, got {pair_samples}")
    coeffs = p.coeffs
    radius = SCAN_RADIUS_FACTOR * p.t_q
    num, den = _exact_at(derivative(coeffs.p), radius)
    sup_pp = num / den
    num, den = _exact_at(coeffs.p[1:], radius)  # P(r)/r = sum a_n r^(n-1)
    sup_poz = num / den

    # an equal pair is never counted: it would need 0 < -pair_slack
    s1, e1, s2, e2 = _unit_pairs(pair_samples)
    z1, z2 = (radius * s1) * e1, (radius * s2) * e2
    q = [float(c) for c in coeffs.q]
    violations = accel.count_lipschitz_violations(q, z1, z2, 1.0 - sup_pp, DEFAULT_TOLS.pair_slack)

    roots = qprime_roots(coeffs)
    return DiskReport(
        t_q=p.t_q,
        qprime_roots=tuple(roots),
        min_modulus_root=abs(roots[0]),
        sup_p_prime=sup_pp,
        sup_p_over_z=sup_poz,
        injectivity_violations=violations,
    )
