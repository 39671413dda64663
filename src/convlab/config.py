"""Centralized tolerance constants.

Every numerical contract in the package draws its thresholds from one
``Tolerances`` record, read as ``DEFAULT_TOLS``; solvers take an explicit
``tol`` for their own stopping rules, defaulting, as the command line does,
to ``DEFAULT_TOL`` and ``DEFAULT_MAX_ITER``. The paper's two pointwise claims are
each judged to roundoff by field._within_roundoff: min >= -slack max(1, max|f|).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    root_residual: float = 1e-10     # |Q'(z)| <= root_residual * sum |c_k| |z|^k
    pair_slack: float = 1e-14        # additive slack in the pairwise injectivity check
    seed_mass_slack: float = 1e-9    # seed mass <= q_max (1 + seed_mass_slack)
    ceiling_slack: float = 1e-10     # bose: max(u) <= 1 + ceiling_slack
    verify_mass_slack: float = 1e-9  # verify: mass <= t_q + verify_mass_slack
    nonneg_slack: float = 1e-12      # f >= 0: construct's seed and monotone_ok, bose's u
    # f >= sum a_n (*^n f): verify and bose's certificate. It also absorbs
    # construct's truncation gap, not roundoff: -3.7e-13 on 1-d 4096 at tol 1e-10 (constructor)
    verify_slack: float = 1e-10


DEFAULT_TOLS = Tolerances()

# construct's and bose.solve's stopping rule: L1 increment below tol, or max_iter steps
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000
