"""Centralized tolerance constants.

Every numerical contract in the package draws its thresholds from one
``Tolerances`` record so that tests, solvers and reports agree on what
"equal" means. The defaults are deliberately conservative; individual
solvers take an explicit ``tol`` argument for their own stopping rules.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    root_residual: float = 1e-10     # |Q'(z)| <= root_residual * sum |c_k| |z|^k
    negative_clamp: float = 1e-12    # how negative a "non-negative" input may be
    pair_slack: float = 1e-14        # additive slack in the pairwise injectivity check
    monotone_slack: float = 1e-12    # iterate backsliding; construct scales it by max(1, max|f|)
    seed_mass_slack: float = 1e-9    # seed mass <= q_max (1 + seed_mass_slack)
    ceiling_slack: float = 1e-10     # bose: max(u) <= 1 + ceiling_slack
    cert_slack: float = 1e-8         # bose certificate: min >= -cert_slack * L1 norm
    verify_slack: float = 1e-10      # verify: min slack >= -verify_slack * max(1, max|f|)
    verify_mass_slack: float = 1e-9  # verify: mass <= t_q + verify_mass_slack


DEFAULT_TOLS = Tolerances()

