"""Vectorised polynomial kernels for the sampled injectivity cross-check."""

from __future__ import annotations

import numpy as np

from .qpoly import _horner


def polyval_many(c, z: np.ndarray) -> np.ndarray:
    """sum_k c_k z^k at many complex points, by qpoly's one float Horner;
    c is ascending, qpoly's layout."""
    return _horner(c, np.asarray(z, dtype=np.complex128))


def count_lipschitz_violations(q, z1, z2, lip, slack) -> int:
    """Count pairs with |q(z1)-q(z2)| < lip*|z1-z2| - slack."""
    lhs = np.abs(polyval_many(q, z1) - polyval_many(q, z2))
    rhs = lip * np.abs(z1 - z2) - slack
    return int(np.count_nonzero(lhs < rhs))
