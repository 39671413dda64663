"""Vectorised polynomial kernels for the sampled injectivity cross-check."""

from __future__ import annotations

import numpy as np


def polyval_many(coeffs_desc: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Horner evaluation of a real-coefficient polynomial at many complex points.

    ``coeffs_desc`` is highest degree first, as in numpy's poly1d convention.
    """
    return np.polyval(coeffs_desc, np.asarray(z, dtype=np.complex128))


def count_lipschitz_violations(qcoeffs_desc, z1, z2, lip, slack) -> int:
    """Count pairs with |q(z1)-q(z2)| < lip*|z1-z2| - slack."""
    lhs = np.abs(polyval_many(qcoeffs_desc, z1) - polyval_many(qcoeffs_desc, z2))
    rhs = lip * np.abs(z1 - z2) - slack
    return int(np.count_nonzero(lhs < rhs))
