"""Numerical laboratory for iterated convolution inequalities
f >= sum_n a_n (*^n f) on periodic grids: the polynomial Q and its
critical point, the exact coefficient table of the fixed-point
construction, complex-disk certificates, FFT convolution calculus,
the Poisson witness family, and a resolvent solver with an a-priori
non-negativity certificate.
"""

__version__ = "0.1.0"

from .errors import CeilingViolated, ConvergenceFailure, ConvlabError, InvalidInput, NotConverged
from .config import DEFAULT_TOLS, Tolerances
from .qpoly import CoeffVector, PolyQ, build_poly, eval_p, eval_q
from .series import (
    CoeffTable,
    LimitSeries,
    iterate_table,
    lagrange_inverse,
    limit_series,
    mass_bound_certificate,
    reciprocal_qprime,
)
from .disk import DiskReport, disk_scan, qprime_roots
from .field import (
    Field,
    Grid,
    aliasing_guard,
    apply_p,
    conv_power,
    convolve,
    delta_field,
    field_from_bytes,
    field_to_bytes,
    gaussian_field,
    integral,
    l1_norm,
    min_value,
    read_cvlf,
    uniform_field,
    write_csv,
    write_cvlf,
)
from .constructor import SolveReport, construct, uniqueness_roundtrip, verify_inequality
from .witness import PoissonParams, check_two_fold, poisson_field
from .bose import (
    BoseProblem,
    BoseSolution,
    CertificateReport,
    apriori_certificate,
    resolvent_apply,
)
from .bose import solve as bose_solve

__all__ = [
    "__version__",
    "ConvlabError",
    "InvalidInput",
    "NotConverged",
    "ConvergenceFailure",
    "CeilingViolated",
    "Tolerances",
    "DEFAULT_TOLS",
    "CoeffVector",
    "PolyQ",
    "build_poly",
    "eval_q",
    "eval_p",
    "CoeffTable",
    "LimitSeries",
    "iterate_table",
    "limit_series",
    "lagrange_inverse",
    "mass_bound_certificate",
    "reciprocal_qprime",
    "DiskReport",
    "qprime_roots",
    "disk_scan",
    "Grid",
    "Field",
    "convolve",
    "conv_power",
    "apply_p",
    "integral",
    "l1_norm",
    "min_value",
    "aliasing_guard",
    "delta_field",
    "field_from_bytes",
    "field_to_bytes",
    "gaussian_field",
    "uniform_field",
    "read_cvlf",
    "write_cvlf",
    "write_csv",
    "SolveReport",
    "construct",
    "verify_inequality",
    "uniqueness_roundtrip",
    "PoissonParams",
    "poisson_field",
    "check_two_fold",
    "BoseProblem",
    "BoseSolution",
    "CertificateReport",
    "resolvent_apply",
    "bose_solve",
    "apriori_certificate",
]
