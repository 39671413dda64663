"""Numerical laboratory for iterated convolution inequalities
f >= sum_n a_n (*^n f) on periodic grids: the polynomial Q and its
critical point, the exact coefficient table of the fixed-point
construction, complex-disk certificates, FFT convolution calculus,
the Poisson witness family, and a resolvent solver with an a-priori
non-negativity certificate.

Each public name loads its module on first use (PEP 562), so importing
the package imports neither numpy nor scipy, and the exact-integer
modules (qpoly, series) never do.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it, as "module" or "module.attribute"
_HOME = {
    **dict.fromkeys(
        ("ConvlabError", "InvalidInput", "NotConverged", "ConvergenceFailure", "CeilingViolated"),
        "errors",
    ),
    **dict.fromkeys(("Tolerances", "DEFAULT_TOLS"), "config"),
    **dict.fromkeys(("CoeffVector", "PolyQ", "build_poly", "eval_q", "eval_p"), "qpoly"),
    **dict.fromkeys(
        ("CoeffTable", "LimitSeries", "iterate_table", "limit_series", "lagrange_inverse",
         "mass_bound_certificate", "reciprocal_qprime"),
        "series",
    ),
    **dict.fromkeys(("DiskReport", "qprime_roots", "disk_scan"), "disk"),
    **dict.fromkeys(
        ("Grid", "Field", "convolve", "conv_power", "apply_p", "integral", "l1_norm",
         "min_value", "delta_field", "field_from_bytes", "field_to_bytes", "gaussian_field",
         "uniform_field", "read_cvlf", "write_cvlf", "write_csv"),
        "field",
    ),
    **dict.fromkeys(("SolveReport", "construct", "verify_inequality"), "constructor"),
    **dict.fromkeys(("PoissonParams", "poisson_field", "check_two_fold"), "witness"),
    **dict.fromkeys(
        ("BoseProblem", "BoseSolution", "CertificateReport", "resolvent_apply",
         "apriori_certificate"),
        "bose",
    ),
    "bose_solve": "bose.solve",
}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, _, attr = _HOME[name].partition(".")
    return getattr(import_module(f".{module}", __name__), attr or name)


def __dir__():
    return sorted({*globals(), *_HOME})
