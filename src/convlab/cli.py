"""Command-line front end.

One subcommand per module: tq (critical point of Q), series (coefficient
table and inverse series), disk (complex-disk certificates), construct
(fixed-point builder), witness (Poisson family), bose (resolvent solver),
verify (inequality check on a stored field). Every run writes a manifest
JSON with the resolved configuration, package version and wall time; all
artifacts are written atomically. Exit codes: 0 success, 1 internal error
(manifest written, traceback raised), 2 invalid input, including a path that
cannot be read or written, 3 convergence or certificate failure.

The parser is built once per process. The numpy-backed modules (field,
constructor, disk, witness, bose) are imported by the handlers and helpers
that use them, so tq and series run without numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import contextmanager
from functools import cache
from typing import TYPE_CHECKING

from . import __version__, series
from .config import DEFAULT_MAX_ITER, DEFAULT_TOL, DEFAULT_TOLS
from .errors import CeilingViolated, ConvergenceFailure, ConvlabError, InvalidInput, NotConverged
from .ioutil import atomic_write_text
from .qpoly import CoeffVector, build_poly

if TYPE_CHECKING:
    from .field import Field, Grid


@contextmanager
def _user_path(path: str):
    """An OSError on a path the user named is bad input: exit 2, not a traceback."""
    try:
        yield
    except OSError as exc:
        raise InvalidInput(f"{path}: {exc.strerror or exc}") from exc


def _emit(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        with _user_path(path):
            atomic_write_text(path, text)
    else:
        sys.stdout.write(text)


def _read_field(path: str) -> Field:
    """The field stored at path, refused if its L1 norm is not finite."""
    from . import field

    with _user_path(path):
        f = field.read_cvlf(path)
    try:  # the L1 norm bounds every mass that a command sums from f
        if field.l1_norm(f) < math.inf:
            return f
    except OverflowError:
        pass
    raise InvalidInput(f"{path}: the L1 norm of the field is beyond the float range")


def _grid_from_args(args) -> Grid:
    from . import field

    return field.Grid(dim=args.dim, extent=args.extent, points_per_axis=args.points)


def _parse_field_spec(spec: str, grid: Grid) -> Field:
    """'gaussian:sigma=0.5,mass=0.2', 'delta:mass=1', 'uniform:mass=1' or
    'file:<path.cvlf>'."""
    from . import field

    kind, _, rest = spec.partition(":")
    if kind == "file":
        f = _read_field(rest)
        if f.grid != grid:
            raise InvalidInput(f"{rest} holds a {f.grid}, expected {grid}")
        return f
    params = {}
    if rest:
        for part in rest.split(","):
            key, eq, val = part.partition("=")
            if not eq:
                raise InvalidInput(f"malformed field parameter {part!r} in {spec!r}")
            try:
                key, value = key.strip(), float(val)
            except ValueError:
                raise InvalidInput(f"field parameter {part!r} is not a number") from None
            if not math.isfinite(value):
                raise InvalidInput(f"field parameter {key} must be finite, got {val.strip()}")
            if key in params:
                raise InvalidInput(f"field parameter {key} appears more than once in {spec!r}")
            params[key] = value
    mass = params.pop("mass", 1.0)
    if kind == "gaussian":
        if "sigma" not in params:
            raise InvalidInput("gaussian spec needs sigma=")
        sigma = params.pop("sigma")
    if params:
        raise InvalidInput(f"unknown field parameters {sorted(params)} in {spec!r}")
    if kind == "gaussian":
        return field.gaussian_field(grid, sigma=sigma, mass=mass)
    if kind == "delta":
        return field.delta_field(grid, mass=mass)
    if kind == "uniform":
        return field.uniform_field(grid, mass=mass)
    raise InvalidInput(f"unknown field kind {kind!r}")


def _write_field(f: Field, path: str) -> None:
    from . import field

    with _user_path(path):
        if path.endswith(".csv"):
            field.write_csv(f, path)
        else:
            field.write_cvlf(f, path)


# --- subcommand handlers --------------------------------------------------

def _cmd_tq(args) -> int:
    p = build_poly(CoeffVector.parse(args.coeffs))
    _emit({"t_q": p.t_q, "q_max": p.q_max}, args.out)
    return 0


def _cmd_series(args) -> int:
    coeffs = CoeffVector.parse(args.coeffs)
    p = build_poly(coeffs)
    table = series.iterate_table(coeffs, J=args.rows, L_cap=args.cap)
    payload = {
        "table": table.to_json(),
        "diagonal": [str(v) for v in table.diagonal()],
        "mass_certificate": series.mass_bound_certificate(table, p),
        "t_q": p.t_q,
        "q_max": p.q_max,
    }
    _emit(payload, args.out)
    return 0


def _cmd_disk(args) -> int:
    from . import disk

    p = build_poly(CoeffVector.parse(args.coeffs))
    report = disk.disk_scan(p)
    certified = (
        report.sup_p_prime < 1.0
        and report.sup_p_over_z < 1.0
        and report.injectivity_violations == 0
    )
    payload = report.to_json()
    payload["certified"] = certified
    _emit(payload, args.out)
    return 0 if certified else 3


def _cmd_construct(args) -> int:
    from . import constructor

    coeffs = CoeffVector.parse(args.coeffs)
    p = build_poly(coeffs)
    grid = _grid_from_args(args)
    psi = _parse_field_spec(args.psi, grid)
    try:
        result, report = constructor.construct(
            psi, coeffs, p, tol=args.tol, max_iter=args.max_iter
        )
    except NotConverged as exc:
        if exc.field is not None and args.out:
            _write_field(exc.field, args.out)
        _emit({"error": str(exc), "report": exc.report.to_json()}, args.report)
        return 3
    if args.out:
        _write_field(result, args.out)
    payload = report.to_json()
    payload.update({"min_slack": report.min_slack, "mass": report.final_mass, "t_q": p.t_q})
    _emit(payload, args.report)
    return 0


def _cmd_witness(args) -> int:
    from . import witness

    grid = _grid_from_args(args)
    params = witness.PoissonParams(a=args.a, t=args.t, grid=grid)
    f = witness.poisson_field(params)
    if args.out:
        _write_field(f, args.out)
    slack, mass = witness.check_two_fold(f)
    _emit({"min_slack": slack, "mass": mass, "a": args.a, "t": args.t}, args.report)
    return 0


def _cmd_bose(args) -> int:
    from . import bose

    grid = _grid_from_args(args)
    potential = _parse_field_spec(args.V, grid)
    problem = bose.BoseProblem(m=args.m, xi=args.xi, mu=args.mu, V=potential, grid=grid)
    try:
        sol = bose.solve(problem, tol=args.tol, max_iter=args.max_iter)
    except (NotConverged, CeilingViolated) as exc:  # solve attaches the solution to both
        _emit({"error": str(exc), "report": exc.solution.report.to_json()}, args.report)
        return 3
    cert = bose.apriori_certificate(sol)
    if args.out:
        _write_field(sol.u, args.out)
    payload = {
        "solve": sol.report.to_json(),
        "delta": sol.delta if math.isfinite(sol.delta) else None,  # u of mass 0
        "hypothesis_value": sol.hypothesis_value,
        "certificate": cert.to_json(),
    }
    _emit(payload, args.report)
    return 0 if cert.passed else 3


def _cmd_verify(args) -> int:
    from . import constructor, field

    coeffs = CoeffVector.parse(args.coeffs)
    p = build_poly(coeffs)
    f = _read_field(args.field)
    slack, mass = constructor.verify_inequality(f, coeffs)
    slack_ok = field._within_roundoff(slack, f, DEFAULT_TOLS.verify_slack)
    mass_ok = mass <= p.t_q + DEFAULT_TOLS.verify_mass_slack
    payload = {
        "min_slack": slack if math.isfinite(slack) else None,  # P(f) past the float range
        "min_value": field.min_value(f),  # reported only: no exit code reads its sign
        "mass": mass,
        "t_q": p.t_q,
        "slack_ok": slack_ok,
        "mass_ok": mass_ok,
    }
    _emit(payload, args.out)
    return 0 if (slack_ok and mass_ok) else 3


# --- parser ---------------------------------------------------------------

def _add_coeffs(sp) -> None:
    sp.add_argument(
        "--coeffs",
        required=True,
        help="comma list a2,a3,... of the inequality f >= sum a_n (*^n f)",
    )


def _add_grid(sp) -> None:
    sp.add_argument("--dim", type=int, default=1, help="grid dimension (1, 2 or 3)")
    sp.add_argument("--extent", type=float, default=16.0, help="box side length L")
    sp.add_argument("--points", type=int, default=1024, help="nodes per axis (power of two)")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; main looks each handler up by name
    when it runs, so the parser holds no function."""
    parser = argparse.ArgumentParser(
        prog="convlab",
        description="Numerical laboratory for the iterated convolution "
        "inequality f >= sum a_n (*^n f) on periodic grids.",
    )
    parser.add_argument(
        "--manifest",
        default="convlab-manifest.json",
        help="path for the run manifest (resolved config, version, wall time)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser(
        "tq", help="critical point t_Q and maximum Q(t_Q) of Q(t) = t - sum a_n t^n"
    )
    _add_coeffs(sp)
    sp.add_argument("--out", default=None, help="write JSON here instead of stdout")

    sp = sub.add_parser(
        "series",
        help="coefficient table m_{j,l} of the iterative construction, its "
        "diagonal (the compositional inverse of Q) and the mass certificate",
    )
    _add_coeffs(sp)
    sp.add_argument("--rows", type=int, default=8, help="number of iterations J")
    sp.add_argument("--cap", type=int, default=series.DEFAULT_L_CAP, help="column cap L")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser(
        "disk",
        help="certificates on |z| < t_Q: roots of Q', sup|P'|, sup|P/z|, "
        "sampled injectivity of Q",
    )
    _add_coeffs(sp)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser(
        "construct",
        help="iterate Psi_{j+1} = psi + sum a_n (*^n Psi_j) to its L1 fixed point",
    )
    _add_coeffs(sp)
    _add_grid(sp)
    sp.add_argument("--psi", required=True, help="seed, e.g. gaussian:sigma=0.5,mass=0.2")
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sp.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    sp.add_argument("--out", default=None, help="field output (.cvlf, or .csv for d=1)")
    sp.add_argument("--report", default=None, help="solve report JSON")

    sp = sub.add_parser(
        "witness",
        help="Poisson witness a C_d t/(t^2+||x||^2)^((d+1)/2) for f >= f*f, "
        "periodized to the box",
    )
    sp.add_argument("--a", type=float, required=True, help="mass parameter, 0 < a <= 0.5")
    sp.add_argument(
        "--t", type=float, required=True, help="scale parameter, t * points / extent >= 8"
    )
    _add_grid(sp)
    sp.add_argument("--out", default=None, help="field output (.csv for d=1, else .cvlf)")
    sp.add_argument("--report", default=None)

    sp = sub.add_parser(
        "bose",
        help="solve (xi - Laplacian)^m u = V(1-u) + mu (*^(m+1) u) by Picard "
        "iteration and check the non-negativity certificate",
    )
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--xi", type=float, default=1.0)
    sp.add_argument("--mu", type=float, default=0.0)
    sp.add_argument("--V", required=True, help="potential, e.g. gaussian:sigma=0.5,mass=0.1")
    _add_grid(sp)
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sp.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    sp.add_argument("--out", default=None, help="solution field output")
    sp.add_argument("--report", default=None)

    sp = sub.add_parser(
        "verify", help="check f >= sum a_n (*^n f) and the t_Q mass bound on a stored field"
    )
    _add_coeffs(sp)
    sp.add_argument("--field", required=True, help="CVLF file to check")
    sp.add_argument("--out", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    start = time.perf_counter()
    code = 1  # recorded if the handler raises something not the package's own
    try:
        code = globals()[f"_cmd_{args.subcommand}"](args)
    except ConvlabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        code = 3 if isinstance(exc, (NotConverged, CeilingViolated, ConvergenceFailure)) else 2
    finally:
        _write_manifest(args, start, code)
    return code


def _write_manifest(args, start: float, code: int) -> None:
    config = {
        k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v  # strict JSON
        for k, v in vars(args).items()
        if k != "manifest"
    }
    manifest = {
        "tool": "convlab",
        "version": __version__,
        "config": config,
        "exit_code": code,
        "wall_time_s": time.perf_counter() - start,
    }
    try:
        atomic_write_text(args.manifest, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        sys.stderr.write(f"warning: could not write manifest: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
