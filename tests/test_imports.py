"""The import boundary: scipy.fft is imported by the first transform, so
importing convlab, and every command that makes no transform, leaves scipy
unimported; numpy is imported with the first module that uses it, so tq
and series, which run on Python ints, leave it unimported too. Each cold
case runs in a fresh interpreter."""

import json
import subprocess
import sys

import pytest

import convlab
from convlab import Grid, uniform_field, write_cvlf

from conftest import child_env

# Runs convlab.cli as `python -m convlab.cli` would, then reports on stderr
# which of numpy and scipy were imported.
PROBE = """
import runpy, sys
code = 0
try:
    runpy.run_module("convlab.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
heavy = [m for m in ("numpy", "scipy") if m in sys.modules]
sys.stderr.write(f"\\nprobe {code} {' '.join(heavy)}\\n")
"""

GRID = ["--dim", "1", "--extent", "8", "--points", "256"]


def cold(tmp_path, *args):
    """(exit code, the set of numpy and scipy imported) of a fresh convlab command."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *args],
        cwd=tmp_path, capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    _, code, *imported = proc.stderr.splitlines()[-1].split()
    return int(code), set(imported)


def test_import_convlab_leaves_scipy_unimported():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, convlab; print('numpy' in sys.modules, "
         "'scipy' in sys.modules)"],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


@pytest.mark.parametrize("command", ["tq", "series", "disk"])
def test_commands_without_transforms_leave_scipy_unimported(tmp_path, command):
    # disk keeps numpy for np.roots
    want = {"numpy"} if command == "disk" else set()
    assert cold(tmp_path, command, "--coeffs", "1") == (0, want)


def test_cold_construct_imports_scipy_on_its_first_transform(tmp_path):
    args = ["construct", "--coeffs", "1", "--psi", "gaussian:sigma=0.5,mass=0.1", *GRID,
            "--out", "f.cvlf", "--report", "c.json"]
    assert cold(tmp_path, *args) == (0, {"numpy", "scipy"})
    assert json.loads((tmp_path / "c.json").read_text())["converged"] is True


def test_cold_verify_imports_scipy(tmp_path):
    # verify forms P(f) where numpy raises on overflow, scipy's first import
    # included; an error raised there would read as a failed inequality
    g = Grid(dim=1, extent=8.0, points_per_axis=256)
    write_cvlf(uniform_field(g, mass=0.2), str(tmp_path / "f.cvlf"))
    args = ["verify", "--coeffs", "1", "--field", "f.cvlf", "--out", "v.json"]
    assert cold(tmp_path, *args) == (0, {"numpy", "scipy"})
    assert json.loads((tmp_path / "v.json").read_text())["slack_ok"] is True


def test_cold_bose_imports_scipy(tmp_path):
    # bose.solve's first transform, and with it scipy's first import, runs
    # inside the step, where numpy raises on overflow
    args = ["bose", "--V", "gaussian:sigma=0.6,mass=0.3", "--mu", "0.01", *GRID,
            "--report", "b.json"]
    assert cold(tmp_path, *args) == (0, {"numpy", "scipy"})
    assert json.loads((tmp_path / "b.json").read_text())["solve"]["converged"] is True


# Binds every public name from scratch, each the same object as its
# module's attribute, defined in the module that the map names.
STAR = """
from importlib import import_module
import convlab
from convlab import *
for name, home in convlab._HOME.items():
    module, _, attr = home.partition(".")
    obj = globals()[name]
    assert obj is getattr(import_module(f"convlab.{module}"), attr or name), name
    assert getattr(obj, "__module__", f"convlab.{module}") == f"convlab.{module}", name
print(*[name for name in convlab.__all__ if name not in globals()], "done")
"""


def test_star_import_binds_every_name():
    proc = subprocess.run(
        [sys.executable, "-c", STAR], capture_output=True, text=True, env=child_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["done"]  # no name of __all__ left unbound


def test_unknown_name():
    assert not hasattr(convlab, "nope")
    with pytest.raises(ImportError, match="nope"):
        from convlab import nope  # noqa: F401


def test_dir_lists_every_public_name():
    assert set(convlab.__all__) <= set(dir(convlab))
