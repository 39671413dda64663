"""The import boundary: scipy.fft is imported by the first transform, so
importing convlab, and every command that makes no transform, leaves scipy
unimported. Each case runs in a fresh interpreter."""

import json
import subprocess
import sys

import pytest

from convlab import Grid, uniform_field, write_cvlf

from conftest import child_env

# Runs convlab.cli as `python -m convlab.cli` would, then reports on stderr
# whether scipy was imported.
PROBE = """
import runpy, sys
code = 0
try:
    runpy.run_module("convlab.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stderr.write(f"\\nprobe {code} {'scipy' in sys.modules}\\n")
"""

GRID = ["--dim", "1", "--extent", "8", "--points", "256"]


def cold(tmp_path, *args):
    """(exit code, whether scipy was imported) of a fresh convlab command."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *args],
        cwd=tmp_path, capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    _, code, imported = proc.stderr.splitlines()[-1].split()
    return int(code), imported == "True"


def test_import_convlab_leaves_scipy_unimported():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, convlab; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("command", ["tq", "series", "disk"])
def test_commands_without_transforms_leave_scipy_unimported(tmp_path, command):
    assert cold(tmp_path, command, "--coeffs", "1") == (0, False)


def test_cold_construct_imports_scipy_on_its_first_transform(tmp_path):
    args = ["construct", "--coeffs", "1", "--psi", "gaussian:sigma=0.5,mass=0.1", *GRID,
            "--out", "f.cvlf", "--report", "c.json"]
    assert cold(tmp_path, *args) == (0, True)
    assert json.loads((tmp_path / "c.json").read_text())["converged"] is True


def test_cold_verify_imports_scipy(tmp_path):
    # verify forms P(f) where numpy raises on overflow, scipy's first import
    # included; an error raised there would read as a failed inequality
    g = Grid(dim=1, extent=8.0, points_per_axis=256)
    write_cvlf(uniform_field(g, mass=0.2), str(tmp_path / "f.cvlf"))
    args = ["verify", "--coeffs", "1", "--field", "f.cvlf", "--out", "v.json"]
    assert cold(tmp_path, *args) == (0, True)
    assert json.loads((tmp_path / "v.json").read_text())["slack_ok"] is True


def test_cold_bose_imports_scipy(tmp_path):
    # bose.solve's first transform, and with it scipy's first import, runs
    # inside the step, where numpy raises on overflow
    args = ["bose", "--V", "gaussian:sigma=0.6,mass=0.3", "--mu", "0.01", *GRID,
            "--report", "b.json"]
    assert cold(tmp_path, *args) == (0, True)
    assert json.loads((tmp_path / "b.json").read_text())["solve"]["converged"] is True
