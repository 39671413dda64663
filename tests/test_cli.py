import dataclasses
import inspect
import json
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from convlab import (
    CoeffVector, Field, cli, construct, errors, read_cvlf, uniform_field, verify_inequality,
    write_cvlf,
)
from convlab import bose as bose_module
from convlab import field as field_module
from convlab.cli import main
from convlab.config import DEFAULT_TOLS, Tolerances
from convlab.field import Grid, convolve, gaussian_field
from convlab.witness import PoissonParams, poisson_field

from conftest import child_env, count_transforms

GRID_ARGS = ["--dim", "1", "--extent", "8", "--points", "256"]


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def strict_json(text: str):
    """json.loads refusing NaN and Infinity, which strict JSON has no word for."""
    return json.loads(text, parse_constant=lambda c: pytest.fail(f"non-finite {c} in JSON"))


def read_strict_json(path):
    return strict_json(Path(path).read_text())


class TestTq:
    def test_stdout(self, capsys):
        assert main(["tq", "--coeffs", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["t_q"] == pytest.approx(0.5, rel=1e-14)
        assert out["q_max"] == pytest.approx(0.25, rel=1e-14)

    def test_out_file_and_manifest(self, tmp_path):
        assert main(["tq", "--coeffs", "1,1", "--out", "tq.json"]) == 0
        out = read_json(tmp_path / "tq.json")
        assert out["t_q"] == pytest.approx(1.0 / 3.0, abs=1e-14)
        man = read_json(tmp_path / "convlab-manifest.json")
        assert man["tool"] == "convlab"
        assert man["exit_code"] == 0
        assert man["config"]["coeffs"] == "1,1"
        assert "wall_time_s" in man

    def test_rejects_zero_vector(self):
        assert main(["tq", "--coeffs", "0,0"]) == 2

    @pytest.mark.parametrize("coeffs", ["0,,1", "1,", ",1"])
    def test_rejects_empty_entry(self, tmp_path, coeffs):
        assert main(["tq", "--coeffs", coeffs]) == 2
        assert read_json(tmp_path / "convlab-manifest.json")["exit_code"] == 2

    @pytest.mark.parametrize("coeffs", ["1_0", "+1", "1,-0", "\u0661", "1,0x1"])
    def test_rejects_non_digit_entry(self, tmp_path, coeffs):
        assert main(["tq", "--coeffs", coeffs]) == 2
        assert read_json(tmp_path / "convlab-manifest.json")["exit_code"] == 2

    def test_argparse_errors(self):
        assert main([]) == 2
        assert main(["tq", "--coeffs", "1", "--no-such-flag"]) == 2


class TestSeries:
    def test_diagonal(self, tmp_path):
        code = main(["series", "--coeffs", "1", "--rows", "6", "--cap", "64", "--out", "s.json"])
        assert code == 0
        out = read_json(tmp_path / "s.json")
        assert out["diagonal"] == ["1", "1", "2", "5", "14", "42"]
        assert out["mass_certificate"][0] == pytest.approx(0.25, abs=1e-15)
        assert not out["table"]["cap_too_small"]

    def test_truncation_is_flagged(self, tmp_path):
        assert main(["series", "--coeffs", "1", "--rows", "6", "--cap", "16",
                     "--out", "s.json"]) == 0
        assert read_json(tmp_path / "s.json")["table"]["cap_too_small"] is True


class TestDisk:
    def test_certified(self, tmp_path):
        assert main(["disk", "--coeffs", "1,1", "--out", "d.json"]) == 0
        out = read_json(tmp_path / "d.json")
        assert out["certified"] is True
        assert out["injectivity_violations"] == 0

    def test_stdout_identical_across_processes(self, tmp_path):
        # two fresh interpreters (different hash seeds) print the same bytes
        args = [sys.executable, "-m", "convlab.cli", "disk", "--coeffs", "1,1"]
        runs = [
            subprocess.run(args, cwd=tmp_path, capture_output=True, env=child_env(PYTHONHASHSEED=s))
            for s in ("1", "2")
        ]
        assert [r.returncode for r in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout
        assert sorted(json.loads(runs[0].stdout)) == [
            "certified", "injectivity_violations", "min_modulus_root",
            "qprime_roots", "sup_p_over_z", "sup_p_prime", "t_q",
        ]


    def test_backward_error_residual(self, tmp_path):
        # a root near -19.07 has |Q'(z)| ~ 5 against terms of size ~1e17:
        # a backward error of 4e-17, far below the 1e-10 contract
        coeffs = "439060,412898,230049,0,56559,0,252267,455723,20956"
        assert main(["disk", "--coeffs", coeffs, "--out", "d.json"]) == 0
        assert read_json(tmp_path / "d.json")["certified"] is True

    def test_huge_top_coefficient(self, tmp_path):
        # n (n-1) a_n overflows a double where the guarded sum n a_n does not
        coeffs = ",".join(["0"] * 7 + ["1" + "0" * 307])
        assert main(["disk", "--coeffs", coeffs, "--out", "d.json"]) in (0, 3)
        assert len(read_strict_json(tmp_path / "d.json")["qprime_roots"]) == 8
        assert read_strict_json(tmp_path / "convlab-manifest.json")["exit_code"] in (0, 3)

    @pytest.mark.parametrize("flag", ["--pairs", "--seed"])
    def test_no_sampling_options(self, tmp_path, capsys, flag):
        # the sampled count cannot change `certified`: it has no options
        assert main(["disk", "--coeffs", "1", flag, "10", "--out", "d.json"]) == 2
        assert f"unrecognized arguments: {flag} 10" in capsys.readouterr().err
        assert not (tmp_path / "d.json").exists()


class TestInputRange:
    @pytest.mark.parametrize(
        "argv",
        [
            ["tq", "--coeffs", "1" + "0" * 400],
            ["disk", "--coeffs", "1" + "0" * 400],
            ["construct", "--coeffs", "1" + "0" * 400, *GRID_ARGS, "--psi", "delta:mass=0.1"],
            ["disk", "--coeffs", "1" + "0" * 308],
        ],
        ids=["tq-1e400", "disk-1e400", "construct-1e400", "disk-1e308"],
    )
    def test_coefficients_beyond_float_range(self, tmp_path, capsys, argv):
        assert main(argv) == 2
        assert read_json(tmp_path / "convlab-manifest.json")["exit_code"] == 2
        assert capsys.readouterr().err == "error: sum n a_n exceeds the float range\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--psi", "gaussian:sigma=abc,mass=0.1"], "field parameter 'sigma=abc' is not a number"),
            (["--psi", "gaussian:sigma=0.5,sigma=5,mass=0.1"],
             "field parameter sigma appears more than once in 'gaussian:sigma=0.5,sigma=5,mass=0.1'"),
            (["--dim", "3", "--points", "4194304", "--psi", "delta:mass=0.1"],
             "points_per_axis 4194304 is too large for dim 3"),
            (["--dim", "3", "--extent", "1e-120", "--points", "16", "--psi", "uniform:mass=0.1"],
             "extent 1e-120 in dim 3: the box volume L^d or the cell volume h^d "
             "is outside the float range"),
            (["--dim", "2", "--extent", "1e200", "--psi", "uniform:mass=0.1"],
             "extent 1e+200 in dim 2: the box volume L^d or the cell volume h^d "
             "is outside the float range"),
        ],
        ids=["spec-not-a-number", "spec-repeated-parameter", "grid-beyond-address-space", "cell-volume-underflows",
             "box-volume-overflows"],
    )
    def test_refused_with_package_message(self, tmp_path, capsys, argv, message):
        assert main(["construct", "--coeffs", "1", *argv]) == 2
        assert read_strict_json(tmp_path / "convlab-manifest.json")["exit_code"] == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_largest_coefficients_still_run(self, tmp_path):
        assert main(["disk", "--coeffs", "1" + "0" * 307]) == 0

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["bose", "--xi", "inf", "--V", "gaussian:sigma=0.5,mass=0.1", *GRID_ARGS], "shift xi must"),
            (["bose", "--mu", "nan", "--V", "gaussian:sigma=0.5,mass=0.1", *GRID_ARGS], "coupling mu must"),
            (["bose", "--mu", "inf", "--V", "gaussian:sigma=0.5,mass=0.1", *GRID_ARGS], "coupling mu must"),
            (["construct", "--coeffs", "1", "--dim", "1", "--extent", "inf",
              "--points", "256", "--psi", "delta:mass=0.1"], "extent must"),
            (["witness", "--a", "0.5", "--t", "inf"], "scale t must"),
        ],
    )
    def test_non_finite_parameters(self, tmp_path, capsys, argv, name):
        assert main(argv) == 2
        assert read_json(tmp_path / "convlab-manifest.json")["exit_code"] == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and err.count("\n") == 1


class TestUserPaths:
    """An OSError on a path named on the command line is bad input."""

    def check(self, tmp_path, capsys, argv, path):
        assert main(argv) == 2
        assert read_json(tmp_path / "convlab-manifest.json")["exit_code"] == 2
        assert capsys.readouterr().err == f"error: {path}: No such file or directory\n"

    def test_verify_missing_field(self, tmp_path, capsys):
        self.check(tmp_path, capsys, ["verify", "--coeffs", "1", "--field", "missing.cvlf"],
                   "missing.cvlf")

    def test_construct_missing_seed(self, tmp_path, capsys):
        argv = ["construct", "--coeffs", "1", *GRID_ARGS, "--psi", "file:missing.cvlf"]
        self.check(tmp_path, capsys, argv, "missing.cvlf")

    def test_unwritable_out(self, tmp_path, capsys):
        out = str(tmp_path / "no" / "dir" / "x.json")
        self.check(tmp_path, capsys, ["tq", "--coeffs", "1", "--out", out], out)


class TestConstructVerify:
    def test_chain(self, tmp_path, capsys):
        code = main(
            ["construct", "--coeffs", "1", *GRID_ARGS,
             "--psi", "gaussian:sigma=0.5,mass=0.2",
             "--out", "f.cvlf", "--report", "r.json"]
        )
        assert code == 0
        rep = read_json(tmp_path / "r.json")
        assert rep["converged"] is True
        assert rep["mass"] == pytest.approx(0.27639320225002106, abs=1e-8)
        assert rep["min_slack"] >= -1e-10

        assert main(["verify", "--coeffs", "1", "--field", "f.cvlf"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["slack_ok"] is True and out["mass_ok"] is True
        assert out["mass"] == pytest.approx(rep["mass"], rel=1e-12)

    def test_one_pass_over_f_minus_p_f(self, tmp_path, monkeypatch):
        # the seed's forward transform, the last iterate back and one pair
        # for f - P(f), which gives the residual, the monotone check's next
        # increment and min_slack; forming P(f) again for the slack made 6
        calls = count_transforms(monkeypatch)
        argv = ["construct", "--coeffs", "1,1", *GRID_ARGS,
                "--psi", "gaussian:sigma=0.5,mass=0.1", "--out", "f.cvlf", "--report", "r.json"]
        assert main(argv) == 0
        assert len(calls) == 4
        rep = read_strict_json(tmp_path / "r.json")
        slack, mass = verify_inequality(read_cvlf("f.cvlf"), CoeffVector([1, 1]))
        assert rep["min_slack"].hex() == slack.hex()
        assert rep["mass"].hex() == mass.hex() == rep["final_mass"].hex()

    def test_nonconvergent_exit_and_diagnostics(self, tmp_path):
        code = main(
            ["construct", "--coeffs", "1", *GRID_ARGS,
             "--psi", "gaussian:sigma=0.5,mass=0.25",
             "--max-iter", "5", "--out", "f.cvlf", "--report", "r.json"]
        )
        assert code == 3
        rep = read_json(tmp_path / "r.json")
        assert "error" in rep
        assert rep["report"]["iterations"] == 5
        assert (tmp_path / "f.cvlf").exists()
        assert read_json(tmp_path / "convlab-manifest.json")["exit_code"] == 3

    def test_mass_guard_exit(self):
        code = main(
            ["construct", "--coeffs", "1", *GRID_ARGS,
             "--psi", "gaussian:sigma=0.5,mass=0.3"]
        )
        assert code == 2

    def test_bad_field_specs(self):
        base = ["construct", "--coeffs", "1", *GRID_ARGS]
        assert main([*base, "--psi", "gaussian:mass=0.2"]) == 2
        assert main([*base, "--psi", "vortex:mass=0.2"]) == 2
        assert main([*base, "--psi", "gaussian:sigma=0.5,mass=0.1,skew=2"]) == 2
        assert main([*base, "--psi", "gaussian:sigma"]) == 2

    @pytest.mark.parametrize("param", ["sigma", "mass"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_field_specs(self, tmp_path, capsys, param, value):
        spec = {"sigma": "0.5", "mass": "0.1", param: value}
        psi = f"gaussian:sigma={spec['sigma']},mass={spec['mass']}"
        assert main(["construct", "--coeffs", "1", *GRID_ARGS, "--psi", psi]) == 2
        assert capsys.readouterr().err == f"error: field parameter {param} must be finite, got {value}\n"
        assert read_strict_json(tmp_path / "convlab-manifest.json")["exit_code"] == 2

    @pytest.mark.parametrize(
        "grid, sigma",
        [(["--dim", "1", "--extent", "1e-300", "--points", "256"], "1e-302"), ([], "1e-160")],
    )
    def test_underflowing_sigma(self, tmp_path, capsys, grid, sigma):
        psi = f"gaussian:sigma={sigma},mass=0.1"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["construct", "--coeffs", "1", *grid, "--psi", psi]) == 2
        assert caught == []
        want = f"error: sigma {sigma} is too small: 2 sigma^2 underflows a normal double\n"
        assert capsys.readouterr().err == want
        assert read_strict_json(tmp_path / "convlab-manifest.json")["exit_code"] == 2

    def test_file_seed_roundtrip(self, tmp_path):
        assert main(["witness", "--a", "0.2", "--t", "1", *GRID_ARGS, "--out", "w.cvlf"]) == 0
        code = main(
            ["construct", "--coeffs", "1", *GRID_ARGS,
             "--psi", "file:w.cvlf", "--report", "r.json"]
        )
        assert code == 0
        assert read_json(tmp_path / "r.json")["converged"] is True
        # same file on a mismatched grid is refused
        wrong = ["--dim", "1", "--extent", "8", "--points", "128"]
        assert main(["construct", "--coeffs", "1", *wrong, "--psi", "file:w.cvlf"]) == 2

    def test_roundoff_negative_seed_on_small_box(self, tmp_path, capsys):
        # s * s on 2-d 0.01: min -1.8e-11, pure roundoff at -8.7e-17 max|psi|,
        # beyond an absolute 1e-12 but within nonneg_slack max(1, max|psi|)
        g = Grid(dim=2, extent=0.01, points_per_axis=128)
        s = gaussian_field(g, sigma=0.01 / 40.0, mass=0.4)
        psi = convolve(s, s)
        assert float(psi.values.min()) < -1e-12
        write_cvlf(psi, str(tmp_path / "psi.cvlf"))
        argv = ["construct", "--coeffs", "1", "--dim", "2", "--extent", "0.01",
                "--points", "128", "--psi", "file:psi.cvlf", "--report", "r.json"]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        rep = read_strict_json(tmp_path / "r.json")
        assert rep["converged"] is True and rep["monotone_ok"] is True

    def test_csv_output(self, tmp_path):
        code = main(
            ["construct", "--coeffs", "1", *GRID_ARGS,
             "--psi", "gaussian:sigma=0.5,mass=0.1", "--out", "f.csv"]
        )
        assert code == 0
        lines = (tmp_path / "f.csv").read_text().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 257


class TestWitness:
    def test_report(self, tmp_path):
        code = main(
            ["witness", "--a", "0.5", "--t", "1", *GRID_ARGS,
             "--out", "w.csv", "--report", "wr.json"]
        )
        assert code == 0
        rep = read_json(tmp_path / "wr.json")
        assert rep["mass"] == pytest.approx(0.5, abs=1e-12)
        assert rep["min_slack"] >= -1e-8
        assert (tmp_path / "w.csv").read_text().startswith("x,value")

    def test_decay_guard_exit(self):
        assert main(["witness", "--a", "0.3", "--t", "0.1", *GRID_ARGS]) == 2

    @pytest.mark.parametrize(
        "grid", [["--t", "0.25", "--dim", "2", "--extent", "16", "--points", "64"],
                 ["--t", "0.5", "--dim", "1", "--extent", "8", "--points", "16"]],
    )
    def test_under_resolved_exit(self, tmp_path, capsys, grid):
        # t L >= 4 but t M / L = 1; unguarded: min_slack -1.22e-3 (2-d), -6.29e-5 (1-d)
        assert main(["witness", "--a", "0.5", *grid, "--report", "wr.json"]) == 2
        assert "t * M / L = 1 < 8" in capsys.readouterr().err
        assert not (tmp_path / "wr.json").exists()

    def test_amplitude_validation_exit(self):
        assert main(["witness", "--a", "0.7", "--t", "1", *GRID_ARGS]) == 2

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["witness", "--a", "0.5", "--t", "1e308", "--dim", "2", "--extent", "16",
              "--points", "64"], 0),
            (["witness", "--a", "0.5", "--t", "1", "--dim", "1", "--extent", "1e-300",
              "--points", "16"], 0),
            (["bose", "--V", "uniform:mass=0.1", "--dim", "1", "--extent", "1e-300",
              "--points", "16"], 3),
            (["bose", "--V", "uniform:mass=0.1", "--dim", "1", "--extent", "1e-153",
              "--points", "16"], 3),
            (["construct", "--coeffs", "1", "--dim", "1", "--extent", "1e300", "--points", "16",
              "--psi", "gaussian:sigma=1e150,mass=0.1"], 0),
        ],
        ids=["witness-huge-scale", "witness-tiny-box", "bose-tiny-box", "bose-small-box",
             "construct-huge-box"],
    )
    def test_extreme_scales_run_quietly(self, capsys, argv, code):
        # -2 pi t = -inf at the zero frequency, ||k||^2 or 4 pi^2 ||k||^2
        # past the float range, and |x|^2 past it in a Gaussian seed
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == code
        assert caught == []
        assert capsys.readouterr().err == ""


class TestBose:
    @pytest.mark.parametrize(
        "argv, message",
        [(["--V", "uniform:mass=0", "--xi", "1e-320", "--dim", "1", "--extent", "16",
           "--points", "64"], "xi^m is outside the float range for xi = 1e-320, m = 1")],
        ids=["bose-subnormal-xi"],
    )
    def test_shift_beyond_float_range(self, tmp_path, capsys, argv, message):
        # R_m(0) = xi^(-m) would overflow: refused where xi enters, before
        # any step
        assert main(["bose", *argv]) == 2
        assert read_json(tmp_path / "convlab-manifest.json")["exit_code"] == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_report(self, tmp_path):
        code = main(
            ["bose", "--V", "gaussian:sigma=0.6,mass=0.3", "--mu", "0.01",
             *GRID_ARGS, "--out", "u.cvlf", "--report", "b.json"]
        )
        assert code == 0
        rep = read_json(tmp_path / "b.json")
        assert rep["solve"]["converged"] is True
        assert rep["certificate"]["passed"] is True
        assert rep["hypothesis_value"] < 1.0
        u = read_cvlf(str(tmp_path / "u.cvlf"))
        assert float(u.values.max()) <= 1.0

    def test_not_converged_exit(self, tmp_path):
        code = main(
            ["bose", "--V", "gaussian:sigma=0.6,mass=0.45", *GRID_ARGS,
             "--max-iter", "1", "--report", "b.json"]
        )
        assert code == 3
        assert "error" in read_json(tmp_path / "b.json")

    def test_diverging_solve_exit(self, tmp_path):
        code = main(
            ["bose", "--V", "gaussian:sigma=0.6,mass=0.3", "--mu", "1e6", *GRID_ARGS,
             "--max-iter", "50", "--report", "b.json"]
        )
        assert code == 3
        text = (tmp_path / "b.json").read_text()
        rep = json.loads(text, parse_constant=lambda c: pytest.fail(f"non-finite {c} in report"))
        assert rep["error"].startswith("the step overflowed after ")
        assert rep["report"]["converged"] is False and rep["report"]["residual"] is None
        assert read_json(tmp_path / "convlab-manifest.json")["exit_code"] == 3

    def test_zero_potential_report(self, tmp_path):
        # u = 0 has mass 0, so delta = 1 / mass is reported as null
        code = main(
            ["bose", "--V", "gaussian:sigma=0.6,mass=0", *GRID_ARGS, "--report", "b.json"]
        )
        assert code == 0
        rep = read_strict_json(tmp_path / "b.json")
        assert rep["delta"] is None and rep["solve"]["converged"] is True
        assert read_strict_json(tmp_path / "convlab-manifest.json")["exit_code"] == 0

    def test_ceiling_violated_exit(self, tmp_path, monkeypatch, capsys):
        # no admissible problem is known to reach u = 1, so a negative slack
        # puts the ceiling below the converged solution's maximum
        monkeypatch.setattr(bose_module, "DEFAULT_TOLS", Tolerances(ceiling_slack=-1.0))
        code = main(
            ["bose", "--V", "gaussian:sigma=0.6,mass=0.3", "--mu", "0.01",
             *GRID_ARGS, "--out", "u.cvlf", "--report", "b.json"]
        )
        assert code == 3
        rep = read_strict_json(tmp_path / "b.json")
        assert rep["error"].startswith("max(u) = ")
        assert rep["error"].endswith(" exceeds 1; certificate hypotheses fail")
        assert rep["report"]["converged"] is True and rep["report"]["residual"] is not None
        assert not (tmp_path / "u.cvlf").exists()
        assert read_strict_json(tmp_path / "convlab-manifest.json")["exit_code"] == 3
        assert capsys.readouterr().err == ""

    def test_smallness_guard_exit(self):
        assert main(["bose", "--V", "gaussian:sigma=0.6,mass=0.8", *GRID_ARGS]) == 2

    def test_xi_power_beyond_float_range(self, tmp_path, capsys):
        argv = ["bose", "--V", "gaussian:sigma=0.5,mass=0.1", "--xi", "1e300", "--m", "2"]
        assert main([*argv, *GRID_ARGS]) == 2
        assert read_strict_json(tmp_path / "convlab-manifest.json")["exit_code"] == 2
        assert capsys.readouterr().err == (
            "error: xi^m is outside the float range for xi = 1e+300, m = 2\n"
        )


class TestIterationLimits:
    SUBCOMMANDS = {
        "construct": ["construct", "--coeffs", "1", "--psi", "gaussian:sigma=0.5,mass=0.2"],
        "bose": ["bose", "--V", "gaussian:sigma=0.6,mass=0.3", "--mu", "0.01"],
    }

    @pytest.mark.parametrize("sub", sorted(SUBCOMMANDS))
    @pytest.mark.parametrize(
        "limit", [["--max-iter", "0"], ["--max-iter", "-3"], ["--tol", "0"], ["--tol", "nan"]]
    )
    def test_rejected_as_bad_input(self, tmp_path, capsys, sub, limit):
        code = main([*self.SUBCOMMANDS[sub], *GRID_ARGS, *limit, "--report", "r.json"])
        assert code == 2
        assert read_json(tmp_path / "convlab-manifest.json")["exit_code"] == 2
        assert not (tmp_path / "r.json").exists()
        assert capsys.readouterr().err.startswith("error: ")


    @pytest.mark.parametrize("sub", sorted(SUBCOMMANDS))
    def test_infinite_tol(self, tmp_path, capsys, sub):
        # one step would pass any increment and report "converged": true
        code = main([*self.SUBCOMMANDS[sub], *GRID_ARGS, "--tol", "inf", "--report", "r.json"])
        assert code == 2
        assert capsys.readouterr().err == "error: tol must be positive and finite, got inf\n"
        manifest = read_strict_json(tmp_path / "convlab-manifest.json")
        assert manifest["exit_code"] == 2 and manifest["config"]["tol"] == "inf"
        assert not (tmp_path / "r.json").exists()


class TestVerify:
    def test_violation_exit(self, tmp_path):
        g = Grid(dim=1, extent=8.0, points_per_axis=256)
        write_cvlf(uniform_field(g, mass=3.0), str(tmp_path / "bad.cvlf"))
        assert main(["verify", "--coeffs", "1", "--field", "bad.cvlf", "--out", "v.json"]) == 3
        out = read_json(tmp_path / "v.json")
        assert out["slack_ok"] is False

    @pytest.mark.parametrize("extent", [16.0, 1.0, 0.1, 0.01, 1e-4])
    def test_accepts_constructed_field_at_every_scale(self, tmp_path, extent):
        # shrinking L and sigma together: pointwise values, and the roundoff
        # of f - f*f, grow like 1/L^d while the L1 norm stays near 0.28
        grid = ["--dim", "1", "--extent", repr(extent), "--points", "1024"]
        psi = f"gaussian:sigma={extent / 100.0!r},mass=0.2"
        argv = ["construct", "--coeffs", "1", *grid, "--psi", psi, "--out", "f.cvlf"]
        assert main([*argv, "--report", "c.json"]) == 0
        assert read_strict_json(tmp_path / "c.json")["monotone_ok"] is True
        assert main(["verify", "--coeffs", "1", "--field", "f.cvlf", "--out", "v.json"]) == 0
        out = read_strict_json(tmp_path / "v.json")
        assert out["slack_ok"] and out["mass_ok"] and out["min_slack"] < 0.0

    @pytest.mark.parametrize("extent", [64.0, 1.0, 0.01])
    def test_rejects_scaled_witness_at_every_scale(self, tmp_path, extent):
        # 1.2 times the sharp witness of f >= f*f violates it by about
        # 4e-3 max|w| at every scale
        g = Grid(dim=1, extent=extent, points_per_axis=4096)
        w = poisson_field(PoissonParams(a=0.5, t=extent / 64.0, grid=g))
        write_cvlf(1.2 * w, str(tmp_path / "w.cvlf"))
        assert main(["verify", "--coeffs", "1", "--field", "w.cvlf", "--out", "v.json"]) == 3
        out = read_strict_json(tmp_path / "v.json")
        assert out["slack_ok"] is False
        assert out["min_slack"] < -3e-3 * float(w.values.max())

    @pytest.mark.parametrize(
        "extent,mass", [(8.0, -3.0), (0.1, -2.0)], ids=["norm-above-max", "max-above-norm"]
    )
    def test_slack_bound_is_verify_slack_times_max_abs(self, tmp_path, monkeypatch, extent, mass):
        # uniform f = mass/L has slack (mass - mass^2)/L < 0 and passes the
        # mass bound: verify_slack just above and just below
        # |slack| / max(1, max|f|) decides it, whatever the L1 norm
        g = Grid(dim=1, extent=extent, points_per_axis=256)
        write_cvlf(uniform_field(g, mass=mass), str(tmp_path / "f.cvlf"))
        argv = ["verify", "--coeffs", "1", "--field", "f.cvlf", "--out", "v.json"]
        assert main(argv) == 3
        slack = read_strict_json(tmp_path / "v.json")["min_slack"]
        assert slack == pytest.approx((mass - mass**2) / extent, rel=1e-12)
        edge = -slack / max(1.0, -mass / extent)
        for factor, ok in ((1.01, True), (0.99, False)):
            tols = dataclasses.replace(DEFAULT_TOLS, verify_slack=factor * edge)
            monkeypatch.setattr(cli, "DEFAULT_TOLS", tols)
            assert main(argv) == (0 if ok else 3)
            out = read_strict_json(tmp_path / "v.json")
            assert out["slack_ok"] is ok and out["mass_ok"] is True

    def test_p_of_f_beyond_float_range(self, tmp_path, capsys):
        # a finite field of mass 0 whose f * f leaves the float range: an
        # honest failure of the inequality, not bad input
        g = Grid(dim=1, extent=16.0, points_per_axis=256)
        write_cvlf(Field(g, np.repeat([1e200, -1e200], 128)), str(tmp_path / "f.cvlf"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "--coeffs", "1", "--field", "f.cvlf", "--out", "v.json"])
        assert code == 3
        out = read_strict_json(tmp_path / "v.json")
        assert out["min_slack"] is None and out["mass"] == 0.0
        assert out["slack_ok"] is False and out["mass_ok"] is True
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [
        ["verify", "--coeffs", "1", "--field", "f.cvlf"],
        ["construct", "--coeffs", "1", "--psi", "file:f.cvlf", "--dim", "1", "--points", "256"],
    ], ids=["verify", "construct"])
    def test_l1_norm_beyond_float_range(self, tmp_path, capsys, argv):
        # finite values whose sum overflows: bad input, not a traceback
        g = Grid(dim=1, extent=16.0, points_per_axis=256)
        write_cvlf(Field(g, np.full(g.shape, 1e308)), str(tmp_path / "f.cvlf"))
        assert main(argv) == 2
        assert "L1 norm of the field is beyond the float range" in capsys.readouterr().err

    def test_two_exact_sums(self, tmp_path, monkeypatch):
        # the L1 norm, taken once where the field is read, and the mass
        g = Grid(dim=1, extent=8.0, points_per_axis=256)
        write_cvlf(uniform_field(g, mass=0.2), str(tmp_path / "f.cvlf"))
        sums = []
        real = field_module._exact_sum
        monkeypatch.setattr(
            field_module, "_exact_sum", lambda *a, **k: sums.append(1) or real(*a, **k)
        )
        assert main(["verify", "--coeffs", "1", "--field", "f.cvlf", "--out", "v.json"]) == 0
        assert len(sums) == 2
        assert read_strict_json(tmp_path / "v.json")["slack_ok"] is True

    def test_reports_min_value_of_a_signed_field(self, tmp_path):
        # f = 0.3/L + (2/L) cos(2 pi x/L) satisfies the grid inequality but
        # is negative; verify reports its minimum and still exits 0
        g = Grid(dim=1, extent=16.0, points_per_axis=256)
        x = g.axis_coords()
        f = Field(g, 0.3 / 16.0 + (2.0 / 16.0) * np.cos(2.0 * np.pi * x / 16.0))
        write_cvlf(f, str(tmp_path / "f.cvlf"))
        assert main(["verify", "--coeffs", "1", "--field", "f.cvlf", "--out", "v.json"]) == 0
        out = read_strict_json(tmp_path / "v.json")
        assert out["slack_ok"] and out["mass_ok"]
        assert out["min_value"] == f.values.min() == pytest.approx(0.3 / 16.0 - 2.0 / 16.0)

    @pytest.mark.parametrize(
        "cut",
        [lambda d: d[:4], lambda d: d[:20], lambda d: d[:-8], lambda d: d + b"junk"],
        ids=["short-header", "truncated-header", "truncated-payload", "trailing-junk"],
    )
    def test_malformed_cvlf_exit(self, tmp_path, cut):
        g = Grid(dim=1, extent=8.0, points_per_axis=256)
        path = tmp_path / "f.cvlf"
        write_cvlf(uniform_field(g, mass=0.2), str(path))
        assert main(["verify", "--coeffs", "1", "--field", "f.cvlf"]) == 0
        path.write_bytes(cut(path.read_bytes()))
        assert main(["verify", "--coeffs", "1", "--field", "f.cvlf"]) == 2


    def test_non_finite_cvlf_exit(self, tmp_path):
        g = Grid(dim=1, extent=8.0, points_per_axis=256)
        path = tmp_path / "f.cvlf"
        write_cvlf(uniform_field(g, mass=0.2), str(path))
        data = bytearray(path.read_bytes())
        data[-8:] = np.float64(np.nan).tobytes()
        path.write_bytes(bytes(data))
        assert main(["verify", "--coeffs", "1", "--field", "f.cvlf"]) == 2


class TestExitCodes:
    @pytest.mark.parametrize(
        "exc,code",
        [
            (errors.NotConverged, 3),
            (errors.CeilingViolated, 3),
            (errors.ConvergenceFailure, 3),
            (errors.InvalidInput, 2),
            (errors.ConvlabError, 2),
            (ValueError, 1),
        ],
    )
    def test_error_class_to_exit_code(self, tmp_path, monkeypatch, capsys, exc, code):
        def handler(args):
            raise exc("boom")

        monkeypatch.setattr(cli, "_cmd_tq", handler)
        if code == 1:  # not the package's own: an internal error, raised with its traceback
            with pytest.raises(exc, match="boom"):
                main(["tq", "--coeffs", "1"])
            assert capsys.readouterr().err == ""
        else:
            assert main(["tq", "--coeffs", "1"]) == code
            assert capsys.readouterr().err == "error: boom\n"
        assert read_json(tmp_path / "convlab-manifest.json")["exit_code"] == code

    @pytest.mark.parametrize(
        "setup,argv,message",
        [
            ([], ["tq", "--coeffs", "1,x"], "cannot parse coefficients '1,x'"),
            (
                [["construct", "--coeffs", "1", "--points", "512",
                  "--psi", "gaussian:sigma=0.5,mass=0.1", "--out", "seed.cvlf"]],
                ["construct", "--coeffs", "1", "--psi", "file:seed.cvlf"],
                "seed.cvlf holds a Grid(dim=1, extent=16.0, points_per_axis=512), "
                "expected Grid(dim=1, extent=16.0, points_per_axis=1024)",
            ),
            ([], ["construct", "--coeffs", "1", "--psi", "gaussian:sigma=0.5,mass=0.3"],
             "seed mass 0.3 exceeds Q(t_q) = 0.25"),
            ([], ["witness", "--a", "0.5", "--t", "0.1", "--extent", "64", "--points", "64"],
             "t * M / L = 0.1 < 8; kernel too narrow for this grid"),
        ],
        ids=["bad-coeffs", "seed-on-another-grid", "seed-above-q-max", "under-resolved-witness"],
    )
    def test_refusal(self, tmp_path, capsys, setup, argv, message):
        for step in setup:
            assert main(step) == 0
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert read_json(tmp_path / "convlab-manifest.json")["exit_code"] == 2


HELP = Path(__file__).resolve().parent / "cli_help"


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize(
        "argv,option,value,default",
        [
            (["construct", "--coeffs", "1", "--psi", "gaussian:sigma=0.5,mass=0.1", *GRID_ARGS],
             "tol", 1e-8, 1e-10),
            (["bose", "--V", "gaussian:sigma=0.6,mass=0.3", *GRID_ARGS], "mu", 0.5, 0.0),
        ],
        ids=["construct-tol", "bose-mu"],
    )
    def test_no_value_carried_to_the_next_call(self, tmp_path, argv, option, value, default):
        main(["--manifest", "first.json", *argv, f"--{option}", str(value)])
        assert read_json(tmp_path / "first.json")["config"][option] == value
        main(["--manifest", "second.json", *argv])
        assert read_json(tmp_path / "second.json")["config"][option] == default

    @pytest.mark.parametrize(
        "argv,solver",
        [
            (["construct", "--coeffs", "1", "--psi", "x"], construct),
            (["bose", "--V", "x"], bose_module.solve),
        ],
        ids=["construct", "bose"],
    )
    def test_iteration_defaults_are_the_solvers(self, argv, solver):
        args = cli.build_parser().parse_args(argv)
        params = inspect.signature(solver).parameters
        assert (args.tol, args.max_iter) == (params["tol"].default, params["max_iter"].default)

    @pytest.mark.parametrize(
        "sub", ["", "tq", "series", "disk", "construct", "witness", "bose", "verify"]
    )
    def test_help_unchanged(self, tmp_path, monkeypatch, capsys, sub):
        # the help texts kept in tests/cli_help (80 columns), printed by the
        # one parser after a command has used it
        monkeypatch.setenv("COLUMNS", "80")
        assert main(["tq", "--coeffs", "1"]) == 0
        capsys.readouterr()
        assert main([*filter(None, [sub]), "--help"]) == 0
        assert capsys.readouterr().out == (HELP / f"{sub or 'convlab'}.txt").read_text()


class TestDeterminism:
    def test_identical_artifacts(self, tmp_path):
        argset = [
            "construct", "--coeffs", "1,1", *GRID_ARGS,
            "--psi", "gaussian:sigma=0.4,mass=0.1",
        ]
        assert main(["--manifest", "ma.json", *argset,
                     "--out", "a.cvlf", "--report", "ra.json"]) == 0
        assert main(["--manifest", "mb.json", *argset,
                     "--out", "b.cvlf", "--report", "rb.json"]) == 0
        assert (tmp_path / "a.cvlf").read_bytes() == (tmp_path / "b.cvlf").read_bytes()
        assert (tmp_path / "ra.json").read_bytes() == (tmp_path / "rb.json").read_bytes()
        ma = read_json(tmp_path / "ma.json")
        mb = read_json(tmp_path / "mb.json")
        ma.pop("wall_time_s"), mb.pop("wall_time_s")
        ma["config"].pop("out"), mb["config"].pop("out")
        ma["config"].pop("report"), mb["config"].pop("report")
        assert ma == mb


def readme_commands() -> list[list[str]]:
    """The fenced block under README's "## Command line", one argv per
    command with backslash continuations joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]


class TestReadme:
    def test_command_examples_run(self, tmp_path, capsys):
        commands = readme_commands()
        assert [argv[1] for argv in commands] == [
            "tq", "series", "disk", "construct", "witness", "bose", "verify"
        ]
        for argv in commands:
            assert argv[0] == "convlab"
            manifest = str(tmp_path / f"{argv[1]}-manifest.json")
            assert main(["--manifest", manifest, *argv[1:]]) == 0, argv
            assert read_strict_json(manifest)["exit_code"] == 0
            stdout = capsys.readouterr().out
            if stdout:
                strict_json(stdout)
        written = sorted(tmp_path.glob("*.json"))
        assert len(written) == 12  # 7 manifests, 5 reports
        for path in written:
            read_strict_json(path)


class TestConsoleScript:
    @pytest.mark.skipif(
        shutil.which("convlab") is None, reason="console script not installed (pip install -e .)"
    )
    def test_entry_point(self, tmp_path):
        exe = shutil.which("convlab")
        run = subprocess.run(
            [exe, "tq", "--coeffs", "1"], cwd=tmp_path, capture_output=True, text=True
        )
        assert run.returncode == 0
        assert json.loads(run.stdout)["t_q"] == pytest.approx(0.5, rel=1e-14)

    def test_declared_entry_point(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["convlab"]
        assert target == "convlab.cli:main"
        # the body of the wrapper pip generates for that entry point
        wrapper = "import sys; from convlab.cli import main; sys.exit(main())"

        def run(*args):
            return subprocess.run(
                [sys.executable, "-c", wrapper, *args],
                cwd=tmp_path, capture_output=True, text=True, env=child_env(),
            )

        ok = run("tq", "--coeffs", "1")
        assert ok.returncode == 0
        assert json.loads(ok.stdout)["t_q"] == pytest.approx(0.5, rel=1e-14)
        assert run("tq", "--coeffs", "0,0").returncode == 2
