"""CLI tests: exit codes, output schemas, determinism, table rendering."""

import argparse
import itertools
import json
import math
import os
import re
import subprocess
import sys
import types
import warnings

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from toruspt import cli, special, susy
from toruspt.errors import DegenerateJacobiWarning
from toruspt.geometry import TorusGeometry

PKG_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_python(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = PKG_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env)


def run_cli(*argv, env_extra=None):
    return run_python("-m", "toruspt", *argv, env_extra=env_extra)


def test_potential_contains_midpoint_value():
    res = run_cli("potential", "--case", "pt", "--A", "-2", "--B", "0.5",
                  "--n-points", "101")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "x,V_minus,V_plus"
    best = min(lines[1:],
               key=lambda ln: abs(float(ln.split(",")[0]) - math.pi / 2.0))
    assert float(best.split(",")[1]) == pytest.approx(-1.75, abs=1e-9)


def test_potential_rational_cancellation_via_cli():
    res_pt = run_cli("potential", "--case", "pt", "--A", "2", "--B", "-1.5",
                     "--x-lo", "0.1", "--x-hi", "3.0", "--n-points", "101")
    res_rs = run_cli("potential", "--case", "rational", "--a", "2", "--B",
                     "-1.5", "--branch", "-", "--x-lo", "0.1", "--x-hi", "3.0",
                     "--n-points", "101")
    assert res_pt.returncode == 0 and res_rs.returncode == 0
    for row_pt, row_rs in zip(res_pt.stdout.split("\n")[1:],
                              res_rs.stdout.split("\n")[1:]):
        if not row_pt:
            continue
        vm_pt = float(row_pt.split(",")[1])
        vm_rs = float(row_rs.split(",")[1])
        assert abs(vm_pt - vm_rs) < 1e-10


def test_potential_warns_outside_regime():
    res = run_cli("potential", "--case", "pt", "--A", "2", "--B", "5",
                  "--n-points", "65")
    assert res.returncode == 0
    assert "non-normalizable" in res.stderr
    assert res.stdout.startswith("x,")


def test_spectrum_passes_and_exit_zero():
    res = run_cli("spectrum", "--case", "pt", "--A", "-2", "--B", "0.5",
                  "--levels", "5")
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["pass"] is True
    assert [row["eps_analytic"] for row in obj["levels"]] == [0, 5, 12, 21, 32]
    assert list(obj) == ["case", "params", "levels", "max_rel_err", "pass"]
    for row in obj["levels"]:
        assert list(row) == ["n", "eps_analytic", "eps_numeric", "abs_err", "rel_err"]
    # the zero ground level has no relative error
    assert obj["levels"][0]["rel_err"] is None


def test_deep_well_spectrum_passes_with_warnings_as_errors():
    # A = -500: a finite-difference grid cut at 0.002 read these levels to
    # 1.6e-4 relative.  (-1000, 990) has wall exponents 10 and 1990, where a
    # non-symmetric collocation matrix gave complex levels and exit 1
    for A, B in (("-500", "150"), ("-1000", "990")):
        res = run_python("-W", "error", "-m", "toruspt", "spectrum", "--case", "pt",
                         "--A", A, "--B", B, "--levels", "8")
        assert (res.returncode, res.stderr) == (0, ""), (A, B)
        obj = json.loads(res.stdout)
        assert obj["pass"] is True and obj["max_rel_err"] < 1e-6, (A, B)


@pytest.mark.parametrize("command", [["spectrum", "--case", "iso21"], ["algebra"]])
def test_iso21_spectrum_warns_outside_regime(capsys, command):
    # B1 = -0.8, mu = 0.1, K1 = 0.6 maps to A = -0.6, B = 0.8: A >= -|B|
    code = cli.main(command + ["--B1", "-0.8", "--mu", "0.1", "--K1", "0.6", "--a", "1",
                               "--c", "1"])
    assert code == 1  # formal parameters fail the oracle
    assert "warning: non-normalizable regime" in capsys.readouterr().err


def test_algebra_alias_matches_pt_spectrum():
    res = run_cli("algebra", "--B1", "-0.5", "--mu", "1.5", "--a", "1",
                  "--levels", "4")
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["case"] == "iso21"
    assert [row["eps_analytic"] for row in obj["levels"]] == [0, 5, 12, 21]
    assert obj["pass"] is True


def test_spectrum_levels_out_of_range_exits_2():
    res = run_cli("spectrum", "--case", "pt", "--A", "-2", "--B", "0.5",
                  "--levels", "50")
    assert res.returncode == 2
    assert "levels out of supported range" in res.stderr


def test_bad_arguments_exit_2():
    assert run_cli("potential", "--case", "bogus").returncode == 2
    assert run_cli("potential").returncode == 2
    assert run_cli("spectrum", "--case", "pt").returncode == 2  # missing A, B
    # a word after a value flag is still a flag, not a value
    assert run_cli("potential", "--case", "pt", "--A", "-x").returncode == 2
    # algebra is spectrum --case iso21 and has no --case flag of its own
    res = run_cli("algebra", "--case", "pt", "--B1", "-0.5", "--mu", "1.5", "--a", "1")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "Traceback" not in res.stderr


def test_domain_failure_exits_1():
    # spectrum for a formal regime has eps(n) < 0: domain failure
    res = run_cli("spectrum", "--case", "pt", "--A", "2", "--B", "0.5",
                  "--levels", "4")
    assert res.returncode == 1


def test_tolerance_failure_exits_1():
    # the collocation levels are right to a few 1e-15, so only a tolerance
    # below the rounding of a double fails them
    res = run_cli("spectrum", "--case", "pt", "--A", "-2", "--B", "0.5",
                  "--levels", "3", "--rel-tol", "1e-16", "--abs-tol", "1e-16")
    assert res.returncode == 1
    assert json.loads(res.stdout)["pass"] is False


def test_beta_case_potential():
    res = run_cli("potential", "--case", "beta", "--A", "1", "--B", "0.25",
                  "--a", "1", "--c", "1.5", "--x-lo", "0.2", "--x-hi", "2.9",
                  "--n-points", "65")
    assert res.returncode == 0
    assert res.stdout.startswith("x,V_minus,V_plus")


def _beta_partners_mpmath(A, B, C1, x):
    """(V-, V+) = W^2 -+ W' of the beta tail in 30-digit arithmetic:
    W = A cot x + B csc x + m/D, m = sin^2A x tan^2B(x/2),
    D = C1 + 4^A B(z; 1/2+A-B, 1/2+A+B), D' = -m, at the z = cos^2(x/2) the
    tail computes in floating point: near x = 0 the rounding of z is a
    relative error of about 1e-16/(1 - z) in 1 - z (1e-10 at x = 0.002), which
    no evaluator of B can undo."""
    import mpmath

    z = float(np.cos(0.5 * x) ** 2)
    with mpmath.workdps(30):
        A, B, C1, x = (mpmath.mpf(v) for v in (A, B, C1, x))
        half = mpmath.mpf(1) / 2
        m = mpmath.sin(x) ** (2 * A) * mpmath.tan(x / 2) ** (2 * B)
        q = m / (C1 + 4 ** A * mpmath.betainc(half + A - B, half + A + B, 0, z))
        w = (A * mpmath.cos(x) + B) / mpmath.sin(x) + q
        wp = (-(A + B * mpmath.cos(x)) / mpmath.sin(x) ** 2
              + q * 2 * (A * mpmath.cos(x) + B) / mpmath.sin(x) + q * q)
        return float(w * w - wp), float(w * w + wp)


@pytest.mark.parametrize("A, B", [
    ("-0.4", "-0.1"),    # 1/2 + A + B is -2.8e-17 in floating point
    ("-0.25", "-0.25"),  # 1/2 + A + B = 0
    ("-0.75", "-0.75"),  # 1/2 + A + B = -1
])
def test_beta_potential_at_a_pole_of_w_matches_mpmath(capsys, A, B):
    code = cli.main(["potential", "--case", "beta", "--A", A, "--B", B,
                     "--a", "1", "--c", "1.5", "--n-points", "65"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [[float(v) for v in line.split(",")] for line in out.split("\n")[1:-1]]
    for x, vm, vp in rows[::16]:
        ref_m, ref_p = _beta_partners_mpmath(float(A), float(B), 1.0, x)
        assert vm == pytest.approx(ref_m, rel=1e-10)
        assert vp == pytest.approx(ref_p, rel=1e-10)


def test_appell_case_potential():
    res = run_cli("potential", "--case", "appell", "--a", "1", "--lambda", "2",
                  "--branch", "+", "--C1", "-1", "--x-lo", "0.2", "--x-hi",
                  "2.0", "--n-points", "65")
    assert res.returncode == 0
    assert len(res.stdout.strip().split("\n")) == 66


def test_wavefunction_nodes_in_csv():
    res = run_cli("wavefunction", "--case", "pt", "--A", "-2", "--B", "0.5",
                  "--n", "2", "--x-lo", "0.05", "--x-hi", "3.09",
                  "--n-points", "801")
    assert res.returncode == 0
    rows = [ln.split(",") for ln in res.stdout.strip().split("\n")[1:]]
    f_minus = [float(r[1]) for r in rows]
    signs = [1 if v > 0 else -1 for v in f_minus]
    crossings = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert crossings == 2
    # ground state has no interior nodes
    res0 = run_cli("wavefunction", "--case", "pt", "--A", "-2", "--B", "0.5",
                   "--n", "0", "--x-lo", "0.05", "--x-hi", "3.09",
                   "--n-points", "801")
    f0 = [float(ln.split(",")[1]) for ln in res0.stdout.strip().split("\n")[1:]]
    assert all(v > 0 for v in f0)


def test_wavefunction_component2_flags():
    res = run_cli("wavefunction", "--case", "component2", "--a", "1", "--B",
                  "0.25", "--branch", "-", "--n", "1", "--format", "json",
                  "--n-points", "301")
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["normalizable"] is True
    assert "DegenerateJacobiWarning" in obj["warnings"]
    assert set(obj["rows"][0]) == {"x", "psi2"}


@pytest.mark.parametrize("drop", ["--a", "--B", "--branch"])
def test_wavefunction_component2_missing_flag_exits_2(drop):
    flags = {"--a": "1", "--B": "0.25", "--branch": "-"}
    del flags[drop]
    res = run_cli("wavefunction", "--case", "component2", *sum(flags.items(), ()),
                  "--n-points", "65")
    assert res.returncode == 2
    assert "requires " + drop in res.stderr
    assert "Traceback" not in res.stderr


def test_wavefunction_component2_rejects_A():
    res = run_cli("wavefunction", "--case", "component2", "--A", "-2", "--a", "1",
                  "--B", "0.25", "--branch", "-", "--n-points", "65")
    assert res.returncode == 2
    assert "component2 case takes --a, --B, --branch" in res.stderr


# one request per case (two for rational) that names every flag the case
# reads, then the same request with a flag it does not read; the spectrum
# request exits 1 (formal parameters fail the oracle), not 2
@pytest.mark.parametrize("argv, unread", [
    (["potential", "--case", "pt", "--A", "-2", "--B", "0.5"], ["--C1", "1"]),
    (["potential", "--case", "rational", "--A", "-2", "--B", "0.5", "--lambda",
      "0.3", "--a", "1", "--c", "2"], ["--branch", "+"]),
    (["potential", "--case", "rational", "--a", "1", "--B", "0.25", "--branch",
      "-"], ["--C1", "2"]),
    (["potential", "--case", "beta", "--A", "1", "--B", "0.25", "--a", "1", "--c",
      "1.5", "--C1", "1"], ["--lambda", "3", "--branch", "+"]),
    (["potential", "--case", "appell", "--a", "1", "--lambda", "2", "--branch",
      "+", "--C1", "-1", "--x-hi", "2"], ["--B", "0.5"]),
    (["spectrum", "--case", "component2", "--a", "1", "--B", "0.25", "--branch",
      "-"], ["--A", "5"]),
    (["potential", "--case", "iso21", "--B1", "-0.5", "--mu", "1.5", "--K1",
      "0", "--a", "1", "--c", "1"], ["--A", "2"]),
], ids=["pt", "rational", "rational-solved", "beta", "appell", "component2",
        "iso21"])
def test_flag_the_case_does_not_read_exits_2(capsys, argv, unread):
    grid = [] if argv[0] == "spectrum" else ["--n-points", "65"]
    assert cli.main(argv + grid) in (0, 1)
    capsys.readouterr()
    assert cli.main(argv + unread + grid) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{argv[2]} case takes --" in captured.err


def test_config_key_the_case_does_not_read_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lam=3\n")
    assert cli.main(["potential", "--case", "pt", "--A", "-2", "--B", "0.5",
                     "--n-points", "65", "--config", str(cfg)]) == 2
    assert "pt case takes --A, --B" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["potential", "wavefunction"])
@pytest.mark.parametrize("grid", [("--n-points", "10"),
                                  ("--x-lo", "2.0", "--x-hi", "1.0")])
def test_bad_grid_exits_2_for_every_grid_command(capsys, command, grid):
    argv = [command, "--case", "pt", "--A", "-2", "--B", "0.5", *grid]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "n_points must be at least 64" in err or "0 < x_lo < x_hi < pi" in err


# the collocation oracle has no grid: spectrum and algebra take no grid flag
@pytest.mark.parametrize("command", [
    ["spectrum", "--case", "pt", "--A", "-2", "--B", "0.5"],
    ["algebra", "--B1", "-0.5", "--mu", "1.5", "--a", "1"]],
    ids=["spectrum", "algebra"])
@pytest.mark.parametrize("flag", [("--x-lo", "0.1"), ("--x-hi", "3.0"),
                                  ("--n-points", "4000"), "config"])
def test_spectrum_and_algebra_reject_grid_flags(tmp_path, capsys, command, flag):
    if flag == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x_lo=0.1\n")
        flag = ("--config", str(cfg))
        message = "unknown key 'x_lo'"
    else:
        message = f"unrecognized arguments: {' '.join(flag)}"
    code, out, err = _in_process([*command, *flag], capsys)
    assert (code, out) == (2, "")
    assert message in err
    assert "Traceback" not in err


# spectrum and algebra always write JSON and errata always text, so none of
# them takes --format (spectrum --format csv once printed JSON and exited 0)
@pytest.mark.parametrize("command", [
    ["spectrum", "--case", "pt", "--A", "-2", "--B", "0.5"],
    ["algebra", "--B1", "-0.5", "--mu", "1.5", "--a", "1"],
    ["errata"]], ids=["spectrum", "algebra", "errata"])
@pytest.mark.parametrize("how", ["csv", "json", "config"])
def test_single_format_commands_reject_format(tmp_path, capsys, command, how):
    if how == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=json\n")
        flag, message = ("--config", str(cfg)), "unknown key 'format'"
    else:
        flag = ("--format", how)
        message = f"unrecognized arguments: --format {how}"
    code, out, err = _in_process([*command, *flag], capsys)
    assert (code, out) == (2, "")
    assert message in err
    assert "Traceback" not in err


# no level passes a negative tolerance: an argument error, not a failing
# report (which exited 1); zero stays a tolerance
@pytest.mark.parametrize("command", [
    ["spectrum", "--case", "pt", "--A", "-2", "--B", "0.5", "--levels", "2"],
    ["algebra", "--B1", "-0.5", "--mu", "1.5", "--a", "1", "--levels", "2"]],
    ids=["spectrum", "algebra"])
@pytest.mark.parametrize("how", ["rel-tol", "abs-tol", "config"])
def test_negative_tolerance_exits_2(tmp_path, capsys, command, how):
    if how == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rel_tol=-1\n")
        flag, name = ("--config", str(cfg)), "rel-tol"
    else:
        flag, name = (f"--{how}", "-1"), how
    code, out, err = _in_process([*command, *flag], capsys)
    assert (code, out) == (2, "")
    assert f"error: argument --{name}: must be >= 0, got -1" in err
    assert "Traceback" not in err
    code, out, _ = _in_process([*command, "--rel-tol", "0", "--abs-tol", "0"], capsys)
    assert code in (0, 1)
    assert json.loads(out)["levels"]


def test_byte_identical_reruns(tmp_path):
    args = ("spectrum", "--case", "pt", "--A", "-2", "--B", "0.5", "--levels", "3")
    out = [run_cli(*args).stdout for _ in range(2)]
    assert out[0] == out[1]
    path_args = args + ("--output", str(tmp_path / "rep.json"))
    run_cli(*path_args)
    first = (tmp_path / "rep.json").read_bytes()
    run_cli(*path_args)
    assert (tmp_path / "rep.json").read_bytes() == first


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("A=-2\nB=0.5\nn_points=65\n")
    res = run_cli("potential", "--case", "pt", "--config", str(cfg))
    assert res.returncode == 0
    assert len(res.stdout.strip().split("\n")) == 66
    # explicit flag overrides the config value
    res2 = run_cli("potential", "--case", "pt", "--config", str(cfg),
                   "--n-points", "129")
    assert len(res2.stdout.strip().split("\n")) == 130


def test_config_unknown_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    # --case is a flag only, not a config key
    for text in ("A=-2\nnot_a_key=3\n", "A=-2\ncase=pt\n"):
        cfg.write_text(text)
        res = run_cli("potential", "--case", "pt", "--B", "0.5", "--config",
                      str(cfg), "--n-points", "65")
        assert res.returncode == 2
        assert "unknown key" in res.stderr
        assert res.stdout == ""
        assert "Traceback" not in res.stderr


def test_missing_config_file_exits_2(tmp_path):
    res = run_cli("potential", "--case", "pt", "--A", "-2", "--B", "0.5",
                  "--config", str(tmp_path / "absent.cfg"))
    assert res.returncode == 2
    assert "cannot read config file" in res.stderr


def test_non_numeric_config_value_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("A=abc\nB=0.5\n")
    res = run_cli("potential", "--case", "pt", "--config", str(cfg))
    assert res.returncode == 2
    assert "expects a number" in res.stderr
    assert "Traceback" not in res.stderr


# a config value passes through its flag's own type and choices
@pytest.mark.parametrize("argv, line, message", [
    (["potential", "--case", "pt", "--A", "-2", "--B", "0.5", "--n-points", "65"],
     "format=xml", "argument --format: invalid choice: 'xml'"),
    (["potential", "--case", "rational", "--a", "1", "--B", "0.25", "--n-points",
      "65"], "branch=x", "argument --branch: invalid choice: 'x'"),
    (["verify"], "suite=foo", "argument --suite: invalid choice: 'foo'"),
    (["potential", "--case", "pt", "--B", "0.5", "--n-points", "65"], "A=nan",
     "argument --A: must be finite, got nan"),
], ids=["format", "branch", "suite", "nan"])
def test_config_value_its_flag_rejects_exits_2(tmp_path, argv, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    res = run_cli(*argv, "--config", str(cfg))
    assert res.returncode == 2
    assert message in res.stderr
    assert res.stdout == ""
    assert "Traceback" not in res.stderr


# a unique prefix of a flag is not that flag: --n is no --n-points, --su no
# --suite and --form no --format
@pytest.mark.parametrize("argv", [
    ["potential", "--case", "pt", "--A", "-2", "--B", "0.5", "--n", "100"],
    ["verify", "--su", "geometry", "--form", "json"],
], ids=["potential-n", "verify-su-form"])
def test_abbreviated_flag_exits_2(argv):
    res = run_cli(*argv)
    assert res.returncode == 2
    assert "unrecognized arguments" in res.stderr
    assert res.stdout == ""
    assert "Traceback" not in res.stderr


def test_config_keys_parse_without_abbreviations(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("A=-2\nB=0.5\nlam=1.5\na=1\nc=1.5\nx_lo=0.1\nx_hi=3.0\n"
                   "n_points=65\nformat=json\n")
    assert cli.main(["potential", "--case", "rational", "--config", str(cfg)]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 65
    assert (rows[0]["x"], rows[-1]["x"]) == (0.1, 3.0)


@pytest.mark.parametrize("flag, value", [("--A", "nan"), ("--x-hi", "inf")])
def test_non_finite_flag_exits_2(flag, value):
    args = {"--A": "-2", "--B": "0.5", "--n-points": "65", flag: value}
    res = run_cli("potential", "--case", "pt", *sum(args.items(), ()))
    assert res.returncode == 2
    assert "must be finite" in res.stderr
    assert res.stdout == ""


def test_grid_above_cap_exits_2():
    res = run_cli("potential", "--case", "pt", "--A", "-2", "--B", "0.5",
                  "--n-points", "1000002")
    assert res.returncode == 2
    assert "n_points must be at most 1000001" in res.stderr


_LEVEL = ["wavefunction", "--case", "pt", "--A", "-2", "--B", "0.5",
          "--n-points", "64"]


@pytest.mark.parametrize("how", ["flag", "config"])
def test_level_above_bound_exits_2(tmp_path, capsys, how):
    level = str(cli.MAX_N + 1)
    if how == "flag":
        argv = _LEVEL + ["--n", level]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n={level}\n")
        argv = _LEVEL + ["--config", str(cfg)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: level n must be at most {cli.MAX_N}\n"


def test_level_at_bound_exits_0(capsys):
    assert cli.main(_LEVEL + ["--n", str(cli.MAX_N)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 65


def test_non_finite_wavefunction_exits_1():
    # equal-radii '+' branch has c = -a: the prefactor overflows on the grid
    res = run_cli("wavefunction", "--case", "rational", "--a", "1", "--B",
                  "-0.5", "--branch", "+", "--n-points", "101")
    assert res.returncode == 1
    assert "NormalizationFailure" in res.stderr
    assert res.stdout == ""


def test_failed_normalization_prints_no_numpy_warning():
    res = run_cli("wavefunction", "--case", "rational", "--a", "1", "--B",
                  "-0.5", "--branch", "+")
    assert "RuntimeWarning" not in res.stderr


def test_failed_normalization_exit_code_and_error_line():
    res = run_cli("wavefunction", "--case", "rational", "--a", "1", "--B",
                  "-0.5", "--branch", "+")
    assert res.returncode == 1
    assert res.stderr.splitlines()[-1] == (
        "error: NormalizationFailure: non-finite values in output column(s) psi1")


# A sin-tail set that fails the cancellation conditions: its V- keeps a
# rational part, which the Poschl-Teller functions do not solve.
_UNSOLVED_RATIONAL = ["wavefunction", "--case", "rational", "--A", "-2", "--B", "0.5",
                      "--lambda", "0.3", "--a", "1", "--c", "2", "--n", "1"]


@pytest.mark.parametrize("extra", [[], ["--with-plus"]], ids=["minus", "with-plus"])
def test_unsolved_rational_wavefunction_is_a_domain_error(capsys, extra):
    assert cli.main(_UNSOLVED_RATIONAL + extra) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: DomainError: ")


def test_explicit_solved_rational_is_the_solved_spelling(capsys):
    tail = ["--n", "2", "--with-plus", "--n-points", "257"]
    assert cli.main(["wavefunction", "--case", "rational", "--A", "0.25", "--B", "0.25",
                     "--lambda", "0.5", "--a", "1", "--c", "1"] + tail) == 0
    explicit = capsys.readouterr()
    assert cli.main(["wavefunction", "--case", "rational", "--a", "1", "--B", "0.25",
                     "--branch", "-"] + tail) == 0
    assert capsys.readouterr() == explicit


def test_unsolved_rational_spectrum_is_a_domain_error(capsys):
    # no closed-form spectrum to compare: not a tolerance failure of the
    # Poschl-Teller values against the oracle
    argv = ["spectrum", "--case", "rational", "--A", "-2", "--B", "0.5",
            "--lambda", "0.3", "--a", "1", "--c", "2", "--levels", "3"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: DomainError: ")


def test_explicit_solved_rational_spectrum_is_the_solved_spelling(capsys):
    explicit = cli.main(["spectrum", "--case", "rational", "--A", "0.25", "--B", "0.25",
                         "--lambda", "0.5", "--a", "1", "--c", "1"])
    explicit_levels = json.loads(capsys.readouterr().out)["levels"]
    solved = cli.main(["spectrum", "--case", "rational", "--a", "1", "--B", "0.25",
                       "--branch", "-"])
    solved_levels = json.loads(capsys.readouterr().out)["levels"]
    assert explicit == solved
    assert [lv["eps_analytic"] for lv in explicit_levels] == \
        [lv["eps_analytic"] for lv in solved_levels]


def test_benchmark_rational_wavefunctions_pass_the_cancellation_check(capsys):
    # every rational wavefunction the benchmark serves is a solved set, so the
    # check rejects none: branch - exits 0, and branch + (c = -a) keeps the
    # NormalizationFailure of its psi1 column, which overflows where P -> 0
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "reference",
                        "tails.json")
    with open(path) as fh:
        entries = json.load(fh)["catalogue"]["rational_wavefunction"]
    assert entries
    for e in entries:
        p = e["params"]
        argv = ["wavefunction", "--case", "rational", "--a", repr(p["a"]),
                "--B", repr(p["B"]), "--branch", p["branch"], "--n", str(e["level"]),
                "--n-points", "501"] + (["--with-plus"] if e["with_plus"] else [])
        code = cli.main(argv)
        err = capsys.readouterr().err
        if p["branch"] == "-":
            assert code == 0, e["key"]
        else:
            assert code == 1 and "error: NormalizationFailure: " in err, e["key"]


def _csv_columns(text):
    """The columns of a CSV table, each float read back exactly."""
    lines = text.splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows).T


_GRID = ["--x-lo", "0.2", "--x-hi", "2.0", "--n-points", "201"]


@pytest.mark.parametrize("flags, spec", [
    (["--case", "pt", "--A", "-2", "--B", "0.5", "--n", "2"],
     susy.PureTrigPT(-2.0, 0.5)),
    (["--case", "rational", "--a", "1", "--B", "0.25", "--branch", "-", "--n", "1"],
     susy.solve_parameter_conditions("equal_radii", a=1.0, B=0.25, branch="-")),
    (["--case", "beta", "--A", "-0.25", "--B", "-0.25", "--a", "1", "--c", "1.5",
      "--n", "1"],
     susy.BetaTail(-0.25, -0.25, 1.0, TorusGeometry(1.0, 1.5))),
    (["--case", "appell", "--a", "1", "--lambda", "2", "--branch", "+", "--n", "1"],
     susy.solve_parameter_conditions("appell", a=1.0, lam=2.0, branch="+")),
], ids=["pt", "rational", "beta", "appell"])
def test_psi1_column_is_the_library_spinor(capsys, flags, spec):
    assert cli.main(["wavefunction", *flags, *_GRID]) == 0
    header, cols = _csv_columns(capsys.readouterr().out)
    assert header == ["x", "F_minus", "psi1"]
    xs = np.linspace(0.2, 2.0, 201)
    n = int(flags[-1])
    assert np.array_equal(cols[0], xs)
    assert np.array_equal(cols[1], susy.normalize(
        susy.eigenfunction_minus(spec.A, spec.B, n, xs), xs))
    assert np.array_equal(cols[2], susy.normalize(susy.spinor_psi1(spec, n, xs), xs))


def test_psi2_column_is_the_library_spinor(capsys):
    assert cli.main(["wavefunction", "--case", "component2", "--a", "1", "--B", "0.25",
                     "--branch", "-", "--n", "1", *_GRID]) == 0
    header, cols = _csv_columns(capsys.readouterr().out)
    assert header == ["x", "psi2"]
    solved = susy.solve_parameter_conditions("equal_radii", a=1.0, B=0.25, branch="-")
    xs = np.linspace(0.2, 2.0, 201)
    with pytest.warns(DegenerateJacobiWarning):
        psi2 = susy.spinor_psi2(solved.geom, solved.lam, 1, xs)
    assert np.array_equal(cols[1], susy.normalize(psi2, xs))


def test_benchmark_appell_sets_pass_the_cancellation_gate():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "reference",
                        "tails.json")
    with open(path) as fh:
        entries = json.load(fh)["catalogue"]["appell_potential"]
    assert len(entries) == 16
    for e in entries:
        p = e["params"]
        spec = susy.solve_parameter_conditions("appell", a=p["a"], lam=p["lambda"],
                                               branch=p["branch"], C1=p["C1"])
        assert susy.rational_part_cancels(spec), e["key"]


def test_columns_whose_squares_overflow_are_normalized(capsys):
    # F_minus ~ (1 - cos x)^-30 near x = 0: its squares overflow a double, and
    # the columns were once written as all zeros
    xs = np.linspace(0.002, math.pi - 0.002, 65)
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.trapezoid(
            susy.eigenfunction_minus(60.0, 0.5, 0, xs) ** 2, xs))
    assert cli.main(["wavefunction", "--case", "pt", "--A", "60", "--B", "0.5",
                     "--n", "0", "--n-points", "65"]) == 0
    header, cols = _csv_columns(capsys.readouterr().out)
    assert header == ["x", "F_minus", "psi1"]
    for col in cols[1:]:
        assert abs(np.trapezoid(col * col, cols[0]) - 1.0) < 1e-9


@pytest.mark.parametrize("argv, error", [
    # the eps formula, algebra_spectrum and casimir_potential square these
    (["spectrum", "--case", "pt", "--A", "1e200", "--B", "0.5"], "OutOfRange"),
    (["algebra", "--B1", "-0.5", "--mu", "1e200", "--a", "1"], "NonFinitePotential"),
    (["potential", "--case", "iso21", "--B1", "-0.5", "--mu", "1e200", "--a", "1"],
     "NonFinitePotential"),
    # a tail prefactor: 4.0 ** A in the next three, (2a) ** (-2 lam / a)
    # = 0.5 ** -1200 in the fourth
    (["potential", "--case", "appell", "--a", "1", "--lambda", "1e200", "--branch", "+"],
     "NonFinitePotential"),
    (["potential", "--case", "appell", "--a", "0.25", "--lambda", "300", "--branch", "+",
      "--x-hi", "2"], "NonFinitePotential"),
    (["potential", "--case", "beta", "--A", "600", "--B", "0.25", "--a", "1",
      "--c", "1.5", "--x-lo", "2.5", "--x-hi", "3.0"], "NonFinitePotential"),
    (["potential", "--case", "appell", "--a", "0.25", "--lambda", "150", "--branch", "+",
      "--x-hi", "2"], "NonFinitePotential"),
    # once tracebacks: a * a underflows in iso21.energy_scalings
    (["algebra", "--B1", "1", "--mu", "1", "--a", "1e-300"], "DomainError"),
    # the incomplete beta overflows at w = -100000.5: the series at z0 does,
    # before the upper region's 0.25 ** w
    (["potential", "--case", "beta", "--A", "-1", "--B", "-1e5", "--a", "1", "--c", "2"],
     "NonConvergence"),
    # 1 - 2A rounds to 0 in solve_parameter_conditions: c = +a, and at
    # a = 1e-300 the potential overflows
    (["potential", "--case", "rational", "--a", "1e-300", "--B", "-1e-300", "--branch", "-"],
     "NonFinitePotential"),
    # once a numpy RuntimeWarning from evaluating the component2 V-
    (["spectrum", "--case", "component2", "--a", "1", "--B", "1e300", "--branch", "+",
      "--levels", "1"], "NonFinitePotential"),
    # a * a is a double but sqrt(eps)/a^2 overflows (once NonFinitePotential)
    (["algebra", "--B1", "1", "--mu", "1", "--a", "1e-160"], "DomainError"),
    # at s = 1 + 2A = 1e19 the series at z0 stops after one term, and the
    # upper region's 0.25 ** w overflows a double at w = -1024 (a Python
    # OverflowError, once a traceback)
    (["potential", "--case", "beta", "--A", "5e18", "--B", "-5.000000000000001024e18",
      "--a", "1", "--c", "2"], "NonConvergence"),
    # A = 1e300 is a double, the solved lambda = 2aA is not (once
    # InconsistentConditions, "solved c = -inf violates a = |c|")
    *(([*cmd, "--case", "rational", "--a", "1e10", "--B", "1e300", "--branch", "+"],
       "DomainError")
      for cmd in (["potential"], ["wavefunction", "--n", "0"], ["spectrum"])),
    # the equal-radii '+' branch has c = -a: the prefactor overflows
    (["wavefunction", "--case", "rational", "--a", "1", "--B", "-0.5", "--branch", "+"],
     "NormalizationFailure"),
    # a sin-tail set that fails the cancellation conditions
    (_UNSOLVED_RATIONAL + ["--with-plus"], "DomainError"),
    (["spectrum", "--case", "rational", "--A", "-2", "--B", "0.5", "--lambda", "0.3",
      "--a", "1", "--c", "2"], "DomainError"),
    # past x = 2.9 the series of the Appell tail's incomplete beta in
    # sin^2(x/2) exhausts its term budget; its terms must not leak a warning
    (["potential", "--case", "appell", "--a", "1", "--lambda", "2", "--branch", "+",
      "--C1", "-1", "--x-hi", "3", "--n-points", "501"], "NonConvergence"),
    # P_2^(-1, -2) vanishes identically: once an all -0.0 psi2 column, exit 0
    (["wavefunction", "--case", "component2", "--a", "1", "--B", "0.5", "--branch", "+",
      "--n", "2"], "NormalizationFailure"),
    # the closing set K1 = -2 has eps(1) = -1 (once E = 0 and a failing report)
    (["spectrum", "--case", "iso21", "--B1", "0.5", "--mu", "-1.5", "--K1", "-2",
      "--a", "1", "--c", "1", "--levels", "4"], "OutOfRange"),
    # off the closure relations at K1 != 0 (once a failing report)
    (["spectrum", "--case", "iso21", "--B1", "-0.5", "--mu", "1.5", "--K1", "0.3",
      "--a", "1", "--c", "2"], "DomainError"),
])
def test_huge_finite_parameter_is_an_error_line(argv, error):
    res = run_python("-W", "error", "-m", "toruspt", *argv)
    assert res.returncode == 1
    assert res.stderr.splitlines()[-1].startswith(f"error: {error}: ")
    assert "Traceback" not in res.stderr and "Warning" not in res.stderr


def test_off_closure_iso21_names_the_closing_set(capsys):
    argv = ["spectrum", "--case", "iso21", "--B1", "-0.5", "--mu", "1.5", "--K1", "0.3",
            "--a", "1", "--c", "2"]
    code, out, err = _in_process(argv, capsys)
    assert (code, out) == (1, "")
    assert err == ("error: DomainError: the parameters fail the closure conditions; "
                   "the closing set for K1 = 0.3 and c = 2.0 is mu = K1/(2c) - 1/2 = "
                   "-0.425, B1 = -(c + K1)/(2c) = -0.575, a = c = 2.0, "
                   "K2 = -K1 - 2c = -4.3\n")
    # the named set passes the gate: its report is written
    closing = ["spectrum", "--case", "iso21", "--B1", "-0.575", "--mu", "-0.425",
               "--K1", "0.3", "--a", "2", "--c", "2", "--levels", "2"]
    code, out, _ = _in_process(closing, capsys)
    assert json.loads(out)["levels"][1]["eps_analytic"] == pytest.approx(1.15)


@pytest.mark.parametrize("command", [["spectrum", "--case", "iso21"], ["algebra"]])
def test_free_c_root_off_closure_iso21_names_the_closing_set(command, capsys):
    # A = 1/2, B = 0, lambda = a passes the cancellation conditions, but off
    # closure: once eps 0, 0, 2 against the oracle's 2, 6, 12 and a failing
    # report
    argv = command + ["--B1", "0", "--mu", "-1", "--K1", "-1", "--a", "1", "--c", "2"]
    code, out, err = _in_process(argv, capsys)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == (
        "error: DomainError: the parameters fail the closure conditions; the "
        "closing set for K1 = -1.0 and c = 2.0 is mu = K1/(2c) - 1/2 = -0.75, "
        "B1 = -(c + K1)/(2c) = -0.25, a = c = 2.0, K2 = -K1 - 2c = -3.0")


@pytest.mark.parametrize("geom", [
    # the free-c root A = 1/2, B = 0, lambda = a at the top of the double
    # range; on the default grid R < 0 overflows psi1's prefactor, as at a = 1
    ["--lambda", "1e308", "--a", "1e308", "--c", "1e307", "--n-points", "64"],
    ["--lambda", "1e307", "--a", "1e307", "--c", "1e308"],
], ids=["c<a", "c>a"])
def test_huge_free_c_root_passes_the_cancellation_gate(geom, capsys):
    # 2aA and the size S of the gate's terms once overflowed: "V- keeps a
    # rational part"
    argv = ["wavefunction", "--case", "rational", "--A", "0.5", "--B", "0", "--n", "0",
            *geom]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = _in_process(argv, capsys)
    assert (code, err) == (0, "warning: non-normalizable regime (A >= -|B|); "
                              "values are formal\n")


@pytest.mark.parametrize("command", ["potential", "wavefunction", "spectrum"])
def test_appell_zero_radius_is_a_domain_error(command, capsys):
    # A = lambda / (2a) once divided by a = 0 first: a ZeroDivisionError
    # traceback, where every other family's a <= 0 is this error line
    argv = [command, "--case", "appell", "--a", "0", "--lambda", "2", "--branch", "+"]
    res = run_python("-W", "error", "-m", "toruspt", *argv)
    assert res.returncode == 1
    assert res.stderr == "error: DomainError: tube radius a must be positive\n"
    argv[4] = "-0.0"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _in_process(argv, capsys) == (1, "", res.stderr)


def test_component2_overflow_leaks_no_numpy_warning():
    # the oracle reports the non-finite V-; numpy's warning would only
    # repeat it, so stderr is the regime line and the error line alone
    res = run_cli("spectrum", "--case", "component2", "--a", "1", "--B", "1e300",
                  "--branch", "+", "--levels", "1")
    assert res.returncode == 1
    assert res.stderr == (
        "warning: non-normalizable regime (A >= -|B|); values are formal\n"
        "error: NonFinitePotential: potential has non-finite samples\n")


def test_equal_radii_conditions_at_a_b_below_rounding():
    # A rounds to 1/2, so 1 - 2A is 0: c is -sign a, the potential is finite
    # and the family passes the cancellation gate
    for branch, c in (("-", 1.0), ("+", -1.0)):
        spec = susy.solve_parameter_conditions("equal_radii", a=1.0, B=-1e-300,
                                               branch=branch)
        assert (spec.A, spec.geom.c) == (0.5, c)
    base = ["--case", "rational", "--a", "1", "--B", "-1e-300", "--branch", "-",
            "--n-points", "64"]
    assert cli.main(["potential", *base]) == 0
    assert cli.main(["wavefunction", "--n", "0", *base]) == 0


@pytest.mark.parametrize("b", ["-1e-6", "1e-6", "-1e-10", "-3e-5"])
def test_equal_radii_conditions_at_a_small_b(b, capsys):
    # 1 - 2A carries a relative error of about 1e-16/|2B|: the solver once
    # raised "solved c = ... violates a = |c|" here, or (at -3e-5) returned a
    # family whose wavefunction and spectrum failed the cancellation gate
    base = ["--case", "rational", "--a", "1", "--B", b, "--branch", "-"]
    regime = "warning: non-normalizable regime (A >= -|B|); values are formal\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in (["potential"], ["wavefunction", "--n", "0"]):
            code, out, err = _in_process([*command, *base, "--n-points", "64"],
                                         capsys)
            assert (code, err) == (0, regime)
            assert len(out.splitlines()) == 65
        # A is about 1/2, so the tower has a negative level or the oracle
        # disagrees: that is the spectrum's exit 1, not the conditions'
        code, _, err = _in_process(["spectrum", *base], capsys)
    assert code == 1
    assert "rational part" not in err and "InconsistentConditions" not in err


def test_b_zero_names_the_free_c_root(capsys):
    # at B = 0 the equal-radii conditions hold for every c with A = 1/2 and
    # lambda = a; the error names the argv that requests that root
    code, out, err = _in_process(["potential", "--case", "rational", "--a", "1.3",
                                  "--B", "0", "--branch", "-"], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: InconsistentConditions: at B = 0 the conditions leave c "
                   "free (the root A = 1/2, lambda = a); request it with --case "
                   "rational --A 0.5 --B 0 --lambda <a> --a <a> --c <c>\n")
    root = ["--case", "rational", "--A", "0.5", "--B", "0", "--lambda", "1.3",
            "--a", "1.3", "--c", "0.7", "--n-points", "64"]
    for command in (["potential"], ["wavefunction", "--n", "2"]):
        assert _in_process([*command, *root], capsys)[0] == 0
    # P_1^(-1, -1) vanishes identically (once two all -0.0 columns, exit 0)
    code, _, err = _in_process(["wavefunction", "--n", "1", *root], capsys)
    assert code == 1
    assert err.endswith("error: NormalizationFailure: output column(s) F_minus, "
                        "psi1 vanish everywhere: no unit-norm scaling\n")


@pytest.mark.parametrize("token, plain", [("-5e-1", "-0.5"), ("-5E-1", "-0.5"),
                                          ("-.5e1", "-5"), ("-2e0", "-2")])
def test_negative_number_in_exponent_form_is_a_value(capsys, token, plain):
    base = ["potential", "--case", "pt", "--n-points", "65"]
    for flags, equals in ((["--A", "-2", "--B", token], ["--A=-2", f"--B={plain}"]),
                          (["--B", "0.5", "--A", token], ["--B=0.5", f"--A={plain}"])):
        got = _in_process(base + flags, capsys)
        assert got[0] == 0
        assert got == _in_process(base + equals, capsys)


def test_unwritable_output_exits_2(tmp_path, capsys):
    path = tmp_path / "absent" / "x.csv"
    argv = ["potential", "--case", "pt", "--A", "-2", "--B", "0.5", "--n-points", "65"]
    assert cli.main(argv + ["--output", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot write output file {path}: No such file or directory\n"
    # an empty config value is an empty path, not stdout
    cfg = tmp_path / "run.cfg"
    cfg.write_text("output=\n")
    assert cli.main(argv + ["--config", str(cfg)]) == 2
    assert "cannot write output file" in capsys.readouterr().err


def test_output_dir_override(tmp_path):
    res = run_cli("potential", "--case", "pt", "--A", "-2", "--B", "0.5",
                  "--n-points", "65", "--output", "out.csv",
                  env_extra={"TORUSPT_OUTDIR": str(tmp_path)})
    assert res.returncode == 0
    assert (tmp_path / "out.csv").exists()


def test_errata_contains_keyed_entries():
    res = run_cli("errata")
    assert res.returncode == 0
    assert "[eq68]" in res.stdout
    assert "A = lambda/(2a)" in res.stdout
    assert "[eq37_vs_eq89]" in res.stdout
    assert "E_eq37" in res.stdout and "E_eq89" in res.stdout
    # every entry names at least one verify check
    for block in res.stdout.split("\n\n"):
        if block.strip().startswith("["):
            assert "checks:" in block


def test_verify_single_suite_exits_zero():
    res = run_cli("verify", "--suite", "geometry")
    assert res.returncode == 0
    assert "0 failures" in res.stdout
    res_json = run_cli("verify", "--suite", "geometry", "--format", "json")
    obj = json.loads(res_json.stdout)
    assert obj["pass"] is True
    assert all(c["status"] in ("PASS", "INFO") for c in obj["checks"])


@pytest.mark.parametrize("argv, err", [
    (["verify", "--suite", "all", "--format", "json"],
     r"verify: suite=all took \d+\.\d s\n"),
    (["errata"], ""),
], ids=["verify", "errata"])
def test_no_warning_escapes_verify_or_errata(argv, err):
    # warnings as errors: every check and errata entry runs without one
    res = run_python("-W", "error", "-m", "toruspt", *argv)
    assert res.returncode == 0
    assert re.fullmatch(err, res.stderr), res.stderr


@pytest.mark.parametrize("flags", [
    # lambda/a = 0.9 at n = 0 and 2.9 at n = 1: psi2 is in L2, which the
    # sampling probe once reported as false
    ["--B", "0.05", "--branch", "-", "--n", "0"],
    ["--B", "0.95", "--branch", "+", "--n", "1"],
], ids=["n0", "n1"])
def test_component2_normalizable_in_the_band_below_the_threshold(flags, capsys):
    argv = ["wavefunction", "--case", "component2", "--a", "1", *flags,
            "--format", "json", "--n-points", "64"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = _in_process(argv, capsys)
    assert code == 0
    assert json.loads(out)["normalizable"] is True


def test_verify_rejects_unknown_suite():
    assert run_cli("verify", "--suite", "nonsense").returncode == 2


def test_parser_suite_choices_are_verify_suites():
    from toruspt import verify

    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert tuple(suite.choices) == ("all",) + verify.SUITES


def test_main_builds_the_parser_once(monkeypatch, capsys):
    build, built = cli.build_parser, []

    def counting():
        built.append(parser := build())
        return parser

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    argv = ["potential", "--case", "pt", "--A", "-2", "--B", "0.5", "--n-points", "64"]
    for _ in range(3):
        assert cli.main(argv) == 0
    with pytest.raises(SystemExit):
        cli.main(["potential", "--case", "bogus"])
    assert len(built) == 1
    # build_parser itself still hands out a new parser on every call
    assert build() is not build()


def _in_process(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


_APPELL_PAST_Z0 = ["potential", "--case", "appell", "--a", "1", "--lambda", "2",
                   "--branch", "+", "--C1", "-1", "--x-hi", "2.2", "--n-points", "501"]


def test_appell_tail_never_calls_f1(monkeypatch, capsys):
    def no_f1(*args):
        raise AssertionError("the Appell tail called appell_f1")

    monkeypatch.setattr(special, "appell_f1", no_f1)
    assert not hasattr(susy, "appell_f1")
    code, out, err = _in_process(_APPELL_PAST_Z0, capsys)
    assert (code, err) == (0, "warning: non-normalizable regime (A >= -|B|); "
                              "values are formal\n")
    assert len(out.splitlines()) == 502


def test_appell_tail_past_z0_keeps_the_series(monkeypatch, capsys):
    # sin^2(x/2) passes z0 = 0.75 at x = 2.09, inside --x-hi 2.2, where
    # incomplete_beta would switch to its integral from z0: the served M
    # stays on the series in z, whose domain ends where its budget does
    assert math.sin(1.1) ** 2 > special._INCBETA_Z0
    want = _in_process(_APPELL_PAST_Z0, capsys)

    def no_upper(*args):
        raise AssertionError("the Appell tail left the series in z")

    monkeypatch.setattr(special, "_incbeta_upper", no_upper)
    assert _in_process(_APPELL_PAST_Z0, capsys) == want
    assert want[0] == 0


def test_reruns_in_one_process_are_identical(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text("A=-2\nB=0.5\nn_points=65\n")
    xml = tmp_path / "xml.cfg"
    xml.write_text("format=xml\n")
    pt = ["potential", "--case", "pt", "--A", "-2", "--B", "0.5", "--n-points", "65"]
    argvs = [pt, ["potential", "--case", "bogus"], ["--help"],
             ["potential", "--help"], ["potential", "--case", "pt", "--config",
                                       str(good)],
             pt + ["--config", str(xml)],
             ["wavefunction", "--case", "pt", "--A", "-2", "--B", "0.5", "--n",
              str(cli.MAX_N + 1)]]
    cli._parser.cache_clear()
    # the first round builds the parser, the second reuses it
    rounds = [[_in_process(argv, capsys) for argv in argvs] for _ in range(2)]
    assert rounds[0] == rounds[1]
    assert [code for code, _, _ in rounds[0]] == [0, 2, 0, 0, 0, 2, 2]
    assert rounds[0][0][1] == rounds[0][4][1]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_stdout_does_not_depend_on_the_clock(monkeypatch, capsys, fmt):
    from toruspt import verify

    outs, errs = [], []
    for step in (0.25, 1.5):  # seconds per clock reading; the oracle gate is 5 s
        ticks = itertools.count()
        monkeypatch.setattr(verify, "time", types.SimpleNamespace(
            perf_counter=lambda: step * next(ticks)))
        assert cli.main(["verify", "--suite", "susy", "--format", fmt]) == 0
        out, err = capsys.readouterr()
        outs.append(out)
        errs.append(err)
    assert outs[0] == outs[1]
    # the suite's time is reported once, on stderr
    assert errs[0] != errs[1]
    for err in errs:
        line, = err.splitlines()
        assert line.startswith("verify: suite=susy took ") and line.endswith(" s")


# -- cold start: no command loads scipy ------------------------------------

_LIGHT_CASES = {
    "pt": ["--A", "-2", "--B", "0.5"],
    "rational": ["--a", "2", "--B", "-1.5", "--branch", "-"],
    "beta": ["--A", "1", "--B", "0.25", "--a", "1", "--c", "1.5"],
    "appell": ["--a", "1", "--lambda", "2", "--branch", "+", "--C1", "-1"],
    "component2": ["--a", "1", "--B", "0.25", "--branch", "-"],
    "iso21": ["--B1", "-0.8", "--mu", "0.1", "--K1", "0.6", "--a", "1"],
}

_SCIPY_PROBE = """
import contextlib, io, json, sys
from toruspt import cli

def modules(*packages):
    return sorted(m for m in sys.modules for p in packages
                  if m == p or m.startswith(p + "."))

def scipy_modules():
    return modules("scipy")

# the parser also leaves numpy.polynomial (the g-transform's Gauss-Legendre
# tables) to the first solve
cli.build_parser()
loaded = {"parser": modules("scipy", "numpy.polynomial")}
codes = {}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes[" ".join(argv[:3])] = cli.main(argv)
loaded["requests"] = scipy_modules()
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def test_potential_and_wavefunction_load_no_scipy():
    # spectrum and algebra too: their oracle is a numpy eigen-solve
    grid = ["--x-lo", "0.2", "--x-hi", "2.0", "--n-points", "65"]
    argvs = [[cmd, "--case", case, *extra, *grid]
             for case, extra in _LIGHT_CASES.items()
             for cmd in ("potential", "wavefunction")]
    argvs += [["spectrum", "--case", case, *extra, "--levels", "3"]
              for case, extra in _LIGHT_CASES.items()]
    argvs.append(["algebra", *_LIGHT_CASES["iso21"], "--levels", "3"])
    res = run_python("-c", _SCIPY_PROBE, json.dumps(argvs))
    assert res.returncode == 0, res.stderr
    obj = json.loads(res.stdout)
    assert obj["loaded"] == {"parser": [], "requests": []}
    expected = {" ".join(a[:3]): 0 for a in argvs}
    expected["wavefunction --case iso21"] = 2  # no wavefunction family for iso21
    # the formal regimes fail the oracle, and the rational set (A = 1.25) has
    # a negative level
    for case in ("rational", "beta", "appell", "component2", "iso21"):
        expected[f"spectrum --case {case}"] = 1
    expected["algebra --B1 -0.8"] = 1
    assert obj["codes"] == expected


def test_verify_loads_no_scipy():
    # verify's oracle is the collocation solver, a numpy eigen-solve, and its
    # special-function references are a continued fraction and a double sum
    # on numpy
    res = run_python("-c", _SCIPY_PROBE, json.dumps([["verify", "--suite", "all"]]))
    assert res.returncode == 0, res.stderr
    obj = json.loads(res.stdout)
    assert obj["codes"] == {"verify --suite all": 0}
    assert obj["loaded"] == {"parser": [], "requests": []}


def test_every_command_runs_with_scipy_blocked():
    # a None entry in sys.modules makes every import of scipy or of one of its
    # submodules raise ImportError, as on an install with numpy alone
    argvs = [["verify", "--suite", "all"], ["errata"],
             ["spectrum", "--case", "pt", "--A", "-2", "--B", "0.5", "--levels", "3"],
             ["algebra", "--B1", "-0.5", "--mu", "1.5", "--a", "1", "--levels", "3"]]
    argvs += [[cmd, "--case", case, *_LIGHT_CASES[case], "--n-points", "65"]
              for cmd in ("potential", "wavefunction") for case in ("pt", "beta")]
    probe = "import sys\nsys.modules['scipy'] = None\n" + _SCIPY_PROBE
    res = run_python("-c", probe, json.dumps(argvs))
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["codes"] == {" ".join(a[:3]): 0 for a in argvs}


def test_errata_and_iso21_load_no_scipy():
    # the sector operators are numpy stencils, so errata (eq73 applies them)
    # runs without scipy
    code = ("import contextlib, io, sys\n"
            "import numpy as np\n"
            "import toruspt.errata, toruspt.iso21\n"
            "from toruspt import cli, geometry, susy\n"
            "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['errata']) == 0\n"
            "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
            # the g-transform and its round trip, with no scipy either
            "g, mode = geometry.TorusGeometry(1.0, 1.0), geometry.ModeParams(1.0, 2)\n"
            "target = susy.pt_coefficients(susy.PureTrigPT(-2.0, 0.5), 'minus')\n"
            "xs = np.linspace(0.3, 2.4, 101)\n"
            "tr = geometry.solve_g_transform(g, mode, target, xs, h0=0.3)\n"
            "geometry.reduced_potential_grid(g, mode, tr)\n"
            "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)\n")
    res = run_python("-c", code)
    assert res.returncode == 0, res.stderr


def test_package_names_resolve_without_loading_scipy_first():
    code = ("import sys, toruspt\n"
            "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
            "from toruspt import PureTrigPT, oracle\n"
            "assert not hasattr(toruspt, 'EigenReport')\n"
            "assert not hasattr(toruspt, 'no_such_name')\n"
            "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)\n")
    res = run_python("-c", code)
    assert res.returncode == 0, res.stderr


# -- table rendering: the block renderer against the per-value algorithm ----

def _ref_g17(v):
    """format(v, ".17g"), and ".0" after an integral value ("-0.0", "1.0")."""
    text = format(v, ".17g")
    return text if "." in text or "e" in text or "n" in text else text + ".0"


def _ref_fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _ref_g17(float(v))
    return str(v)


def _ref_csv(header, cols):
    lines = [",".join(header)]
    for row in zip(*cols):
        lines.append(",".join(_ref_g17(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _ref_json(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  "{k}": {_ref_json(v, indent + 1)}' for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}" if obj else "{}"
    if isinstance(obj, list):
        items = ",\n".join(f"{pad}  {_ref_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]" if obj else "[]"
    if isinstance(obj, str):
        return '"' + obj + '"'
    return _ref_fmt(obj)


def _ref_rows(header, cols):
    return [{h: float(c[i]) for h, c in zip(header, cols)}
            for i in range(len(cols[0]))]


def _assert_same_text(got, want):
    """Exact comparison that reports the first difference, not a diff of MBs."""
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        pytest.fail(f"texts differ at offset {at}: got {got[at - 40:at + 40]!r}, "
                    f"want {want[at - 40:at + 40]!r}")


def _render_in_process(monkeypatch, capsys, *argv):
    """Stdout, stderr and the (header, columns) of the table the CLI rendered."""
    tables = []

    class Recording(cli._Table):
        def __init__(self, header, columns):
            super().__init__(header, columns)
            tables.append((list(header), [np.array(c) for c in columns]))

    monkeypatch.setattr(cli, "_Table", Recording)
    code = cli.main(list(argv))
    out = capsys.readouterr()
    assert code == 0, out.err
    assert len(tables) == 1
    return out.out, out.err, tables[0]


def _assert_round_trip(text, header, cols):
    # integral values are written with ".0", so json reads every value as a
    # float and -0.0 keeps its sign
    rows = json.loads(text)["rows"]
    assert len(rows) == len(cols[0])
    for h, c in zip(header, cols):
        parsed = np.array([row[h] for row in rows])
        assert np.array_equal(parsed.view(np.int64), c.view(np.int64)), h


PT = ("--case", "pt", "--A", "-2", "--B", "0.5")
ISO21 = ("--case", "iso21", "--B1", "-0.8", "--mu", "0.1", "--K1", "0.6",
         "--a", "1")
# a table of two blocks and 5 rows whose V-+ columns are _edge_columns
EDGE = ("potential",) + PT + ("--n-points", str(2 * cli._BLOCK_ROWS + 5),
                              "--x-lo", "0.001")


def _edge_values():
    """Values at %.17g's fixed/exponent boundaries (1e-5, 1e-4, 1e16, 1e17),
    powers of ten at +-1 ulp, subnormals, +-0.0 and values the kernel
    leaves to format() (ties, |v| outside [1e-280, 1e280])."""
    powers = 10.0 ** np.arange(-8, 20)
    near = np.concatenate([powers, np.nextafter(powers, 0.0),
                           np.nextafter(powers, np.inf), 9.5 * powers,
                           [99999999999999999.0, 2.0 ** -25, 0.5, 1e-300,
                            1e300, 1.7976931348623157e308]])
    subnormal = np.array([5e-324, 2.5e-320, np.nextafter(2.2250738585072014e-308, 0)])
    return np.concatenate([near, -near, subnormal, -subnormal, [0.0, -0.0]])


def _edge_columns(spec, xs):
    rng = np.random.default_rng(7)
    corpus = _edge_values()
    sweep = rng.choice([-1.0, 1.0], len(xs)) * 10.0 ** rng.uniform(-8, 20, len(xs))
    return np.resize(corpus, len(xs)), np.where(np.arange(len(xs)) % 3 == 0,
                                                np.resize(corpus[::-1], len(xs)),
                                                sweep)


@pytest.mark.parametrize("argv, n_cols", [
    (("potential",) + PT + ("--n-points", "301"), 3),
    (("potential",) + ISO21 + ("--n-points", "301"), 4),
    (("wavefunction",) + PT + ("--n", "2", "--with-plus", "--n-points", "301"), 4),
    (("potential",) + PT + ("--n-points", str(2 * cli._BLOCK_ROWS + 5)), 3),
    (EDGE, 3),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_bytes_match_per_value_rendering(monkeypatch, capsys, argv, n_cols,
                                               fmt, tmp_path):
    if argv == EDGE:
        monkeypatch.setattr(cli.susy, "partner_potentials", _edge_columns)
    out, _, (header, cols) = _render_in_process(monkeypatch, capsys, *argv,
                                                "--format", fmt)
    assert len(header) == n_cols
    if fmt == "csv":
        _assert_same_text(out, _ref_csv(header, cols))
    else:
        obj = {"case": argv[2]}
        if argv[0] == "wavefunction":
            obj["n"] = 2
        obj["rows"] = _ref_rows(header, cols)
        _assert_same_text(out, _ref_json(obj) + "\n")
        _assert_round_trip(out, header, cols)
    path = tmp_path / "table.out"
    _render_in_process(monkeypatch, capsys, *argv, "--format", fmt,
                       "--output", str(path))
    _assert_same_text(path.read_bytes().decode(), out)


def test_component2_json_notes_match_per_value_rendering(monkeypatch, capsys):
    out, _, (header, cols) = _render_in_process(
        monkeypatch, capsys, "wavefunction", "--case", "component2", "--a", "1",
        "--B", "0.25", "--branch", "-", "--n", "1", "--format", "json",
        "--n-points", "301")
    notes = {"normalizable": True, "warnings": ["DegenerateJacobiWarning"]}
    obj = {"case": "component2", "n": 1, **notes,
           "rows": _ref_rows(header, cols)}
    _assert_same_text(out, _ref_json(obj) + "\n")
    _assert_round_trip(out, header, cols)


def test_table_renderer_extreme_values():
    values = np.array([-0.0, 5e-324, 1e16, 1.7976931348623157e308])
    header, cols = ["x", "y"], [values, -values[::-1]]
    table = cli._Table(header, cols)
    assert "".join(table.csv_pieces()) == _ref_csv(header, cols)
    obj = {"case": "pt", "rows": _ref_rows(header, cols)}
    text = "".join(cli._json_render({"case": "pt", "rows": table}))
    assert text == _ref_json(obj)
    _assert_round_trip(text, header, cols)


def _g17_text(values):
    """The text of each of _g17's cells, less its NUL padding."""
    return [bytes(cell).rstrip(b"\0") for cell in cli._g17(np.asarray(values))]


def _assert_g17(values):
    # each cell is the text's bytes, then NULs to its 24 bytes
    values = np.asarray(values, dtype=np.float64)
    want = np.frombuffer(b"".join(_ref_g17(v).encode().ljust(24, b"\0")
                                  for v in values.tolist()), dtype=np.uint8)
    got = cli._g17(values)
    assert got.dtype == np.uint8 and got.shape == (len(values), 24)
    bad = np.flatnonzero((got != want.reshape(-1, 24)).any(axis=1))
    assert not len(bad), [(values[i], bytes(got[i]), _ref_g17(values[i]))
                          for i in bad[:5]]


def test_g17_kernel_random_bit_patterns():
    bits = np.random.default_rng(20261018).integers(0, 2 ** 64, 200_000,
                                                    dtype=np.uint64)
    _assert_g17(bits.view(np.float64))


def test_g17_kernel_edge_corpus():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    corpus = np.concatenate([
        _edge_values(), powers, np.nextafter(powers, 0.0),
        np.nextafter(powers, np.inf),
        2.0 ** np.arange(-1074, 1024), [1.7976931348623157e308],
        np.arange(-2000, 2000) / 8.0])
    _assert_g17(np.concatenate([corpus, -corpus]))
    assert _g17_text([99999999999999999.0]) == [b"1e+17"]
    # integral values carry ".0" on the kernel's path and on format()'s
    assert _g17_text([-0.0, 1.0, -300.0, 1e16, 9.5e15]) == [
        b"-0.0", b"1.0", b"-300.0", b"10000000000000000.0", b"9500000000000000.0"]
    assert cli._json_scalar(-0.0) == "-0.0" and cli._json_scalar(2) == "2"


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
@hypothesis.given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=64))
def test_g17_kernel_matches_format(values):
    _assert_g17(values)


def test_table_is_written_a_block_at_a_time(monkeypatch):
    n = 2 * cli._BLOCK_ROWS + 5
    xs = np.linspace(0.0, 1.0, n)
    writes = []

    class Sink:
        def writelines(self, pieces):
            writes.extend(len(p) for p in pieces)

    monkeypatch.setattr(cli.sys, "stdout", Sink())
    cli._write_output(cli._Table(["x"], [xs]).csv_pieces(), "-")
    assert len(writes) == 1 + 3  # the header, then one piece per block
    assert max(writes) < sum(writes[1:])


@pytest.mark.parametrize("n_cols", [1, 3, 4])
def test_table_values_left_to_format_at_block_and_column_edges(n_cols):
    # format() writes these cells, not the kernel: the first and last cell of
    # a block and of a row must still land at their offsets
    n = cli._BLOCK_ROWS + 3
    rng = np.random.default_rng(n_cols)
    cols = [rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6, 6, n)
            for _ in range(n_cols)]
    fallback = itertools.cycle([0.0, -0.0, 5e-324, 1e300, 2.0 ** -25])
    for row in (0, cli._BLOCK_ROWS - 1, cli._BLOCK_ROWS, n - 1):
        for col in (cols[0], cols[-1]):
            col[row] = next(fallback)
    header = ["x", "V_minus", "V_plus", "V_casimir"][:n_cols]
    table = cli._Table(header, cols)
    _assert_same_text("".join(table.csv_pieces()), _ref_csv(header, cols))
    text = "".join(cli._json_render({"case": "pt", "rows": table}))
    _assert_same_text(text, _ref_json({"case": "pt",
                                       "rows": _ref_rows(header, cols)}))
    _assert_round_trip(text, header, cols)


def test_json_scalar_writes_valid_json_for_numpy_bools_and_control_chars():
    assert cli._json_scalar(np.True_) == "true"
    assert cli._json_scalar(np.False_) == "false"
    assert cli._json_scalar(True) == "true"
    for text in ("pt", 'a "quoted" \\ path', "two\nlines", "tab\tand\x01", "é"):
        assert cli._json_scalar(text) == json.dumps(text, ensure_ascii=False)
        assert json.loads(cli._json_scalar(text)) == text
    obj = {"passed": np.bool_(True), "note": "line\nbreak"}
    assert json.loads("".join(cli._json_render(obj))) == {
        "passed": True, "note": "line\nbreak"}


def test_closed_stdout_pipe_exits_141_without_a_traceback():
    # `toruspt potential ... | head -1`: the reader goes away after one line
    env = dict(os.environ)
    env["PYTHONPATH"] = PKG_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "toruspt", "potential", *PT, "--n-points",
         "100001"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert first == b"x,V_minus,V_plus\n"
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert err == ""
