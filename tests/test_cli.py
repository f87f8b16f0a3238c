import copy
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ergokit

from ergokit.cli import _TRAJECTORY_PIECE_ROWS, _trajectory_csv, main
from ergokit.config import (
    builtin_configs,
    format_float,
    provenance_comment,
    validate_config,
    write_text_atomic,
)
from ergokit.models import ThresholdAffine2D
from ergokit.noise import Expol2
from ergokit.simulate import PathResult, SimulationConfig, simulate_ensemble


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("ERGOKIT_SEED", raising=False)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def small_threshold_doc(**sim_overrides):
    doc = {k: v for k, v in builtin_configs()["example2-ergodic"].items()
           if k != "notes"}
    doc["simulation"] = {"T": 10, "n_traj": 1, "snapshots": [5, 10], "seed": 7,
                         **sim_overrides}
    return doc


def test_check_exit_codes(tmp_path, capsys):
    ergodic = write_config(tmp_path, builtin_configs()["example2-ergodic"], "e.json")
    assert main(["check", ergodic]) == 0
    out = capsys.readouterr().out
    assert "sufficient_condition_met" in out
    assert "0.981" in out

    unit_root = write_config(tmp_path, builtin_configs()["example2-unit-root"], "u.json")
    assert main(["check", unit_root]) == 2

    variance = write_config(tmp_path, builtin_configs()["example2-variance"], "v.json")
    assert main(["check", variance]) == 2

    bekk = write_config(tmp_path, builtin_configs()["bekk-demo"], "b.json")
    assert main(["check", bekk]) == 2


def _with_model(name, path, value):
    doc = {k: v for k, v in builtin_configs()[name].items() if k != "notes"}
    model = doc["model"] = json.loads(json.dumps(doc["model"]))
    for key in path[:-1]:
        model = model[key]
    model[path[-1]] = value
    return doc


_ZERO = [[0.0, 0.0], [0.0, 0.0]]


# A zero mean matrix gives b_f = 0 and a zero constant volatility column
# a_g = 0, both valid bounds; check reports the verdict instead of failing
# on the envelope.
@pytest.mark.parametrize("doc, code, b_f", [
    # gamma = 0 + 0.25 * E||e||_1 < 1, and the structural checks pass.
    (_with_model("example2-ergodic", ("B",), _ZERO), 0, 0.0),
    # coefexpol fails with D_const = 0; a_g is floored at 1e-12.
    (_with_model("example2-ergodic", ("D_const",), [0.0, 0.0]), 2, 0.4),
    # gamma = 0 + sqrt(2) * E||e||_2 >= 1.
    (_with_model("bekk-demo", ("f", "B"), _ZERO), 2, 0.0),
], ids=["threshold-B0", "threshold-D_const0", "bekk-fB0"])
def test_check_accepts_zero_envelope_coefficients(tmp_path, capsys, doc, code, b_f):
    assert main(["check", write_config(tmp_path, doc)]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["envelope"]["b_f"] == b_f
    assert report["envelope"]["a_g"] > 0.0


def test_check_shell_envelope_is_inconclusive(tmp_path, capsys):
    doc = small_threshold_doc()
    doc["checks"] = {"s": 1.0, "envelope": "shell"}
    path = write_config(tmp_path, doc)
    assert main(["check", path]) == 3
    out = capsys.readouterr().out
    assert "inconclusive" in out
    assert "shell_estimated" in out


def test_check_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["check", str(path)]) == 1
    assert "malformed JSON" in capsys.readouterr().err


def test_check_schema_violation(tmp_path, capsys):
    doc = small_threshold_doc()
    doc["model"]["surprise"] = 1
    path = write_config(tmp_path, doc)
    assert main(["check", path]) == 1
    assert "$.model.surprise" in capsys.readouterr().err


def test_check_missing_file(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_check_analytic_envelope_pins_s(tmp_path, capsys):
    doc = small_threshold_doc()
    doc["checks"] = {"s": 0.5, "envelope": "analytic"}
    path = write_config(tmp_path, doc)
    assert main(["check", path]) == 1
    assert "s=1" in capsys.readouterr().err


def test_analytic_envelope_at_the_wrong_s_fails_before_simulating(
        tmp_path, capsys, monkeypatch):
    doc = small_threshold_doc()
    doc["checks"] = {"s": 2, "envelope": "analytic"}
    path = write_config(tmp_path, doc)

    def simulate_ensemble(*args, **kwargs):
        raise AssertionError("simulated before validating the checks")

    monkeypatch.setattr("ergokit.cli.simulate_ensemble", simulate_ensemble)
    out = tmp_path / "out"
    assert main(["simulate", path, "--out", str(out)]) == 1
    assert "s=1" in capsys.readouterr().err
    assert not out.exists()
    assert main(["check", path]) == 1
    assert "$.checks.s" in capsys.readouterr().err
    # Control: with valid checks the command does reach the patched call.
    doc["checks"] = {"s": 1, "envelope": "analytic"}
    valid = write_config(tmp_path, doc, "valid.json")
    with pytest.raises(AssertionError, match="simulated before validating"):
        main(["simulate", valid, "--out", str(tmp_path / "valid")])


def test_check_out_file_matches_stdout(tmp_path, capsys):
    path = write_config(tmp_path, small_threshold_doc())
    out_file = tmp_path / "report.json"
    assert main(["check", path, "--out", str(out_file)]) == 0
    stdout = capsys.readouterr().out
    assert out_file.read_text() == stdout
    payload = json.loads(stdout)
    assert payload["verdict"] == "sufficient_condition_met"
    assert payload["provenance"]["master_seed"] == 7
    assert payload["provenance"]["tool_version"]


def test_simulate_artifacts_deterministic(tmp_path):
    path = write_config(tmp_path, small_threshold_doc())
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    assert main(["simulate", path, "--out", str(out_a)]) == 0
    assert main(["simulate", path, "--out", str(out_b)]) == 0
    assert main(["simulate", path, "--out", str(out_c), "--threads", "4"]) == 0
    for name in ("snapshots.csv", "trajectories.csv", "summary.json", "verdict.txt"):
        bytes_a = (out_a / name).read_bytes()
        assert bytes_a == (out_b / name).read_bytes()
        assert bytes_a == (out_c / name).read_bytes()

    # n_traj=1, T=10: exactly 11 data rows plus header and footer.
    rows = (out_a / "trajectories.csv").read_text().strip().split("\n")
    data_rows = [r for r in rows if not r.startswith("#") and not r.startswith("traj_id")]
    assert len(data_rows) == 11
    assert rows[0] == "traj_id,t,x_1,x_2"
    assert rows[-1].startswith("# ergokit ")

    summary = json.loads((out_a / "summary.json").read_text())
    assert summary["n_traj"] == 1
    assert summary["diverged_count"] == 0
    assert [s["time"] for s in summary["snapshots"]] == [5, 10]

    verdict = (out_a / "verdict.txt").read_text().splitlines()
    assert verdict[0].startswith("check: sufficient_condition_met")
    assert verdict[1].startswith("simulation: 0/1 trajectories diverged")
    assert verdict[-1].startswith("# ergokit ")


def test_simulate_skips_trajectory_dump_for_large_runs(tmp_path):
    doc = small_threshold_doc(T=2000, n_traj=60, snapshots=[1000, 2000])
    path = write_config(tmp_path, doc)
    out = tmp_path / "big"
    assert main(["simulate", path, "--out", str(out)]) == 0
    assert (out / "snapshots.csv").exists()
    assert not (out / "trajectories.csv").exists()


def test_simulate_unwritable_out(tmp_path, capsys):
    path = write_config(tmp_path, small_threshold_doc())
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a dir")
    assert main(["simulate", path, "--out", str(blocker / "sub")]) == 1
    assert capsys.readouterr().err.startswith("error:")



@pytest.mark.parametrize("command", ["check", "simulate"])
def test_noise_dimension_mismatch_exits_1(tmp_path, capsys, command):
    # A threshold model is two-dimensional; dim-3 gaussian noise used to be
    # accepted and then fail mid-run with an unpacking error.
    doc = small_threshold_doc()
    doc["noise"] = {"kind": "gaussian", "dim": 3}
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    argv = [command, path, "--out", str(out / "report.json" if command == "check" else out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "noise has dim 3 but the model has dim 2 at $.noise.dim" in err
    assert not out.exists()


def test_moments_quadrature_band(capsys):
    assert main(["moments", "--noise", "expol2", "--s", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 1.64 <= payload["value"] <= 1.68
    assert payload["method"] == "quadrature"


def test_moments_gaussian_analytic(capsys):
    assert main(["moments", "--noise", "gaussian", "--s", "2",
                 "--method", "analytic"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)


def test_moments_mc_agrees_with_quadrature(capsys):
    assert main(["moments", "--noise", "expol2", "--s", "1"]) == 0
    quad = json.loads(capsys.readouterr().out)["value"]
    assert main(["moments", "--noise", "expol2", "--s", "1", "--method", "mc",
                 "--budget", "200000", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sample_count"] == 200000
    assert abs(payload["value"] - quad) <= 3.0 * payload["std_error"]


def test_moments_analytic_rejects_expol2(capsys):
    assert main(["moments", "--noise", "expol2", "--s", "1",
                 "--method", "analytic"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_moments_analytic_gaussian_s2_at_high_dim(capsys):
    assert main(["moments", "--noise", "gaussian", "--s", "2",
                 "--method", "analytic", "--dim", "343"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["value"] == pytest.approx(math.sqrt(343.0), rel=1e-3)


@pytest.mark.parametrize("argv", [[], ["--dim", "2"]], ids=["no-dim", "dim-2"])
def test_moments_expol2_keeps_its_output_at_dim_2(capsys, argv):
    assert main(["moments", "--noise", "expol2", "--s", "1", *argv]) == 0
    assert capsys.readouterr() == ("""{
  "noise": "expol2",
  "value": 1.6547848786785642,
  "std_error": 0,
  "method": "quadrature",
  "s": 1,
  "sample_count": null,
  "grid_size": 2624
}
""", "")


@pytest.mark.parametrize("dim", ["1", "3"])
def test_moments_expol2_refuses_another_dim(capsys, dim):
    # Expol2 is bivariate; a --dim it does not have used to print the 2-D
    # moment as if it were that dim's.
    assert main(["moments", "--noise", "expol2", "--s", "1", "--dim", dim]) == 1
    assert capsys.readouterr() == (
        "", f"error: --dim is {dim} but expol2 noise has dim 2\n")


def test_check_notes_print_gamma_with_every_digit(tmp_path, capsys):
    # gamma = 0 + b_g * E||e||_1.5 falls 7.4e-13 below 1 here; the notes
    # print it with format_float's 17 digits, never rounded up to 1.
    doc = {**builtin_configs()["example2-ergodic"], "checks": {"s": 1.5, "envelope": {
        "a_f": 1, "b_f": 0, "a_g": 1, "b_g": 0.73810814486594123, "M": 1}}}
    assert main(["check", write_config(tmp_path, doc)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "sufficient_condition_met"
    assert report["gamma"] == 0.9999999999992628
    assert ("gamma = b_f + b_g * E[||e||_s] = 0 + 0.73810814486594123 * "
            f"{report['noise_moment']['value']:.17g} = 0.99999999999926281;"
            ) in report["notes"]


def _shell_check_doc(s):
    return {**builtin_configs()["example2-ergodic"],
            "checks": {"s": s, "envelope": "shell"}}


def test_pseudonorm_moments_and_checks_run_at_small_s(tmp_path, capsys):
    # Both used to die in adaptive Simpson, which cannot resolve |u|^s.
    assert main(["moments", "--noise", "expol2", "--s", "0.25"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["value"] == pytest.approx(1.8459678711693555, rel=1e-13)
    assert err == ""
    path = write_config(tmp_path, _shell_check_doc(0.4))
    code = main(["check", path])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["noise_moment"]["s"] == 0.4
    assert code == {"sufficient_condition_met": 0, "condition_failed": 2,
                    "inconclusive": 3}[report["verdict"]]
    # The pseudonorm shell envelope at s = 0.4 fails the drift bound.
    assert code == 2
    assert err == ""


@pytest.mark.parametrize("argv", [
    ["--s", "inf"],
    ["--s", "nan"],
    ["--s", "inf", "--method", "mc", "--budget", "100"],
    ["--s", "1", "--method", "mc", "--seed", "-1"],
    ["--s", "1", "--method", "mc", "--seed", str(1 << 64)],
    ["--s", "1", "--dim", "0"],
    ["--s", "1", "--dim", "-3"],
], ids=["s-inf", "s-nan", "mc-s-inf", "seed-negative", "seed-2^64", "dim-0", "dim-negative"])
def test_moments_rejects_bad_s_and_seed(capsys, argv):
    assert main(["moments", "--noise", "gaussian", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    flag = next((f for f in ("--seed", "--dim") if f in argv), None)
    assert (f"{flag} " if flag else "s must be") in err


def test_numeric_failure_is_an_error_line(tmp_path, capsys, monkeypatch):
    # An ArithmeticError inside a command, here an overflowing noise moment,
    # is one error line and exit 1.
    def overflow(*args, **kwargs):
        raise OverflowError("math range error")

    monkeypatch.setattr("ergokit.ergodicity.abs_moment", overflow)
    path = write_config(tmp_path, builtin_configs()["example2-ergodic"])
    assert main(["check", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: numeric failure") and err.count("\n") == 1


@pytest.mark.parametrize("s", [0.05, 0.001])
def test_shell_envelope_at_small_s(tmp_path, capsys, s):
    # Shell draws are exact, so s = 0.05 gets a verdict; at s = 0.001 the
    # outer radius 100^(1/s) of the homogeneous norm is not a finite double
    # and the envelope is refused before any draw.
    path = write_config(tmp_path, _shell_check_doc(s))
    code = main(["check", path])
    out, err = capsys.readouterr()
    if s == 0.001:
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"s={s:g}" in err
        assert "OverflowError" not in err and "numeric failure" not in err
    else:
        assert code == 2 and err == ""
        assert json.loads(out)["verdict"] == "condition_failed"


# Name -> (argv, exit code); ("check", s) runs example2-ergodic with a shell
# envelope at s.
_STDERR_COMMANDS = {
    "check-shell-s0.05": (("check", 0.05), 2),
    "check-shell-s0.4": (("check", 0.4), 2),
    "check-shell-s1": (("check", 1.0), 3),
    "check-shell-s2": (("check", 2.0), 3),
    "check-shell-s3": (("check", 3.0), 3),
    "check-shell-s200": (("check", 200.0), 3),
    "check-shell-s600": (("check", 600.0), 3),
    "reproduce-bekk-demo": (("reproduce", "bekk-demo", "--out", "bundle"), 0),
}


@pytest.mark.parametrize("name", sorted(_STDERR_COMMANDS))
def test_stderr_is_empty_or_one_error_line(tmp_path, name):
    # A separate process, so that warnings reach stderr as a user sees them.
    argv, code = _STDERR_COMMANDS[name]
    if argv[0] == "check":
        argv = ("check", write_config(tmp_path, _shell_check_doc(argv[1])))
    src = os.path.dirname(os.path.dirname(os.path.abspath(ergokit.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "ERGOKIT_SEED"}
    proc = subprocess.run([sys.executable, "-m", "ergokit.cli", *argv],
                          env={**env, "PYTHONPATH": src}, cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == code
    if code == 1:
        assert proc.stderr.startswith(("error:", "config error:"))
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    else:
        assert proc.stderr == ""


def _bekk_checks_doc(checks):
    return {**builtin_configs()["bekk-demo"], "checks": checks}


_BEKK_AT_OTHER_S = {
    "shell-s1": {"s": 1.0, "envelope": "shell"},
    "shell-s3": {"s": 3.0, "envelope": "shell"},
    "user-s1": {"s": 1.0, "envelope": {"a_f": 1.0, "b_f": 0.4, "a_g": 1.5,
                                       "b_g": 1.0, "M": 1.0}},
}


@pytest.mark.parametrize("name", sorted(_BEKK_AT_OTHER_S))
def test_bekk_checks_run_at_the_envelope_s(tmp_path, capsys, name):
    # BEKK drift checks take the noise moment at the envelope's s, like the
    # threshold family.
    checks = _BEKK_AT_OTHER_S[name]
    assert main(["check", write_config(tmp_path, _bekk_checks_doc(checks))]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out)
    env, moment = report["envelope"], report["noise_moment"]
    assert moment["s"] == env["s"] == checks["s"]
    assert moment["method"] == ("analytic" if checks["s"] == 1.0 else "quadrature")
    assert report["gamma"] == env["b_f"] + env["b_g"] * moment["value"]
    assert report["verdict"] == "condition_failed"


def test_check_refuses_a_bekk_b_whose_products_overflow(tmp_path, capsys):
    doc = copy.deepcopy(builtin_configs()["bekk-demo"])
    doc["model"]["B"] = [[1e200, 1e200], [1e200, 1e200]]
    assert main(["check", write_config(tmp_path, doc)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: b_mat") and err.count("\n") == 1


# Coefficients whose norms overflow: BEKK's a_mat is refused when it is
# built, the threshold envelope's inf constants by DriftEnvelope.
_OVERFLOWING = {
    "bekk-a": ("bekk-demo", "A", [[1e200, 0.0], [0.0, 1e200]],
               "error: a_mat is too large: 1 + ||a_mat||_F overflows"),
    "threshold-b": ("example2-ergodic", "B", [[1e308, 0.1], [1e308, 0.3]],
                    "error: envelope constants must be finite"),
    "threshold-a": ("example2-ergodic", "a", [1e308, 1e308],
                    "error: envelope constants must be finite"),
}


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("case", sorted(_OVERFLOWING))
def test_overflowing_coefficients_give_one_error_line(tmp_path, capsys, case, command):
    # A numpy warning would raise here (the suite turns RuntimeWarning into
    # an error) and would print a second stderr line from the CLI.
    name, key, value, message = _OVERFLOWING[case]
    doc = copy.deepcopy(builtin_configs()[name])
    doc["model"][key] = value
    argv = [command, write_config(tmp_path, doc), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == message + "\n"


def test_bekk_simulate_with_an_s1_shell_envelope(tmp_path, capsys):
    path = write_config(tmp_path, _bekk_checks_doc(_BEKK_AT_OTHER_S["shell-s1"]))
    out = tmp_path / "out"
    assert main(["simulate", path, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in out.iterdir()) == [
        "snapshots.csv", "summary.json", "trajectories.csv", "verdict.txt"]
    assert (out / "verdict.txt").read_text().startswith("check: condition_failed")


def test_reproduce_unknown_name(tmp_path, capsys):
    assert main(["reproduce", "mystery", "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    for name in ("example2-ergodic", "example2-unit-root",
                 "example2-variance", "bekk-demo"):
        assert name in err


def test_reproduce_bekk_demo_bundle(tmp_path):
    out = tmp_path / "bundle"
    assert main(["reproduce", "bekk-demo", "--out", str(out)]) == 0
    for name in ("config.json", "report.json", "summary.json",
                 "snapshots.csv", "verdict.txt", "comparison.txt"):
        assert (out / name).exists(), name

    # The emitted config re-parses (round trip with provenance footer).
    emitted = json.loads((out / "config.json").read_text())
    parsed = validate_config(emitted)
    assert parsed["simulation"].master_seed == 20260814

    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "condition_failed"
    names = {c["name"]: c["passed"] for c in report["structural"]}
    assert names["degeneracy_locus"] is True
    assert names["skeleton_escape"] is True

    comparison = (out / "comparison.txt").read_text()
    assert "[OK] skeleton escapes the degenerate line in one step" in comparison
    assert "[OK] verdict condition_failed" in comparison
    assert "all expectations reproduced" in comparison


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, small_threshold_doc())
    monkeypatch.setenv("ERGOKIT_SEED", "99")
    assert main(["check", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["provenance"]["master_seed"] == 99

    for bad in ("not-a-seed", "-1", str(2 ** 64)):
        monkeypatch.setenv("ERGOKIT_SEED", bad)
        assert main(["check", path]) == 1
        assert "ERGOKIT_SEED" in capsys.readouterr().err


def test_cli_import_does_not_load_scipy():
    # scipy costs about a second of import time and ~70 MB of RSS; nothing
    # on the CLI path may pull it back in.
    src = os.path.dirname(os.path.dirname(os.path.abspath(ergokit.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, ergokit.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_simulate_does_not_load_numpy_ma(tmp_path):
    # np.quantile imports numpy.ma on its first call, about 15 ms and 2 MiB
    # of a run; the snapshot quantiles are computed without it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(ergokit.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    path = write_config(tmp_path, small_threshold_doc())
    code = ("import sys, ergokit.cli; "
            f"ergokit.cli.main(['simulate', {path!r}, '--out', {str(tmp_path / 'out')!r}]); "
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "False"


def test_the_trajectory_dump_changes_no_other_artifact(tmp_path, monkeypatch):
    # 30 threshold paths over two blocks of the recurrence, 13 of them
    # censored: 4 in the first block, one at its last step and 8 after it.
    # These paths cross 10^6 from step 440 on, and one at step 501, so the
    # blocks are set to 501 steps here; the block length decides no value.
    # A streamed run (cap 0) and a run that keeps whole paths for the dump
    # (the default cap) write the same snapshots, summary and verdict.
    block = 501
    monkeypatch.setattr("ergokit.simulate._BLOCK_STEPS", block)
    doc = copy.deepcopy(builtin_configs()["example2-unit-root"])
    doc["model"]["B"] = [[1.02, 0.0], [0.0, 1.02]]
    horizon = block + 100
    doc["simulation"].update(n_traj=30, T=horizon, snapshots=[100, block, horizon],
                             divergence_threshold=1e6, seed=7)
    path = write_config(tmp_path, doc)
    streamed, kept = tmp_path / "streamed", tmp_path / "kept"
    with monkeypatch.context() as patch:
        patch.setattr("ergokit.cli._TRAJECTORY_DUMP_ROW_CAP", 0)
        assert main(["simulate", path, "--out", str(streamed)]) == 0
    assert main(["simulate", path, "--out", str(kept)]) == 0
    shared = ["snapshots.csv", "summary.json", "verdict.txt"]
    assert sorted(os.listdir(streamed)) == shared
    assert sorted(os.listdir(kept)) == sorted(shared + ["trajectories.csv"])
    for name in shared:
        assert (streamed / name).read_bytes() == (kept / name).read_bytes()
    steps = json.loads((kept / "summary.json").read_text())["divergence_steps"]
    censored = [t for t in steps if t is not None]
    assert len(censored) == 13
    assert sum(t > block for t in censored) == 8
    assert block in censored


def test_trajectory_dump_of_lanes_that_overflow_to_inf():
    # With B = 2I and no threshold, lanes overflow to inf between steps 1021
    # and 1032.  Simulation drops each non-finite state, so the one-format
    # row dump prints exactly what format_float prints cell by cell.
    model = ThresholdAffine2D(a=(0.0, 0.0), b_mat=((2.0, 0.0), (0.0, 2.0)),
                              d_main=((0.1, -0.15), (-0.15, 0.1)),
                              d_c=(0.2, -0.25), d_const=(1.0, 1.0))
    cfg = SimulationConfig(model=model, noise=Expol2(), x0=(0.0, 0.0),
                           horizon=1027, n_traj=12, snapshot_times=(1027,),
                           master_seed=11, divergence_threshold=math.inf)
    paths = simulate_ensemble(cfg, keep_paths=True).paths
    truncated = [p for p in paths if p.diverged]
    assert 0 < len(truncated) < len(paths)
    for p in truncated:
        assert p.states.shape[0] == p.divergence_step
    want = ["traj_id,t,x_1,x_2"]
    for i, p in enumerate(paths):
        for t, row in enumerate(p.states.tolist()):
            want.append(",".join([str(i), str(t), *map(format_float, row)]))
    got = "".join(_trajectory_csv(paths, 11, "0" * 64)).split("\n")
    assert got[:-2] == want
    assert not any("null" in line or "inf" in line for line in got[:-2])


# Signed zeros, the smallest subnormal, the largest doubles, a value %.17g
# prints with an exponent on each side, and integral floats.
_EDGE_VALUES = [0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                1e17, 1e-5, 1.0, -2.0]


@st.composite
def _path_sets(draw):
    dim = draw(st.sampled_from([1, 2, 3]))
    lengths = draw(st.lists(st.integers(1, 2 * _TRAJECTORY_PIECE_ROWS + 2),
                            min_size=1, max_size=6))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return [PathResult(states=draw(arrays(np.float64, (rows, dim), elements=finite)),
                       diverged=False)
            for rows in lengths]


def _edge_paths(dim):
    values = _EDGE_VALUES[:len(_EDGE_VALUES) // dim * dim]
    return [PathResult(states=np.reshape(values, (-1, dim)), diverged=False),
            PathResult(states=np.full((1, dim), 3.0), diverged=False)]


def _paths_around_a_piece(rows):
    # A path of `rows` rows, then a shorter one that reuses the cached tails.
    values = np.random.default_rng(rows).standard_normal((rows, 2))
    return [PathResult(states=values, diverged=False),
            PathResult(states=values[:3] * 1e-300, diverged=False)]


@settings(max_examples=200, deadline=None)
@given(paths=_path_sets())
@example(paths=_edge_paths(1))
@example(paths=_edge_paths(2))
@example(paths=_edge_paths(3))
@example(paths=_paths_around_a_piece(_TRAJECTORY_PIECE_ROWS - 1))
@example(paths=_paths_around_a_piece(_TRAJECTORY_PIECE_ROWS))
@example(paths=_paths_around_a_piece(_TRAJECTORY_PIECE_ROWS + 1))
@example(paths=_paths_around_a_piece(2 * _TRAJECTORY_PIECE_ROWS + 1))
def test_trajectory_dump_prints_each_cell_as_format_float(paths):
    dim = paths[0].states.shape[1]
    want = [",".join(["traj_id", "t"] + [f"x_{j + 1}" for j in range(dim)])]
    for i, p in enumerate(paths):
        for t, row in enumerate(p.states.tolist()):
            want.append(",".join([str(i), str(t), *map(format_float, row)]))
    want.append(provenance_comment(7, "ab" * 32))
    assert "".join(_trajectory_csv(paths, 7, "ab" * 32)) == "\n".join(want) + "\n"


@pytest.fixture(scope="module")
def censored_paths():
    # A 100 x 999-step unit-root run where 69 paths are censored mid-run:
    # 73,416 rows, 3.4 MB of text.
    doc = copy.deepcopy(builtin_configs()["example2-unit-root"])
    doc["model"]["B"] = [[1.02, 0.0], [0.0, 1.02]]
    doc["simulation"].update(n_traj=100, T=999, snapshots=[100, 999],
                             divergence_threshold=1e6, seed=20260814)
    paths = simulate_ensemble(validate_config(doc)["simulation"], keep_paths=True).paths
    assert sum(p.states.shape[0] for p in paths) == 73_416
    return paths


def test_trajectory_dump_pieces_hold_at_most_a_piece_of_rows(censored_paths):
    pieces = list(_trajectory_csv(censored_paths, 20260814, "0" * 64))[1:-1]
    assert max(piece.count("\n") for piece in pieces) <= _TRAJECTORY_PIECE_ROWS
    assert max(len(piece) for piece in pieces) < 4 << 10  # 46,669 for a whole path
    assert len(pieces) == sum(-(-p.states.shape[0] // _TRAJECTORY_PIECE_ROWS)
                              for p in censored_paths)


def test_trajectory_dump_memory_does_not_grow_with_the_run(tmp_path, censored_paths):
    # Writing the dump holds one piece of at most _TRAJECTORY_PIECE_ROWS
    # rows' text at a time, plus the cached row templates, far below the
    # dump's size.
    target = tmp_path / "trajectories.csv"
    tracemalloc.start()
    try:
        write_text_atomic(str(target), _trajectory_csv(censored_paths, 20260814, "0" * 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert target.stat().st_size > 3 << 20
    assert peak < 1 << 20
