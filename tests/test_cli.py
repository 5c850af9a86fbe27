"""End-to-end tests for the command-line interface.

Fixed problem files live in tests/data; the frozen report in tests/golden
pins the exact JSON the cycle command must keep producing for a fixed
input file (all keys except wall_time_ms).
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from montouch import cli
from montouch.errors import ConvergenceError, ParseError

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

TWO_BALL = str(DATA / "two_ball.json")
TWO_SINGLETONS = str(DATA / "two_singletons.json")
THREE_BALL = str(DATA / "three_ball.json")
NEG_IDENTITY = str(DATA / "neg_identity.json")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- parsing

def test_parse_problem_reads_sets_and_solver():
    spec, digest = cli.parse_problem(TWO_BALL)
    assert spec.base_dimension == 2
    assert len(spec.sets) == 2
    assert spec.solver.tolerance == 1e-10
    assert spec.solver.max_iterations == 100000
    assert spec.solver.gamma == "auto"
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")


def test_parse_problem_solver_defaults(tmp_path):
    path = write_json(tmp_path, "p.json", {
        "base_dimension": 1,
        "sets": [{"type": "singleton", "point": [0.0]},
                 {"type": "singleton", "point": [1.0]}],
    })
    spec, _ = cli.parse_problem(path)
    assert spec.solver.tolerance == cli.SolverSettings().tolerance
    assert spec.solver.max_iterations == cli.SolverSettings().max_iterations


@pytest.mark.parametrize("doc, fragment", [
    ({"sets": []}, "base_dimension"),
    ({"base_dimension": 0, "sets": []}, "base_dimension"),
    ({"base_dimension": 2}, "sets is missing"),
    ({"base_dimension": 2, "sets": [{"type": "ball", "center": [0.0, 0.0],
                                     "radius": 1.0}]},
     "at least two"),
    ({"base_dimension": 2,
      "sets": [{"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
               {"type": "ball", "center": [0.0], "radius": 1.0}]},
     "sets[1].center has length 1, expected 2"),
    ({"base_dimension": 2,
      "sets": [{"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
               {"type": "ball", "center": [0.0, 0.0]}]},
     "sets[1].radius is missing"),
    ({"base_dimension": 2,
      "sets": [{"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
               {"type": "simplex"}]},
     "sets[1].type is unknown"),
    ({"base_dimension": 2,
      "sets": [{"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
               {"type": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}],
      "solver": {"stepsize": 0.1}},
     "solver.stepsize is not a recognised option"),
    ({"base_dimension": 2,
      "sets": [{"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
               {"type": "ball", "center": [1.0, 0.0], "radius": 1.0}],
      "solver": {"gamma": -1.0}},
     "solver.gamma"),
    ({"base_dimension": 1,
      "sets": [{"type": "singleton", "point": [0.0]},
               {"type": "singleton", "point": [1.0]}],
      "solver": {"seed": 0}},
     "solver.seed is not a recognised option"),
])
def test_parse_problem_names_the_bad_field(tmp_path, doc, fragment):
    path = write_json(tmp_path, "bad.json", doc)
    with pytest.raises(ParseError, match=None) as err:
        cli.parse_problem(path)
    assert fragment in str(err.value)


def test_parse_problem_reports_json_syntax_position():
    with pytest.raises(ParseError) as err:
        cli.parse_problem(str(DATA / "malformed.json"))
    message = str(err.value)
    assert "line 4" in message and "column" in message


def test_parse_matrix_happy_path():
    matrix, digest = cli.parse_matrix(NEG_IDENTITY)
    assert np.array_equal(matrix, -np.eye(2))
    assert len(digest) == 64


@pytest.mark.parametrize("doc, fragment", [
    ({}, "matrix is missing"),
    ({"matrix": []}, "non-empty"),
    ({"matrix": [[1.0, 2.0], [3.0]]}, "square"),
    ({"matrix": [[1.0, 2.0]]}, "square"),
])
def test_parse_matrix_rejects_bad_input(tmp_path, doc, fragment):
    path = write_json(tmp_path, "m.json", doc)
    with pytest.raises(ParseError) as err:
        cli.parse_matrix(path)
    assert fragment in str(err.value)


# ---------------------------------------------------------------- commands

def test_check_unmonotone_passes_at_half(capsys):
    code, out, _ = run_cli(capsys, "check-unmonotone",
                           "--matrix", NEG_IDENTITY, "--mu", "0.5")
    doc = json.loads(out)
    assert code == 0
    assert doc["pass"] is True
    assert doc["outputs"]["unmonotone"] is True
    assert doc["outputs"]["operator_norm"] == pytest.approx(1.0)
    assert doc["outputs"]["max_eig"] <= 1e-11


def test_check_unmonotone_fails_above_half(capsys):
    code, out, _ = run_cli(capsys, "check-unmonotone",
                           "--matrix", NEG_IDENTITY, "--mu", "0.6")
    doc = json.loads(out)
    assert code == 3
    assert doc["pass"] is False
    assert doc["outputs"]["unmonotone"] is False


def test_touch_command_on_singletons(capsys):
    code, out, _ = run_cli(capsys, "touch", "--problem", TWO_SINGLETONS)
    doc = json.loads(out)
    assert code == 0 and doc["pass"] is True
    # points 0 and 5 on the line: gap vector (5, -5), cycle midpoint shift
    assert np.allclose(doc["outputs"]["d"], [5.0, -5.0], atol=1e-8)
    assert np.allclose(doc["outputs"]["e"], [-2.5, 2.5], atol=1e-8)
    assert doc["outputs"]["lambda"] == 0.5
    # N = 2 gives Q = -I/2, so the step 2 makes one exact step: rho = 0
    assert doc["outputs"]["rho"] == 0.0
    assert doc["iterations"] == 1
    assert doc["residuals"]["graph_residual"] <= 1e-6
    assert doc["residuals"]["error_bound"] <= 1e-6


def test_fixed_point_matches_touch(capsys):
    code_a, out_a, _ = run_cli(capsys, "touch", "--problem", TWO_BALL)
    code_b, out_b, _ = run_cli(capsys, "fixed-point", "--problem", TWO_BALL)
    a, b = json.loads(out_a), json.loads(out_b)
    assert code_a == 0 and code_b == 0
    assert np.allclose(a["outputs"]["d"], b["outputs"]["d"], atol=1e-8)
    assert np.allclose(a["outputs"]["e"], b["outputs"]["e"], atol=1e-8)
    assert np.allclose(a["outputs"]["d"], [3.0, 0.0, -3.0, 0.0], atol=1e-8)


def test_touch_accepts_lambda_override(capsys):
    code, out, _ = run_cli(capsys, "touch", "--problem", TWO_SINGLETONS,
                           "--lambda", "0.25")
    doc = json.loads(out)
    assert code == 0
    assert doc["outputs"]["lambda"] == 0.25
    # the gate constant only gates: the step and the factor use the
    # certified -max eig sym(Q) = 1/2 either way
    assert np.allclose(doc["outputs"]["d"], [5.0, -5.0], atol=1e-8)
    assert doc["outputs"]["gamma"] == 2.0
    assert doc["outputs"]["rho"] == 0.0


@pytest.mark.parametrize("command", ["touch", "fixed-point"])
def test_product_space_gate_decides_exit_status(capsys, command):
    # the cycle operators meet the quadratic gate exactly at lambda = 1/2
    code, out, err = run_cli(capsys, command, "--problem", TWO_BALL,
                             "--lambda", "0.6")
    assert code == 1 and out == "" and "fails" in err
    code, _, _ = run_cli(capsys, command, "--problem", TWO_BALL,
                         "--lambda", "0.5")
    assert code == 0


def test_product_space_commands_skip_dense_linear_algebra(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense product-space linear algebra")

    for module, name in ((np.linalg, "svd"), (np.linalg, "eigvalsh"),
                         (np.linalg, "inv"), (np, "kron")):
        monkeypatch.setattr(module, name, forbidden)
    for command in ("touch", "fixed-point", "cycle", "verify"):
        code, _, _ = run_cli(capsys, command, "--problem", TWO_BALL)
        assert code == 0, command


def test_verify_command_full_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "--problem", TWO_BALL)
    doc = json.loads(out)
    assert code == 0 and doc["pass"] is True
    assert np.allclose(doc["outputs"]["d"], [3.0, 0.0, -3.0, 0.0], atol=1e-8)
    assert np.allclose(doc["outputs"]["e"], [-1.5, 0.0, 1.5, 0.0], atol=1e-8)
    assert np.allclose(doc["outputs"]["classical_cycle"],
                       [1.0, 0.0, 4.0, 0.0], atol=1e-8)
    assert "classical_shift_gap" in doc["residuals"]
    for name, value in doc["residuals"].items():
        assert value <= doc["outputs"]["thresholds"][name], name


# ---------------------------------------------------------------- exit codes

def test_exit_1_on_missing_file(capsys):
    code, out, err = run_cli(capsys, "cycle", "--problem", "no-such-file.json")
    assert code == 1
    assert out == ""
    assert "error:" in err and "no-such-file.json" in err


def test_exit_1_on_unknown_set_type(capsys):
    code, _, err = run_cli(capsys, "cycle",
                           "--problem", str(DATA / "unknown_set.json"))
    assert code == 1
    assert "sets[1].type is unknown" in err


def test_exit_1_on_usage_error(capsys):
    code, out, err = run_cli(capsys, "cycle", "--problem", TWO_BALL,
                             "--seed", "3")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --seed 3" in err
    code, out, _ = run_cli(capsys, "cycle", "--problem", TWO_BALL, "--classical")
    assert code == 1 and out == ""
    code, out, _ = run_cli(capsys, "cycle", "--help")
    assert code == 0 and "--problem" in out


@pytest.mark.parametrize("argv", [
    ("cycle", "--problem", TWO_BALL, "--gamma", "1000"),
    ("verify", "--problem", TWO_BALL, "--gamma", "1000"),
    ("check-unmonotone", "--matrix", NEG_IDENTITY, "--mu", "0.5",
     "--tol", "5", "--max-iter", "0", "--gamma", "1000"),
])
def test_commands_reject_flags_they_do_not_read(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err


def test_exit_1_on_gamma_outside_certified_interval(capsys, tmp_path):
    # at gamma = 1000 the forward-backward iteration overflows d to ~1e155
    rng = np.random.default_rng(5)
    sets = [{"type": "ball", "center": list(rng.normal(size=2) * 3), "radius": 1.0}
            for _ in range(5)]
    path = write_json(tmp_path, "five_ball.json",
                      {"base_dimension": 2, "sets": sets})
    code, out, err = run_cli(capsys, "touch", "--problem", path, "--gamma", "1000")
    assert code == 1 and out == ""
    assert "certified interval" in err
    code, _, _ = run_cli(capsys, "touch", "--problem", path)
    assert code == 0


@pytest.mark.parametrize("command", ["touch", "fixed-point"])
def test_gamma_override_reaches_the_solve(capsys, command):
    # two_ball's certified interval is (0, 4) and its automatic step 2
    code, out, err = run_cli(capsys, command, "--problem", TWO_BALL, "--gamma", "1000")
    assert code == 1 and out == "" and "certified interval" in err
    code, out, _ = run_cli(capsys, command, "--problem", TWO_BALL, "--gamma", "1.0")
    assert code == 0 and json.loads(out)["outputs"]["gamma"] == 1.0


def test_pass_means_certified_distance(capsys, tmp_path):
    # five balls in R^2 contract at rho = 0.8: touch stops once its error
    # bound is within tol max(1, ||d||), so at --tol 1e-6 it passes and d
    # lies within the pass threshold of a tight solve; at --tol 1e-3 it stops
    # inside its own tolerance but fails the 1e-6 pass on the bound alone
    rng = np.random.default_rng(5)
    sets = [{"type": "ball", "center": list(rng.normal(size=2) * 3), "radius": 1.0}
            for _ in range(5)]
    path = write_json(tmp_path, "five_ball.json", {"base_dimension": 2, "sets": sets})
    code_tight, out, _ = run_cli(capsys, "touch", "--problem", path, "--tol", "1e-13")
    tight = json.loads(out)
    assert code_tight == 0 and tight["pass"] is True

    code, out, _ = run_cli(capsys, "touch", "--problem", path, "--tol", "1e-6")
    certified = json.loads(out)
    threshold = 1e-6 * max(1.0, np.linalg.norm(certified["outputs"]["d"]))
    error = np.linalg.norm(
        np.subtract(certified["outputs"]["d"], tight["outputs"]["d"]))
    assert code == 0 and certified["pass"] is True
    assert certified["residuals"]["error_bound"] <= threshold
    assert error <= threshold

    code, out, _ = run_cli(capsys, "touch", "--problem", path, "--tol", "1e-3")
    loose = json.loads(out)
    threshold = 1e-6 * max(1.0, np.linalg.norm(loose["outputs"]["d"]))
    error = np.linalg.norm(np.subtract(loose["outputs"]["d"], tight["outputs"]["d"]))
    assert code == 3 and loose["pass"] is False
    assert threshold < loose["residuals"]["error_bound"]
    assert error <= loose["residuals"]["error_bound"] + tight["residuals"]["error_bound"]


def test_exit_2_on_iteration_cap(capsys):
    # two_ball is solved exactly in one step, so the cap is shown on three balls
    code, out, _ = run_cli(capsys, "cycle", "--problem", THREE_BALL,
                           "--max-iter", "2")
    doc = json.loads(out)
    assert code == 2
    assert doc["error"] == "convergence"
    assert doc["iterations"] == 2
    assert doc["residual"] > 0


def strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_reports_are_strict_json(capsys, tmp_path, monkeypatch):
    # JSON has no Infinity or NaN: a non-finite number is written as null
    # and its key path is listed under "nonfinite".  On an unbounded strip
    # the Fenchel energy of verify and the conjugate value are infinite.
    path = write_json(tmp_path, "strip.json", {"base_dimension": 2, "sets": [
        {"type": "halfspace", "normal": [0.6, 0.8], "offset": -2.0},
        {"type": "ball", "center": [3.0, 4.0], "radius": 1.0},
        {"type": "box", "lower": [-math.inf, 0.0], "upper": [math.inf, 1.0]},
    ]})
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--problem", path, "--out", str(out_file))
    assert code == 3
    doc = strict_json(out)
    assert strict_json(out_file.read_text(encoding="utf-8")) == doc
    assert doc["nonfinite"] == ["outputs.conjugate_identity_value",
                                "residuals.fenchel_energy"]
    assert doc["residuals"]["fenchel_energy"] is None
    assert doc["outputs"]["conjugate_identity_value"] is None

    # the exit-2 document of a solve that stopped on a non-finite step
    def diverge(*args, **kwargs):
        raise ConvergenceError("non-finite iterate", residual=math.nan, iterations=1)

    monkeypatch.setattr(cli, "touch", diverge)
    code, out, _ = run_cli(capsys, "touch", "--problem", TWO_BALL)
    assert code == 2
    doc = strict_json(out)
    assert doc["residual"] is None and doc["nonfinite"] == ["residual"]

    code, out, _ = run_cli(capsys, "cycle", "--problem", TWO_BALL)
    assert code == 0 and "nonfinite" not in strict_json(out)


def test_exit_0_writes_out_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "touch", "--problem", TWO_SINGLETONS,
                           "--out", str(out_path))
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == out


# ---------------------------------------------------------------- stability

def strip_timing(doc):
    doc = dict(doc)
    doc.pop("wall_time_ms")
    return doc


def test_reports_are_deterministic(capsys):
    _, out_a, _ = run_cli(capsys, "cycle", "--problem", TWO_BALL)
    _, out_b, _ = run_cli(capsys, "cycle", "--problem", TWO_BALL)
    assert strip_timing(json.loads(out_a)) == strip_timing(json.loads(out_b))


def test_cycle_report_matches_golden_file(capsys):
    frozen = json.loads((GOLDEN / "two_ball_cycle.json").read_text())
    _, out, _ = run_cli(capsys, "cycle", "--problem", TWO_BALL)
    assert strip_timing(json.loads(out)) == strip_timing(frozen)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "montouch.cli",
         "touch", "--problem", TWO_SINGLETONS],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["command"] == "touch" and doc["pass"] is True
