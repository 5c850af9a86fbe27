"""End-to-end tests for the command-line interface.

Fixed problem files live in tests/data; the frozen report in tests/golden
pins the exact JSON the cycle command must keep producing for a fixed
input file (all keys except wall_time_ms).
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from montouch import (
    build_problem,
    classical_cycle,
    cli,
    generalized_cycle,
    monotone,
    verify_identities,
)
from montouch.errors import ConvergenceError, ParseError

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"

TWO_BALL = str(DATA / "two_ball.json")
TWO_SINGLETONS = str(DATA / "two_singletons.json")
THREE_BALL = str(DATA / "three_ball.json")
NEG_IDENTITY = str(DATA / "neg_identity.json")
SOLVE_COMMANDS = ("touch", "fixed-point", "cycle", "verify")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def with_solver(tmp_path, problem, **solver):
    """A copy of the problem file ``problem`` with this solver block."""
    doc = json.loads(Path(problem).read_text(encoding="utf-8"))
    doc["solver"] = solver
    return write_json(tmp_path, "with_solver.json", doc)


def strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


# ---------------------------------------------------------------- parsing

def test_parse_problem_reads_sets_and_solver():
    spec, digest = cli.parse_problem(TWO_BALL)
    assert [s.ambient_dim for s in spec.sets] == [2, 2]
    assert spec.solver.tolerance == 1e-10
    assert spec.solver.max_iterations == 100000
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
    # JSON true is a bool, which Python counts as the int 1
    ({"base_dimension": 2,
      "sets": [{"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
               {"type": "ball", "center": [5.0, 0.0], "radius": True}]},
     "sets[1].radius must be a number"),
    ({"base_dimension": 2,
      "sets": [{"type": "ball", "center": [True, 0.0], "radius": 1.0},
               {"type": "ball", "center": [5.0, 0.0], "radius": 1.0}]},
     "sets[0].center must be a list of numbers"),
    ({"base_dimension": True,
      "sets": [{"type": "singleton", "point": [0.0]},
               {"type": "singleton", "point": [1.0]}]},
     "base_dimension must be a positive integer"),
    ({"base_dimension": 1,
      "sets": [{"type": "singleton", "point": [0.0]},
               {"type": "singleton", "point": [1.0]}],
      "solver": {"max_iterations": True}},
     "solver.max_iterations must be a positive integer"),
    # json.dumps writes the Infinity token, which json.loads accepts
    ({"base_dimension": 1,
      "sets": [{"type": "singleton", "point": [0.0]},
               {"type": "singleton", "point": [1.0]}],
      "solver": {"tolerance": math.inf}},
     "solver.tolerance must be a positive finite number"),
    ({"base_dimension": 1,
      "sets": [{"type": "singleton", "point": [0.0]},
               {"type": "singleton", "point": [1.0]}],
      "solver": {"tolerance": 0}},
     "solver.tolerance must be a positive finite number"),
    # a non-finite offset makes every projection onto the halfspace NaN
    ({"base_dimension": 2,
      "sets": [{"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
               {"type": "halfspace", "normal": [1.0, 0.0], "offset": math.nan}]},
     "sets[1].offset must be finite"),
    ({"base_dimension": 2,
      "sets": [{"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
               {"type": "halfspace", "normal": [1.0, 0.0], "offset": -math.inf}]},
     "sets[1].offset must be finite"),
    # json.loads keeps a 401-digit integer exact, and float() of it raises
    # OverflowError, which the CLI would print as a traceback
    ({"base_dimension": 2,
      "sets": [{"type": "ball", "center": [0.0, 0.0], "radius": 10 ** 400},
               {"type": "ball", "center": [5.0, 0.0], "radius": 1.0}]},
     "sets[0].radius must be finite"),
    ({"base_dimension": 2,
      "sets": [{"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
               {"type": "halfspace", "normal": [1.0, 0.0], "offset": -10 ** 400}]},
     "sets[1].offset must be finite"),
    ({"base_dimension": 2,
      "sets": [{"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
               {"type": "ball", "center": [5.0, 10 ** 400], "radius": 1.0}]},
     "sets[1].center has an entry beyond the float range"),
    ({"base_dimension": 1,
      "sets": [{"type": "singleton", "point": [0.0]},
               {"type": "singleton", "point": [1.0]}],
      "solver": {"tolerance": 10 ** 400}},
     "solver.tolerance must be a positive finite number"),
    # unchecked, a negative or NaN tolerance ran on to the iteration cap
    ({"base_dimension": 1,
      "sets": [{"type": "singleton", "point": [0.0]},
               {"type": "singleton", "point": [1.0]}],
      "solver": {"tolerance": -1}},
     "solver.tolerance must be a positive finite number"),
    ({"base_dimension": 1,
      "sets": [{"type": "singleton", "point": [0.0]},
               {"type": "singleton", "point": [1.0]}],
      "solver": {"tolerance": math.nan}},
     "solver.tolerance must be a positive finite number"),
    ({"base_dimension": 1,
      "sets": [{"type": "singleton", "point": [0.0]},
               {"type": "singleton", "point": [1.0]}],
      "solver": {"max_iterations": 0}},
     "solver.max_iterations must be a positive integer"),
    # non-finite vector entries are named by their field, not left for the
    # set constructor or the solve to trip over
    ({"base_dimension": 2,
      "sets": [{"type": "ball", "center": [math.inf, 0.0], "radius": 1.0},
               {"type": "ball", "center": [5.0, 0.0], "radius": 1.0}]},
     "sets[0].center entries must be finite"),
    ({"base_dimension": 2,
      "sets": [{"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
               {"type": "singleton", "point": [math.nan, 0.0]}]},
     "sets[1].point entries must be finite"),
    ({"base_dimension": 2,
      "sets": [{"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
               {"type": "halfspace", "normal": [-math.inf, 0.0], "offset": 1.0}]},
     "sets[1].normal entries must be finite"),
    ({"base_dimension": 2,
      "sets": [{"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
               {"type": "affine", "basepoint": [0.0, math.nan], "spanning": []}]},
     "sets[1].basepoint entries must be finite"),
    ({"base_dimension": 2,
      "sets": [{"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
               {"type": "affine", "basepoint": [0.0, 0.0],
                "spanning": [[1.0, 0.0], [1e999, 1.0]]}]},
     "sets[1].spanning[1] entries must be finite"),
    ({"base_dimension": 2,
      "sets": [{"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
               {"type": "box", "lower": [math.nan, 0.0], "upper": [1.0, 1.0]}]},
     "sets[1].lower entries must be finite or -Infinity"),
    # a lower bound of +inf or an upper bound of -inf leaves the box empty
    ({"base_dimension": 2,
      "sets": [{"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
               {"type": "box", "lower": [math.inf, 0.0], "upper": [math.inf, 1.0]}]},
     "sets[1].lower entries must be finite or -Infinity"),
    ({"base_dimension": 2,
      "sets": [{"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
               {"type": "box", "lower": [-math.inf, -math.inf],
                "upper": [-math.inf, 1.0]}]},
     "sets[1].upper entries must be finite or Infinity"),
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
    ({"matrix": [[True, 0.0], [0.0, -1.0]]}, "rows of numbers"),
    ({"matrix": [[-1, 0], [0, -10 ** 400]]}, "matrix has an entry beyond the float range"),
])
def test_parse_matrix_rejects_bad_input(tmp_path, doc, fragment):
    path = write_json(tmp_path, "m.json", doc)
    with pytest.raises(ParseError) as err:
        cli.parse_matrix(path)
    assert fragment in str(err.value)


def test_check_unmonotone_refuses_a_non_finite_matrix(capsys, tmp_path):
    path = write_json(tmp_path, "m.json", {"matrix": [[-1, math.inf], [0, -1]]})
    code, out, err = run_cli(capsys, "check-unmonotone", "--matrix", path, "--mu", "0.5")
    assert code == 1 and out == ""
    assert err == "error: matrix: operator entries must be finite\n"


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


@pytest.mark.parametrize("mu", ["0", "-1", "nan", "inf"])
def test_check_unmonotone_rejects_bad_mu_with_the_library_message(capsys, mu):
    code, out, err = run_cli(capsys, "check-unmonotone",
                             "--matrix", NEG_IDENTITY, "--mu", mu)
    assert code == 1 and out == ""
    assert err == "error: mu must be positive and finite\n"


def test_cycle_passes_on_a_family_a_million_units_wide(capsys, tmp_path):
    # the inner stop scales with the iterate: an absolute 1e-11 stalled here
    # at the restricted resolvent's iteration cap and exited 2
    path = write_json(tmp_path, "wide.json", {
        "base_dimension": 2,
        "sets": [
            {"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
            {"type": "ball", "center": [1e6, 3e5], "radius": 1.0},
            {"type": "ball", "center": [5e5, 1e6], "radius": 2.0},
        ],
    })
    code, out, _ = run_cli(capsys, "cycle", "--problem", path)
    doc = json.loads(out)
    assert code == 0 and doc["pass"] is True
    # verify ties the same gap vector to the classical projection cycle
    code, out, _ = run_cli(capsys, "verify", "--problem", path)
    doc = json.loads(out)
    assert code == 0 and doc["pass"] is True
    assert set(doc["residuals"]) == {"error_bound", "range_membership",
                                     "classical_shift_gap"}


def test_touch_command_on_singletons(capsys):
    code, out, _ = run_cli(capsys, "touch", "--problem", TWO_SINGLETONS)
    doc = json.loads(out)
    assert code == 0 and doc["pass"] is True
    # points 0 and 5 on the line: gap vector (5, -5), cycle midpoint shift
    assert np.allclose(doc["outputs"]["d"], [5.0, -5.0], atol=1e-8)
    assert np.allclose(doc["outputs"]["e"], [-2.5, 2.5], atol=1e-8)
    assert set(doc["outputs"]) == {"d", "e", "gamma", "rho"}
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
    # the step and the gate constant are fixed by the cycle's Q = T^{-1}
    ("touch", "--problem", TWO_BALL, "--lambda", "0.5"),
    ("touch", "--problem", TWO_BALL, "--gamma", "auto"),
    ("fixed-point", "--problem", TWO_BALL, "--lambda", "0.5"),
    ("fixed-point", "--problem", TWO_BALL, "--gamma", "1.0"),
    # a solve reads its solver settings from the problem file only, and
    # the report goes to stdout only
    *[(command, "--problem", TWO_BALL, flag, value)
      for command in SOLVE_COMMANDS
      for flag, value in (("--tol", "1e-3"), ("--max-iter", "5"),
                          ("--out", os.devnull))],
    ("check-unmonotone", "--matrix", NEG_IDENTITY, "--mu", "0.5",
     "--out", os.devnull),
])
def test_commands_reject_flags_they_do_not_read(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err


def command_flags():
    """Each command's flags, without -h / --help."""
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return {name: {opt for action in sub._actions for opt in action.option_strings
                   if opt not in ("-h", "--help")}
            for name, sub in commands.items()}


def test_build_parser_flag_inventory():
    assert command_flags() == {
        "check-unmonotone": {"--matrix", "--mu"},
        **{command: {"--problem"} for command in SOLVE_COMMANDS},
    }


def test_readme_names_only_flags_the_parser_accepts():
    # a flag removed from the parser must not live on in the docs
    section = README.read_text(encoding="utf-8").split("## Command line")[1]
    section = section.split("\n## ")[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert {"--problem", "--matrix", "--mu"} <= named
    assert named <= set().union(*command_flags().values())


def test_exit_1_on_solver_gamma_in_problem_file(capsys, tmp_path):
    doc = json.loads(Path(TWO_BALL).read_text(encoding="utf-8"))
    doc["solver"] = {"gamma": "auto"}
    path = write_json(tmp_path, "gamma.json", doc)
    for command in ("touch", "fixed-point"):
        code, out, err = run_cli(capsys, command, "--problem", path)
        assert code == 1 and out == ""
        assert "solver.gamma" in err


@pytest.mark.parametrize("flag, value", [
    ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"), ("--tol", "0"),
    ("--max-iter", "0"),
])
def test_solver_flags_follow_the_problem_file_rule(capsys, tmp_path, flag, value):
    # the settings the flags used to carry are read from the file's solver
    # block only: the flag is refused, and the file's value gets the file's
    # rule (unchecked, a negative or NaN tolerance ran on to the iteration cap)
    field = {"--tol": "tolerance", "--max-iter": "max_iterations"}[flag]
    path = with_solver(tmp_path, THREE_BALL, **{field: float(value) if flag == "--tol"
                                               else int(value)})
    for command in SOLVE_COMMANDS:
        code, out, err = run_cli(capsys, command, "--problem", THREE_BALL, flag, value)
        assert code == 1 and out == ""
        assert "unrecognized arguments" in err
        code, out, err = run_cli(capsys, command, "--problem", path)
        assert code == 1 and out == ""
        assert f"solver.{field} must be a positive" in err


@pytest.mark.parametrize("bound", [math.inf, 1e300])
def test_verify_passes_on_unbounded_strip(capsys, tmp_path, bound):
    # a half-plane, a ball and a strip whose bounds are +-bound: the support
    # function of the strip is +inf (or ~1e300) off one direction, which the
    # certificate and the classical checks never evaluate
    path = write_json(tmp_path, "strip.json", {"base_dimension": 2, "sets": [
        {"type": "halfspace", "normal": [0.6, 0.8], "offset": -2.0},
        {"type": "ball", "center": [3.0, 4.0], "radius": 1.0},
        {"type": "box", "lower": [-bound, 0.0], "upper": [bound, 1.0]},
    ]})
    code, out, _ = run_cli(capsys, "verify", "--problem", path)
    doc = strict_json(out)
    assert code == 0 and doc["pass"] is True
    assert set(doc["residuals"]) == {"error_bound", "range_membership",
                                     "classical_shift_gap"}
    assert "nonfinite" not in doc

    code, out, _ = run_cli(capsys, "cycle", "--problem", path)
    doc = strict_json(out)
    assert code == 0 and set(doc["residuals"]) == {"error_bound", "range_membership"}

    spec, _ = cli.parse_problem(path)
    problem = build_problem(spec.sets)
    solution = generalized_cycle(problem)
    solution.classical_cycle = classical_cycle(problem)
    assert solution.classical_cycle is not None
    assert verify_identities(problem, solution).passed


@pytest.mark.parametrize("spanning", [[[1.0, 0.0], [2.0, 0.0]], None])
def test_verify_on_an_affine_line_and_a_ball(capsys, tmp_path, spanning):
    # the line y = 3 (spanned by two parallel vectors, rank 1) and the unit
    # ball at the origin are 2 apart along y; without spanning the affine set
    # is the point (0, 3), and the gap is the same
    line = {"type": "affine", "basepoint": [0.0, 3.0]}
    if spanning is not None:
        line["spanning"] = spanning
    path = write_json(tmp_path, "affine.json", {"base_dimension": 2, "sets": [
        line, {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}]})
    code, out, _ = run_cli(capsys, "verify", "--problem", path)
    doc = json.loads(out)
    assert code == 0 and doc["pass"] is True
    assert np.allclose(doc["outputs"]["d"], [0.0, -2.0, 0.0, 2.0], atol=1e-8)


def test_pass_means_certified_distance(capsys, tmp_path):
    # five balls in R^2 contract at rho = 0.8: touch stops once its error
    # bound is within tol max(1, ||d||), so at tolerance 1e-6 it passes and
    # d lies within the pass threshold of a tight solve; at 1e-3 it stops
    # inside its own tolerance but fails the 1e-6 pass on the bound alone
    rng = np.random.default_rng(5)
    sets = [{"type": "ball", "center": list(rng.normal(size=2) * 3), "radius": 1.0}
            for _ in range(5)]

    def solve(tolerance):
        path = write_json(tmp_path, f"five_ball_{tolerance}.json", {
            "base_dimension": 2, "sets": sets, "solver": {"tolerance": tolerance}})
        code, out, _ = run_cli(capsys, "touch", "--problem", path)
        return code, json.loads(out)

    code_tight, tight = solve(1e-13)
    assert code_tight == 0 and tight["pass"] is True

    code, certified = solve(1e-6)
    threshold = 1e-6 * max(1.0, np.linalg.norm(certified["outputs"]["d"]))
    error = np.linalg.norm(
        np.subtract(certified["outputs"]["d"], tight["outputs"]["d"]))
    assert code == 0 and certified["pass"] is True
    assert certified["residuals"]["error_bound"] <= threshold
    assert error <= threshold

    code, loose = solve(1e-3)
    threshold = 1e-6 * max(1.0, np.linalg.norm(loose["outputs"]["d"]))
    error = np.linalg.norm(np.subtract(loose["outputs"]["d"], tight["outputs"]["d"]))
    assert code == 3 and loose["pass"] is False
    assert threshold < loose["residuals"]["error_bound"]
    assert error <= loose["residuals"]["error_bound"] + tight["residuals"]["error_bound"]


def test_exit_2_on_iteration_cap(capsys, tmp_path):
    # two_ball is solved exactly in one step, so the cap is shown on three balls
    code, out, _ = run_cli(capsys, "cycle", "--problem",
                           with_solver(tmp_path, THREE_BALL, max_iterations=2))
    doc = json.loads(out)
    assert code == 2
    assert doc["error"] == "convergence"
    assert doc["iterations"] == 2
    assert doc["residual"] > 0


@pytest.mark.parametrize("k", [1, 3])
def test_exit_2_reports_the_outer_step_of_a_stalled_resolvent(capsys, monkeypatch,
                                                              tmp_path, k):
    # the resolvent stalls from its k-th call on: the exit-2 document
    # reports the k - 1 outer steps completed and the last outer residual
    # (none before the first step), not the inner cap, and keeps its message
    real, calls = monotone.SubspaceRestrictedOracle.resolvent, []
    message = "the restricted resolvent did not converge within 3 Dykstra steps"

    def stall(*args, **kwargs):
        calls.append(1)
        if len(calls) >= k:
            raise ConvergenceError(message, residual=0.25, iterations=3)
        return real(*args, **kwargs)

    monkeypatch.setattr(monotone.SubspaceRestrictedOracle, "resolvent", stall)
    code, out, _ = run_cli(capsys, "cycle", "--problem", THREE_BALL)
    doc = json.loads(out)
    assert code == 2 and doc["iterations"] == k - 1
    assert doc["message"].endswith(message)
    monkeypatch.undo()
    if k == 1:
        assert doc["residual"] is None
    else:
        # the residual of step k - 2, the last one a run capped there measures
        code, capped, _ = run_cli(capsys, "cycle", "--problem", with_solver(
            tmp_path, THREE_BALL, max_iterations=k - 2))
        assert code == 2 and doc["residual"] == json.loads(capped)["residual"] > 0


def test_json_text_writes_nonfinite_as_null():
    # JSON has no Infinity or NaN: a non-finite number is written as null
    # and its key path is listed under "nonfinite"
    doc = strict_json(cli._json_text({
        "a": math.inf,
        "b": [1.0, -math.inf, {"c": math.nan}],
        "d": np.array([0.5, np.nan]),
        "e": {"f": np.array([[np.inf], [2.0]])},
        "g": np.array([1.0, 2.0]),
        "h": np.float64(3.0),
    }))
    assert doc["nonfinite"] == ["a", "b[1]", "b[2].c", "d[1]", "e.f[0][0]"]
    assert doc["a"] is None
    assert doc["b"] == [1.0, None, {"c": None}]
    assert doc["d"] == [0.5, None]
    assert doc["e"] == {"f": [[None], [2.0]]}
    assert doc["g"] == [1.0, 2.0] and doc["h"] == 3.0
    assert "nonfinite" not in strict_json(cli._json_text({"a": [1.0], "b": 2}))


def test_reports_are_strict_json(capsys, monkeypatch):
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


@pytest.mark.parametrize("argv, status", [
    # (command, problem file, solver block written into a copy of it)
    (("touch", TWO_BALL, {}), 0),
    (("touch", THREE_BALL, {"tolerance": 1e-3}), 3),
    (("cycle", THREE_BALL, {"max_iterations": 1}), 2),
])
def test_closed_stdout_keeps_the_exit_status(monkeypatch, capsys, tmp_path,
                                             argv, status):
    # stdout is a pipe whose reader has gone, as under ``| head``: writing
    # raises BrokenPipeError, yet the run keeps its status, prints no
    # traceback, and closing stdout afterwards flushes without an error
    command, problem, solver = argv
    argv = (command, "--problem", with_solver(tmp_path, problem, **solver))
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(list(argv)) == status
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------- stability

def strip_timing(doc):
    doc = dict(doc)
    doc.pop("wall_time_ms")
    return doc


def test_reports_are_deterministic(capsys):
    # the problem file is a solve's only input: its digest fixes the report
    for command in SOLVE_COMMANDS:
        a, b = (json.loads(run_cli(capsys, command, "--problem", THREE_BALL)[1])
                for _ in range(2))
        assert strip_timing(a) == strip_timing(b), command


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


def test_import_loads_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency: importing the package and its CLI
    # in a fresh interpreter loads no other third-party module (no scipy),
    # so start-up pays for nothing else
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import montouch, montouch.cli\n"
        "print('\\n'.join(sorted({name.partition('.')[0]\n"
        "                         for name in set(sys.modules) - before})))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert loaded - set(sys.stdlib_module_names) == {"montouch", "numpy"}
