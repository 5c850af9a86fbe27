"""Command-line front end: one JSON input file in, one JSON report on stdout.

Commands
--------
check-unmonotone  --matrix FILE --mu X     strong anti-monotonicity check
touch             --problem FILE           touching point of the family
fixed-point       --problem FILE           the same solve as touch
cycle             --problem FILE           generalized cycle / gap vector
verify            --problem FILE           the same plus the classical sweep

A solve reads its tolerance and iteration cap from the problem file's
solver block and nowhere else, and the report goes to stdout only.

Exit status: 0 the run passed its checks, 1 input or usage error, 2 a solver
hit its iteration cap, 3 the run completed but a check failed.  Reports are
deterministic for a fixed input file except for ``wall_time_ms``.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .convex import AffineSet, Ball, Box, Halfspace, Singleton
from .cycles import (
    CYCLE_LAM,
    build_problem,
    classical_cycle,
    generalized_cycle,
    touching_pair,
    verify_identities,
)
from .errors import ConvergenceError, ParseError
from .hilbert import as_operator, orthonormal_range, scaled_tol
from .monotone import is_mu_unmonotone
from .touching import PASS_TOL, touch

@dataclass
class SolverSettings:
    tolerance: float = 1e-10
    max_iterations: int = 100000


@dataclass
class ProblemSpec:
    sets: list
    solver: SolverSettings = field(default_factory=SolverSettings)


@dataclass
class Report:
    command: str
    inputs_digest: str
    outputs: dict
    residuals: dict
    passed: bool
    iterations: int
    wall_time_ms: float

    def to_json(self):
        return _json_text({
            "command": self.command,
            "inputs_digest": self.inputs_digest,
            "outputs": self.outputs,
            "residuals": self.residuals,
            "pass": bool(self.passed),
            "iterations": int(self.iterations),
            "wall_time_ms": float(self.wall_time_ms),
        })


def _json_text(doc):
    """Strict JSON for a report: each non-finite number is written as null
    and its key path listed under ``nonfinite``, instead of the
    ``Infinity`` / ``NaN`` tokens that JSON does not have."""
    nonfinite = []
    doc = _jsonable(doc, "", nonfinite)
    if nonfinite:
        doc["nonfinite"] = nonfinite
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)


def _jsonable(obj, path, nonfinite):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v, f"{path}.{k}" if path else str(k), nonfinite)
                for k, v in obj.items()}
    if isinstance(obj, np.ndarray) and np.all(np.isfinite(obj)):
        return obj.astype(float).tolist()  # finite: no per-entry paths to build
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v, f"{path}[{i}]", nonfinite) for i, v in enumerate(obj)]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        if math.isfinite(obj):
            return float(obj)
        nonfinite.append(path)
        return None
    return obj


def _require(cond, message):
    if not cond:
        raise ParseError(message)


# json.loads yields exactly int or float for a number; true / false load as
# bool, which isinstance would count as an int
_NUMBER_TYPES = {int, float}


def _is_number(value):
    return type(value) in _NUMBER_TYPES


def _all_numbers(values):
    return set(map(type, values)) <= _NUMBER_TYPES


def _floats(values, message):
    """float() of JSON numbers; a JSON integer beyond the float range
    raises ParseError(message) here rather than OverflowError."""
    try:
        return [float(v) for v in values]
    except OverflowError:
        raise ParseError(message) from None


def _tolerance(value):
    message = "solver.tolerance must be a positive finite number"
    _require(_is_number(value) and 0 < value < math.inf, message)
    return _floats([value], message)[0]


def _max_iterations(value):
    _require(type(value) is int and value >= 1,
             "solver.max_iterations must be a positive integer")
    return value


def _vector_field(entry, key, dim, where, unbounded=None):
    """A list of ``dim`` finite numbers; ``unbounded`` (-inf for a box's
    lower bound, +inf for its upper) is the one infinity a field may hold."""
    _require(key in entry, f"{where}.{key} is missing")
    value = entry[key]
    _require(
        isinstance(value, list) and _all_numbers(value),
        f"{where}.{key} must be a list of numbers",
    )
    _require(
        len(value) == dim,
        f"{where}.{key} has length {len(value)}, expected {dim}",
    )
    values = _floats(value, f"{where}.{key} has an entry beyond the float range")
    message = f"{where}.{key} entries must be finite"
    if unbounded is not None:
        message += f" or {json.dumps(unbounded)}"
    _require(all(math.isfinite(v) or v == unbounded for v in values), message)
    return values


def _number_field(entry, key, where):
    _require(key in entry, f"{where}.{key} is missing")
    value = entry[key]
    _require(_is_number(value), f"{where}.{key} must be a number")
    message = f"{where}.{key} must be finite"
    _require(-math.inf < value < math.inf, message)
    return _floats([value], message)[0]


def _build_set(entry, dim, where):
    _require(isinstance(entry, dict), f"{where} must be an object")
    _require("type" in entry, f"{where}.type is missing")
    kind = entry["type"]
    if kind == "ball":
        return Ball(_vector_field(entry, "center", dim, where),
                    _number_field(entry, "radius", where))
    if kind == "box":
        return Box(_vector_field(entry, "lower", dim, where, -math.inf),
                   _vector_field(entry, "upper", dim, where, math.inf))
    if kind == "halfspace":
        return Halfspace(_vector_field(entry, "normal", dim, where),
                         _number_field(entry, "offset", where))
    if kind == "singleton":
        return Singleton(_vector_field(entry, "point", dim, where))
    if kind == "affine":
        base = _vector_field(entry, "basepoint", dim, where)
        spanning = entry.get("spanning", [])
        _require(isinstance(spanning, list), f"{where}.spanning must be a list")
        vectors = [
            _vector_field({f"spanning[{i}]": v}, f"spanning[{i}]", dim, where)
            for i, v in enumerate(spanning)
        ]
        matrix = np.array(vectors, dtype=float).T if vectors else np.zeros((dim, 0))
        return AffineSet(base, orthonormal_range(matrix))
    raise ParseError(f"{where}.type is unknown: {kind!r}")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    try:
        return json.loads(text), hashlib.sha256(text.encode("utf-8")).hexdigest()
    except json.JSONDecodeError as err:
        raise ParseError(
            f"{path} is not valid JSON (line {err.lineno}, column {err.colno}): {err.msg}"
        ) from err


def parse_problem(path):
    """Read and validate a problem file; ParseError names the bad field."""
    doc, digest = _load_json(path)
    _require(isinstance(doc, dict), "problem file must contain a JSON object")
    _require("base_dimension" in doc, "base_dimension is missing")
    dim = doc["base_dimension"]
    _require(type(dim) is int and dim >= 1, "base_dimension must be a positive integer")
    _require("sets" in doc, "sets is missing")
    raw_sets = doc["sets"]
    _require(isinstance(raw_sets, list) and len(raw_sets) >= 2,
             "sets must be a list with at least two entries")
    sets = [_build_set(entry, dim, f"sets[{i}]") for i, entry in enumerate(raw_sets)]

    solver = asdict(SolverSettings())
    raw_solver = doc.get("solver", {})
    _require(isinstance(raw_solver, dict), "solver must be an object")
    for key in raw_solver:
        _require(key in solver, f"solver.{key} is not a recognised option")
    solver.update(raw_solver)

    spec = ProblemSpec(
        sets=sets,
        solver=SolverSettings(
            tolerance=_tolerance(solver["tolerance"]),
            max_iterations=_max_iterations(solver["max_iterations"]),
        ),
    )
    return spec, digest


def parse_matrix(path):
    """Read a square matrix from a JSON file with a "matrix" key."""
    doc, digest = _load_json(path)
    _require(isinstance(doc, dict) and "matrix" in doc, "matrix is missing")
    rows = doc["matrix"]
    _require(
        isinstance(rows, list)
        and rows
        and all(
            isinstance(r, list) and _all_numbers(r)
            for r in rows
        ),
        "matrix must be a non-empty list of rows of numbers",
    )
    _require(all(len(r) == len(rows) for r in rows), "matrix must be square")
    rows = [_floats(r, "matrix has an entry beyond the float range") for r in rows]
    try:
        return as_operator(rows, square=True), digest
    except ValueError as err:
        raise ParseError(f"matrix: {err}") from err


def _check_unmonotone(matrix, mu):
    holds, cert = is_mu_unmonotone(matrix, mu)
    outputs = {
        "unmonotone": bool(holds),
        "mu": cert.mu,
        "max_eig": cert.max_eig,
        "operator_norm": cert.operator_norm,
    }
    return outputs, {"max_eig": cert.max_eig}, bool(holds), 0


def _solve(command, problem, solver):
    """Outputs, residuals, pass and iterations of one solve command."""
    limits = {"tol": solver.tolerance, "max_iter": solver.max_iterations}
    if command in ("touch", "fixed-point"):
        # fixed-point is touch on Q = T^{-1}: the same solve as the cycle's
        oracle, q = touching_pair(problem)
        res = touch(oracle, q, CYCLE_LAM, **limits)
        outputs = {"d": res.d, "e": res.e, "gamma": res.gamma, "rho": res.rho}
        residuals = {"graph_residual": res.graph_residual,
                     "error_bound": res.error_bound}
        passed = res.error_bound <= scaled_tol(PASS_TOL, math.sqrt(res.d.dot(res.d)))
        return outputs, residuals, passed, res.iterations
    if command not in ("cycle", "verify"):
        raise ParseError(f"unknown command {command!r}")
    solution = generalized_cycle(problem, **limits)
    if command == "verify":
        solution.classical_cycle = classical_cycle(problem, **limits)
    report = verify_identities(problem, solution)
    outputs = {"d": solution.d, "e": solution.e, "thresholds": report.thresholds}
    if command == "verify":
        outputs["classical_cycle"] = solution.classical_cycle
    return outputs, report.residuals, report.passed, solution.iterations


def execute(command, args):
    """Run one command and assemble its Report."""
    t0 = time.perf_counter()
    if command == "check-unmonotone":
        matrix, digest = parse_matrix(args.matrix)
        result = _check_unmonotone(matrix, args.mu)
    else:
        spec, digest = parse_problem(args.problem)
        result = _solve(command, build_problem(spec.sets), spec.solver)
    return Report(command, digest, *result,
                  wall_time_ms=(time.perf_counter() - t0) * 1000.0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="montouch",
        description="Touching points of monotone operator graphs and "
                    "generalized cycles of convex set families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-unmonotone",
                       help="certify strong anti-monotonicity of a matrix")
    p.add_argument("--matrix", required=True, help="JSON file with a matrix key")
    p.add_argument("--mu", type=float, required=True, help="modulus to certify")

    for name, extra in (
        ("touch", "touching point of the family's product-space operators"),
        ("fixed-point", "the same solve as touch"),
        ("cycle", "generalized cycle and gap vector"),
        ("verify", "generalized cycle plus the classical projection sweep"),
    ):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--problem", required=True, help="JSON problem file")

    return parser


def _print(text):
    # a reader that closes stdout early (``| head``) ends the output, not the
    # run; stdout then points at the null device, so the flush at exit passes
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, but exit
        # status 2 here means an iteration cap
        return 0 if exc.code == 0 else 1
    try:
        report = execute(args.command, args)
    except ConvergenceError as err:
        _print(_json_text({
            "command": args.command,
            "error": "convergence",
            "message": str(err),
            "residual": err.residual,
            "iterations": err.iterations,
        }))
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    _print(report.to_json())
    return 0 if report.passed else 3


if __name__ == "__main__":
    raise SystemExit(main())
