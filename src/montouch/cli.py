"""Command-line front end: JSON problem files in, a JSON report out.

Commands
--------
check-unmonotone  --matrix FILE --mu X     strong anti-monotonicity check
touch             --problem FILE [--lambda X]   touching point of the family
fixed-point       --problem FILE [--lambda X]   same point via M o T
cycle             --problem FILE             generalized cycle / gap vector
verify            --problem FILE             the same plus the classical sweep

Exit status: 0 the run passed its checks, 1 input or usage error, 2 a solver
hit its iteration cap, 3 the run completed but a check failed.  Reports are
deterministic for a fixed input file except for ``wall_time_ms``.
"""

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .convex import AffineSet, Ball, Box, Halfspace, Singleton
from .cycles import (
    build_problem,
    classical_cycle,
    generalized_cycle,
    touching_pair,
    verify_identities,
)
from .errors import ConvergenceError, ParseError
from .hilbert import as_operator, orthonormal_range
from .monotone import is_mu_unmonotone
from .touching import _pass_threshold, touch

@dataclass
class SolverSettings:
    tolerance: float = 1e-10
    max_iterations: int = 100000
    gamma: object = "auto"


@dataclass
class ProblemSpec:
    base_dimension: int
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


def _vector_field(entry, key, dim, where):
    _require(key in entry, f"{where}.{key} is missing")
    value = entry[key]
    _require(
        isinstance(value, list) and all(isinstance(v, (int, float)) for v in value),
        f"{where}.{key} must be a list of numbers",
    )
    _require(
        len(value) == dim,
        f"{where}.{key} has length {len(value)}, expected {dim}",
    )
    return [float(v) for v in value]


def _number_field(entry, key, where):
    _require(key in entry, f"{where}.{key} is missing")
    value = entry[key]
    _require(isinstance(value, (int, float)), f"{where}.{key} must be a number")
    return float(value)


def _build_set(entry, dim, where):
    _require(isinstance(entry, dict), f"{where} must be an object")
    _require("type" in entry, f"{where}.type is missing")
    kind = entry["type"]
    if kind == "ball":
        return Ball(_vector_field(entry, "center", dim, where),
                    _number_field(entry, "radius", where))
    if kind == "box":
        return Box(_vector_field(entry, "lower", dim, where),
                   _vector_field(entry, "upper", dim, where))
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
            _vector_field({"v": v}, "v", dim, f"{where}.spanning[{i}]")
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
    _require(isinstance(dim, int) and dim >= 1, "base_dimension must be a positive integer")
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
    _require(isinstance(solver["tolerance"], (int, float)) and solver["tolerance"] > 0,
             "solver.tolerance must be a positive number")
    _require(isinstance(solver["max_iterations"], int) and solver["max_iterations"] >= 1,
             "solver.max_iterations must be a positive integer")
    gamma = solver["gamma"]
    _require(gamma == "auto" or (isinstance(gamma, (int, float)) and gamma > 0),
             'solver.gamma must be "auto" or a positive number')

    spec = ProblemSpec(
        base_dimension=dim,
        sets=sets,
        solver=SolverSettings(
            tolerance=float(solver["tolerance"]),
            max_iterations=int(solver["max_iterations"]),
            gamma=gamma if gamma == "auto" else float(gamma),
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
            isinstance(r, list) and all(isinstance(v, (int, float)) for v in r)
            for r in rows
        ),
        "matrix must be a non-empty list of rows of numbers",
    )
    _require(all(len(r) == len(rows) for r in rows), "matrix must be square")
    try:
        return as_operator(rows, square=True), digest
    except ValueError as err:
        raise ParseError(f"matrix: {err}") from err


def execute(command, args):
    """Run one command and assemble its Report."""
    t0 = time.perf_counter()

    if command == "check-unmonotone":
        matrix, digest = parse_matrix(args.matrix)
        if args.mu is None or args.mu <= 0:
            raise ParseError("--mu must be a positive number")
        holds, cert = is_mu_unmonotone(matrix, args.mu)
        outputs = {
            "unmonotone": bool(holds),
            "mu": cert.mu,
            "max_eig": cert.max_eig,
            "operator_norm": cert.operator_norm,
        }
        return Report(
            command=command,
            inputs_digest=digest,
            outputs=outputs,
            residuals={"max_eig": cert.max_eig},
            passed=bool(holds),
            iterations=0,
            wall_time_ms=(time.perf_counter() - t0) * 1000.0,
        )

    spec, digest = parse_problem(args.problem)
    settings = spec.solver
    if args.tol is not None:
        settings.tolerance = args.tol
    if args.max_iter is not None:
        settings.max_iterations = args.max_iter
    problem = build_problem(spec.sets)

    if command in ("touch", "fixed-point"):
        # fixed-point is touch on Q = T^{-1}: the same solve and the same gate
        oracle, q = touching_pair(problem)
        res = touch(
            oracle, q, args.lam,
            tol=settings.tolerance, max_iter=settings.max_iterations,
            gamma=settings.gamma if args.gamma is None else args.gamma,
        )
        outputs = {
            "d": res.d,
            "e": res.e,
            "gamma": res.gamma,
            "rho": res.rho,
            "lambda": args.lam,
        }
        return Report(
            command=command,
            inputs_digest=digest,
            outputs=outputs,
            residuals={
                "graph_residual": res.graph_residual,
                "error_bound": res.error_bound,
            },
            passed=res.error_bound <= _pass_threshold(res.d),
            iterations=res.iterations,
            wall_time_ms=(time.perf_counter() - t0) * 1000.0,
        )

    if command in ("cycle", "verify"):
        solution = generalized_cycle(
            problem, tol=settings.tolerance, max_iter=settings.max_iterations
        )
        if command == "verify":
            solution.classical_cycle = classical_cycle(
                problem, tol=settings.tolerance, max_iter=settings.max_iterations
            )
        report = verify_identities(problem, solution)
        outputs = {
            "d": solution.d,
            "e": solution.e,
            "conjugate_identity_value": report.details["conjugate_identity_value"],
            "thresholds": report.thresholds,
        }
        if command == "verify":
            outputs["classical_cycle"] = solution.classical_cycle
        return Report(
            command=command,
            inputs_digest=digest,
            outputs=outputs,
            residuals=report.residuals,
            passed=report.passed,
            iterations=solution.iterations,
            wall_time_ms=(time.perf_counter() - t0) * 1000.0,
        )

    raise ParseError(f"unknown command {command!r}")


def _gamma_flag(value):
    if value == "auto":
        return value
    try:
        parsed = float(value)
    except ValueError as err:
        raise argparse.ArgumentTypeError('expected "auto" or a number') from err
    if parsed <= 0:
        raise argparse.ArgumentTypeError("gamma must be positive")
    return parsed


def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", default=None,
                        help="also write the JSON report to this file")
    solve = argparse.ArgumentParser(add_help=False, parents=[shared])
    solve.add_argument("--tol", type=float, default=None,
                       help="override solver tolerance")
    solve.add_argument("--max-iter", type=int, default=None,
                       help="override solver iteration cap")

    parser = argparse.ArgumentParser(
        prog="montouch",
        description="Touching points of monotone operator graphs and "
                    "generalized cycles of convex set families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-unmonotone", parents=[shared],
                       help="certify strong anti-monotonicity of a matrix")
    p.add_argument("--matrix", required=True, help="JSON file with a matrix key")
    p.add_argument("--mu", type=float, required=True, help="modulus to certify")

    for name, extra in (
        ("touch", "touching point of the family's product-space operators"),
        ("fixed-point", "the same point computed as a fixed point"),
        ("cycle", "generalized cycle and gap vector"),
        ("verify", "generalized cycle plus the classical projection sweep"),
    ):
        p = sub.add_parser(name, parents=[solve], help=extra)
        p.add_argument("--problem", required=True, help="JSON problem file")
        if name in ("touch", "fixed-point"):
            p.add_argument("--lambda", dest="lam", type=float, default=0.5,
                           help="quadratic-form gate constant (default 0.5); "
                                "it only gates, the step comes from Q itself")
            p.add_argument("--gamma", type=_gamma_flag, default=None,
                           help='override step size: "auto" (the step that '
                                'minimises rho = ||I + gamma Q||) or a number '
                                'with ||I + gamma Q|| < 1')

    return parser


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
        print(_json_text({
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

    text = report.to_json()
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0 if report.passed else 3


if __name__ == "__main__":
    raise SystemExit(main())
