"""Seeded workloads: problem generators and the request each one sends.

A workload turns a seed into blocks of problems plus one warm-up problem.
Every block holds one problem of each structural class of the workload
(number of sets, dimension, command), in a seeded order.  Runs measure
whole blocks, so every run sees the same mix of problem shapes and
per-run medians do not depend on which shapes a seed happened to draw.  The
geometry (centres, radii, widths, which sets are balls, the operator Q)
is random.

The program sees nothing but the generated inputs: library set and oracle
objects for ``touch_generic``, JSON problem files for ``cli_touch_wide``.
Every request looks the montouch entry point up at call time, so the
tracer's wrappers are seen when they are installed.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import montouch
import montouch.cli

# Blocks generated per seed.  A block holds one problem of every
# structural class of the workload, in a seeded order; runs measure whole
# blocks, so every run sees the same mix of classes.
BLOCKS_PER_SEED = 12
# The gate constant every request passes to the solver.
LAM = 0.5


@dataclass
class Problem:
    """One request's input.

    ``spec`` holds the raw numbers the reference checker works from;
    ``payload`` is what the program receives (objects or a file path).
    """

    pid: str
    spec: dict
    payload: object


@dataclass
class Outcome:
    """What a request returned: whether the program reported success, why
    not, and the gap vector / cycle (or touching pair) when it produced one."""

    passed: bool
    reason: str
    d: np.ndarray = None
    e: np.ndarray = None
    wrong: bool = False


# ------------------------------------------------------------------ geometry


def _compact_set(rng, dim, kind):
    # Same distribution as the acceptance corpus in the test suite.
    center = rng.normal(scale=2.0, size=dim)
    if kind == "ball":
        return {"type": "ball", "center": center, "radius": float(rng.uniform(0.3, 1.5))}
    half = rng.uniform(0.2, 1.2, size=dim)
    return {"type": "box", "lower": center - half, "upper": center + half}


def _library_set(entry):
    if entry["type"] == "ball":
        return montouch.Ball(entry["center"], entry["radius"])
    return montouch.Box(entry["lower"], entry["upper"])


def _json_set(entry):
    if entry["type"] == "ball":
        return {"type": "ball", "center": entry["center"].tolist(), "radius": entry["radius"]}
    return {"type": "box", "lower": entry["lower"].tolist(), "upper": entry["upper"].tolist()}


def _family(rng, dim, kinds):
    return [_compact_set(rng, dim, kind) for kind in kinds]


def _schedule(rng, classes):
    """(block index, class) pairs: BLOCKS_PER_SEED blocks, each a seeded
    permutation of ``classes``."""
    for block in range(BLOCKS_PER_SEED):
        for i in rng.permutation(len(classes)):
            yield block, classes[i]


# ------------------------------------------------------------------ cli_touch_wide


def _write_problem(workdir, pid, dim, sets):
    path = Path(workdir) / f"{pid}.json"
    doc = {"base_dimension": dim, "sets": [_json_set(s) for s in sets]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _cli_problem(workdir, pid, dim, sets, argv_head):
    path = _write_problem(workdir, pid, dim, sets)
    return Problem(pid, {"sets": sets}, argv_head + ["--problem", path])


def gen_cli_touch_wide(rng, workdir):
    classes = [(n_sets, command, dim) for n_sets in (2, 3)
               for command in ("touch", "fixed-point") for dim in (150, 225, 300)]
    problems = []
    for k, (_, (n_sets, command, dim)) in enumerate(_schedule(rng, classes)):
        sets = _family(rng, dim, ["ball"] * n_sets)
        pid = f"p{k:02d}-{command}-N{n_sets}-m{dim}"
        problems.append(_cli_problem(workdir, pid, dim, sets, [command]))
    # Nm = 300 reaches the dense LAPACK paths, so their first-call cost
    # lands in set-up rather than in the first timed request.
    warm = _cli_problem(workdir, "warmup-touch-N2-m150", 150, _family(rng, 150, ["ball"] * 2),
                        ["touch"])
    return problems, len(classes), warm


def read_report(text):
    """Parse a CLI report.  The CLI writes Python's non-standard
    ``Infinity`` / ``NaN`` tokens for non-finite numbers; accept them."""
    constants = {"Infinity": math.inf, "-Infinity": -math.inf, "NaN": math.nan}
    return json.loads(text, parse_constant=constants.__getitem__)


def run_cli(problem):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = montouch.cli.main(problem.payload)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
    if code == 1:
        return Outcome(False, f"exit 1: {err.getvalue().strip()[:200]}")
    report = read_report(out.getvalue())
    if code == 2:
        return Outcome(False, f"exit 2: {report.get('message', '')[:200]}")
    outputs = report["outputs"]
    d = np.asarray(outputs["d"], dtype=float)
    e = np.asarray(outputs["e"], dtype=float)
    if code != 0 or not report["pass"]:
        thresholds = outputs.get("thresholds", {})
        over = sorted(k for k, v in report["residuals"].items()
                      if not v <= thresholds.get(k, math.inf))
        return Outcome(False, f"exit {code}, pass {report['pass']}, over threshold {over}", d, e)
    return Outcome(True, "", d, e)


# ------------------------------------------------------------------ touch_generic


def _gate_matrix(rng, dim, lam, norm):
    """Random Q with largest symmetric eigenvalue -lam and ||Q|| close to
    ``norm``.

    Q(s) = s (G - g I) - lam I, with g the top symmetric eigenvalue of G,
    keeps the symmetric top at -lam for every s >= 0.  ||Q(s)|| is convex
    in s and below ``norm`` at s = 0, so a few secant steps find s.
    """
    g = rng.normal(size=(dim, dim)) / math.sqrt(dim)
    g = g - np.linalg.eigvalsh(0.5 * (g + g.T))[-1] * np.eye(dim)

    def miss(s):
        return np.linalg.norm(s * g - lam * np.eye(dim), 2) - norm

    s0, s1 = 0.0, norm / np.linalg.norm(g, 2)
    f0, f1 = miss(s0), miss(s1)
    for _ in range(20):
        if abs(f1) <= 1e-9 * norm:
            break
        s0, s1 = s1, s1 - f1 * (s1 - s0) / (f1 - f0)
        f0, f1 = f1, miss(s1)
    return s1 * g - lam * np.eye(dim)


BLOCK_DIM = 4


def _generic_problem(rng, pid, dim):
    blocks = []
    for _ in range(dim // BLOCK_DIM):
        kind = "ball" if rng.random() < 0.5 else "box"
        blocks.append(_compact_set(rng, BLOCK_DIM, kind))
    q = _gate_matrix(rng, dim, LAM, 3.0)
    parts = tuple(
        montouch.Support(_library_set(b)) if b["type"] == "ball"
        else montouch.Indicator(_library_set(b))
        for b in blocks
    )
    oracle = montouch.SubdifferentialOracle(montouch.SeparableSum(parts))
    return Problem(pid, {"blocks": blocks, "q": q}, (oracle, q))


def gen_touch_generic(rng, workdir):
    classes = [20, 28, 36, 44, 52, 60]
    problems = [_generic_problem(rng, f"p{k:02d}-n{dim}", dim)
                for k, (_, dim) in enumerate(_schedule(rng, classes))]
    return problems, len(classes), _generic_problem(rng, "warmup-n20", 20)


def run_touch_generic(problem):
    oracle, q = problem.payload
    res = montouch.touch(oracle, q, LAM)
    scale = max(1.0, float(np.linalg.norm(res.d)))
    passed = bool(res.graph_residual <= 1e-6 * scale)
    reason = "" if passed else f"graph residual {res.graph_residual:.3e}"
    return Outcome(passed, reason, res.d, res.e)


@dataclass(frozen=True)
class Workload:
    """``nominal_requests`` is about the lowest request count of a
    50-second run at the commit that defined the benchmark, in whole
    blocks, on the machine it was defined on; it fixes the tail percentile
    so that the percentile does not move with the count a run happens to
    reach, and so that nearly every run has ten requests beyond it."""

    name: str
    generate: object
    run: object
    reference: str  # "cycle" or "touch"
    uses_cli: bool
    nominal_requests: int

    @property
    def tail_percentile(self):
        """Highest percentile with ten requests beyond it at the nominal count."""
        return 100.0 * (self.nominal_requests - 10) / self.nominal_requests


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli_touch_wide", gen_cli_touch_wide, run_cli, "cycle", True, 144),
        Workload("touch_generic", gen_touch_generic, run_touch_generic, "touch", False, 84),
    )
}
