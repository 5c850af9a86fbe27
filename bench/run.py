"""montouch benchmark: seeded workloads, checked answers, per-layer trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the library is imported from ``src/`` next to
this directory and nowhere else.  ``--trace 0`` measures the end-to-end
metrics, ``--trace 1`` the per-layer ones (see ``bench/README.md``).
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Requests run in a closed loop: one client in this process sends the next
request when the previous one returns.  Every answer is checked against
the benchmark's own reference after the timed phase.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Fresh interpreters timed for setup_s; the run itself is one of them.
SETUP_SAMPLES = 5
# Traced requests whose counts are reported; the same for every run, so
# counts repeat exactly for a seed.
TRACE_COUNTED = 4
# Traced requests whose raw spans are written out.
TRACE_KEPT = 1
PROBE_TIMEOUT_S = 150


# ------------------------------------------------------------------ setup


def _import_library():
    if not (SRC / "montouch" / "__init__.py").is_file():
        raise SystemExit(f"error: montouch sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import montouch

    if Path(montouch.__file__).resolve().parent != SRC / "montouch":
        raise SystemExit(f"error: imported montouch from {montouch.__file__}, not {SRC}")


def setup(workload_name, seed, workdir):
    """Generate the inputs into ``workdir`` and run one warm-up request;
    the library is already on the path.

    Returns (workload, problems, block size, seconds since this script
    started).
    """
    import numpy as np

    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    problems, block, warm = workload.generate(np.random.default_rng(seed), workdir)
    _attempt(workload, warm)  # untimed and unchecked
    return workload, problems, block, time.perf_counter() - _START


def _probe_setups(workload_name, seed, count):
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
             "--seed", str(seed), "--seconds", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ------------------------------------------------------------------ requests


def _attempt(workload, problem):
    from workloads import Outcome

    try:
        return workload.run(problem)
    except Exception as err:  # a request that raises is a failed request
        return Outcome(False, f"{type(err).__name__}: {str(err)[:200]}")


@dataclass
class Record:
    problem: object
    outcome: object
    seconds: float
    traced: bool = False


def _timed(workload, problem):
    t0 = time.perf_counter()
    outcome = _attempt(workload, problem)
    return Record(problem, outcome, time.perf_counter() - t0)


def closed_loop(workload, problems, block, seconds):
    """Send requests back to back, walking the problem list a whole block
    at a time, until the next block would be expected to end after
    ``seconds``."""
    records = []
    t_start = time.perf_counter()
    blocks = 0
    while True:
        first = (blocks * block) % len(problems)
        for problem in problems[first:first + block]:
            records.append(_timed(workload, problem))
        blocks += 1
        elapsed = time.perf_counter() - t_start
        if elapsed * (blocks + 1) / blocks > seconds:
            return records, elapsed


def traced_loop(workload, problems, seconds, tracer):
    """Pairs of requests on the same problem, untraced then traced, until
    at least TRACE_COUNTED pairs are done and the next pair would be
    expected to end after ``seconds``."""
    records, stats = [], []
    t_start = time.perf_counter()
    i = 0
    while True:
        problem = problems[i % len(problems)]
        records.append(_timed(workload, problem))
        tracer.install()
        tracer.begin_request()
        try:
            outcome = _attempt(workload, problem)
        finally:
            request_stats = tracer.end_request(i)
            tracer.remove()
        records.append(Record(problem, outcome, request_stats.duration, traced=True))
        stats.append(layer_values(request_stats, workload.uses_cli))
        i += 1
        elapsed = time.perf_counter() - t_start
        typical = elapsed / i
        if i >= TRACE_COUNTED and elapsed + typical > seconds:
            return records, stats


# ------------------------------------------------------------------ metrics


def _is(*names):
    wanted = frozenset(names)
    return lambda n: n in wanted


def _layer(layer):
    return lambda n: n.startswith(layer + ".")


def _method(layer, method):
    return lambda n: n.startswith(layer + ".") and n.endswith("." + method)


DENSE = _is("hilbert.orthonormal_range", "hilbert.operator_norm", "hilbert.invert",
            "hilbert.max_sym_eigenvalue")
RESOLVENT = _is("monotone.SubspaceRestrictedOracle.resolvent")
SUM_PROX = _is("monotone.sum_prox")

# (name, unit, kind): counts come from the first TRACE_COUNTED traced
# requests, times from all traced requests; both per request.
PER_LAYER = (
    ("touching.outer_iterations", "count", "count"),
    ("touching.touch_calls", "count", "count"),
    ("touching.touch_self_s", "s", "time"),
    ("monotone.resolvent_calls", "count", "count"),
    ("monotone.resolvent_self_s", "s", "time"),
    ("monotone.inner_iterations", "count", "count"),
    ("monotone.inner_per_resolvent", "ratio", "derived"),
    ("monotone.certificate_s", "s", "time"),
    ("cycles.verify_calls", "count", "count"),
    ("cycles.verify_s", "s", "time"),
    ("cycles.solve_self_s", "s", "time"),
    ("cycles.classical_s", "s", "time"),
    ("cycles.build_calls", "count", "count"),
    ("cycles.build_s", "s", "time"),
    ("hilbert.dense_calls", "count", "count"),
    ("hilbert.dense_s", "s", "time"),
    ("convex.project_calls", "count", "count"),
    ("convex.support_calls", "count", "count"),
    ("convex.prox_calls", "count", "count"),
    ("convex.self_s", "s", "time"),
    ("hilbert.as_vector_calls", "count", "count"),
    ("hilbert.project_onto_calls", "count", "count"),
    ("cli.parse_s", "s", "time"),
    ("cli.report_s", "s", "time"),
    ("cli.execute_self_s", "s", "time"),
    ("cli.verify_passes", "count", "count"),
    ("trace.unattributed_s", "s", "time"),
    ("trace.overhead_s", "s", "derived"),
)


def layer_values(s, uses_cli):
    """One traced request reduced to the per-layer metrics."""
    verify = _is("cycles.verify_identities")
    return {
        "touching.outer_iterations": s.outer_iterations,
        "touching.touch_calls": s.count(_is("touching.touch")),
        "touching.touch_self_s": s.self_time(_layer("touching")),
        "monotone.resolvent_calls": s.count(RESOLVENT),
        "monotone.resolvent_self_s": s.self_time(lambda n: RESOLVENT(n) or SUM_PROX(n)),
        "monotone.inner_iterations": s.count_under(_method("convex", "prox"), SUM_PROX),
        "monotone.certificate_s": s.inclusive(
            _is("monotone.modulus_from_lambda", "monotone.is_mu_unmonotone")),
        "cycles.verify_calls": s.count(verify),
        "cycles.verify_s": s.inclusive(verify),
        "cycles.solve_self_s": s.self_time(_is("cycles.generalized_cycle")),
        "cycles.classical_s": s.inclusive(_is("cycles.classical_cycle")),
        "cycles.build_calls": s.count(_is("cycles.build_problem")),
        "cycles.build_s": s.inclusive(_is("cycles.build_problem")),
        "hilbert.dense_calls": s.count(DENSE),
        "hilbert.dense_s": s.inclusive(DENSE),
        "convex.project_calls": s.count(_method("convex", "project")),
        "convex.support_calls": s.count(_method("convex", "support")),
        "convex.prox_calls": s.count(_method("convex", "prox")),
        "convex.self_s": s.self_time(_layer("convex")),
        "hilbert.as_vector_calls": s.count(_is("hilbert.as_vector")),
        "hilbert.project_onto_calls": s.count(_is("hilbert.project_onto")),
        "cli.parse_s": s.inclusive(_is("cli.parse_problem", "cli.parse_matrix",
                                       "cli.build_parser")),
        "cli.report_s": s.inclusive(_is("cli.Report.to_json")),
        "cli.execute_self_s": s.self_time(_is("cli.execute")),
        "cli.verify_passes": s.count(verify) if uses_cli else 0,
        "trace.unattributed_s": s.self_time(_is("request")),
    }


def per_layer_metrics(records, stats):
    counted = stats[:TRACE_COUNTED]
    out, notes = {}, {}
    for name, unit, kind in PER_LAYER:
        if kind == "count":
            value = sum(v[name] for v in counted) / len(counted)
        elif kind == "time":
            value = sum(v[name] for v in stats) / len(stats)
        else:
            continue
        out[name] = {"value": value, "unit": unit}
    resolvents = out["monotone.resolvent_calls"]["value"]
    inner = out["monotone.inner_iterations"]["value"]
    out["monotone.inner_per_resolvent"] = {
        "value": inner / resolvents if resolvents else 0.0, "unit": "ratio"}
    notes["monotone.inner_per_resolvent"] = f"base: {resolvents:g} resolvent calls per request"
    traced = statistics.median(r.seconds for r in records if r.traced)
    plain = statistics.median(r.seconds for r in records if not r.traced)
    out["trace.overhead_s"] = {"value": traced - plain, "unit": "s"}
    notes["trace.overhead_s"] = f"traced p50 {traced:.4f} s - untraced p50 {plain:.4f} s"
    notes["counts"] = f"per request over the first {len(counted)} traced requests"
    notes["times"] = f"per request over {len(stats)} traced requests"
    return {name: out[name] for name, _, _ in PER_LAYER}, notes


def end_to_end_metrics(workload, records, wall, solved, setup_samples):
    import numpy as np

    durations = [r.seconds for r in records]
    tail_pct = workload.tail_percentile
    tail_value = float(np.percentile(durations, tail_pct))
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "request_s.p50": {"value": statistics.median(durations), "unit": "s"},
        "request_s.tail": {"value": tail_value, "unit": "s"},
        "solved_per_s": {"value": solved / wall, "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": rss_kib / 1024.0, "unit": "MB"},
    }
    notes = {
        "request_s.tail": f"p{tail_pct:.1f}, the highest percentile with 10 of the nominal "
                          f"{workload.nominal_requests} requests beyond it; n={len(durations)}",
        "request_s.p50": f"n={len(durations)} requests",
        "solved_per_s": f"{solved} solved in {wall:.3f} s of timed phase",
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setup_samples),
    }
    return metrics, notes


# ------------------------------------------------------------------ environment


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_environment():
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


# ------------------------------------------------------------------ main


def _check(records, checker):
    """Mark wrong answers; return (wrong count, largest relative error,
    failed or wrong requests)."""
    wrong, worst, failures = 0, 0.0, []
    for r in records:
        miss = checker.error(r.problem, r.outcome)
        if miss is not None:
            worst = max(worst, miss)
        r.outcome.wrong = miss is not None and not miss <= checker.tol
        wrong += r.outcome.wrong
        if not r.outcome.passed or r.outcome.wrong:
            failures.append({
                "problem": r.problem.pid,
                "traced": r.traced,
                "failed": not r.outcome.passed,
                "reason": r.outcome.reason,
                "wrong": r.outcome.wrong,
                "relative_error": miss,
            })
    return wrong, worst, failures


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also store the full result document in this JSON file, "
                             "under the key <workload>.trace<0|1>")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload, problems, block, own_setup = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        return measure(args, workload, problems, block, own_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, problems, block, own_setup):
    from reference import Checker
    from tracing import Tracer

    env = run_environment()
    if args.trace:
        tracer = Tracer(keep=TRACE_KEPT)
        records, stats = traced_loop(workload, problems, args.seconds, tracer)
        tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        setup_samples = [own_setup] + _probe_setups(args.workload, args.seed,
                                                     SETUP_SAMPLES - 1)
        records, wall = closed_loop(workload, problems, block, args.seconds)

    checker = Checker(workload.reference)
    wrong, worst, failures = _check(records, checker)
    attempted = len(records)
    failed = sum(not r.outcome.passed for r in records)
    solved = sum(r.outcome.passed and not r.outcome.wrong for r in records)

    if args.trace:
        metrics, notes = per_layer_metrics(records, stats)
    else:
        metrics, notes = end_to_end_metrics(workload, records, wall, solved,
                                            setup_samples)
    rates = {"failed_frac": failed / attempted, "wrong_frac": wrong / attempted}

    print(f"# montouch benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {m['value']!r} {m['unit']}{note}")
    for name, value in rates.items():
        print(f"{name} {value!r} ratio  ({attempted} attempted)")
    print(f"# largest relative error against the reference: {worst:.3e} "
          f"(wrong above {checker.tol:g})")
    for key in ("counts", "times"):
        if key in notes:
            print(f"# {key}: {notes[key]}")
    for f in failures:
        print("failure " + json.dumps(f, sort_keys=True))

    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        doc = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                   seconds=args.seconds, env=env, notes=notes, rates=rates,
                   largest_relative_error=worst, failures=failures,
                   requests=[{"problem": r.problem.pid, "seconds": r.seconds,
                              "passed": r.outcome.passed, "traced": r.traced}
                             for r in records])
        out = Path(args.out)
        merged = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
        merged[f"{args.workload}.trace{args.trace}"] = doc
        out.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
