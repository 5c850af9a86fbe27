"""The benchmark's own tests.

    python3 -m pytest -q bench/test_bench.py

Each test runs ``bench/run.py`` as a separate process, the way the
benchmark is meant to be run, with short runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Not used while the benchmark was written or tuned.
FRESH_SEED = 90817


def _run(workload, seed, trace, seconds=1, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (_result(_run(workload, 5, trace=1)) for _ in range(2))
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio")]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fresh_seed_reports_every_metric(workload):
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result = _result(_run(workload, FRESH_SEED, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in listed}
        for m in listed:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            if trace == 0:
                assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_fails_without_the_library():
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run(WORKLOADS[0], 1, 0, cwd=bare, script=bare / "bench" / "run.py")
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
