"""Smoke test of the benchmark itself, on a tiny generated corpus.

    python3 -m pytest -q bench/test_smoke.py

Every workload runs once untraced and once traced.  Each must pass its
output checks and print every metric that ``BENCHMARK.json`` names, with
its unit, or mark it absent.  Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--scale", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def summary_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    return summary


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload: str, trace: int) -> None:
    done = run_bench(workload, trace)
    summary = summary_of(done)
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] >= 1 + trace

    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(summary["metrics"]) == {metric["name"] for metric in expected}
    record = json.loads(
        (ROOT / ".bench_results" / f"{workload}-seed7-smoke-trace{trace}.json").read_text(encoding="utf-8")
    )
    human = done.stdout.splitlines()[:-1]
    for metric in expected:
        entry = summary["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        if entry["value"] is None:
            assert record["per_layer"][metric["name"]]["absent"] is True
        else:
            assert isinstance(entry["value"], (int, float))
        assert any(line.split()[:1] == [metric["name"]] and metric["unit"] in line for line in human)
    assert any(line.split()[:1] == ["error_rate"] for line in human)


def test_traced_counts_repeat() -> None:
    runs = [summary_of(run_bench("ablate", 1))["metrics"] for _ in range(2)]
    counts = {name for name, entry in runs[0].items() if entry["unit"] == "count"}
    assert "model.solver_nit" in counts and "pipeline.nnz" in counts
    assert {name: runs[0][name] for name in counts} == {name: runs[1][name] for name in counts}


def test_missing_binding_is_absent_and_skipped() -> None:
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH_DIR))

    tracer = tracing.Tracer("test")
    tracer.install({"vectorize.concat_features": ("tweetsent.no_such_module:concat_features",)})
    assert tracer.missing == ["tweetsent.no_such_module:concat_features"]
    assert tracer.installed == []

    csr_bindings = [
        binding
        for name in ("vectorize.transform", "vectorize.concat_features", "vectorize.stack_vectors")
        for binding in tracing.SPANS[name]
    ]
    metrics = tracing.layer_metrics({"spans": [], "counters": {}, "missing": csr_bindings})
    assert metrics["vectorize.to_csr_s"] == {"value": None, "unit": "s", "absent": True}
    assert metrics["vectorize.char_ngram_s"] == {"value": 0.0, "unit": "s"}


def test_fails_without_the_program() -> None:
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = run_bench("train", 0, root=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert not done.stdout.strip()
