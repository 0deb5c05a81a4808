"""Benchmark of the tweetsent CLI on its train, predict and ablate workloads.

    python3 bench/run.py --workload train --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

The workload seed picks the synthetic corpus (``tweetsent.synthetic.generate``
with the config it writes).  Every timed run is a fresh Python process that
calls ``tweetsent.cli.main`` from a fresh copy of the workload's directory;
its wall time and peak RSS are taken from outside the process.  Runs repeat
until ``--seconds`` would be exceeded; the medians are reported.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` adds one traced
run with the wrappers of ``tracing.py`` installed and prints the per-layer
metrics, plus the tracing overhead (traced wall time minus the untraced
median).

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full record (environment, every run, the checks) is written to
``.bench_results/`` at the repository root.  The program is imported from
``src/`` of the checkout this file lives in, and nothing else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"

WORKLOADS = ("train", "predict", "ablate")
LABELS = ("P", "N", "NEU", "NONE")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: BLAS/OpenMP threads of every timed run (capped at nproc); the program is
#: single-threaded Python, and one thread keeps runs on a shared host steadier.
THREADS = 1
#: Corpus generations per set-up; set-up time is their median.
SETUP_REPEATS = 15
#: One invocation per workload ends its timed runs by this many seconds.
DEADLINE_S = 165.0
#: The predict input comes from a corpus seed this far from the training one.
INPUT_SEED_OFFSET = 1000

#: (train, dev, test) rows per workload corpus, and predict input rows.
#: "bench" fits the run budget of BENCHMARK.json; "full" is the default corpus
#: of ROADMAP aim 1 (500/200/200, seed 7) with 20,000 predict rows.
SCALES = {
    "full": {"train": (500, 200, 200), "ablate": (150, 200, 200), "predict": (500, 200, 200), "input": 20_000},
    "bench": {"train": (250, 200, 100), "ablate": (60, 200, 100), "predict": (250, 200, 100), "input": 5_000},
    "smoke": {"train": (40, 20, 20), "ablate": (30, 20, 20), "predict": (40, 20, 20), "input": 200},
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "tweets_per_s": "tweets/s",
    "peak_rss_mb": "MiB",
    "dev_macro_f1": "%",
    "setup_s": "s",
}


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Workload:
    name: str
    template: Path  # copied afresh for every timed run
    argv: list[str]  # tweetsent arguments, run from inside the copy
    tweets: int  # input tweets one run reads
    corpus_sizes: tuple[int, int, int]  # train, dev, test rows
    check: Callable[[Path], tuple[str, float]]  # run dir -> (digest, dev macro F1)
    setup_s: float = 0.0  # set-up beyond corpus generation and copies


# ----------------------------------------------------------------- helpers


def import_program():
    """Import tweetsent from this checkout's ``src/``; exit if it is not there."""
    if not (SRC / "tweetsent" / "__init__.py").is_file():
        print(f"bench: no tweetsent package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import tweetsent
    from tweetsent import experiment, synthetic

    if Path(tweetsent.__file__).resolve().parent != SRC / "tweetsent":
        print(f"bench: imported tweetsent from {tweetsent.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return synthetic, experiment


def tree_digest(path: Path) -> str:
    """sha256 over the relative paths and bytes of every file under ``path``."""
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(file.relative_to(path).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(file.read_bytes()).digest())
    return digest.hexdigest()


def read_tsv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as handle:
        return [line.rstrip("\n").split("\t") for line in handle if line.strip()]


def majority_macro_f1(dev_path: Path) -> float:
    """Dev macro F1 (%) of always predicting the most frequent gold label."""
    golds = [row[2].upper() for row in read_tsv_rows(dev_path)]
    share = max(golds.count(label) for label in LABELS) / len(golds)
    return 100.0 * (2 * share / (1 + share)) / len(LABELS)


def child_env(threads: int, tmp: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


def run_child(argv: list[str], cwd: Path, env: dict, deadline: float, spans: Path | None = None,
              run_id: str = "run") -> dict:
    """Run ``tweetsent.cli.main(argv)`` in a fresh process; time it from outside."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py")]
    if spans is not None:
        cmd += ["--spans", str(spans), "--run-id", run_id]
    cmd += ["--", *argv]
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
    }


def stderr_tail(run_dir: Path) -> str:
    text = (run_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace").strip()
    return text.splitlines()[-1] if text else ""


def result_stem(name: str, seed: int, scale: str) -> str:
    return f"{name}-seed{seed}" + ("" if scale == "bench" else f"-{scale}")


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    p = int(100 * (1 - 10 / n))
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(threads: int, seed: int, scale: str) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": tree_digest(SRC / "tweetsent"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "threads": {var: threads for var in THREAD_VARS},
        "workload_seed": seed,
        "scale": scale,
    }


# ------------------------------------------------------------------ set-up


def generate_corpus(synthetic, work: Path, seed: int, sizes: tuple[int, int, int]) -> tuple[Path, float]:
    """Generate the corpus ``SETUP_REPEATS`` times; (first copy, median time).

    The generations must be byte-identical: the same seed gives the same inputs.
    """
    times, digests = [], []
    for repeat in range(SETUP_REPEATS):
        directory = work / f"corpus{repeat}"
        start = time.perf_counter()
        synthetic.generate(directory, seed=seed, train_size=sizes[0], dev_size=sizes[1], test_size=sizes[2])
        times.append(time.perf_counter() - start)
        digests.append(tree_digest(directory))
        if repeat:
            shutil.rmtree(directory)
    if len(set(digests)) != 1:
        raise CheckFailed(f"corpus generation for seed {seed} is not deterministic")
    return work / "corpus0", statistics.median(times)


def check_train(majority_f1: float) -> Callable[[Path], tuple[str, float]]:
    def check(run_dir: Path) -> tuple[str, float]:
        out = run_dir / "out"
        f1 = json.loads((out / "report_dev.json").read_text(encoding="utf-8"))["macro"]["f1"]
        if not f1 > majority_f1:
            raise CheckFailed(f"dev macro F1 {f1} does not beat the majority baseline {majority_f1:.2f}")
        return tree_digest(out), float(f1)

    return check


def check_ablate(ablations: tuple[str, ...]) -> Callable[[Path], tuple[str, float]]:
    expected = ["full-system", *ablations]

    def check(run_dir: Path) -> tuple[str, float]:
        rows = json.loads((run_dir / "out" / "ablation.json").read_text(encoding="utf-8"))
        variants = [row.get("variant") for row in rows]
        if variants != expected:
            raise CheckFailed(f"ablation rows {variants}, expected {expected}")
        skipped = [row["variant"] for row in rows if "skipped" in row]
        if skipped:
            raise CheckFailed(f"ablation variants skipped: {skipped}")
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        return digest, float(rows[0]["macro_f1"])

    return check


def check_predict(input_ids: list[str], dev_f1: float) -> Callable[[Path], tuple[str, float]]:
    def check(run_dir: Path) -> tuple[str, float]:
        path = run_dir / "predictions.tsv"
        rows = read_tsv_rows(path)
        if [row[0] for row in rows] != input_ids:
            raise CheckFailed(f"prediction ids differ from the {len(input_ids)} input ids in order")
        bad = [row for row in rows if len(row) != 2 or row[1] not in LABELS]
        if bad:
            raise CheckFailed(f"{len(bad)} prediction rows lack one label from {LABELS}: {bad[0]}")
        return hashlib.sha256(path.read_bytes()).hexdigest(), dev_f1

    return check


def corpus_tweets(corpus: Path) -> int:
    return sum(len(read_tsv_rows(corpus / f"{split}.tsv")) for split in ("train", "dev", "test"))


def setup_workload(name: str, program, work: Path, seed: int, scale: str, env: dict,
                   deadline: float) -> tuple[Workload, float]:
    """Build the workload's template directory; returns it and corpus set-up time."""
    synthetic, experiment = program
    sizes = SCALES[scale]
    corpus_sizes = sizes[name]
    corpus, generate_s = generate_corpus(synthetic, work, seed, corpus_sizes)
    study_argv = [name, "--config", "config.json", "--out", "out"]
    if name == "train":
        check = check_train(majority_macro_f1(corpus / "dev.tsv"))
        return Workload(name, corpus, study_argv, corpus_tweets(corpus), corpus_sizes, check), generate_s
    if name == "ablate":
        check = check_ablate(tuple(experiment.ABLATIONS))
        return Workload(name, corpus, study_argv, corpus_tweets(corpus), corpus_sizes, check), generate_s

    # predict: train a bundle in a copy of the corpus and label unseen tweets
    # from inside that directory, as the README quick start does.  The bundle
    # stores its resource paths relative to this directory.
    start = time.perf_counter()
    trained = work / "trained"
    shutil.copytree(corpus, trained)
    done = run_child(["train", "--config", "config.json", "--out", "bundle"], trained, env, deadline)
    if done["exit"] != 0:
        raise CheckFailed(f"set-up training exited {done['exit']}: {stderr_tail(trained)}")
    dev_f1 = float(json.loads((trained / "bundle" / "report_dev.json").read_text(encoding="utf-8"))["macro"]["f1"])

    source = work / "input_corpus"
    synthetic.generate(source, seed=seed + INPUT_SEED_OFFSET, train_size=sizes["input"], dev_size=0, test_size=0)
    rows = read_tsv_rows(source / "train.tsv")
    with open(trained / "input.tsv", "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(f"{row[0]}\t{row[1]}\n" for row in rows)
    shutil.rmtree(source)

    # The bundle must label the corpus' test split exactly as training did.
    done = run_child(
        ["predict", "--model", "bundle/model", "--input", "test.tsv", "--output", "test_again.tsv"],
        trained, env, deadline,
    )
    if done["exit"] != 0:
        raise CheckFailed(f"set-up predict exited {done['exit']}: {stderr_tail(trained)}")
    if (trained / "test_again.tsv").read_bytes() != (trained / "bundle" / "predictions_test.tsv").read_bytes():
        raise CheckFailed("predicting test.tsv from the bundle differs from predictions_test.tsv")
    (trained / "test_again.tsv").unlink()
    argv = ["predict", "--model", "bundle/model", "--input", "input.tsv", "--output", "predictions.tsv"]
    workload = Workload(
        name, trained, argv, len(rows), corpus_sizes, check_predict([row[0] for row in rows], dev_f1),
        setup_s=time.perf_counter() - start,
    )
    return workload, generate_s


# --------------------------------------------------------------- measuring


def timed_run(workload: Workload, work: Path, index: int, env: dict, deadline: float,
              spans: Path | None = None, run_id: str = "run") -> dict:
    """Copy the template (untimed), run the command once and check its outputs."""
    run_dir = work / f"run{index}"
    start = time.perf_counter()
    shutil.copytree(workload.template, run_dir)
    copy_s = time.perf_counter() - start
    try:
        sample = run_child(workload.argv, run_dir, env, deadline, spans, run_id)
        sample["copy_s"] = copy_s
        if sample["exit"] != 0:
            sample["error"] = f"exit {sample['exit']}: {stderr_tail(run_dir)}"
        else:
            try:
                sample["digest"], sample["dev_macro_f1"] = workload.check(run_dir)
            except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
                sample["error"] = f"output check: {exc}"
    finally:
        shutil.rmtree(run_dir)
    return sample


def measure(workload: Workload, work: Path, env: dict, seconds: float, deadline: float,
            first_index: int = 0) -> list[dict]:
    """Untimed copies and timed runs until the next run would pass ``seconds``."""
    samples: list[dict] = []
    start = time.perf_counter()
    while True:
        samples.append(timed_run(workload, work, first_index + len(samples), env, deadline))
        typical = statistics.median(s["wall_s"] for s in samples)
        if time.perf_counter() - start + typical > seconds or time.monotonic() + typical > deadline:
            return samples


def mark_mismatches(samples: list[dict]) -> None:
    """Every run of one invocation must produce the same outputs."""
    reference = next((s["digest"] for s in samples if "digest" in s), None)
    for sample in samples:
        if "digest" in sample and sample["digest"] != reference:
            sample["error"] = "outputs differ from the first run of this invocation"


def run_workload(name: str, program, seed: int, seconds: float, trace: bool, scale: str,
                 threads: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = WORK_ROOT / f"{name}-seed{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    (work / "tmp").mkdir(parents=True)
    env = child_env(threads, work / "tmp")
    try:
        workload, generate_s = setup_workload(name, program, work, seed, scale, env, deadline)
        traced = None
        record = None
        started = time.perf_counter()
        if trace:
            spans_path = work / "spans.json"
            traced = timed_run(workload, work, 0, env, deadline, spans_path, f"{name}-seed{seed}")
            if spans_path.exists():
                record = json.loads(spans_path.read_text(encoding="utf-8"))
                RESULTS_DIR.mkdir(exist_ok=True)
                shutil.move(spans_path, RESULTS_DIR / f"{result_stem(name, seed, scale)}.spans.json")
        remaining = seconds - (time.perf_counter() - started)
        samples = measure(workload, work, env, remaining, deadline, first_index=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    every = samples + ([traced] if traced else [])
    mark_mismatches(every)
    failed = sum(1 for s in every if "error" in s)
    walls = [s["wall_s"] for s in samples]
    wall = statistics.median(walls)
    f1s = [s["dev_macro_f1"] for s in every if "dev_macro_f1" in s]
    setup_s = generate_s + statistics.median(s["copy_s"] for s in every) + workload.setup_s
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "sizes": {"corpus": list(workload.corpus_sizes), "input_tweets": workload.tweets},
        "attempted": len(every),
        "failed": failed,
        "error_rate": failed / len(every),
        "samples": every,
        "wall_tail": tail_percentile(walls),
        "end_to_end": {
            "wall_s": wall,
            "tweets_per_s": workload.tweets / wall,
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
            "dev_macro_f1": f1s[0] if f1s else None,
            "setup_s": setup_s,
        },
    }
    if trace:
        from tracing import SPANS, layer_metrics

        if record is None:  # the traced run died before writing: every layer is absent
            record = {"spans": [], "counters": {}, "missing": [b for bindings in SPANS.values() for b in bindings]}
        layers = layer_metrics(record)
        layers["trace.wall_s"] = {"value": traced["wall_s"], "unit": "s"}
        layers["trace.overhead_s"] = {"value": traced["wall_s"] - wall, "unit": "s"}
        result["per_layer"] = layers
        result["missing_bindings"] = record["missing"]
    return result


# ----------------------------------------------------------------- output


def fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, float):
        return f"{value:.4f}" if abs(value) < 1000 else f"{value:.1f}"
    return str(value)


def print_result(result: dict, env_record: dict) -> None:
    name = result["workload"]
    n = result["attempted"] - result["trace"]
    sizes = result["sizes"]
    print(f"== {name}  seed {result['seed']}  corpus {sizes['corpus']}  input tweets {sizes['input_tweets']}"
          f"  threads {env_record['threads']['OMP_NUM_THREADS']}")
    tail = result["wall_tail"]
    tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "no percentile has 10 runs beyond it"
    for metric, value in result["end_to_end"].items():
        samples = n if metric != "setup_s" else SETUP_REPEATS
        extra = f"  ({tail_text})" if metric == "wall_s" else ""
        print(f"  {metric:<16} {fmt(value):>12} {END_TO_END_UNITS[metric]:<9} n={samples}{extra}")
    print(f"  {'error_rate':<16} {fmt(result['error_rate']):>12} {'ratio':<9} "
          f"n={result['attempted']} ({result['failed']} failed)")
    for sample in result["samples"]:
        if "error" in sample:
            print(f"  failed run: {sample['error']}")
    if "per_layer" in result:
        print(f"  per-layer (one traced run, self times; missing bindings: {result['missing_bindings']})")
        for metric, entry in result["per_layer"].items():
            print(f"    {metric:<28} {fmt(entry['value']):>14} {entry['unit']}")


def json_metrics(result: dict, trace: bool, prefix: str = "") -> dict:
    if trace:
        return {prefix + k: {"value": v["value"], "unit": v["unit"]} for k, v in result["per_layer"].items()}
    return {prefix + k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in result["end_to_end"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=7, help="workload seed: picks the corpus (default 7)")
    parser.add_argument("--seconds", type=float, default=38.0, help="time budget of the timed runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: add a traced run")
    parser.add_argument("--scale", choices=tuple(SCALES), default="bench",
                        help="corpus sizes: 'bench' (default), 'full' (ROADMAP sizing), 'smoke' (tiny, for the smoke test)")
    args = parser.parse_args(argv)

    program = import_program()
    threads = min(THREADS, os.cpu_count() or 1)
    env_record = environment(threads, args.seed, args.scale)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, program, args.seed, args.seconds, bool(args.trace), args.scale, threads)
        result["environment"] = env_record
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{result_stem(name, args.seed, args.scale)}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print_result(result, env_record)
        results.append(result)
    print(f"environment: {json.dumps(env_record, sort_keys=True)}")

    prefix = len(results) > 1
    metrics: dict = {}
    for result in results:
        metrics.update(json_metrics(result, bool(args.trace), f"{result['workload']}." if prefix else ""))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
