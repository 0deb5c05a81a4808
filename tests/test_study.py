"""Every variant of a study equals its standalone run, byte for byte.

``run_ablation`` and ``grid_search`` may share work between their variants;
each variant directory must still hold exactly what ``run_experiment``
writes for that variant's config on its own.  The standalone runs live at
the same depth as the study's, so the relative resource paths in the
bundles agree.  Each study runs once in a pool of two forked workers and
once in-process.
"""

import gc
import hashlib
import json
import logging
import weakref
from pathlib import Path

import pytest

from tweetsent import experiment, parallel, synthetic
from tweetsent.experiment import (
    ABLATIONS,
    ExperimentConfig,
    ablation_variant,
    grid_search,
    run_ablation,
    run_experiment,
)

#: Grid parameter -> its key path in the config JSON.
GRID_KEYS = {
    "C": ("model", "C"),
    "bagging_n": ("model", "bagging", "n_estimators"),
    "crossover_factor": ("augment", "crossover", "factor"),
    "sif_a": ("features", "sif_a"),
}

#: The model grid shares one feature build; crossover and sif_a change the features.
GRIDS = {
    "model": {"C": [0.5, 1.0], "bagging_n": [2, 3]},
    "features": {"crossover_factor": [1, 2], "sif_a": [0.01, 0.1]},
}


def file_digests(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def with_values(config: ExperimentConfig, changes: dict[tuple[str, ...], object]) -> ExperimentConfig:
    raw = config.to_dict()
    for (*sections, key), value in changes.items():
        section = raw
        for name in sections:
            section = section[name]
        section[key] = value
    return ExperimentConfig.from_dict(raw)


@pytest.fixture(scope="module")
def study_config(tmp_path_factory) -> ExperimentConfig:
    """Every component on, on a corpus small enough to run each variant twice."""
    corpus = tmp_path_factory.mktemp("study-corpus")
    synthetic.generate(corpus, seed=11, train_size=30, dev_size=20, test_size=20)
    config = ExperimentConfig.from_json(corpus / "config.json")
    return with_values(config, {("model", "bagging", "n_estimators"): 3, ("augment", "crossover", "factor"): 2})


@pytest.fixture(scope="module")
def standalone_root(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("standalone")


def study_counts(caplog) -> dict[str, int]:
    """The counts of the study line the last study logged."""
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("study: ")]
    return {name: int(count) for name, count in (item.split("=") for item in lines[-1].split()[1:])}


def standalone(config: ExperimentConfig, root: Path, name: str) -> dict[str, str]:
    """Digests of the standalone run of ``config``, run once per ``root/name``."""
    out = root / name
    if not out.exists():
        run_experiment(config, out)
    return file_digests(out)


@pytest.mark.parametrize("cpus", [2, 1])
def test_ablation_variants_equal_standalone_runs(cpus, study_config, standalone_root, tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
    caplog.set_level(logging.INFO, logger="tweetsent.experiment")
    rows = run_ablation(study_config, tmp_path / "ablation")
    counts = study_counts(caplog)
    # Only the two augmentation removals change the feature inputs.
    assert (counts["variants"], counts["builds"], counts["builds_reused"]) == (8, 3, 5)
    assert [row["variant"] for row in rows] == ["full-system", *ABLATIONS]
    assert all("skipped" not in row for row in rows)
    root = standalone_root / "ablation"
    for name in ("full-system", *ABLATIONS):
        variant = study_config if name == "full-system" else ablation_variant(study_config, name)
        assert file_digests(tmp_path / "ablation" / name) == standalone(variant, root, name), name


@pytest.mark.parametrize("cpus", [2, 1])
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_grid_combinations_equal_standalone_runs(
    grid_name, cpus, study_config, standalone_root, tmp_path, monkeypatch, caplog
):
    monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
    caplog.set_level(logging.INFO, logger="tweetsent.experiment")
    summary = grid_search(study_config, GRIDS[grid_name], tmp_path / "grid")
    assert len(summary["rows"]) == 4
    counts = study_counts(caplog)
    assert (counts["builds"], counts["builds_reused"]) == ((1, 3) if grid_name == "model" else (4, 0))
    root = standalone_root / f"grid-{grid_name}"
    for row in summary["rows"]:
        combination = with_values(study_config, {GRID_KEYS[name]: value for name, value in row["params"].items()})
        expected = standalone(combination, root, row["out_dir"])
        assert file_digests(tmp_path / "grid" / row["out_dir"]) == expected, row["params"]
    best = json.loads((tmp_path / "grid" / "best_config.json").read_text(encoding="utf-8"))
    best_run = tmp_path / "grid" / summary["best"]["out_dir"]
    assert best == json.loads((best_run / "config.json").read_text(encoding="utf-8"))


def test_a_study_holds_one_build_at_a_time(study_config, tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
    built = []
    featurize = experiment.STAGES["features"]

    def featurize_after_the_last_build_is_freed(runs):
        gc.collect()
        assert [ref() for ref in built] == [None] * len(built)
        featurize(runs)
        built.append(weakref.ref(runs[0].features["train"]))

    monkeypatch.setitem(experiment.STAGES, "features", featurize_after_the_last_build_is_freed)
    grid_search(study_config, GRIDS["features"], tmp_path / "grid")
    assert len(built) == 4


@pytest.mark.parametrize("cpus", [2, 1])
@pytest.mark.parametrize("command", ["train", "ablate"])
def test_a_study_keeps_no_training_matrix_once_the_pool_has_it(command, cpus, study_config, tmp_path, monkeypatch):
    # Forked workers hold each build's problems from its first solution on,
    # so the parent evaluates every variant without the training matrix;
    # in-process, the matrix goes with the build's last solve.
    monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
    featurize, evaluate = experiment.STAGES["features"], experiment.STAGES["evaluate"]
    builds, released = [], []

    def featurize_and_watch(runs):
        featurize(runs)
        builds.append((weakref.ref(runs[0].features["train"].data), runs[-1]))

    def evaluate_after_the_release(run):
        matrix, last = builds[-1]
        if cpus > 1 or run is last:
            gc.collect()
            released.append(matrix() is None)
        evaluate(run)

    monkeypatch.setitem(experiment.STAGES, "features", featurize_and_watch)
    monkeypatch.setitem(experiment.STAGES, "evaluate", evaluate_after_the_release)
    if command == "train":
        run_experiment(study_config, tmp_path / "train")
    else:
        run_ablation(study_config, tmp_path / "ablation")
    assert released == [True] * (1 if command == "train" else 8 if cpus > 1 else 3)
