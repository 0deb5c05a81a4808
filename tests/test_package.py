import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import tweetsent
from tweetsent.experiment import AugmentConfig, ExperimentConfig, run_experiment

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def run_fresh(code: str, **preset: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports this checkout's tweetsent."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset)
    src = str(Path(tweetsent.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def thread_settings_after_import(**preset: str) -> dict[str, str | None]:
    """The thread variables a fresh interpreter sees after ``import tweetsent``."""
    code = "import json, os, tweetsent; print(json.dumps({v: os.environ.get(v) for v in %r}))" % (THREAD_VARS,)
    return json.loads(run_fresh(code, **preset))


def test_import_pins_blas_to_one_thread():
    assert thread_settings_after_import() == {var: "1" for var in THREAD_VARS}


def test_import_keeps_a_value_the_user_set():
    seen = thread_settings_after_import(OPENBLAS_NUM_THREADS="3")
    assert seen == {**{var: "1" for var in THREAD_VARS}, "OPENBLAS_NUM_THREADS": "3"}


#: Prints, as JSON, the scipy modules and the process pool modules loaded.
LOADED = (
    "print(json.dumps(sorted(m for m in sys.modules"
    " if m.split('.')[0] == 'scipy' or m in ('multiprocessing', 'concurrent.futures.process'))))"
)


def test_cli_import_leaves_out_the_solver_and_the_process_pool():
    assert json.loads(run_fresh("import json, sys, tweetsent.cli; " + LOADED)) == []


@pytest.fixture(scope="module")
def bagged_run(mini_corpus, tmp_path_factory):
    """The run directory of an all-blocks, five-member bagging bundle,
    trained on the mini corpus without augmentation."""
    config = ExperimentConfig.from_json(mini_corpus / "config.json")
    config = dataclasses.replace(config, augment=AugmentConfig())
    return run_experiment(config, tmp_path_factory.mktemp("bagged-run")).out_dir


def predict_and_eval(bagged_run, mini_corpus, tmp_path, scoring_limit=None):
    """Run ``predict`` and ``eval`` of the bagged bundle on the test split in
    a fresh interpreter; returns the scipy and process pool modules loaded,
    after checking that both outputs equal the training run's."""
    model, test = str(bagged_run / "model"), str(mini_corpus / "test.tsv")
    predictions, report = str(tmp_path / "predictions.tsv"), str(tmp_path / "report.json")
    code = textwrap.dedent(
        f"""
        import json, sys
        from tweetsent import cli, model

        if {scoring_limit!r} is not None:
            model.NUMPY_SCORING_LIMIT = {scoring_limit!r}
        assert cli.main(["predict", "--model", {model!r}, "--input", {test!r}, "--output", {predictions!r}]) == 0
        assert cli.main(["eval", "--model", {model!r}, "--data", {test!r}, "--out", {report!r}]) == 0
        """
    )
    loaded = json.loads(run_fresh(code + LOADED).splitlines()[-1])
    assert (tmp_path / "predictions.tsv").read_bytes() == (bagged_run / "predictions_test.tsv").read_bytes()
    assert (tmp_path / "report.json").read_bytes() == (bagged_run / "report_test.json").read_bytes()
    return loaded


def test_predict_and_eval_leave_out_scipy(bagged_run, mini_corpus, tmp_path):
    assert predict_and_eval(bagged_run, mini_corpus, tmp_path) == []


def test_a_large_batch_loads_scipy_sparse_and_special_but_not_the_solver(bagged_run, mini_corpus, tmp_path):
    loaded = predict_and_eval(bagged_run, mini_corpus, tmp_path, scoring_limit=0)
    assert {"scipy.sparse", "scipy.special"} <= set(loaded)
    assert "scipy.optimize" not in loaded


def test_pooled_training_loads_the_solver_before_the_fork():
    # Each worker reports which solver modules were loaded when its solve began.
    code = textwrap.dedent(
        """
        import os, sys
        import numpy as np
        from tweetsent import model, parallel
        from tweetsent.corpus import Label

        assert not any(m.split(".")[0] == "scipy" for m in sys.modules)
        parallel.cpu_count = lambda: 2
        parent = os.getpid()
        objective = model.binary_objective

        def probe(*args):
            if os.getpid() != parent:
                loaded = [m for m in ("scipy.optimize", "scipy.sparse", "scipy.special") if m in sys.modules]
                os.write(1, (",".join(loaded) + "\\n").encode())
            return objective(*args)

        model.binary_objective = probe
        X = np.random.default_rng(0).normal(size=(40, 3))
        labels = [Label.P if x > 0 else Label.N for x in X[:, 0]]
        model.train_lr(X, labels, model.LrConfig())
        """
    )
    assert run_fresh(code).split() == ["scipy.optimize,scipy.sparse,scipy.special"] * 2
