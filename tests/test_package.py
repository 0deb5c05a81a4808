import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import tweetsent

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


def test_cli_import_leaves_out_the_solver_and_the_process_pool():
    code = "import json, sys, tweetsent.cli; print(json.dumps(sorted(m for m in %r if m in sys.modules)))" % (
        ("scipy.optimize", "multiprocessing", "concurrent.futures.process"),
    )
    assert json.loads(run_fresh(code)) == []


def test_pooled_training_loads_the_solver_before_the_fork():
    # Each worker reports whether scipy.optimize was loaded when its solve began.
    code = textwrap.dedent(
        """
        import os, sys
        import numpy as np
        from tweetsent import model, parallel
        from tweetsent.corpus import Label

        assert "scipy.optimize" not in sys.modules
        parallel.cpu_count = lambda: 2
        parent = os.getpid()
        objective = model.binary_objective

        def probe(*args):
            if os.getpid() != parent:
                os.write(1, b"loaded\\n" if "scipy.optimize" in sys.modules else b"missing\\n")
            return objective(*args)

        model.binary_objective = probe
        X = np.random.default_rng(0).normal(size=(40, 3))
        labels = [Label.P if x > 0 else Label.N for x in X[:, 0]]
        model.train_lr(X, labels, model.LrConfig())
        """
    )
    assert run_fresh(code).split() == ["loaded", "loaded"]
