import json
import os
import subprocess
import sys
from pathlib import Path

import tweetsent

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def thread_settings_after_import(**preset: str) -> dict[str, str | None]:
    """The thread variables a fresh interpreter sees after ``import tweetsent``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset)
    src = str(Path(tweetsent.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import json, os, tweetsent; print(json.dumps({v: os.environ.get(v) for v in %r}))" % (THREAD_VARS,)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_pins_blas_to_one_thread():
    assert thread_settings_after_import() == {var: "1" for var in THREAD_VARS}


def test_import_keeps_a_value_the_user_set():
    seen = thread_settings_after_import(OPENBLAS_NUM_THREADS="3")
    assert seen == {**{var: "1" for var in THREAD_VARS}, "OPENBLAS_NUM_THREADS": "3"}
