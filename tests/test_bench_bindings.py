"""The traced benchmark can still see every layer it reports.

``bench/tracing.py`` wraps the module attributes named in ``SPANS``.  A
per-layer metric whose bindings have all gone (a function renamed, an import
moved into a function) reads ``null`` in the benchmark's result line.  The
bindings are looked up here without installing any wrapper.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from tweetsent import model, optimize

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(binding: str) -> bool:
    """Whether ``module:a.b`` names an existing attribute."""
    module_name, _, path = binding.partition(":")
    try:
        target = importlib.import_module(module_name)
        for name in path.split("."):
            target = getattr(target, name)
    except (ImportError, AttributeError):
        return False
    return True


def test_every_layer_metric_keeps_a_live_span():
    tracing = load_tracing()
    dead_spans = {name for name, bindings in tracing.SPANS.items() if not any(map(resolves, bindings))}
    blind = [metric for metric, (_, needs, _) in tracing.LAYER_METRICS.items() if set(needs) <= dead_spans]
    assert blind == []


def test_a_missing_binding_is_seen():
    assert not resolves("tweetsent.model:no_such_function")
    assert not resolves("tweetsent.no_such_module:function")


@pytest.mark.parametrize("max_iter", [2, 100])
def test_the_solver_counters_read_a_real_result(max_iter):
    # model.solver_nit, solver_nfev and solver_unconverged come from
    # _count_solver reading what the wrapped optimize.minimize returned.
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 4))
    fun = model.binary_objective(X, np.where(X[:, 0] > 0, 1.0, -1.0), np.ones(30), 1.0)
    result = optimize.minimize(fun, np.zeros(5), gtol=1e-6, maxiter=max_iter, maxfun=15_000)
    counters = Counter()
    load_tracing()._count_solver(counters, (fun, np.zeros(5)), result)
    assert counters == {"solver_nit": result.nit, "solver_nfev": result.nfev, "solver_unconverged": int(max_iter == 2)}
    assert result.nfev >= result.nit > 0
