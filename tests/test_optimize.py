"""The numpy L-BFGS against scipy's L-BFGS-B on small random problems."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetsent import csr, model, optimize
from tweetsent.corpus import LABELS
from tweetsent.model import BaggingConfig, LrConfig, binary_objective, plan

TOL = 1e-10
FLOAT_LIMIT = "converged: a step left the value unchanged"


def objective_of(problem):
    """``binary_objective`` of ``problem`` on its rows, as ``model._solve`` builds it."""
    X = problem.features if problem.rows is None else csr.take_rows(problem.features, problem.rows)
    return binary_objective(X, problem.signs, problem.sample_weight, problem.config.C), X.shape[1] + 1


@st.composite
def problems(draw):
    """The one-vs-rest problems of a small random plan: dense or CSR
    features, every row or bootstrap rows, either class-weight mode, C from
    1e-3 to 1e3."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_rows, n_columns = draw(st.integers(4, 30)), draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    X = np.where(rng.random((n_rows, n_columns)) < 0.6, rng.normal(0.0, 2.0, (n_rows, n_columns)), 0.0)
    labels = [LABELS[i] for i in rng.integers(0, draw(st.integers(2, 4)), n_rows)]
    labels[:2] = LABELS[:2]
    features = csr.from_dense(X) if draw(st.booleans()) else X
    config = LrConfig(
        C=10.0 ** draw(st.floats(-3.0, 3.0)),
        class_weight=draw(st.sampled_from(model.CLASS_WEIGHT_MODES)),
        tol=TOL,
        max_iter=20_000,
    )
    bagging = BaggingConfig(n_estimators=1, seed=seed) if draw(st.booleans()) else None
    _, planned = plan(features, labels, config, bagging)
    return planned


@settings(max_examples=60, deadline=None)
@given(problems())
def test_the_solve_reaches_scipys_optimum_the_same_way_every_time(planned):
    from scipy import optimize as scipy_optimize

    for problem in planned:
        x, stats = model._solve(problem)
        if stats.converged:
            assert stats.grad_norm <= TOL or stats.message == FLOAT_LIMIT
        fun, dim = objective_of(problem)
        reference = scipy_optimize.minimize(
            fun,
            np.zeros(dim),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 20_000, "maxfun": 400_000, "ftol": 0.0, "gtol": TOL},
        )
        value, expected = fun(x)[0], reference.fun
        assert abs(value - expected) <= 1e-9 * max(1.0, abs(expected))
        again, again_stats = model._solve(problem)
        assert again.tobytes() == x.tobytes() and again_stats == stats


def test_limits_end_the_solve_unconverged():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 5))
    fun = binary_objective(X, np.where(X[:, 0] > 0, 1.0, -1.0), np.ones(40), 5.0)
    by_iterations = optimize.minimize(fun, np.zeros(6), gtol=1e-12, maxiter=3, maxfun=100)
    assert (by_iterations.nit, by_iterations.success, by_iterations.message) == (3, False, "iteration limit reached")
    by_evaluations = optimize.minimize(fun, np.zeros(6), gtol=1e-12, maxiter=100, maxfun=4)
    assert (by_evaluations.nfev, by_evaluations.success) == (4, False)
    assert by_evaluations.message == "function evaluation limit reached"


def test_a_start_at_the_optimum_takes_no_step():
    result = optimize.minimize(lambda x: (float(x @ x), 2.0 * x), np.zeros(3), gtol=1e-8, maxiter=10, maxfun=10)
    assert (result.nit, result.nfev, result.success) == (0, 1, True)


def test_no_descent_ends_the_line_search():
    # A gradient that points uphill: no step along its negative decreases the value.
    result = optimize.minimize(lambda x: (float(x[0]), -np.ones(1)), np.zeros(1), gtol=1e-8, maxiter=10, maxfun=100)
    assert (result.nit, result.success, result.message) == (0, False, "line search found no acceptable step")
    assert result.nfev == 1 + optimize.BACKTRACKS
