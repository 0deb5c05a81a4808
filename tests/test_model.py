import gc
import json
import math
import os
import sys
import types
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scipy_csr
from tweetsent import csr, model, optimize, parallel
from tweetsent.corpus import LABELS, Label
from tweetsent.experiment import load_bundle
from tweetsent.model import (
    BaggingConfig,
    Ensemble,
    LinearModel,
    LrConfig,
    binary_objective,
    compute_class_weights,
    expit,
    load_model,
    plan,
    predict,
    predict_many,
    predict_proba_matrix,
    save_model,
    solve_all,
    train_bagging,
    train_lr,
)

# ---------------------------------------------------------------------------
# Independent oracle: a from-scratch implementation of the same training
# problem (per-sample loss loop plus gradient descent with backtracking),
# sharing no code with the module under test.
# ---------------------------------------------------------------------------


def slow_objective(w, b, X, y, s, C):
    # Literal per-sample restatement, kept as a cross-check for the
    # vectorized oracle below.
    total = 0.0
    for i in range(X.shape[0]):
        margin = y[i] * (float(X[i] @ w) + b)
        if margin > 0:
            loss = math.log1p(math.exp(-margin))
        else:
            loss = -margin + math.log1p(math.exp(margin))
        total += s[i] * loss
    return 0.5 * float(w @ w) + C * total


def oracle_objective(w, b, X, y, s, C):
    m = y * (X @ w + b)
    loss = np.log1p(np.exp(-np.abs(m))) + np.maximum(-m, 0.0)
    return 0.5 * float(w @ w) + C * float(s @ loss)


def oracle_gradient(w, b, X, y, s, C):
    m = y * (X @ w + b)
    t = np.exp(-np.abs(m))
    sigma_negm = np.where(m >= 0, t / (1.0 + t), 1.0 / (1.0 + t))
    coeff = -C * s * y * sigma_negm
    return w + X.T @ coeff, float(coeff.sum())


def oracle_train(X, y, s, C, tol=1e-7, iters=20000):
    # Plain gradient descent with a warm-started backtracking line search.
    w = np.zeros(X.shape[1])
    b = 0.0
    t = 1.0
    for _ in range(iters):
        gw, gb = oracle_gradient(w, b, X, y, s, C)
        if max(np.max(np.abs(gw)), abs(gb)) < tol:
            break
        f0 = oracle_objective(w, b, X, y, s, C)
        sq = float(gw @ gw) + gb * gb
        t = min(t * 2.0, 1e4)
        while oracle_objective(w - t * gw, b - t * gb, X, y, s, C) > f0 - 0.5 * t * sq:
            t *= 0.5
            if t < 1e-16:
                break
        w = w - t * gw
        b = b - t * gb
    return w, b


def two_class_problem(seed=0, n=40, d=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    true_w = rng.normal(size=d)
    margins = X @ true_w + 0.3 * rng.normal(size=n)
    labels = [Label.P if m > 0 else Label.N for m in margins]
    if len(set(labels)) < 2:
        raise AssertionError("degenerate fixture")
    return X, labels


class TestClassWeights:
    def test_none_mode(self):
        weights = compute_class_weights({Label.P: 30, Label.N: 10}, "none")
        assert weights == {Label.P: 1.0, Label.N: 1.0}

    def test_balanced_hand_computed(self):
        weights = compute_class_weights({Label.P: 30, Label.N: 10}, "balanced")
        assert weights[Label.P] == pytest.approx(0.6667, abs=1e-4)
        assert weights[Label.N] == pytest.approx(2.0, abs=1e-12)

    def test_balanced_four_classes(self):
        counts = {Label.P: 4, Label.N: 4, Label.NEU: 4, Label.NONE: 4}
        weights = compute_class_weights(counts, "balanced")
        assert all(w == pytest.approx(1.0) for w in weights.values())

    def test_non_positive_count_rejected(self):
        with pytest.raises(ValueError):
            compute_class_weights({Label.P: 0, Label.N: 5}, "balanced")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            compute_class_weights({Label.P: 1}, "weighted")


class TestObjectiveGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(12, 4))
        y = np.where(rng.random(12) > 0.5, 1.0, -1.0)
        s = rng.uniform(0.5, 2.0, size=12)
        fun = binary_objective(X, y, s, C=0.7)
        theta = rng.normal(size=5)
        value, grad = fun(theta)
        eps = 1e-6
        for k in range(len(theta)):
            step = np.zeros_like(theta)
            step[k] = eps
            numeric = (fun(theta + step)[0] - fun(theta - step)[0]) / (2 * eps)
            assert grad[k] == pytest.approx(numeric, rel=1e-5, abs=1e-8)

    def test_matches_oracle_values(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(9, 3))
        y = np.where(rng.random(9) > 0.4, 1.0, -1.0)
        s = np.ones(9)
        fun = binary_objective(X, y, s, C=1.3)
        theta = rng.normal(size=4)
        value, grad = fun(theta)
        w, b = theta[:-1], theta[-1]
        assert value == pytest.approx(oracle_objective(w, b, X, y, s, 1.3), rel=1e-12)
        gw, gb = oracle_gradient(w, b, X, y, s, 1.3)
        assert np.allclose(grad[:-1], gw, rtol=1e-9)
        assert grad[-1] == pytest.approx(gb, rel=1e-9)

    def test_vectorized_oracle_matches_scalar_form(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(7, 3))
        y = np.where(rng.random(7) > 0.5, 1.0, -1.0)
        s = rng.uniform(0.5, 2.0, size=7)
        w = rng.normal(size=3)
        assert oracle_objective(w, 0.3, X, y, s, 0.9) == pytest.approx(
            slow_objective(w, 0.3, X, y, s, 0.9), rel=1e-12
        )

    def test_extreme_margins_stay_finite(self):
        X = np.array([[1000.0], [-1000.0]])
        y = np.array([1.0, 1.0])
        fun = binary_objective(X, y, np.ones(2), C=1.0)
        value, grad = fun(np.array([1.0, 0.0]))
        assert math.isfinite(value) and np.isfinite(grad).all()

    def test_the_gradient_takes_the_sigmoid_that_scoring_takes(self):
        # Margins from -1,381 to 411, where an overflow would raise: RuntimeWarnings are errors.
        rng = np.random.default_rng(16)
        X = rng.normal(0.0, 300.0, size=(9, 3))
        y = np.where(rng.random(9) > 0.5, 1.0, -1.0)
        s = rng.uniform(0.5, 2.0, size=9)
        theta = np.array([1.0, -2.0, 0.5, 0.25])
        _, grad = binary_objective(X, y, s, C=0.7)(theta)
        margins = np.asarray(scipy_csr(X) @ theta[:-1]) + theta[-1]
        assert grad[-1] == (-0.7 * s * y * expit(-y * margins)).sum()


class TestTrainLr:
    def test_matches_independent_solver(self):
        X, labels = two_class_problem(seed=1)
        config = LrConfig(C=0.5, tol=1e-9)
        model = train_lr(X, labels, config)
        y = np.array([1.0 if lb is Label.P else -1.0 for lb in labels])
        w_ref, b_ref = oracle_train(X, y, np.ones(len(labels)), C=0.5)
        mine = oracle_objective(model.weights[0], model.biases[0], X, y, np.ones(len(labels)), 0.5)
        ref = oracle_objective(w_ref, b_ref, X, y, np.ones(len(labels)), 0.5)
        assert mine <= ref + 1e-6
        assert np.allclose(model.weights[0], w_ref, atol=1e-4)
        assert model.biases[0] == pytest.approx(b_ref, abs=1e-4)

    def test_tiny_c_shrinks_weights_to_zero(self):
        X, labels = two_class_problem(seed=2)
        model = train_lr(X, labels, LrConfig(C=1e-9, tol=1e-10))
        assert np.linalg.norm(model.weights) <= 1e-6

    def test_separable_data_fits_perfectly(self):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(size=(20, 3)) + 4.0, rng.normal(size=(20, 3)) - 4.0])
        labels = [Label.P] * 20 + [Label.NEU] * 20
        model = train_lr(X, labels, LrConfig(C=10.0))
        assert [predict(model, x) for x in X] == labels

    def test_sample_weight_times_c_equivalence(self):
        # Scaling every sample weight by lam while dividing C by lam leaves
        # the objective unchanged, so the optimum must agree.
        X, labels = two_class_problem(seed=4)
        lam = 3.7
        n = len(labels)
        a = train_lr(X, labels, LrConfig(C=0.8, tol=1e-10), sample_weight=np.full(n, lam))
        b = train_lr(X, labels, LrConfig(C=0.8 * lam, tol=1e-10), sample_weight=np.ones(n))
        assert np.allclose(a.weights, b.weights, atol=1e-5)
        assert np.allclose(a.biases, b.biases, atol=1e-5)

    def test_balanced_mode_equals_explicit_weights(self):
        X, labels = two_class_problem(seed=5)
        config = LrConfig(C=1.0, class_weight="balanced", tol=1e-10)
        auto = train_lr(X, labels, config)
        by_class = compute_class_weights(
            {lb: labels.count(lb) for lb in set(labels)}, "balanced"
        )
        manual = train_lr(
            X, labels, config, sample_weight=np.array([by_class[lb] for lb in labels])
        )
        assert np.allclose(auto.weights, manual.weights, atol=1e-7)

    def test_sparse_input_matches_dense(self):
        X, labels = two_class_problem(seed=6)
        dense = train_lr(X, labels, LrConfig(tol=1e-9))
        sparse_model = train_lr(scipy_csr(X), labels, LrConfig(tol=1e-9))
        assert np.allclose(dense.weights, sparse_model.weights, atol=1e-6)

    def test_features_of_another_dtype_train_as_float64(self):
        # The solver's kernels take float64 data only; plan converts.
        X, labels = two_class_problem(seed=6)
        X = np.round(X * 4.0)
        expected = train_lr(X, labels, LrConfig())
        for dtype in (np.int64, np.float32):
            trained = train_lr(X.astype(dtype), labels, LrConfig())
            assert trained.weights.tobytes() == expected.weights.tobytes()

    def test_classes_in_canonical_order(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 3))
        labels = [Label.NONE, Label.NEU, Label.N, Label.P] * 10
        model = train_lr(X, labels, LrConfig())
        assert model.classes == (Label.P, Label.N, Label.NEU, Label.NONE)

    def test_single_class_rejected(self):
        X = np.ones((5, 2))
        with pytest.raises(ValueError):
            train_lr(X, [Label.P] * 5, LrConfig())

    def test_non_finite_features_rejected(self):
        X = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError):
            train_lr(X, [Label.P, Label.N], LrConfig())

    def test_row_count_mismatch_rejected(self):
        X = np.ones((3, 2))
        with pytest.raises(ValueError):
            train_lr(X, [Label.P, Label.N], LrConfig())

    def test_non_convergence_warns_and_flags(self):
        X, labels = two_class_problem(seed=10, n=60, d=8)
        with pytest.warns(RuntimeWarning, match="tol"):
            model = train_lr(X, labels, LrConfig(C=5.0, tol=1e-12, max_iter=2))
        assert model.converged is False

    def test_each_class_ends_below_its_starting_objective(self):
        X, labels = two_class_problem(seed=11)
        config = LrConfig(tol=1e-8, class_weight="none")
        trained = train_lr(X, labels, config)
        s = np.ones(len(labels))
        assert trained.classes == (Label.P, Label.N)
        for k, cls in enumerate(trained.classes):
            y = np.array([1.0 if label is cls else -1.0 for label in labels])
            start = oracle_objective(np.zeros(X.shape[1]), 0.0, X, y, s, config.C)
            end = oracle_objective(trained.weights[k], trained.biases[k], X, y, s, config.C)
            assert end < start


def row_proba(predictor, x, form=np.asarray):
    """Class distribution of one feature row, as a one-row batch in ``form``."""
    return predict_proba_matrix(predictor, form(np.atleast_2d(x)))[0]


@pytest.fixture(params=["dense", "CsrMatrix", "scipy"])
def form(request):
    """A dense batch in one of the forms scoring takes: the array itself, a
    ``CsrMatrix``, or a scipy CSR matrix whose arrays scoring shares."""
    return {"dense": np.asarray, "CsrMatrix": csr.from_dense, "scipy": scipy_csr}[request.param]


class TestPredict:
    def make_model(self, weights, biases, classes=(Label.P, Label.N)):
        return LinearModel(
            classes=classes,
            weights=np.asarray(weights, dtype=float),
            biases=np.asarray(biases, dtype=float),
            config=LrConfig(),
            converged=True,
        )

    def test_probabilities_normalized(self, form):
        model = self.make_model([[1.0, 0.0], [0.0, 1.0]], [0.1, -0.2])
        proba = row_proba(Ensemble.of(model), np.array([0.5, 1.5]), form)
        assert proba.sum() == pytest.approx(1.0, abs=1e-12)
        assert (proba > 0).all()

    def test_all_zero_scores_fall_back_to_uniform(self, form):
        model = self.make_model([[0.0, 0.0], [0.0, 0.0]], [-1000.0, -1000.0])
        proba = row_proba(Ensemble.of(model), np.array([0.0, 0.0]), form)
        assert np.allclose(proba, [0.5, 0.5])

    def test_tie_breaks_in_canonical_order(self, form):
        model = self.make_model(
            [[0.0], [0.0], [0.0]],
            [0.0, 0.0, 0.0],
            classes=(Label.P, Label.NEU, Label.NONE),
        )
        assert predict(model, np.array([1.0])) is Label.P
        assert predict_many(Ensemble.of(model), form(np.array([[1.0]]))) == [Label.P]

    def test_predict_matches_argmax(self, form):
        X, labels = two_class_problem(seed=12)
        model = train_lr(X, labels, LrConfig())
        for x in X[:10]:
            proba = row_proba(Ensemble.of(model), x, form)
            assert predict(model, x) is model.classes[int(np.argmax(proba))]

    def test_predict_many(self, form):
        X, labels = two_class_problem(seed=13)
        model = train_lr(X, labels, LrConfig())
        many = predict_many(Ensemble.of(model), form(X))
        assert many == [predict(model, x) for x in X]

    @pytest.mark.parametrize("extra_columns", [-1, 1])
    def test_a_matrix_of_another_width_is_rejected(self, extra_columns, form):
        # A gather by column would index past a narrower weight matrix, or
        # quietly score a narrower feature matrix on its first columns.
        model = self.make_model([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]], [0.1, -0.2])
        X = form(np.ones((2, 3 + extra_columns)))
        with pytest.raises(ValueError):
            predict_many(Ensemble.of(model), X)
        with pytest.raises(ValueError):
            predict_proba_matrix(Ensemble.of(model), X)

    def test_an_empty_row_scores_its_biases(self):
        model = self.make_model([[1.0, 0.0], [0.0, 1.0]], [0.3, -0.2])
        X = csr.vstack([csr.from_dense(np.zeros((1, 2))), csr.from_dense(np.array([[0.5, 1.5]]))])
        scipy_X = scipy_csr(X)
        proba = predict_proba_matrix(Ensemble.of(model), X)
        raw = expit(np.array([0.3, -0.2]))
        assert np.array_equal(proba[0], raw / raw.sum())
        assert np.array_equal(proba, predict_proba_matrix(Ensemble.of(model), scipy_X))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 12), st.integers(1, 9), st.integers(1, 4))
def test_scoring_equals_scipy_products_and_the_one_expit_bit_for_bit(seed, n_rows, n_columns, n_members):
    rng = np.random.default_rng(seed)
    dense = rng.normal(0.0, 40.0, (n_rows, n_columns))
    X = scipy_csr(np.where(rng.random(dense.shape) < 0.5, dense, 0.0))
    members = tuple(
        LinearModel(LABELS, rng.normal(0.0, 30.0, (len(LABELS), n_columns)), rng.normal(0.0, 5.0, len(LABELS)), LrConfig())
        for _ in range(n_members)
    )
    ensemble = Ensemble(LABELS, members, LrConfig(), BaggingConfig(n_estimators=n_members))
    # Member by member, with scipy's product and the one sigmoid.
    expected = np.zeros((n_rows, len(LABELS)))
    for member in members:
        raw = expit(np.asarray(X @ member.weights.T) + member.biases)
        totals = raw.sum(axis=1, keepdims=True)
        uniform = totals[:, 0] == 0.0
        totals[uniform] = 1.0
        raw = raw / totals
        raw[uniform] = 1.0 / len(LABELS)
        expected += raw
    expected /= n_members
    assert predict_proba_matrix(ensemble, X).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_rows", [1, 625])
def test_scores_read_each_weight_row_in_place_without_scipy(n_rows, monkeypatch):
    # 625 full rows of 1,000 columns by 40 four-class members.  The kernel
    # calls are only recorded, not run.
    n_columns = 1_000
    X = csr.from_dense(np.ones((n_rows, n_columns)))
    members = [
        LinearModel(LABELS, np.ones((len(LABELS), n_columns)), np.zeros(len(LABELS)), LrConfig()) for _ in range(40)
    ]
    products = []

    def record(n_rows, n_columns, indptr, indices, data, vector, result):
        products.append((n_rows, n_columns, vector.base))

    monkeypatch.setattr(csr, "_kernels", types.SimpleNamespace(csr_matvec=record))
    scipy_before = {name for name in sys.modules if name.split(".")[0] == "scipy"}
    scores = model._member_scores(members, X)
    # One product per weight row, member after member, each on a row of the member's own weights.
    owners = [member.weights for member in members for _ in LABELS]
    assert len(products) == 160
    assert all((rows, columns) == (n_rows, n_columns) and base is owner for (rows, columns, base), owner in zip(products, owners))
    assert [part.shape for part in scores] == [(n_rows, len(LABELS))] * 40
    assert {name for name in sys.modules if name.split(".")[0] == "scipy"} == scipy_before


def four_class_problem(seed=0, per_class=15, d=6):
    rng = np.random.default_rng(seed)
    X_parts, labels = [], []
    for k, label in enumerate(LABELS):
        center = np.zeros(d)
        center[k] = 4.0
        X_parts.append(rng.normal(size=(per_class, d)) + center)
        labels.extend([label] * per_class)
    return np.vstack(X_parts), labels


class TestBagging:
    def test_deterministic_for_seed(self):
        X, labels = four_class_problem(seed=1)
        config = LrConfig(tol=1e-8)
        bag_cfg = BaggingConfig(n_estimators=3, seed=11)
        a = train_bagging(X, labels, config, bag_cfg)
        b = train_bagging(X, labels, config, bag_cfg)
        for ma, mb in zip(a.members, b.members):
            assert np.array_equal(ma.weights, mb.weights)
            assert np.array_equal(ma.biases, mb.biases)

    def test_members_differ_across_indices(self):
        X, labels = four_class_problem(seed=2)
        bag = train_bagging(X, labels, LrConfig(), BaggingConfig(n_estimators=3, seed=0))
        assert not np.array_equal(bag.members[0].weights, bag.members[1].weights)

    @settings(max_examples=10, deadline=None)
    @given(data_seed=st.integers(0, 2**16), seed=st.integers(0, 2**31 - 1), as_sparse=st.booleans())
    def test_a_larger_ensemble_extends_a_smaller_one(self, data_seed, seed, as_sparse):
        # Member k depends only on (seed, k), so a study could solve shared members once.
        X, labels = four_class_problem(seed=data_seed, per_class=8, d=5)
        X = scipy_csr(X) if as_sparse else X
        config = LrConfig()
        two = train_bagging(X, labels, config, BaggingConfig(n_estimators=2, seed=seed))
        three = train_bagging(X, labels, config, BaggingConfig(n_estimators=3, seed=seed))
        assert_same_members(two.members, three.members[:2])

    @settings(max_examples=10, deadline=None)
    @given(data_seed=st.integers(0, 2**16), keep=st.sets(st.integers(0, 5), min_size=1))
    def test_a_plan_on_some_columns_equals_training_on_those_columns(self, data_seed, keep):
        X, labels = four_class_problem(seed=data_seed, per_class=8, d=6)
        X = scipy_csr(X)
        columns = np.array(sorted(keep))
        config, bagging = LrConfig(), BaggingConfig(n_estimators=2, seed=data_seed)
        training, problems = plan(X, labels, config, bagging, columns=columns)
        assert training.dim == len(columns)
        assert training.n_problems == len(problems)
        cut = scipy_csr(X[:, columns].toarray())
        planned = training.assemble(solve_all(problems))
        assert_same_members(planned.members, train_bagging(cut, labels, config, bagging).members)

    def test_identity_bootstrap_equals_plain_lr(self):
        X, labels = four_class_problem(seed=3)
        config = LrConfig(tol=1e-9)
        plain = train_lr(X, labels, config)
        bag = train_bagging(
            X,
            labels,
            config,
            BaggingConfig(n_estimators=2, seed=0),
            bootstrap_fn=lambda k, n, rng: np.arange(n),
        )
        for member in bag.members:
            assert np.allclose(member.weights, plain.weights, atol=1e-7)
        x = X[0]
        assert np.allclose(row_proba(bag, x), row_proba(Ensemble.of(plain), x), atol=1e-7)

    def test_single_class_bootstrap_raises_after_retries(self):
        X, labels = four_class_problem(seed=4)
        only_first = [i for i, lb in enumerate(labels) if lb is Label.P]
        calls = {"n": 0}

        def degenerate(k, n, rng):
            calls["n"] += 1
            return np.array(only_first)

        with pytest.raises(RuntimeError, match="single class"):
            train_bagging(X, labels, LrConfig(), BaggingConfig(n_estimators=1, seed=0), bootstrap_fn=degenerate)
        assert calls["n"] == 10

    def test_aggregation_is_probability_mean(self):
        X, labels = four_class_problem(seed=5)
        bag = train_bagging(X, labels, LrConfig(), BaggingConfig(n_estimators=3, seed=2))
        x = X[7]
        stacked = [row_proba(Ensemble.of(member), x) for member in bag.members]
        assert np.allclose(row_proba(bag, x), np.mean(stacked, axis=0), atol=1e-12)

    def test_prediction_label_consistent_with_probabilities(self):
        X, labels = four_class_problem(seed=6)
        bag = train_bagging(X, labels, LrConfig(), BaggingConfig(n_estimators=2, seed=3))
        [label] = predict_many(bag, X[:1])
        assert label is bag.classes[int(np.argmax(row_proba(bag, X[0])))]

    def test_ensemble_classes_are_canonical_union(self):
        X, labels = four_class_problem(seed=7)
        bag = train_bagging(X, labels, LrConfig(), BaggingConfig(n_estimators=2, seed=4))
        assert bag.classes == LABELS


class TestPlan:
    """``model.plan`` plans plain LR as the one-member ensemble."""

    @settings(max_examples=10, deadline=None)
    @given(data_seed=st.integers(0, 2**16), keep=st.sets(st.integers(0, 5), min_size=1))
    def test_a_plain_lr_plan_on_some_columns_equals_train_lr_on_those_columns(self, data_seed, keep):
        X, labels = four_class_problem(seed=data_seed, per_class=8, d=6)
        X = scipy_csr(X)
        columns = np.array(sorted(keep))
        training, problems = plan(X, labels, LrConfig(), columns=columns)
        assert training.dim == len(columns)
        assert training.n_problems == len(problems)
        [planned] = training.assemble(solve_all(problems)).members
        cut = scipy_csr(X[:, columns].toarray())
        assert_same_members([planned], [train_lr(cut, labels, LrConfig())])

    def test_sample_weight_with_bagging_raises(self):
        X, labels = four_class_problem(seed=6)
        with pytest.raises(ValueError, match="sample_weight"):
            plan(X, labels, LrConfig(), BaggingConfig(n_estimators=2), sample_weight=np.ones(len(labels)))


class TestSaveLoad:
    def test_linear_round_trip(self, tmp_path):
        X, labels = four_class_problem(seed=8)
        model = train_lr(X, labels, LrConfig(C=0.3, class_weight="balanced"))
        layout = [("bow", 3), ("embedding", 3)]
        save_model(Ensemble.of(model), tmp_path, layout)
        loaded, loaded_layout = load_model(tmp_path)
        assert loaded.bagging is None
        [member] = loaded.members
        assert loaded_layout == layout
        assert np.array_equal(member.weights, model.weights)
        assert np.array_equal(member.biases, model.biases)
        assert member.config == model.config == loaded.lr_config
        assert predict_many(loaded, X) == predict_many(Ensemble.of(model), X)

    def test_bagging_round_trip(self, tmp_path):
        X, labels = four_class_problem(seed=9)
        bag = train_bagging(X, labels, LrConfig(), BaggingConfig(n_estimators=2, seed=5))
        save_model(bag, tmp_path, [("bow", X.shape[1])])
        loaded, _ = load_model(tmp_path)
        assert len(loaded.members) == 2
        assert loaded.bagging == bag.bagging
        for x in X[:5]:
            assert np.allclose(row_proba(loaded, x), row_proba(bag, x))

    def test_layout_dim_mismatch_rejected(self, tmp_path):
        X, labels = four_class_problem(seed=10)
        model = train_lr(X, labels, LrConfig())
        with pytest.raises(ValueError):
            save_model(Ensemble.of(model), tmp_path, [("bow", 2)])

    def test_unknown_format_version_rejected(self, tmp_path):
        X, labels = four_class_problem(seed=11)
        model = train_lr(X, labels, LrConfig())
        save_model(Ensemble.of(model), tmp_path, [("bow", X.shape[1])])
        meta = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
        meta["format_version"] = 999
        (tmp_path / "model.json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(ValueError, match="version"):
            load_model(tmp_path)


def drop_members(meta):
    meta["members"] = []


def drop_one_member(meta):
    meta["members"] = meta["members"][:1]


def narrow_ensemble_classes(meta):
    meta["classes"] = meta["classes"][:2]


class TestMalformedEnsemble:
    """A bagging bundle whose members do not fit the ensemble fails to load."""

    @pytest.mark.parametrize(
        "edit, match",
        [
            (drop_members, "0 members, expected 2"),
            (drop_one_member, "1 members, expected 2"),
            (narrow_ensemble_classes, "classes outside"),
        ],
    )
    def test_rejected_on_load(self, tmp_path, edit, match):
        X, labels = four_class_problem(seed=12)
        bag = train_bagging(X, labels, LrConfig(), BaggingConfig(n_estimators=2, seed=1))
        save_model(bag, tmp_path, [("bow", X.shape[1])])
        meta = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
        edit(meta)
        (tmp_path / "model.json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(ValueError, match=match):
            load_model(tmp_path)


GOLDEN_LINEAR_JSON = """\
{
  "classes": [
    "P",
    "N"
  ],
  "config": {
    "C": 0.5,
    "class_weight": "none",
    "max_iter": 1000,
    "tol": 1e-06
  },
  "converged": true,
  "format_version": 1,
  "kind": "linear",
  "layout": [
    [
      "bow",
      2
    ]
  ]
}
"""

GOLDEN_BAGGING_JSON = """\
{
  "bagging": {
    "n_estimators": 2,
    "seed": 3
  },
  "classes": [
    "P",
    "N"
  ],
  "config": {
    "C": 0.5,
    "class_weight": "none",
    "max_iter": 1000,
    "tol": 1e-06
  },
  "format_version": 1,
  "kind": "bagging",
  "layout": [
    [
      "bow",
      1
    ],
    [
      "boc",
      1
    ]
  ],
  "members": [
    {
      "classes": [
        "P",
        "N"
      ],
      "converged": true
    },
    {
      "classes": [
        "P",
        "N"
      ],
      "converged": false
    }
  ]
}
"""


class TestBundleFormat:
    """Format-1 bundles, pinned as written: both kinds load into ``Ensemble``."""

    def members(self):
        config = LrConfig(C=0.5)
        first = LinearModel(
            (Label.P, Label.N), np.array([[1.0, -2.0], [0.5, 0.0]]), np.array([0.25, -0.25]), config, True
        )
        second = LinearModel(
            (Label.P, Label.N), np.array([[0.0, 1.0], [-1.0, 3.0]]), np.array([0.0, 1.5]), config, False
        )
        return first, second

    def check_round_trip(self, directory, saved, expected_files, expected_json):
        assert sorted(path.name for path in directory.iterdir()) == expected_files
        assert (directory / "model.json").read_bytes() == expected_json.encode("utf-8")
        loaded, _ = load_model(directory)
        assert loaded.classes == saved.classes
        assert loaded.lr_config == saved.lr_config
        assert loaded.bagging == saved.bagging
        assert len(loaded.members) == len(saved.members)
        for ours, theirs in zip(loaded.members, saved.members):
            assert ours.classes == theirs.classes
            assert ours.converged is theirs.converged
            assert np.array_equal(ours.weights, theirs.weights)
            assert np.array_equal(ours.biases, theirs.biases)

    def test_linear_kind(self, tmp_path):
        first, _ = self.members()
        plain = Ensemble.of(first)
        save_model(plain, tmp_path, [("bow", 2)])
        self.check_round_trip(tmp_path, plain, ["biases.npy", "model.json", "weights.npy"], GOLDEN_LINEAR_JSON)

    def test_bagging_kind(self, tmp_path):
        members = self.members()
        bag = Ensemble((Label.P, Label.N), members, LrConfig(C=0.5), BaggingConfig(n_estimators=2, seed=3))
        save_model(bag, tmp_path, [("bow", 1), ("boc", 1)])
        files = [
            "member_000_biases.npy",
            "member_000_weights.npy",
            "member_001_biases.npy",
            "member_001_weights.npy",
            "model.json",
        ]
        self.check_round_trip(tmp_path, bag, files, GOLDEN_BAGGING_JSON)

    def test_mistyped_config_value_names_its_key(self, tampered_bundle):
        bundle = tampered_bundle("model.json", lambda meta: meta["config"].update(C="1"))
        with pytest.raises(ValueError, match=r"config key 'config\.C' must be of type float, got '1'"):
            load_bundle(bundle)


def drop_none_from_first_member(labels):
    """Member 0 trains without class NONE; the others draw as usual."""
    kept = np.array([i for i, label in enumerate(labels) if label is not Label.NONE])
    return lambda k, n, rng: kept if k == 0 else rng.integers(0, n, size=n)


def pooled(monkeypatch, cpus=2):
    """Run the solves in ``cpus`` forked workers; returns the list of pools made."""
    pools = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
    # fork_map imports the pool class when it first needs one.
    monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", RecordingPool)
    return pools


def in_process(monkeypatch):
    monkeypatch.setattr(parallel, "cpu_count", lambda: 1)


def assert_same_members(ours, theirs):
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.classes == b.classes
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)
        assert a.converged is b.converged
        assert a.stats == b.stats
        assert len(a.stats) == len(a.classes)


class TestParallelSolves:
    """Solves in forked workers give exactly what the in-process path gives."""

    def test_train_lr_pool_equals_in_process(self, monkeypatch):
        X, labels = four_class_problem(seed=20)
        X = scipy_csr(X)
        config = LrConfig(C=2.0, class_weight="balanced")
        pools = pooled(monkeypatch)
        parallel = train_lr(X, labels, config)
        assert pools == [(2,)]
        in_process(monkeypatch)
        serial = train_lr(X, labels, config)
        assert_same_members([parallel], [serial])
        assert all(s.converged and s.grad_norm < config.tol and s.nfev >= s.nit > 0 for s in serial.stats)

    def test_train_bagging_pool_equals_in_process(self, monkeypatch):
        X, labels = four_class_problem(seed=21)
        config = LrConfig()
        bagging = BaggingConfig(n_estimators=3, seed=5)
        bootstrap = drop_none_from_first_member(labels)
        pools = pooled(monkeypatch, cpus=3)
        parallel = train_bagging(X, labels, config, bagging, bootstrap_fn=bootstrap)
        assert pools == [(3,)]
        in_process(monkeypatch)
        serial = train_bagging(X, labels, config, bagging, bootstrap_fn=bootstrap)
        assert serial.members[0].classes == (Label.P, Label.N, Label.NEU)
        assert parallel.classes == serial.classes == LABELS
        assert_same_members(parallel.members, serial.members)

    def test_one_problem_is_solved_in_process(self, monkeypatch):
        X, labels = two_class_problem(seed=22)
        signs = np.array([1.0 if label is Label.P else -1.0 for label in labels])
        pools = pooled(monkeypatch)
        [(x, stats)] = model.solve_all([model._Problem(X, None, None, signs, np.ones(len(labels)), LrConfig())])
        assert pools == []
        assert stats.converged
        assert np.array_equal(x[:-1], train_lr(X, labels, LrConfig()).weights[0])
        assert pools == [(2,)]

    def test_unconverged_class_warns_in_the_parent(self, monkeypatch):
        X, labels = two_class_problem(seed=10, n=60, d=8)
        pooled(monkeypatch)
        with pytest.warns(RuntimeWarning, match="tol=1e-12 for class") as record:
            trained = train_lr(X, labels, LrConfig(C=5.0, tol=1e-12, max_iter=2))
        assert len(record) == 2
        assert trained.converged is False
        assert [s.converged for s in trained.stats] == [False, False]
        assert all(s.nit == 2 and s.message == "iteration limit reached" for s in trained.stats)

    def test_pool_yields_solutions_in_problem_order(self, monkeypatch):
        X, labels = four_class_problem(seed=23)
        problems = [
            model._Problem(X, None, None, np.where(np.array(labels) == cls, 1.0, -1.0), np.ones(len(labels)), LrConfig(C=C))
            for cls, C in zip(LABELS, (0.5, 1.0, 2.0, 4.0))
        ]
        pools = pooled(monkeypatch)
        solved = list(model.solve_all(problems))
        assert pools == [(2,)]
        expected = [model._solve(problem) for problem in problems]
        assert [stats for _, stats in solved] == [stats for _, stats in expected]
        for (x, _), (x_expected, _) in zip(solved, expected):
            assert np.array_equal(x, x_expected)

    def test_in_process_solves_look_up_the_module_solver(self, monkeypatch):
        # bench/tracing.py wraps tweetsent.model:optimize.minimize; every
        # in-process solve must go through that name.
        X, labels = four_class_problem(seed=25)
        assert model.optimize is optimize
        calls = []

        def counting_minimize(fun, x0, **limits):
            calls.append(limits)
            return optimize.minimize(fun, x0, **limits)

        in_process(monkeypatch)
        monkeypatch.setattr(model, "optimize", types.SimpleNamespace(minimize=counting_minimize))
        trained = train_lr(X, labels, LrConfig(tol=1e-5, max_iter=300))
        assert calls == [{"gtol": 1e-5, "maxiter": 300, "maxfun": 15000}] * 4
        assert len(trained.classes) == 4

    def test_dead_worker_raises(self, monkeypatch):
        X, labels = four_class_problem(seed=24)
        parent = os.getpid()

        def exit_in_worker(*args):
            if os.getpid() != parent:
                os._exit(1)
            raise AssertionError("solved in the parent process")

        pooled(monkeypatch)
        monkeypatch.setattr(model, "binary_objective", exit_in_worker)
        with pytest.raises(BrokenProcessPool):
            train_lr(X, labels, LrConfig())


@pytest.mark.parametrize("cpus", [2, 1])
def test_fork_imap_keeps_no_item_it_has_handed_over(cpus, monkeypatch):
    # Forked, the workers hold the items from the first next on; in-process,
    # each item goes once it is mapped.
    monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
    items = [np.full(3, float(i)) for i in range(4)]
    refs = [weakref.ref(item) for item in items]
    results = parallel.fork_imap(np.sum, items)
    del items
    assert next(results) == 0.0
    gc.collect()
    assert [ref() is None for ref in refs] == ([True] * 4 if cpus > 1 else [True, False, False, False])
    assert list(results) == [3.0, 6.0, 9.0]
