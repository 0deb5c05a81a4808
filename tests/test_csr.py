"""The numpy CSR helpers against scipy.sparse and scipy.special, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse, special

from conftest import assert_same_csr
from tweetsent import csr, model

# Magnitudes far apart, so that summing in another order changes the bits.
values = st.builds(
    lambda mantissa, exponent: mantissa * 10.0**exponent,
    st.floats(-1.0, 1.0, allow_nan=False),
    st.integers(-30, 30),
)


@st.composite
def dense_arrays(draw, n_rows=None, n_columns=None):
    """A 2-D array that is mostly zeros, with some -0.0 among them."""
    n_rows = draw(st.integers(0, 6)) if n_rows is None else n_rows
    n_columns = draw(st.integers(0, 7)) if n_columns is None else n_columns
    cells = st.one_of(st.just(0.0), st.just(-0.0), values)
    flat = draw(st.lists(cells, min_size=n_rows * n_columns, max_size=n_rows * n_columns))
    return np.array(flat, dtype=np.float64).reshape(n_rows, n_columns)


@st.composite
def scipy_matrices(draw, n_rows=None, n_columns=None):
    """A scipy CSR matrix whose rows may hold their entries in any order."""
    matrix = sparse.csr_matrix(draw(dense_arrays(n_rows, n_columns)))
    if draw(st.booleans()):
        for start, end in zip(matrix.indptr[:-1], matrix.indptr[1:]):
            order = draw(st.permutations(range(end - start)))
            matrix.indices[start:end] = matrix.indices[start:end][list(order)]
            matrix.data[start:end] = matrix.data[start:end][list(order)]
    return matrix


def ours(matrix):
    return csr.CsrMatrix(matrix.data, matrix.indices, matrix.indptr, matrix.shape)


class TestAgainstScipy:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(0, 5), st.integers(1, 4))
    def test_hstack(self, data, n_rows, n_blocks):
        blocks = [data.draw(scipy_matrices(n_rows=n_rows)) for _ in range(n_blocks)]
        assert_same_csr(csr.hstack([ours(block) for block in blocks]), sparse.hstack(blocks, format="csr"))

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(0, 5), st.integers(1, 4))
    def test_vstack(self, data, n_columns, n_parts):
        parts = [data.draw(scipy_matrices(n_columns=n_columns)) for _ in range(n_parts)]
        assert_same_csr(csr.vstack([ours(part) for part in parts]), sparse.vstack(parts, format="csr"))

    @settings(max_examples=150, deadline=None)
    @given(dense_arrays())
    @example(np.zeros((0, 3)))
    @example(np.zeros((2, 0)))
    @example(np.array([[np.nan, 0.0, np.inf], [-0.0, -np.inf, 1.0]]))
    def test_from_dense(self, dense):
        assert_same_csr(csr.from_dense(dense), sparse.csr_matrix(dense))

    @settings(max_examples=150, deadline=None)
    @given(st.data(), scipy_matrices())
    def test_take_columns(self, data, matrix):
        columns = data.draw(st.lists(st.integers(0, matrix.shape[1] - 1), unique=True) if matrix.shape[1] else st.just([]))
        columns = np.array(columns, dtype=np.int64)
        assert_same_csr(csr.take_columns(ours(matrix), columns), matrix[:, columns])

    @settings(max_examples=150, deadline=None)
    @given(scipy_matrices())
    @example(sparse.csr_matrix((0, 3)))
    @example(sparse.csr_matrix((2, 0)))
    @example(sparse.csr_matrix((0, 0)))
    def test_to_dense(self, matrix):
        dense, expected = ours(matrix).to_dense(), matrix.toarray()
        assert dense.shape == expected.shape and dense.dtype == expected.dtype
        assert dense.tobytes() == expected.tobytes()

    def test_take_columns_rejects_repeats(self):
        with pytest.raises(ValueError):
            csr.take_columns(csr.from_dense(np.eye(3)), np.array([1, 1]))

    @settings(max_examples=200, deadline=None)
    @given(st.data(), scipy_matrices(), st.integers(0, 5))
    @example(None, sparse.csr_matrix((0, 3)), 2)
    @example(None, sparse.csr_matrix((3, 0)), 2)
    def test_matmul(self, data, matrix, n_weights):
        if data is not None:
            weights = data.draw(dense_arrays(n_weights, matrix.shape[1]))
        else:
            weights = np.ones((n_weights, matrix.shape[1]))
        scores = csr.matmul(ours(matrix), weights.T)
        expected = matrix @ weights.T
        assert scores.shape == expected.shape
        assert np.array_equal(scores, expected)
        assert np.array_equal(np.signbit(scores), np.signbit(expected))
        empty = np.diff(matrix.indptr) == 0
        assert np.array_equal(scores[empty], np.zeros((empty.sum(), n_weights)))

    @settings(max_examples=50, deadline=None)
    @given(st.data(), st.integers(1, 40), st.integers(1, 30), st.integers(1, 6))
    def test_matmul_on_long_rows(self, data, n_rows, n_columns, n_weights):
        dense = np.array(
            data.draw(st.lists(values, min_size=n_rows * n_columns, max_size=n_rows * n_columns))
        ).reshape(n_rows, n_columns)
        dense[dense == 0.0] = 1.0
        matrix = sparse.csr_matrix(dense)
        weights = np.array(
            data.draw(st.lists(values, min_size=n_weights * n_columns, max_size=n_weights * n_columns))
        ).reshape(n_weights, n_columns)
        assert np.array_equal(csr.matmul(ours(matrix), weights.T), matrix @ weights.T)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1_000, 1_500), st.integers(33, 160))
    def test_matmul_on_a_predict_sized_block(self, seed, n_rows, n_weights):
        # More rows than a ``FeaturePipeline.label`` block, of 0 to 80 entries
        # whose magnitudes lie far apart, by up to the 160 weight rows of a
        # 40-member bundle.
        rng = np.random.default_rng(seed)
        n_columns = 300
        lengths = rng.integers(0, 81, n_rows)
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        indices = np.concatenate([np.sort(rng.choice(n_columns, k, replace=False)) for k in lengths])
        data = rng.uniform(-1.0, 1.0, indptr[-1]) * 10.0 ** rng.integers(-30, 31, indptr[-1])
        matrix = sparse.csr_matrix((data, indices, indptr), shape=(n_rows, n_columns))
        weights = rng.uniform(-1.0, 1.0, (n_weights, n_columns)) * 10.0 ** rng.integers(-30, 31, (n_weights, n_columns))
        assert csr.matmul(ours(matrix), weights.T).tobytes() == (matrix @ weights.T).tobytes()

    def test_matmul_rejects_a_size_mismatch(self):
        with pytest.raises(ValueError):
            csr.matmul(csr.from_dense(np.ones((2, 3))), np.ones((2, 4)))


class TestExpit:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=40))
    @example([0.0, -0.0, np.inf, -np.inf, np.nan])
    @example([-709.78, -709.79, -709.782712893384, -745.2, -800.0, 709.79, 745.2, 800.0, -1e308, 1e308])
    def test_equals_scipy(self, xs):
        x = np.array(xs)
        assert np.array_equal(model.expit(x), special.expit(x), equal_nan=True)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-760.0, 760.0), min_size=1, max_size=40))
    def test_equals_scipy_around_the_overflow(self, xs):
        x = np.array(xs).reshape(-1, 1)
        assert np.array_equal(model.expit(x), special.expit(x))

    def test_the_limit_is_where_exp_overflows(self):
        assert math.isfinite(math.exp(model._EXP_LIMIT))
        with pytest.raises(OverflowError):
            math.exp(math.nextafter(model._EXP_LIMIT, math.inf))
        past = -math.nextafter(model._EXP_LIMIT, math.inf)
        assert model.expit(np.array([past]))[0] == 0.0 == special.expit(past)
        assert model.expit(np.array([-model._EXP_LIMIT]))[0] == special.expit(-model._EXP_LIMIT) > 0.0

    def test_no_overflow_warning_reaches_the_caller(self):
        with np.errstate(all="raise"):
            model.expit(np.array([-1e308, 1e308]))
