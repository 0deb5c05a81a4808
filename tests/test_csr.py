"""The numpy CSR helpers, the solver's kernels and scoring against
scipy.sparse and scipy.special, bit for bit.

``scipy.sparse`` loads inside the tests, not at collection (see
``conftest.scipy_csr``).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from conftest import assert_same_csr, scipy_csr
from tweetsent import csr, model
from tweetsent.corpus import LABELS

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
def matrices(draw, n_rows=None, n_columns=None):
    """A CSR matrix, many of its rows empty, whose rows may hold their
    entries in any order."""
    matrix = csr.from_dense(draw(dense_arrays(n_rows, n_columns)))
    if draw(st.booleans()):
        for start, end in zip(matrix.indptr[:-1], matrix.indptr[1:]):
            order = draw(st.permutations(range(end - start)))
            matrix.indices[start:end] = matrix.indices[start:end][list(order)]
            matrix.data[start:end] = matrix.data[start:end][list(order)]
    return matrix


class TestAgainstScipy:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(0, 5), st.integers(1, 4))
    def test_hstack(self, data, n_rows, n_blocks):
        from scipy import sparse

        blocks = [data.draw(matrices(n_rows=n_rows)) for _ in range(n_blocks)]
        expected = sparse.hstack([scipy_csr(block) for block in blocks], format="csr")
        assert_same_csr(csr.hstack(blocks), expected)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(0, 5), st.integers(1, 4))
    def test_vstack(self, data, n_columns, n_parts):
        from scipy import sparse

        parts = [data.draw(matrices(n_columns=n_columns)) for _ in range(n_parts)]
        expected = sparse.vstack([scipy_csr(part) for part in parts], format="csr")
        assert_same_csr(csr.vstack(parts), expected)

    @settings(max_examples=150, deadline=None)
    @given(dense_arrays())
    @example(np.zeros((0, 3)))
    @example(np.zeros((2, 0)))
    @example(np.array([[np.nan, 0.0, np.inf], [-0.0, -np.inf, 1.0]]))
    def test_from_dense(self, dense):
        from scipy import sparse

        assert_same_csr(csr.from_dense(dense), sparse.csr_matrix(dense))

    @settings(max_examples=150, deadline=None)
    @given(st.data(), matrices())
    def test_take_columns(self, data, matrix):
        columns = data.draw(st.lists(st.integers(0, matrix.shape[1] - 1), unique=True) if matrix.shape[1] else st.just([]))
        columns = np.array(columns, dtype=np.int64)
        assert_same_csr(csr.take_columns(matrix, columns), scipy_csr(matrix)[:, columns])

    @settings(max_examples=150, deadline=None)
    @given(matrices())
    @example(csr.from_dense(np.zeros((0, 3))))
    @example(csr.from_dense(np.zeros((2, 0))))
    @example(csr.from_dense(np.zeros((0, 0))))
    def test_to_dense(self, matrix):
        dense, expected = matrix.to_dense(), scipy_csr(matrix).toarray()
        assert dense.shape == expected.shape and dense.dtype == expected.dtype
        assert dense.tobytes() == expected.tobytes()

    def test_take_columns_rejects_repeats(self):
        with pytest.raises(ValueError):
            csr.take_columns(csr.from_dense(np.eye(3)), np.array([1, 1]))


def with_index_dtype(matrix, dtype):
    """``matrix`` with its index arrays cast to ``dtype``."""
    return csr.CsrMatrix(matrix.data, matrix.indices.astype(dtype), matrix.indptr.astype(dtype), matrix.shape)


def vectors(length):
    return st.lists(st.one_of(st.just(-0.0), values), min_size=length, max_size=length).map(np.array)


def assert_same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def weight_rows(rng, n_columns):
    """Weights of 1, 20 and 160 rows, the last those of a 40-member bundle,
    whose magnitudes lie far apart."""
    shapes = [(k, n_columns) for k in (1, 20, 160)]
    return [rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-30, 31, shape) for shape in shapes]


def scores(matrix, weights):
    """Scoring's raw scores of ``matrix`` by the rows of ``weights``, taken
    four at a time as the weights of one member, side by side."""
    members = [
        model.LinearModel(LABELS[: len(rows)], rows, np.zeros(len(rows)), model.LrConfig())
        for rows in np.split(weights, range(4, len(weights), 4))
    ]
    return np.hstack(model._member_scores(members, matrix))


class TestKernels:
    """``matvec``, ``rmatvec``, scoring and ``take_rows``: what a solve does
    with a member's matrix and what scoring does with a block, against
    scipy's ``X @ w``, ``X.T @ c``, ``X @ W.T`` and ``X[rows]``."""

    @settings(max_examples=200, deadline=None)
    @given(st.data(), matrices(), st.sampled_from([np.int32, np.int64]))
    @example(None, csr.from_dense(np.zeros((0, 3))), np.int64)
    @example(None, csr.from_dense(np.zeros((3, 0))), np.int64)
    @example(None, csr.from_dense(np.zeros((0, 0))), np.int32)
    @example(None, csr.from_dense(np.zeros((4, 3))), np.int32)
    @example(None, csr.from_dense(np.arange(12.0).reshape(3, 4)), np.int64)
    def test_equal_scipy(self, data, matrix, index_dtype):
        n_rows, n_columns = matrix.shape
        matrix = with_index_dtype(matrix, index_dtype)
        if data is None:  # repeated, unsorted rows
            w, c, rows = np.ones(n_columns), np.full(n_rows, -0.5), [2, 0, 2, 1, 1] if n_rows == 3 else []
            seed = 0
        else:
            w, c = data.draw(vectors(n_columns)), data.draw(vectors(n_rows))
            rows = data.draw(st.lists(st.integers(0, n_rows - 1), max_size=12)) if n_rows else []
            seed = data.draw(st.integers(0, 2**32 - 1))
        rows = np.array(rows, dtype=np.int64)
        X = scipy_csr(matrix)
        assert_same_array(csr.matvec(matrix, w), X @ w)
        assert_same_array(csr.rmatvec(matrix, c), X.T @ c)
        for weights in weight_rows(np.random.default_rng(seed), n_columns):
            assert_same_array(scores(matrix, weights), X @ weights.T)
        assert_same_csr(csr.take_rows(matrix, rows), X[rows])


class TestScoring:
    """Scoring gives scipy's ``X @ W.T`` bit for bit: ``-0.0`` and empty
    rows included, on rows whose products sum over far-apart magnitudes,
    and on a block the size ``FeaturePipeline.label`` scores."""

    @settings(max_examples=200, deadline=None)
    @given(st.data(), matrices(), st.integers(1, 5))
    @example(None, csr.from_dense(np.zeros((0, 3))), 2)
    @example(None, csr.from_dense(np.zeros((3, 0))), 2)
    def test_equal_scipy(self, data, matrix, n_weights):
        if data is not None:
            weights = data.draw(dense_arrays(n_weights, matrix.shape[1]))
        else:
            weights = np.ones((n_weights, matrix.shape[1]))
        scored = scores(matrix, weights)
        expected = scipy_csr(matrix) @ weights.T
        assert scored.shape == expected.shape
        assert np.array_equal(scored, expected)
        assert np.array_equal(np.signbit(scored), np.signbit(expected))
        empty = np.diff(matrix.indptr) == 0
        assert np.array_equal(scored[empty], np.zeros((empty.sum(), n_weights)))

    @settings(max_examples=50, deadline=None)
    @given(st.data(), st.integers(1, 40), st.integers(1, 30), st.integers(1, 6))
    def test_on_long_rows(self, data, n_rows, n_columns, n_weights):
        dense = np.array(
            data.draw(st.lists(values, min_size=n_rows * n_columns, max_size=n_rows * n_columns))
        ).reshape(n_rows, n_columns)
        dense[dense == 0.0] = 1.0
        matrix = csr.from_dense(dense)
        weights = np.array(
            data.draw(st.lists(values, min_size=n_weights * n_columns, max_size=n_weights * n_columns))
        ).reshape(n_weights, n_columns)
        assert np.array_equal(scores(matrix, weights), scipy_csr(matrix) @ weights.T)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1_000, 1_500), st.integers(33, 160))
    def test_on_a_predict_sized_block(self, seed, n_rows, n_weights):
        # More rows than a ``FeaturePipeline.label`` block, of 0 to 80 entries
        # whose magnitudes lie far apart, by up to the 160 weight rows of a
        # 40-member bundle.
        rng = np.random.default_rng(seed)
        n_columns = 300
        lengths = rng.integers(0, 81, n_rows)
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        indices = np.concatenate([np.sort(rng.choice(n_columns, k, replace=False)) for k in lengths])
        data = rng.uniform(-1.0, 1.0, indptr[-1]) * 10.0 ** rng.integers(-30, 31, indptr[-1])
        matrix = csr.csr_matrix(data, indices, indptr, (n_rows, n_columns))
        weights = rng.uniform(-1.0, 1.0, (n_weights, n_columns)) * 10.0 ** rng.integers(-30, 31, (n_weights, n_columns))
        assert scores(matrix, weights).tobytes() == (scipy_csr(matrix) @ weights.T).tobytes()

    @pytest.mark.parametrize(
        "layout",
        [
            np.asfortranarray,
            lambda weights: weights.astype(np.float32),
            lambda weights: np.repeat(weights, 2, axis=1)[:, ::2],
        ],
        ids=["fortran-order", "float32", "strided"],
    )
    def test_weights_in_another_layout_score_as_their_float64_copy(self, layout):
        rng = np.random.default_rng(5)
        matrix = csr.from_dense(rng.uniform(-1.0, 1.0, (7, 9)) * (rng.uniform(size=(7, 9)) < 0.5))
        weights = layout(rng.uniform(-1.0, 1.0, (8, 9)))
        expected = scipy_csr(matrix) @ np.array(weights, dtype=np.float64).T
        assert scores(matrix, weights).tobytes() == expected.tobytes()


def small_matrix(**arrays):
    """A 2 x 3 matrix with entries at (0, 0), (0, 2) and (1, 1), but for ``arrays``."""
    data, indices, indptr = np.array([1.0, 2.0, 3.0]), np.array([0, 2, 1], dtype=np.int32), np.array([0, 2, 3], dtype=np.int32)
    return csr.CsrMatrix(**{"data": data, "indices": indices, "indptr": indptr, **arrays}, shape=(2, 3))


every_product = pytest.mark.parametrize("product", [csr.matvec, csr.rmatvec])


class TestKernelsRefuse:
    """A C kernel does not check its bounds: every product checks its
    inputs first, and raises ``ValueError`` where the kernel could read or
    write past an array."""

    @staticmethod
    def vector(product, change=0, **kwargs):
        """The vector that ``product`` takes with ``small_matrix()``, ``change``
        entries longer."""
        return np.ones((2 if product is csr.rmatvec else 3) + change, **kwargs)

    @every_product
    def test_a_good_matrix_passes(self, product):
        product(small_matrix(), self.vector(product))

    @every_product
    def test_indices_and_indptr_of_two_dtypes(self, product):
        with pytest.raises(ValueError, match="one dtype"):
            product(small_matrix(indptr=np.array([0, 2, 3], dtype=np.int64)), self.vector(product))

    @every_product
    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_data_that_is_not_float64(self, product, dtype):
        with pytest.raises(ValueError, match="float64 data"):
            product(small_matrix(data=np.array([1, 2, 3], dtype=dtype)), self.vector(product))

    @every_product
    def test_data_that_is_not_contiguous(self, product):
        with pytest.raises(ValueError, match="contiguous"):
            product(small_matrix(data=np.array([1.0, 0.0, 2.0, 0.0, 3.0, 0.0])[::2]), self.vector(product))

    @every_product
    def test_a_vector_that_is_not_float64(self, product):
        with pytest.raises(ValueError, match="float64 vector"):
            product(small_matrix(), self.vector(product, dtype=np.float32))

    @every_product
    def test_a_vector_that_is_not_contiguous(self, product):
        with pytest.raises(ValueError, match="contiguous"):
            product(small_matrix(), np.repeat(self.vector(product), 2)[::2])

    @every_product
    @pytest.mark.parametrize("change", [-1, 1])
    def test_a_vector_of_the_wrong_length(self, product, change):
        with pytest.raises(ValueError, match="cannot multiply"):
            product(small_matrix(), self.vector(product, change))

    @every_product
    def test_a_vector_of_the_wrong_dimension(self, product):
        with pytest.raises(ValueError, match="1-D"):
            product(small_matrix(), self.vector(product)[:, None])

    @every_product
    @pytest.mark.parametrize("index", [3, 1000, -1])
    def test_a_column_index_outside_the_columns(self, product, index):
        with pytest.raises(ValueError, match="column index"):
            product(small_matrix(indices=np.array([0, index, 1], dtype=np.int32)), self.vector(product))

    @every_product
    @pytest.mark.parametrize("indptr", [[0, 2, 4], [0, 3, 2], [1, 2, 3], [0, 3]])
    def test_an_indptr_outside_the_entries(self, product, indptr):
        with pytest.raises(ValueError, match="indptr"):
            product(small_matrix(indptr=np.array(indptr, dtype=np.int32)), self.vector(product))


def test_the_objective_refuses_before_its_first_product():
    objective = model.binary_objective(small_matrix(indices=np.array([0, 3, 1], dtype=np.int32)), np.ones(2), np.ones(2), 1.0)
    with pytest.raises(ValueError, match="column index"):
        objective(np.zeros(4))


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
