"""Feature matrices in compressed sparse row (CSR) form, as plain numpy arrays.

A ``CsrMatrix`` is the three arrays of the CSR format and a shape.  Every
operation here gives, bit for bit, what ``scipy.sparse`` gives for the same
operation on a ``csr_matrix``: the data, indices and index pointer, their
dtypes and the order of the entries in each row.  So featurizing and
scoring need numpy alone; a solve loads ``scipy.sparse`` for the
objective's products, which wraps the arrays without copying them
(``model._scipy_matrix``).

Index arrays are ``int32`` while every column index and entry count fits in
one, as scipy downcasts them; ``int64`` otherwise.

``matmul`` sums each row's products in stored order, starting from 0.0, as
scipy's ``csr_matvecs`` does; it is the one such ordered sum, and also sums
the squares of the tf-idf row norms (``vectorize._row_norms``).  A pairwise
sum of a row's products (``np.add.reduceat``) or a dense ``matmul`` groups
the terms differently and moves values by ulps.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

_INT32_MAX = np.iinfo(np.int32).max


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """Row ``i`` holds ``data[indptr[i]:indptr[i + 1]]`` at the columns
    ``indices[indptr[i]:indptr[i + 1]]``."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        """The number of stored entries."""
        return int(self.indptr[-1])

    def to_dense(self) -> np.ndarray:
        """The matrix as a 2-D array: each entry added into zeros, as scipy's ``toarray()`` does."""
        dense = np.zeros(self.shape, dtype=self.data.dtype)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        np.add.at(dense, (rows, self.indices), self.data)
        return dense


def _index_dtype(*sizes: int) -> type:
    return np.int32 if max(sizes, default=0) <= _INT32_MAX else np.int64


def csr_matrix(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: tuple[int, int]) -> CsrMatrix:
    """The matrix of these arrays, its index arrays cast to the index dtype."""
    dtype = _index_dtype(*shape, len(data))
    shape = (int(shape[0]), int(shape[1]))
    return CsrMatrix(np.asarray(data), np.asarray(indices, dtype=dtype), np.asarray(indptr, dtype=dtype), shape)


def from_dense(array: np.ndarray) -> CsrMatrix:
    """The nonzero entries of a 2-D array, row by row, as scipy's ``csr_matrix(array)`` stores them."""
    array = np.asarray(array)
    rows, columns = np.nonzero(array)
    indptr = np.zeros(array.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(array, axis=1), out=indptr[1:])
    return csr_matrix(array[rows, columns], columns, indptr, array.shape)


def as_csr(matrix) -> CsrMatrix:
    """A ``CsrMatrix``, a scipy sparse matrix or a dense 2-D array as a
    ``CsrMatrix``; a scipy CSR matrix shares its arrays."""
    if isinstance(matrix, CsrMatrix):
        return matrix
    if hasattr(matrix, "tocsr"):
        matrix = matrix.tocsr()
        return CsrMatrix(matrix.data, matrix.indices, matrix.indptr, matrix.shape)
    return from_dense(matrix)


def hstack(blocks: Sequence[CsrMatrix]) -> CsrMatrix:
    """The blocks side by side: each row holds the entries of every block's
    row in turn, their columns moved past the blocks before."""
    n_rows = blocks[0].shape[0]
    if any(block.shape[0] != n_rows for block in blocks):
        raise ValueError("blocks to join side by side must have the same number of rows")
    dim = sum(block.shape[1] for block in blocks)
    nnz = sum(block.nnz for block in blocks)
    dtype = _index_dtype(dim, nnz)
    indptr = np.zeros(n_rows + 1, dtype=dtype)
    for block in blocks:
        indptr += block.indptr
    data = np.empty(nnz, dtype=np.result_type(*(block.data for block in blocks)))
    indices = np.empty(nnz, dtype=dtype)
    # Where each block's part of a row starts.
    row_starts = indptr[:-1].astype(np.int64)
    offset = 0
    for block in blocks:
        lengths = np.diff(block.indptr)
        where = np.arange(block.nnz, dtype=np.int64) + np.repeat(row_starts - block.indptr[:-1], lengths)
        data[where] = block.data
        indices[where] = block.indices + offset
        row_starts += lengths
        offset += block.shape[1]
    return CsrMatrix(data, indices, indptr, (n_rows, dim))


def vstack(parts: Sequence[CsrMatrix]) -> CsrMatrix:
    """The parts' rows one after another."""
    dim = parts[0].shape[1]
    if any(part.shape[1] != dim for part in parts):
        raise ValueError("parts to stack must have the same number of columns")
    nnz = sum(part.nnz for part in parts)
    dtype = _index_dtype(dim, nnz)
    starts = np.cumsum([0] + [part.nnz for part in parts])
    indptr = np.concatenate([[0]] + [part.indptr[1:] + start for part, start in zip(parts, starts)])
    return CsrMatrix(
        np.concatenate([part.data for part in parts]),
        np.concatenate([part.indices for part in parts]).astype(dtype, copy=False),
        indptr.astype(dtype),
        (sum(part.shape[0] for part in parts), dim),
    )


def take_columns(matrix: CsrMatrix, columns: np.ndarray) -> CsrMatrix:
    """``matrix[:, columns]`` for distinct ``columns``: each row keeps its
    entries in the chosen columns, in stored order, renumbered by where
    their column is in ``columns``."""
    columns = np.asarray(columns, dtype=np.int64)
    position = np.full(matrix.shape[1], -1, dtype=np.int64)
    position[columns] = np.arange(len(columns))
    if np.count_nonzero(position >= 0) != len(columns):
        raise ValueError("columns to take must be distinct")
    moved = position[matrix.indices]
    kept = moved >= 0
    kept_before = np.zeros(len(kept) + 1, dtype=np.int64)
    np.cumsum(kept, out=kept_before[1:])
    return csr_matrix(matrix.data[kept], moved[kept], kept_before[matrix.indptr], (matrix.shape[0], len(columns)))


def matmul(matrix: CsrMatrix, table: np.ndarray) -> np.ndarray:
    """``matrix @ table`` for a dense ``table`` with a row per column of
    ``matrix``: each row's products summed in stored order from 0.0.

    One pass takes the rows longest first, so step ``k`` adds the ``k``-th
    product of every row that has one, for all rows at once.  Do not swap
    this for a dense or pairwise product: see the module docstring.

    Its step buffer is as large as the result: a ``predict`` or ``eval``
    block of at most 999 rows, or one column for ``vectorize._row_norms``.
    """
    n_rows, dim = matrix.shape
    if table.shape[0] != dim:
        raise ValueError(f"a matrix of {dim} columns cannot multiply a table of {table.shape[0]} rows")
    table = np.ascontiguousarray(table, dtype=np.float64)
    lengths = np.diff(matrix.indptr)
    order = np.argsort(-lengths, kind="stable")
    descending = lengths[order]
    starts = matrix.indptr[:-1][order].astype(np.int64)
    sums = np.zeros((n_rows, table.shape[1]))
    products = np.empty_like(sums)
    # Step ``k`` takes the rows longer than ``k``: the first ``live[k]``.
    live = np.searchsorted(-descending, -np.arange(lengths.max(initial=0)), side="left")
    for k, count in enumerate(live.tolist()):
        at = starts[:count] + k
        step = products[:count]
        # Every index is below ``dim``; "clip" only skips the bounds check.
        np.take(table, matrix.indices[at], axis=0, out=step, mode="clip")
        step *= matrix.data[at, None]
        sums[:count] += step
    scores = np.empty_like(sums)
    scores[order] = sums
    return scores
