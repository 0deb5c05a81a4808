"""Feature matrices in compressed sparse row (CSR) form, as plain numpy arrays.

A ``CsrMatrix`` is the three arrays of the CSR format and a shape.  Every
operation here gives, bit for bit, what ``scipy.sparse`` gives for the same
operation on a ``csr_matrix``: the data, indices and index pointer, their
dtypes and the order of the entries in each row.  Building matrices needs
numpy alone.

Index arrays are ``int32`` while every column index and entry count fits in
one, as scipy downcasts them; ``int64`` otherwise.

Every product calls one of scipy's compiled kernels, which sum each row's
products in stored order from 0.0: ``matvec`` (``csr_matvec``), which
computes a solve's margins, scores each weight row of a member in place
(``model._member_scores``) and sums the squares of the tf-idf row norms
(``vectorize._row_norms``), and ``rmatvec`` (``csc_matvec``).  A pairwise
sum of a row's products (``np.add.reduceat``) or a dense ``matmul`` groups
the terms differently and moves values by ulps, and the bit-identical numpy
products measured were 3 to 20 times slower.
``load_kernels`` loads their extension module, ``scipy.sparse._sparsetools``,
by file: importing the ``scipy.sparse`` package would cost about 0.15 s and
13.5 MiB per process, and the kernels need none of it.  A C kernel does not
check its bounds, so every product refuses arrays it could read or write
past.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path
from types import ModuleType

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
    ``CsrMatrix`` of float64 data, the one data type the kernels take; a
    float64 ``CsrMatrix`` is itself, and a float64 scipy CSR matrix shares
    its arrays."""
    if hasattr(matrix, "tocsr"):
        matrix = matrix.tocsr()
        matrix = CsrMatrix(matrix.data, matrix.indices, matrix.indptr, matrix.shape)
    elif not isinstance(matrix, CsrMatrix):
        matrix = from_dense(matrix)
    if matrix.data.dtype == np.float64:
        return matrix
    return replace(matrix, data=matrix.data.astype(np.float64))


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


def take_rows(matrix: CsrMatrix, rows: np.ndarray) -> CsrMatrix:
    """``matrix[rows]``: the chosen rows in turn, repeats included, each with
    its entries in stored order, as scipy's row indexing copies them."""
    rows = np.asarray(rows, dtype=np.int64).ravel()
    starts = matrix.indptr[:-1][rows].astype(np.int64)
    lengths = matrix.indptr[1:][rows] - starts
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    # Entry k of the result is entry k - indptr[r] + starts[r] of the matrix, k in row r.
    gather = np.arange(indptr[-1], dtype=np.int64) + np.repeat(starts - indptr[:-1], lengths)
    return csr_matrix(matrix.data[gather], matrix.indices[gather], indptr, (len(rows), matrix.shape[1]))


_kernels: ModuleType | None = None


def load_kernels() -> ModuleType:
    """scipy's ``scipy.sparse._sparsetools`` extension, loaded on the first call.

    A process that imported ``scipy.sparse`` has it already.  Otherwise it
    loads from its file in the installed scipy's ``sparse`` directory, which
    ``find_spec`` locates without running scipy's ``__init__``; the
    extension itself imports nothing from scipy.
    """
    global _kernels
    if _kernels is None:
        _kernels = sys.modules.get("scipy.sparse._sparsetools") or _load_sparsetools()
    return _kernels


def _load_sparsetools() -> ModuleType:
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("training needs scipy's compiled sparse kernels, and scipy is not installed")
    directory = Path(list(scipy.submodule_search_locations)[0], "sparse")
    paths = [directory / f"_sparsetools{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((path for path in paths if path.is_file()), None)
    if path is None:
        raise ImportError(f"scipy's compiled sparse kernels are not in {directory}")
    loader = importlib.machinery.ExtensionFileLoader("scipy.sparse._sparsetools", str(path))
    module = loader.create_module(importlib.util.spec_from_loader(loader.name, loader, origin=str(path)))
    loader.exec_module(module)
    # A single-phase extension enters itself in sys.modules, there with no
    # package above it.  Taken out, it leaves a later ``import scipy.sparse``
    # to make its own module, bound to the package, of the same functions.
    if sys.modules.get(loader.name) is module:
        del sys.modules[loader.name]
    return module


# The matrices that passed ``_check_matrix``: its O(nnz) pass runs once per
# matrix, before the matrix's first product, so a matrix's arrays must not
# change after that.
_checked: weakref.WeakSet[CsrMatrix] = weakref.WeakSet()


def _check_matrix(matrix: CsrMatrix) -> None:
    """Raise ``ValueError`` unless the kernels can read all of ``matrix``:
    contiguous arrays, float64 data, int32 or int64 index arrays of one
    dtype, an index pointer that rises from 0 to at most the stored entries,
    and column indices from 0 to below the column count."""
    if matrix in _checked:
        return
    data, indices, indptr = matrix.data, matrix.indices, matrix.indptr
    if not all(_is_vector(array) for array in (data, indices, indptr)):
        raise ValueError("the kernels take contiguous 1-D arrays")
    if data.dtype != np.float64:
        raise ValueError(f"the kernels take float64 data, not {data.dtype}")
    if indices.dtype != indptr.dtype or indices.dtype not in (np.int32, np.int64):
        dtypes = f"{indices.dtype} indices and {indptr.dtype} indptr"
        raise ValueError(f"the kernels take int32 or int64 index arrays of one dtype, not {dtypes}")
    n_rows, n_columns = matrix.shape
    if len(indptr) != n_rows + 1 or indptr[0] != 0 or np.any(indptr[1:] < indptr[:-1]):
        raise ValueError(f"indptr must rise from 0 in {n_rows + 1} entries")
    nnz, stored = int(indptr[-1]), min(len(data), len(indices))
    if nnz > stored:
        raise ValueError(f"indptr ends at {nnz}, past the {stored} stored entries")
    # A negative index, seen as unsigned, is past every column count.
    if nnz and int(indices[:nnz].view(f"u{indices.itemsize}").max()) >= n_columns:
        raise ValueError(f"a column index is not from 0 to below the {n_columns} columns")
    _checked.add(matrix)


def _is_vector(array) -> bool:
    return isinstance(array, np.ndarray) and array.ndim == 1 and array.flags.c_contiguous


def _check_vector(vector: np.ndarray, length: int) -> None:
    if not _is_vector(vector) or vector.dtype != np.float64:
        raise ValueError("the kernels take a contiguous 1-D float64 vector")
    if len(vector) != length:
        raise ValueError(f"a vector of {len(vector)} entries cannot multiply {length}")


def matvec(matrix: CsrMatrix, vector: np.ndarray) -> np.ndarray:
    """``matrix @ vector``: each row's products summed in stored order from
    0.0 by scipy's ``csr_matvec``, as ``csr_matrix @ vector`` computes it."""
    _check_matrix(matrix)
    _check_vector(vector, matrix.shape[1])
    result = np.zeros(matrix.shape[0])
    load_kernels().csr_matvec(*matrix.shape, matrix.indptr, matrix.indices, matrix.data, vector, result)
    return result


def rmatvec(matrix: CsrMatrix, vector: np.ndarray) -> np.ndarray:
    """``matrix.T @ vector``: scipy's ``csc_matvec`` on the same three arrays,
    which read as CSC are the transpose, as ``csr_matrix.T @ vector``
    computes it."""
    _check_matrix(matrix)
    _check_vector(vector, matrix.shape[0])
    n_rows, n_columns = matrix.shape
    result = np.zeros(n_columns)
    load_kernels().csc_matvec(n_columns, n_rows, matrix.indptr, matrix.indices, matrix.data, vector, result)
    return result

