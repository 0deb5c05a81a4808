"""Sparse bag-of-words and bag-of-characters features.

Word n-grams are built from fully preprocessed tokens (n-grams joined with
single spaces), character n-grams from the tweet text itself.  Term weights
follow the smoothed idf convention ``ln((1 + N) / (1 + df)) + 1`` and tf-idf
vectors are L2-normalized.

A block of documents becomes one CSR matrix in a single pass
(``ngram_matrix``): each document's n-grams are listed, mapped to columns
with ``dict.get`` (unseen terms dropped), and every (row, column) pair is
counted with one ``np.unique``.  Binarizing, idf scaling and the per-row L2
norm are then applied to the whole block in numpy (``weigh``).  The
single-document ``transform`` is a one-row call of the same ``weigh``, so
every feature value comes from one code path.

Each row's norm is summed exactly: squares added one after another in
ascending column order (``_row_norms``).  Pairwise summation
(``np.sum``, ``np.add.reduceat``, ``np.linalg.norm``) groups the terms
differently and moves values by ulps, which changes trained models and the
byte-identical run artifacts.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse


@dataclass(frozen=True)
class NgramConfig:
    word_n_max: int = 5
    char_n_max: int = 6
    binarize: bool = False
    tfidf: bool = True

    def __post_init__(self) -> None:
        if self.word_n_max < 1:
            raise ValueError("word_n_max must be >= 1")
        if self.char_n_max < 1:
            raise ValueError("char_n_max must be >= 1")


@dataclass(frozen=True)
class SparseVector:
    """Immutable sparse vector: (index, value) entries sorted by index.

    Indices are strictly increasing and below ``dim``; zeros are never stored.
    """

    dim: int
    entries: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        previous = -1
        for index, value in self.entries:
            if index <= previous:
                raise ValueError("sparse vector indices must be strictly increasing")
            if index >= self.dim:
                raise ValueError(f"index {index} out of range for dim {self.dim}")
            if value == 0.0:
                raise ValueError("sparse vectors must not store zero values")
            previous = index

    @classmethod
    def from_row(cls, row: sparse.csr_matrix) -> "SparseVector":
        """The only row of a one-row CSR matrix."""
        return cls(dim=row.shape[1], entries=tuple(zip(row.indices.tolist(), row.data.tolist())))

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.dim)
        for index, value in self.entries:
            dense[index] = value
        return dense


@dataclass
class Vocabulary:
    """A fitted term space: term -> index plus per-index idf weights."""

    index: dict[str, int]
    idf: np.ndarray
    doc_count: int

    def __len__(self) -> int:
        return len(self.index)


def word_ngrams(tokens: Sequence[str], n_max: int) -> list[str]:
    """Every word n-gram occurrence for n = 1..n_max, joined with single spaces."""
    count = len(tokens)
    return [" ".join(tokens[start : start + n]) for n in range(1, n_max + 1) for start in range(count - n + 1)]


def char_ngrams(text: str, n_max: int) -> list[str]:
    """Every character n-gram occurrence for n = 1..n_max over the raw string."""
    length = len(text)
    return [text[start : start + n] for n in range(1, n_max + 1) for start in range(length - n + 1)]


def extract_word_ngrams(tokens: Sequence[str], n_max: int) -> Counter[str]:
    """All word n-grams for n = 1..n_max, joined with single spaces."""
    return Counter(word_ngrams(tokens, n_max))


def extract_char_ngrams(text: str, n_max: int) -> Counter[str]:
    """All character n-grams for n = 1..n_max over the raw string."""
    return Counter(char_ngrams(text, n_max))


def fit_vocabulary(documents: Iterable[Iterable[str]]) -> Vocabulary:
    """Build the term index and idf weights from per-document term multisets.

    A document is a term -> count mapping or a list of term occurrences;
    only which terms it holds matters.  Indices are assigned in sorted term
    order, so fitting the same corpus twice yields an identical vocabulary.
    """
    document_frequency: Counter[str] = Counter()
    doc_count = 0
    for counts in documents:
        doc_count += 1
        document_frequency.update(set(counts))
    if doc_count == 0:
        raise ValueError("cannot fit a vocabulary on an empty corpus")
    terms = sorted(document_frequency)
    index = {term: i for i, term in enumerate(terms)}
    idf = np.empty(len(terms))
    for term, i in index.items():
        idf[i] = math.log((1.0 + doc_count) / (1.0 + document_frequency[term])) + 1.0
    return Vocabulary(index=index, idf=idf, doc_count=doc_count)


def count_matrix(documents: Iterable[Sequence[str]], vocabulary: Vocabulary) -> sparse.csr_matrix:
    """Term counts of each document (a list of term occurrences), one row each.

    Unseen terms are dropped.  Rows hold their columns in ascending order.
    """
    lookup = vocabulary.index.get
    columns: list[int] = []
    lengths: list[int] = []
    for terms in documents:
        hits = [column for column in map(lookup, terms) if column is not None]
        columns += hits
        lengths.append(len(hits))
    dim = len(vocabulary)
    rows = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    # Sorting the keys row * dim + column orders the pairs by row, then column.
    keys, counts = np.unique(rows * dim + np.asarray(columns, dtype=np.int64), return_counts=True)
    indptr = np.searchsorted(keys, np.arange(len(lengths) + 1, dtype=np.int64) * dim)
    return sparse.csr_matrix((counts, keys % max(dim, 1), indptr), shape=(len(lengths), dim))


def _row_norms(matrix: sparse.csr_matrix) -> np.ndarray:
    """L2 norm of each row, its squares summed one after another in column order.

    Rows go longest first, so step ``k`` adds the ``k``-th square of every
    row that has one.  Do not swap this for ``np.linalg.norm`` or any
    pairwise sum: see the module docstring.
    """
    squares = matrix.data * matrix.data
    starts = matrix.indptr[:-1]
    lengths = np.diff(matrix.indptr)
    order = np.argsort(-lengths, kind="stable")
    descending = lengths[order]
    sums = np.zeros(len(lengths))
    for k in range(int(lengths.max(initial=0))):
        live = order[: np.searchsorted(-descending, -k, side="left")]
        sums[live] += squares[starts[live] + k]
    return np.sqrt(sums)


def weigh(counts: sparse.csr_matrix, vocabulary: Vocabulary, config: NgramConfig) -> sparse.csr_matrix:
    """Turn a term-count matrix into feature values.

    Values are counts (or 1 when binarizing), scaled by idf and
    L2-normalized per row when tf-idf is on.  Rows without terms stay empty.
    """
    values = np.ones(counts.nnz) if config.binarize else counts.data.astype(np.float64)
    weighted = sparse.csr_matrix((values, counts.indices, counts.indptr), shape=counts.shape)
    if config.tfidf:
        weighted.data *= vocabulary.idf[weighted.indices]
        norms = _row_norms(weighted)
        norms[norms == 0.0] = 1.0
        weighted.data /= np.repeat(norms, np.diff(weighted.indptr))
    return weighted


def ngram_matrix(
    documents: Iterable[Sequence[str]], vocabulary: Vocabulary, config: NgramConfig
) -> sparse.csr_matrix:
    """One block's feature matrix: a row per document's term occurrences."""
    return weigh(count_matrix(documents, vocabulary), vocabulary, config)


def transform(counts: Mapping[str, int], vocabulary: Vocabulary, config: NgramConfig) -> SparseVector:
    """Map a term multiset into the fitted space.

    Unseen terms and non-positive counts are dropped; the values are those
    ``weigh`` gives a one-row matrix.
    """
    pairs = sorted(
        (vocabulary.index[term], count) for term, count in counts.items() if count > 0 and term in vocabulary.index
    )
    columns = np.array([i for i, _ in pairs], dtype=np.int64)
    row_counts = np.array([count for _, count in pairs], dtype=np.float64)
    counts_row = sparse.csr_matrix((row_counts, columns, [0, len(pairs)]), shape=(1, len(vocabulary)))
    return SparseVector.from_row(weigh(counts_row, vocabulary, config))


_HEADER_PREFIX = "#"


def save_vocabulary(vocabulary: Vocabulary, config: NgramConfig, path: str | Path) -> None:
    """Write ``term<TAB>index<TAB>idf`` rows under a one-line header."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(
            f"{_HEADER_PREFIX}doc_count={vocabulary.doc_count}"
            f"\tword_n_max={config.word_n_max}\tchar_n_max={config.char_n_max}"
            f"\tbinarize={int(config.binarize)}\ttfidf={int(config.tfidf)}\n"
        )
        for term, i in sorted(vocabulary.index.items(), key=lambda item: item[1]):
            # float() first: numpy scalars repr as np.float64(...) and would
            # not parse back.  Plain float repr round-trips exactly.
            handle.write(f"{term}\t{i}\t{float(vocabulary.idf[i])!r}\n")


def load_vocabulary(path: str | Path) -> tuple[Vocabulary, NgramConfig]:
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n")
        if not header.startswith(_HEADER_PREFIX):
            raise ValueError(f"{path}: missing vocabulary header")
        meta: dict[str, str] = {}
        for part in header[len(_HEADER_PREFIX) :].split("\t"):
            key, _, value = part.partition("=")
            meta[key] = value
        try:
            doc_count = int(meta["doc_count"])
            config = NgramConfig(
                word_n_max=int(meta["word_n_max"]),
                char_n_max=int(meta["char_n_max"]),
                binarize=bool(int(meta["binarize"])),
                tfidf=bool(int(meta["tfidf"])),
            )
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}: malformed vocabulary header: {exc}") from None
        index: dict[str, int] = {}
        idf_by_index: dict[int, float] = {}
        for lineno, line in enumerate(handle, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'term<TAB>index<TAB>idf'")
            term, raw_index, raw_idf = fields
            index[term] = int(raw_index)
            idf_by_index[int(raw_index)] = float(raw_idf)
    idf = np.empty(len(index))
    for i, value in idf_by_index.items():
        idf[i] = value
    vocabulary = Vocabulary(index=index, idf=idf, doc_count=doc_count)
    return vocabulary, config
