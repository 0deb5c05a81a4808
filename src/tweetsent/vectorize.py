"""Sparse bag-of-words and bag-of-characters features.

Word n-grams are built from fully preprocessed tokens (n-grams joined with
single spaces), character n-grams from the tweet text itself.  Term weights
follow the smoothed idf convention ``ln((1 + N) / (1 + df)) + 1`` and tf-idf
vectors are L2-normalized.

A block of documents becomes one CSR matrix of term counts (a
``csr.CsrMatrix``, numpy arrays only), every (row, column) pair counted with
one ``np.unique``; binarizing, idf scaling and the per-row L2 norm are then
applied to the whole block in numpy (``weigh``).
The single-document ``transform`` gives the one-row matrix of the same
``weigh``, so every feature value comes from one code path.

The two blocks find their columns differently.  Word n-grams are listed as
strings and mapped to columns with ``dict.get`` (``count_matrix``).
Character n-grams never become strings outside fitting: the texts are read
as code points, and a ``CharTrie`` (the vocabulary as a prefix trie, one
sorted key array per n) finds every n-gram occurrence with one
``np.searchsorted`` per n.  ``fit_char_vocabulary`` finds the terms with one
sort per n over the same keys, and gives the terms, columns and idf that
``fit_vocabulary`` gives over ``char_ngrams``.

Each row's norm is summed exactly: squares added one after another in
ascending column order, by scipy's compiled kernel (``csr.matvec`` in
``_row_norms``).  Pairwise summation (``np.sum``, ``np.add.reduceat``,
``np.linalg.norm``) groups the terms differently and moves values by ulps,
which changes trained models and the byte-identical run artifacts.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .csr import CsrMatrix, csr_matrix, matvec


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
    return _vocabulary(document_frequency, doc_count)


def _vocabulary(document_frequency: Mapping[str, int], doc_count: int) -> Vocabulary:
    """The vocabulary of the terms of ``document_frequency``: columns in
    sorted term order, each with its smoothed idf."""
    if doc_count == 0:
        raise ValueError("cannot fit a vocabulary on an empty corpus")
    terms = sorted(document_frequency)
    idf = [math.log((1.0 + doc_count) / (1.0 + document_frequency[term])) + 1.0 for term in terms]
    return Vocabulary(
        index={term: i for i, term in enumerate(terms)}, idf=np.array(idf, dtype=np.float64), doc_count=doc_count
    )


def count_matrix(documents: Iterable[Sequence[str]], vocabulary: Vocabulary) -> CsrMatrix:
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
    return _pair_counts(rows * dim + np.asarray(columns, dtype=np.int64), len(lengths), dim)


def _pair_counts(pairs: np.ndarray, n_rows: int, dim: int) -> CsrMatrix:
    """How often each (row, column) pair, given as ``row * dim + column``,
    occurs: a CSR matrix."""
    # Sorting the keys row * dim + column orders the pairs by row, then column.
    keys, counts = np.unique(pairs, return_counts=True)
    indptr = np.searchsorted(keys, np.arange(n_rows + 1, dtype=np.int64) * dim)
    return csr_matrix(counts, keys % max(dim, 1), indptr, (n_rows, dim))


#: One more than the largest code point.  A trie key is
#: ``parent * _SYMBOLS + code point``, which an int64 holds for any parent.
_SYMBOLS = 0x110000


def _utf32(text: str) -> np.ndarray:
    """The code points of ``text``, one per character.

    ``surrogatepass`` keeps lone surrogates, so this holds for every ``str``.
    """
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


def _code_points(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per position of ``"".join(texts)``: its code point, its text's number
    and how many characters its text has from there on."""
    codes = _utf32("".join(texts))
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    docs = np.repeat(np.arange(len(texts), dtype=np.int64), lengths)
    left = np.repeat(np.cumsum(lengths), lengths)
    left -= np.arange(len(codes), dtype=np.int64)
    return codes, docs, left


@dataclass(frozen=True, eq=False)
class CharTrie:
    """A character n-gram vocabulary as a prefix trie over code points.

    Level ``n`` holds the n-character terms.  ``keys[n - 1]`` is sorted, and
    a term's node is its position there.  A 1-character term's key is its
    code point; a longer term's key is ``parent * _SYMBOLS + last code
    point``, where ``parent`` is the node of the term without its last
    character, which must be a term too.  ``columns[n - 1]`` holds each
    node's vocabulary column.
    """

    keys: tuple[np.ndarray, ...]
    columns: tuple[np.ndarray, ...]
    dim: int

    @classmethod
    def of(cls, vocabulary: Vocabulary) -> "CharTrie":
        """The trie of a vocabulary in which every term's prefix one
        character shorter is a term too (``load_vocabulary`` checks this)."""
        by_length: dict[int, list[str]] = {}
        for term in vocabulary.index:
            by_length.setdefault(len(term), []).append(term)
        keys: list[np.ndarray] = []
        columns: list[np.ndarray] = []
        for n in range(1, max(by_length, default=0) + 1):
            terms = by_length[n]
            codes = _utf32("".join(terms)).reshape(len(terms), n)
            key = codes[:, 0]
            for level in range(1, n):
                key = np.searchsorted(keys[level - 1], key) * _SYMBOLS + codes[:, level]
            order = np.argsort(key)
            keys.append(key[order])
            columns.append(np.array([vocabulary.index[term] for term in terms], dtype=np.int64)[order])
        return cls(tuple(keys), tuple(columns), len(vocabulary))

    def count_matrix(self, texts: Sequence[str]) -> CsrMatrix:
        """The character n-gram counts of each text, one row each: what
        ``count_matrix`` gives over ``char_ngrams(text, n)`` for any ``n`` at
        least the longest term's length."""
        codes, docs, left = _code_points(texts)
        starts = np.arange(len(codes), dtype=np.int64)
        query = codes
        pairs = [np.empty(0, dtype=np.int64)]
        for n, (keys, level_columns) in enumerate(zip(self.keys, self.columns), start=1):
            if n > 1:
                live = left[starts] >= n
                starts, nodes = starts[live], nodes[live]
                query = nodes * _SYMBOLS + codes[starts + n - 1]
            nodes = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
            found = keys[nodes] == query
            starts, nodes = starts[found], nodes[found]
            pairs.append(docs[starts] * self.dim + level_columns[nodes])
        return _pair_counts(np.concatenate(pairs), len(texts), self.dim)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted.

    ``np.unique`` gives the same, but from numpy 2.3 on it finds them with a
    hash table, after which a process that fitted 2,000 tweets kept about
    7 MB more memory resident.
    """
    values = np.sort(values)
    first = np.empty(len(values), dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def fit_char_vocabulary(texts: Sequence[str], n_max: int) -> Vocabulary:
    """``fit_vocabulary`` over ``char_ngrams(text, n_max)`` of each text,
    found in arrays (``_char_ngram_frequencies``).

    Both find the document frequencies, then build the vocabulary with
    ``_vocabulary``, so the terms, columns, idf values and document count
    are the same.
    """
    joined = "".join(texts)
    document_frequency: dict[str, int] = {}
    for n, (starts, counts) in enumerate(_char_ngram_frequencies(texts, n_max), start=1):
        document_frequency.update(zip((joined[start : start + n] for start in starts.tolist()), counts.tolist()))
    return _vocabulary(document_frequency, len(texts))


def _char_ngram_frequencies(texts: Sequence[str], n_max: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per n = 1..n_max, each distinct n-gram of the texts as one place it
    starts in ``"".join(texts)`` and the number of texts that hold it.

    One sort per n over the ``CharTrie`` keys of every n-gram occurrence.
    The arrays the size of the texts are gone when this returns, before the
    caller builds its strings and dict.
    """
    codes, docs, left = _code_points(texts)
    starts = np.arange(len(codes), dtype=np.int64)
    query = codes
    levels: list[tuple[np.ndarray, np.ndarray]] = []
    for n in range(1, n_max + 1):
        if n > 1:
            live = left[starts] >= n
            starts, nodes = starts[live], nodes[live]
            query = nodes * _SYMBOLS + codes[starts + n - 1]
        if not len(query):
            break
        level = _distinct(query)
        nodes = np.searchsorted(level, query)
        documents_with = _distinct(docs[starts] * len(level) + nodes) % len(level)
        # Any occurrence of a node spells its term.
        occurrence = np.empty(len(level), dtype=np.int64)
        occurrence[nodes] = starts
        levels.append((occurrence, np.bincount(documents_with, minlength=len(level))))
    return levels


def _row_norms(matrix: CsrMatrix) -> np.ndarray:
    """L2 norm of each row, its squares summed one after another in column
    order, as ``matvec`` sums a row's products."""
    squares = CsrMatrix(matrix.data * matrix.data, matrix.indices, matrix.indptr, matrix.shape)
    return np.sqrt(matvec(squares, np.ones(matrix.shape[1])))


def weigh(counts: CsrMatrix, vocabulary: Vocabulary, config: NgramConfig) -> CsrMatrix:
    """Turn a term-count matrix into feature values.

    Values are counts (or 1 when binarizing), scaled by idf and
    L2-normalized per row when tf-idf is on.  Rows without terms stay empty.
    """
    values = np.ones(counts.nnz) if config.binarize else counts.data.astype(np.float64)
    weighted = CsrMatrix(values, counts.indices, counts.indptr, counts.shape)
    if config.tfidf:
        values *= vocabulary.idf[weighted.indices]
        norms = _row_norms(weighted)
        norms[norms == 0.0] = 1.0
        values /= np.repeat(norms, np.diff(weighted.indptr))
    return weighted


def ngram_matrix(
    documents: Iterable[Sequence[str]], vocabulary: Vocabulary, config: NgramConfig
) -> CsrMatrix:
    """One block's feature matrix: a row per document's term occurrences."""
    return weigh(count_matrix(documents, vocabulary), vocabulary, config)


def transform(counts: Mapping[str, int], vocabulary: Vocabulary, config: NgramConfig) -> CsrMatrix:
    """A term multiset in the fitted space: the one-row matrix ``weigh``
    makes of its counts.  Unseen terms and non-positive counts are dropped."""
    pairs = sorted(
        (vocabulary.index[term], count) for term, count in counts.items() if count > 0 and term in vocabulary.index
    )
    columns = np.array([i for i, _ in pairs], dtype=np.int64)
    row_counts = np.array([count for _, count in pairs], dtype=np.float64)
    counts_row = csr_matrix(row_counts, columns, [0, len(pairs)], (1, len(vocabulary)))
    return weigh(counts_row, vocabulary, config)


_HEADER_PREFIX = "#"


def _header(doc_count: int, config: NgramConfig) -> str:
    """The first line of a saved vocabulary."""
    return (
        f"{_HEADER_PREFIX}doc_count={doc_count}"
        f"\tword_n_max={config.word_n_max}\tchar_n_max={config.char_n_max}"
        f"\tbinarize={int(config.binarize)}\ttfidf={int(config.tfidf)}\n"
    )


def save_vocabulary(vocabulary: Vocabulary, config: NgramConfig, path: str | Path) -> None:
    """Write ``term<TAB>index<TAB>idf`` rows under a one-line header.

    Any ``str`` term round-trips: a lone surrogate is written as its UTF-8
    style three bytes (``surrogatepass``), which no other character uses.
    """
    with open(path, "w", encoding="utf-8", errors="surrogatepass", newline="\n") as handle:
        handle.write(_header(vocabulary.doc_count, config))
        for term, i in sorted(vocabulary.index.items(), key=lambda item: item[1]):
            # float() first: numpy scalars repr as np.float64(...) and would
            # not parse back.  Plain float repr round-trips exactly.
            handle.write(f"{term}\t{i}\t{float(vocabulary.idf[i])!r}\n")


def load_vocabulary(path: str | Path, config: NgramConfig, *, chars: bool = False) -> Vocabulary:
    """Read a vocabulary that ``save_vocabulary`` wrote with ``config``.

    The header must be exactly the one ``save_vocabulary`` writes for
    ``config`` and the stored document count.  The indices must be 0..n-1,
    each once, and the terms unique.  A character n-gram vocabulary
    (``chars``) must also be one ``CharTrie`` can hold: every term has 1 to
    ``char_n_max`` characters, and a longer term's prefix one character
    shorter is a term too.  Every idf must be finite.  Anything else raises
    ``ValueError``, naming ``path:line`` for a bad row.
    """
    path = Path(path)
    with open(path, encoding="utf-8", errors="surrogatepass") as handle:
        header = handle.readline()
        count, _, _ = header.removeprefix(f"{_HEADER_PREFIX}doc_count=").partition("\t")
        if not count.isdigit() or header != _header(int(count), config):
            raise ValueError(
                f"{path}: vocabulary header {header.rstrip()!r} does not match the n-gram config {config}"
            )
        index: dict[str, int] = {}
        idf_by_index: dict[int, float] = {}
        top, top_line = -1, 0
        # Terms read before their prefix: a saved vocabulary, in term order, has none.
        unprefixed: list[tuple[str, int]] = []
        for lineno, line in enumerate(handle, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                term, raw_index, raw_idf = line.split("\t")
                i, value = int(raw_index), float(raw_idf)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected 'term<TAB>index<TAB>idf'") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: idf {raw_idf!r} is not finite")
            if i < 0 or i in idf_by_index:
                raise ValueError(f"{path}:{lineno}: index {i} is negative or taken by an earlier row")
            if term in index:
                raise ValueError(f"{path}:{lineno}: term {term!r} is listed by an earlier row")
            if chars:
                if not 1 <= len(term) <= config.char_n_max:
                    raise ValueError(f"{path}:{lineno}: term {term!r} is not 1 to {config.char_n_max} characters long")
                if len(term) > 1 and term[:-1] not in index:
                    unprefixed.append((term, lineno))
            index[term] = i
            idf_by_index[i] = value
            if i > top:
                top, top_line = i, lineno
    if top >= len(index):
        gap = f"index {top} leaves a gap: {len(index)} terms need indices 0..{len(index) - 1}"
        raise ValueError(f"{path}:{top_line}: {gap}")
    for term, lineno in unprefixed:
        if term[:-1] not in index:
            raise ValueError(f"{path}:{lineno}: the prefix {term[:-1]!r} of term {term!r} is not a term")
    idf = np.empty(len(index))
    for i, value in idf_by_index.items():
        idf[i] = value
    return Vocabulary(index=index, idf=idf, doc_count=int(count))
