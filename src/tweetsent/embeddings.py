"""Pretrained word vectors and smooth inverse frequency sentence embeddings.

Word vectors are read from the word2vec text format.  An optional subword
sidecar provides hashed character n-gram buckets so out-of-vocabulary words
still get a vector: the word is wrapped in ``<`` ``>`` markers, its character
n-grams are hashed with 32-bit FNV-1a into ``bucket_count`` buckets, and the
bucket vectors are averaged.

A tweet embedding is the weighted average of its token vectors with weight
``a / (a + p(token))``, where ``p`` comes from a unigram count table.  Rare
words therefore count almost fully while frequent words are damped.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class SubwordTable:
    min_n: int
    max_n: int
    bucket_count: int
    buckets: dict[int, np.ndarray]

    def __post_init__(self) -> None:
        if not (1 <= self.min_n <= self.max_n):
            raise ValueError("need 1 <= min_n <= max_n")
        if self.bucket_count <= 0:
            raise ValueError("bucket_count must be positive")


@dataclass(frozen=True)
class EmbeddingTable:
    dim: int
    vectors: dict[str, np.ndarray]
    subword: SubwordTable | None = None


def fnv1a_32(data: bytes) -> int:
    """The 32-bit FNV-1a hash, used to bucket subword n-grams."""
    value = 2166136261
    for byte in data:
        value ^= byte
        value = (value * 16777619) & 0xFFFFFFFF
    return value


def _read_rows(handle, path: Path, dim: int, bucket_count: int | None = None) -> dict:
    """Vectors by word, or by bucket index below ``bucket_count`` when one is
    given, of the ``key v1..vdim`` rows after a header.  Blank lines are
    skipped; a malformed or repeated row raises ``ValueError`` naming
    ``path:line``, and a repeat also names the line it repeats."""
    vectors, first_line = {}, {}
    for lineno, line in enumerate(handle, start=2):
        key, *fields = line.rstrip().split(" ")
        if not key and not fields:
            continue
        where = f"{path}:{lineno}"
        if bucket_count is not None:
            try:
                key = int(key)
            except ValueError:
                raise ValueError(f"{where}: non-integer bucket index") from None
            if not 0 <= key < bucket_count:
                raise ValueError(f"{where}: bucket {key} out of range")
        if len(fields) != dim:
            raise ValueError(f"{where}: expected {dim} vector components, got {len(fields)}")
        try:
            vector = np.array([float(x) for x in fields])
        except ValueError:
            raise ValueError(f"{where}: non-numeric vector component") from None
        if not np.isfinite(vector).all():
            raise ValueError(f"{where}: non-finite vector component")
        if key in first_line:
            raise ValueError(f"{where}: {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        vectors[key] = vector
    return vectors


def load_embeddings(path: str | Path, subword_path: str | Path | None = None) -> EmbeddingTable:
    """Read word2vec text vectors, plus a subword bucket sidecar when given.

    The main file starts with a ``vocab_size dim`` header; the sidecar with
    ``min_n max_n bucket_count`` followed by ``bucket_index v1..vdim`` lines.
    Trailing whitespace on a line is ignored, as fastText ``.vec`` files end
    each vector with a space, and blank lines are skipped.  A malformed or
    repeated row raises ``ValueError`` naming ``path:line``.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}:1: expected 'vocab_size dim' header")
        try:
            vocab_size, dim = int(header[0]), int(header[1])
        except ValueError:
            raise ValueError(f"{path}:1: non-numeric header fields") from None
        if dim <= 0:
            raise ValueError(f"{path}:1: dimension must be positive")
        vectors = _read_rows(handle, path, dim)
    if len(vectors) != vocab_size:
        raise ValueError(f"{path}: header promises {vocab_size} vectors, file holds {len(vectors)}")

    subword = None
    if subword_path is not None:
        subword_path = Path(subword_path)
        with open(subword_path, encoding="utf-8") as handle:
            header = handle.readline().split()
            if len(header) != 3:
                raise ValueError(f"{subword_path}:1: expected 'min_n max_n bucket_count' header")
            try:
                min_n, max_n, bucket_count = (int(x) for x in header)
            except ValueError:
                raise ValueError(f"{subword_path}:1: non-numeric header fields") from None
            try:
                subword = SubwordTable(min_n=min_n, max_n=max_n, bucket_count=bucket_count, buckets={})
            except ValueError as exc:
                raise ValueError(f"{subword_path}:1: {exc}") from None
            subword.buckets.update(_read_rows(handle, subword_path, dim, bucket_count))
    return EmbeddingTable(dim=dim, vectors=vectors, subword=subword)


def subword_ngrams(word: str, min_n: int, max_n: int) -> list[str]:
    """Character n-grams of ``<word>`` for n in [min_n, max_n]."""
    wrapped = f"<{word}>"
    grams: list[str] = []
    for n in range(min_n, max_n + 1):
        for start in range(len(wrapped) - n + 1):
            grams.append(wrapped[start : start + n])
    return grams


def word_vector(table: EmbeddingTable, word: str) -> np.ndarray:
    """Exact vector when in vocabulary, subword average otherwise.

    Without a subword table, out-of-vocabulary words map to the zero vector.
    """
    stored = table.vectors.get(word)
    if stored is not None:
        return stored.copy()
    if table.subword is None:
        return np.zeros(table.dim)
    grams = subword_ngrams(word, table.subword.min_n, table.subword.max_n)
    if not grams:
        return np.zeros(table.dim)
    total = np.zeros(table.dim)
    for gram in grams:
        bucket = fnv1a_32(gram.encode("utf-8")) % table.subword.bucket_count
        vector = table.subword.buckets.get(bucket)
        if vector is not None:
            total += vector
    return total / len(grams)


@dataclass(frozen=True)
class UnigramModel:
    counts: dict[str, int]
    total: int

    def probability(self, word: str) -> float:
        if self.total == 0:
            return 0.0
        return self.counts.get(word, 0) / self.total


def load_unigram_counts(path: str | Path) -> UnigramModel:
    """Read ``token<TAB>count`` rows; duplicate tokens accumulate."""
    path = Path(path)
    counts: dict[str, int] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'token<TAB>count'")
            token, raw_count = fields
            try:
                count = int(raw_count)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: count {raw_count!r} is not an integer") from None
            if count <= 0:
                raise ValueError(f"{path}:{lineno}: count must be a positive integer")
            counts[token] = counts.get(token, 0) + count
    return UnigramModel(counts=counts, total=sum(counts.values()))


@dataclass(frozen=True)
class SifConfig:
    a: float = 0.1
    remove_common_component: bool = False

    def __post_init__(self) -> None:
        if self.a <= 0:
            raise ValueError("the SIF weighting constant a must be positive")


def sif_weight(probability: float, a: float) -> float:
    return a / (a + probability)


def sif_embed(
    tokens: Sequence[str],
    table: EmbeddingTable,
    unigram: UnigramModel,
    config: SifConfig,
) -> np.ndarray:
    """Average of token vectors weighted by ``a / (a + p(token))``.

    The result is divided by the token count (a mean, not a sum); an empty
    token list yields the zero vector.
    """
    if not tokens:
        return np.zeros(table.dim)
    total = np.zeros(table.dim)
    for token in tokens:
        weight = sif_weight(unigram.probability(token), config.a)
        total += weight * word_vector(table, token)
    return total / len(tokens)


def leading_component(matrix: np.ndarray) -> np.ndarray:
    """First right singular vector, signed so its first nonzero entry is
    positive; the zero vector, which removes nothing, for an all-zero matrix."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise ValueError("need a matrix with at least 2 rows")
    if not matrix.any():
        return np.zeros(matrix.shape[1])
    _, _, vt = np.linalg.svd(matrix, full_matrices=False)
    component = vt[0]
    for value in component:
        if value != 0.0:
            if value < 0.0:
                component = -component
            break
    return component


def remove_component(matrix: np.ndarray, component: np.ndarray) -> np.ndarray:
    """Project each row onto the orthogonal complement of ``component``."""
    matrix = np.asarray(matrix, dtype=float)
    return matrix - np.outer(matrix @ component, component)


def remove_common_component(matrix: np.ndarray) -> np.ndarray:
    """Subtract each row's projection onto the corpus' first singular vector.

    An all-zero matrix is returned unchanged.  This step is off by default in
    the pipeline because it hurt tweet classification in practice.
    """
    return remove_component(matrix, leading_component(matrix))
