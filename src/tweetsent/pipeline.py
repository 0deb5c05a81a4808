"""Feature pipeline: fit the enabled blocks on training data, then turn any
dataset into a matrix with the fixed block order BoW, BoC, embedding.

Word n-grams and sentence embeddings see semantically preprocessed tokens;
character n-grams see the tweet text after basic preprocessing only.  Both
views are derived here from the stored text, and because basic preprocessing
is idempotent the pipeline accepts raw and already-preprocessed datasets
alike.

Every matrix is a ``csr.CsrMatrix`` built by ``_featurize``, for one batch
of texts: the two views are computed once per tweet (the preprocessing steps
memoize per word, see ``preprocess``), each n-gram block is built straight
into one CSR matrix, the SIF rows are stacked once and turned into CSR
(``csr.from_dense``), and ``csr.hstack`` joins the blocks.  The
BoW block lists word n-grams as strings (``vectorize.ngram_matrix``); the BoC
block reads the basic texts as code points and walks a character trie
(``vectorize.CharTrie``), built from the BoC vocabulary at fit and by
``load_pipeline``.  ``transform`` is the one way in: a tweet's features do
not depend on which batch it is in, and ``fit_transform`` is ``fit`` then
``transform``, so training rows are built like any others.

Every row depends only on its own tweet, so a large batch is cut into
contiguous row blocks (``_split``) and featurized in ``parallel.fork_map``
workers.  Training needs the whole matrix: ``transform`` cuts one block per
CPU and joins the blocks with ``csr.vstack``, bit-identical to the one-batch
build.  ``predict`` and ``eval`` need only labels: ``label`` cuts blocks of
``MIN_ROWS_PER_WORKER`` to twice that many rows, and each worker featurizes
and scores its blocks and returns only their labels, so no process holds
more than one block's matrix.  The tf-idf row norms and the scores are
scipy's compiled sparse products, which the pool loads before it forks, so
no worker loads them and no command imports a scipy module (see ``csr``).

Each block is fitted and featurized on its own, so a pipeline fitted with
several blocks serves any subset of them: ``narrowed`` is a copy with the
subset's blocks, and ``columns`` finds the subset's columns in its matrices,
bit for bit the matrices of a pipeline fitted with the subset alone.  The
configs alone say which fitted tables a pipeline uses, saves and loads.
"""

from __future__ import annotations

import copy
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import csr, parallel, vectorize
from .corpus import Dataset, Label
from .embeddings import (
    EmbeddingTable,
    SifConfig,
    UnigramModel,
    leading_component,
    remove_component,
    sif_embed,
)
from .model import Ensemble, load_floats, predict_many
from .preprocess import PreprocessConfig, basic_preprocess, join_tokens, semantic_preprocess, tokenize
from .schema import Manifest, dump, load_section
from .vectorize import CharTrie, NgramConfig, Vocabulary

BLOCK_ORDER = ("bow", "boc", "embedding")

#: Fewest rows in a forked block.  Forking a loaded pipeline and shipping a
#: block back costs about 50 ms, so on 2 CPUs a batch pays for the split from
#: about 1,000 rows (900 rows: 0.10 s in-process, 0.11-0.15 s in two workers;
#: 1,000 rows: 0.11 s either way; 1,300 rows: 0.14 s against 0.13 s).  A
#: run's training set splits from 1,000 rows, as ``predict`` batches do; its
#: smaller dev and test splits stay in-process.  ``label`` also keeps its
#: blocks below twice this size: on the 5,000-row bench ``predict`` batch
#: (2 CPUs) peak RSS read 47.0 MiB with 250- or 500-row blocks, 51.4 MiB
#: with 1,250 and 65.4 MiB with 2,500.
MIN_ROWS_PER_WORKER = 500


@dataclass(frozen=True)
class FeatureBlocks:
    """Which feature families are active; at least one must be."""

    bow: bool = True
    boc: bool = True
    embedding: bool = True

    def __post_init__(self) -> None:
        if not (self.bow or self.boc or self.embedding):
            raise ValueError("at least one feature block must be enabled")


def _split(items: list, parts: int) -> list[list]:
    """``items`` cut into ``parts`` contiguous runs whose lengths differ by at most one."""
    bounds = [len(items) * k // parts for k in range(parts + 1)]
    return [items[start:end] for start, end in zip(bounds, bounds[1:])]


class FeaturePipeline:
    def __init__(
        self,
        preprocess_config: PreprocessConfig,
        ngram_config: NgramConfig,
        blocks: FeatureBlocks,
        embedding_table: EmbeddingTable | None = None,
        unigram: UnigramModel | None = None,
        sif_config: SifConfig | None = None,
    ):
        if blocks.embedding and (embedding_table is None or unigram is None):
            raise ValueError("the embedding block needs an embedding table and unigram counts")
        self.preprocess_config = preprocess_config
        self.ngram_config = ngram_config
        self.blocks = blocks
        self.embedding_table = embedding_table
        self.unigram = unigram
        self.sif_config = sif_config if sif_config is not None else SifConfig()
        self.bow_vocabulary: Vocabulary | None = None
        self.boc_vocabulary: Vocabulary | None = None
        self.boc_trie: CharTrie | None = None
        self.common_component: np.ndarray | None = None
        self.fitted = False

    def _views(self, text: str) -> tuple[str, list[str]]:
        """Per-tweet feature inputs: basic-preprocessed text, semantic tokens."""
        basic = basic_preprocess(tokenize(text), self.preprocess_config)
        semantic = semantic_preprocess(basic, self.preprocess_config)
        return join_tokens(basic), [token.surface for token in semantic]

    def fit(self, train: Dataset) -> "FeaturePipeline":
        if not len(train):
            raise ValueError("cannot fit the feature pipeline on an empty dataset")
        views = [self._views(tweet.text) for tweet in train.tweets]
        config = self.ngram_config
        if self.blocks.bow:
            self.bow_vocabulary = vectorize.fit_vocabulary(
                vectorize.word_ngrams(tokens, config.word_n_max) for _, tokens in views
            )
        if self.blocks.boc:
            self.boc_vocabulary = vectorize.fit_char_vocabulary([text for text, _ in views], config.char_n_max)
            self.boc_trie = CharTrie.of(self.boc_vocabulary)
        if self.blocks.embedding and self.sif_config.remove_common_component:
            self.common_component = leading_component(np.stack([self._embed(tokens) for _, tokens in views]))
        self.fitted = True
        return self

    def fit_transform(self, train: Dataset) -> csr.CsrMatrix:
        return self.fit(train).transform(train)

    def _embed(self, tokens: list[str]) -> np.ndarray:
        assert self.embedding_table is not None and self.unigram is not None
        return sif_embed(tokens, self.embedding_table, self.unigram, self.sif_config)

    @property
    def layout(self) -> list[tuple[str, int]]:
        """Enabled (block, dim) pairs in the fixed order."""
        if not self.fitted:
            raise RuntimeError("the pipeline must be fitted before its layout exists")
        out: list[tuple[str, int]] = []
        if self.blocks.bow:
            assert self.bow_vocabulary is not None
            out.append(("bow", len(self.bow_vocabulary)))
        if self.blocks.boc:
            assert self.boc_vocabulary is not None
            out.append(("boc", len(self.boc_vocabulary)))
        if self.blocks.embedding:
            assert self.embedding_table is not None
            out.append(("embedding", self.embedding_table.dim))
        return out

    def narrowed(self, blocks: FeatureBlocks) -> "FeaturePipeline":
        """A shallow copy of this fitted pipeline with ``blocks``, a subset of its own.

        It shares every fitted table; ``blocks`` decides which it reads and
        saves, and those are what a pipeline of ``blocks`` alone fits.
        """
        if any(getattr(blocks, name) > getattr(self.blocks, name) for name in BLOCK_ORDER):
            raise ValueError(f"{blocks} is not a subset of {self.blocks}")
        narrow = copy.copy(self)
        narrow.blocks = blocks
        return narrow

    def columns(self, blocks: FeatureBlocks) -> np.ndarray | None:
        """Where the columns of ``blocks``, a subset of this pipeline's own,
        lie in its matrices; None when they are every column.

        ``csr.take_columns(matrix, columns)`` is, bit for bit, the matrix that
        ``narrowed(blocks)`` makes of the same data.
        """
        if blocks == self.blocks:
            return None
        bounds = np.cumsum([0] + [dim for _, dim in self.layout])
        ranges = [
            np.arange(start, end)
            for (name, _), start, end in zip(self.layout, bounds, bounds[1:])
            if getattr(blocks, name)
        ]
        return np.concatenate(ranges)

    def transform(self, dataset: Dataset) -> csr.CsrMatrix:
        texts = [tweet.text for tweet in dataset.tweets]
        chunks = max(1, min(parallel.cpu_count(), len(texts) // MIN_ROWS_PER_WORKER))
        if chunks == 1:
            return self._featurize(texts)
        return csr.vstack(parallel.fork_map(self._featurize, _split(texts, chunks)))

    def label(self, predictor: Ensemble, dataset: Dataset) -> list[Label]:
        """``predict_many(predictor, self.transform(dataset))``, computed
        block by block in forked workers that return only labels."""
        texts = [tweet.text for tweet in dataset.tweets]
        blocks = _split(texts, max(1, len(texts) // MIN_ROWS_PER_WORKER))
        labelled = parallel.fork_map(lambda block: predict_many(predictor, self._featurize(block)), blocks)
        return [label for labels in labelled for label in labels]

    def _featurize(self, texts: list[str]) -> csr.CsrMatrix:
        """One row per text, blocks side by side."""
        if not self.fitted:
            raise RuntimeError("the pipeline must be fitted before transforming")
        views = [self._views(text) for text in texts]
        blocks: list[csr.CsrMatrix] = []
        config = self.ngram_config
        if self.blocks.bow:
            assert self.bow_vocabulary is not None
            word_grams = (vectorize.word_ngrams(tokens, config.word_n_max) for _, tokens in views)
            blocks.append(vectorize.ngram_matrix(word_grams, self.bow_vocabulary, config))
        if self.blocks.boc:
            assert self.boc_vocabulary is not None and self.boc_trie is not None
            counts = self.boc_trie.count_matrix([text for text, _ in views])
            blocks.append(vectorize.weigh(counts, self.boc_vocabulary, config))
        if self.blocks.embedding:
            assert self.embedding_table is not None
            embedded = np.zeros((len(views), self.embedding_table.dim))
            for row, (_, tokens) in enumerate(views):
                vector = self._embed(tokens)
                if self.sif_config.remove_common_component:
                    # One row at a time: a batched matrix-vector product rounds
                    # differently, and a row must not depend on its batch.
                    vector = remove_component(vector.reshape(1, -1), self.common_component)[0]
                embedded[row] = vector
            # CSR keeps no explicit zeros, so zero components are not stored.
            blocks.append(csr.from_dense(embedded))
        return csr.hstack(blocks)


#: Format 2 stores a relative resource path relative to the bundle directory;
#: format 1 stored it as given, relative to the working directory of training.
PIPELINE_FORMAT_VERSION = 2


def _bundle_relative(path: str | None, directory: Path) -> str | None:
    """A relative ``path`` rewritten relative to ``directory``; absolute paths stay.

    An absolute path already loads from anywhere, and keeping it keeps the
    bundle's bytes independent of where the bundle is written.
    """
    if path is None or Path(path).is_absolute():
        return path
    return Path(os.path.relpath(Path(path).resolve(), directory.resolve())).as_posix()


def save_pipeline(pipeline: FeaturePipeline, directory: str | Path, resources: dict[str, str | None]) -> None:
    """Persist the fitted pipeline.

    Small preprocessing resources are inlined; ``resources`` records the
    embedding/subword/unigram file paths, which are reloaded from disk.
    Relative paths are stored relative to ``directory``, so the bundle loads
    from any working directory.  Only the fitted tables the configs name are
    written: a vocabulary per n-gram block, and the common component when the
    embedding block has ``remove_common_component``.  So a narrowed copy
    writes the bundle of a pipeline fitted with its blocks alone.
    """
    if not pipeline.fitted:
        raise ValueError("only fitted pipelines can be saved")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    resources = {name: _bundle_relative(path, directory) for name, path in resources.items()}
    meta = {
        "format_version": PIPELINE_FORMAT_VERSION,
        "blocks": asdict(pipeline.blocks),
        "ngrams": asdict(pipeline.ngram_config),
        "preprocess": asdict(pipeline.preprocess_config),
        "sif": asdict(pipeline.sif_config),
        "resources": resources,
        "layout": pipeline.layout,
    }
    with open(directory / "pipeline.json", "w", encoding="utf-8", newline="\n") as handle:
        handle.write(dump(meta))
    if pipeline.blocks.bow:
        vectorize.save_vocabulary(pipeline.bow_vocabulary, pipeline.ngram_config, directory / "bow_vocab.tsv")
    if pipeline.blocks.boc:
        vectorize.save_vocabulary(pipeline.boc_vocabulary, pipeline.ngram_config, directory / "boc_vocab.tsv")
    if pipeline.blocks.embedding and pipeline.sif_config.remove_common_component:
        np.save(directory / "common_component.npy", pipeline.common_component)


def load_pipeline(directory: str | Path) -> FeaturePipeline:
    """Reload a persisted pipeline, reading only the fitted tables its configs
    name and rejecting layout mismatches."""
    from .embeddings import load_embeddings, load_unigram_counts

    directory = Path(directory)
    meta = Manifest(directory / "pipeline.json")
    version = meta.get("format_version")
    if version not in (1, PIPELINE_FORMAT_VERSION):
        raise ValueError(f"unsupported pipeline format version {version!r}")
    preprocess_config = load_section(PreprocessConfig, meta["preprocess"], "preprocess")
    ngram_config = load_section(NgramConfig, meta["ngrams"], "ngrams")
    blocks = load_section(FeatureBlocks, meta["blocks"], "blocks")
    sif_config = load_section(SifConfig, meta["sif"], "sif")
    embedding_table = None
    unigram = None
    if blocks.embedding:
        resources = meta["resources"]
        if not resources.get("embeddings") or not resources.get("unigram_counts"):
            raise ValueError("pipeline metadata is missing embedding resource paths")
        if version != 1:
            resources = {name: path and directory / path for name, path in resources.items()}
        embedding_table = load_embeddings(resources["embeddings"], resources.get("subword"))
        unigram = load_unigram_counts(resources["unigram_counts"])
    pipeline = FeaturePipeline(
        preprocess_config=preprocess_config,
        ngram_config=ngram_config,
        blocks=blocks,
        embedding_table=embedding_table,
        unigram=unigram,
        sif_config=sif_config,
    )
    if blocks.bow:
        pipeline.bow_vocabulary = vectorize.load_vocabulary(directory / "bow_vocab.tsv", ngram_config)
    if blocks.boc:
        pipeline.boc_vocabulary = vectorize.load_vocabulary(directory / "boc_vocab.tsv", ngram_config, chars=True)
        pipeline.boc_trie = CharTrie.of(pipeline.boc_vocabulary)
    if blocks.embedding and sif_config.remove_common_component:
        path = directory / "common_component.npy"
        pipeline.common_component = load_floats(path)
        if pipeline.common_component.shape != (embedding_table.dim,):
            raise ValueError(f"{path} holds shape {pipeline.common_component.shape}, not ({embedding_table.dim},)")
    pipeline.fitted = True
    stored_layout = meta.layout()
    if pipeline.layout != stored_layout:
        raise ValueError(
            f"reloaded feature layout {pipeline.layout} does not match stored layout {stored_layout}"
        )
    return pipeline
