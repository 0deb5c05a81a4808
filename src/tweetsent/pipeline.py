"""Feature pipeline: fit the enabled blocks on training data, then turn any
dataset into a matrix with the fixed block order BoW, BoC, embedding.

Word n-grams and sentence embeddings see semantically preprocessed tokens;
character n-grams see the tweet text after basic preprocessing only.  Both
views are derived here from the stored text, and because basic preprocessing
is idempotent the pipeline accepts raw and already-preprocessed datasets
alike.

A dataset is featurized in one batch: the two views are computed once per
tweet, each n-gram block is built straight into one CSR matrix
(``vectorize.ngram_matrix``), the SIF rows are stacked once, and
``sparse.hstack`` joins the blocks.  ``fit_transform`` reuses the training
views for both steps.  ``transform_one`` is a one-row batch, so a tweet's
features do not depend on which batch it is in.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from . import vectorize
from .corpus import Dataset
from .embeddings import (
    EmbeddingTable,
    SifConfig,
    UnigramModel,
    leading_component,
    remove_component,
    sif_embed,
)
from .preprocess import PreprocessConfig, basic_preprocess, join_tokens, semantic_preprocess, tokenize
from .vectorize import NgramConfig, SparseVector, Vocabulary

BLOCK_ORDER = ("bow", "boc", "embedding")


@dataclass(frozen=True)
class FeatureBlocks:
    """Which feature families are active; at least one must be."""

    bow: bool = True
    boc: bool = True
    embedding: bool = True

    def __post_init__(self) -> None:
        if not (self.bow or self.boc or self.embedding):
            raise ValueError("at least one feature block must be enabled")


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
        self.common_component: np.ndarray | None = None
        self.fitted = False

    def _views(self, text: str) -> tuple[str, list[str]]:
        """Per-tweet feature inputs: basic-preprocessed text, semantic tokens."""
        basic = basic_preprocess(tokenize(text), self.preprocess_config)
        semantic = semantic_preprocess(basic, self.preprocess_config)
        return join_tokens(basic), [token.surface for token in semantic]

    def _dataset_views(self, dataset: Dataset) -> list[tuple[str, list[str]]]:
        return [self._views(tweet.text) for tweet in dataset.tweets]

    def fit(self, train: Dataset) -> "FeaturePipeline":
        self._fit(self._dataset_views(train))
        return self

    def fit_transform(self, train: Dataset) -> sparse.csr_matrix:
        """``fit(train)`` then ``transform(train)``, computing the views once."""
        views = self._dataset_views(train)
        self._fit(views)
        return self._matrix(views)

    def _fit(self, views: list[tuple[str, list[str]]]) -> None:
        if not views:
            raise ValueError("cannot fit the feature pipeline on an empty dataset")
        config = self.ngram_config
        if self.blocks.bow:
            self.bow_vocabulary = vectorize.fit_vocabulary(
                vectorize.word_ngrams(tokens, config.word_n_max) for _, tokens in views
            )
        if self.blocks.boc:
            self.boc_vocabulary = vectorize.fit_vocabulary(
                vectorize.char_ngrams(text, config.char_n_max) for text, _ in views
            )
        if self.blocks.embedding and self.sif_config.remove_common_component:
            matrix = np.stack([self._embed(tokens) for _, tokens in views])
            if matrix.any():
                self.common_component = leading_component(matrix)
        self.fitted = True

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

    def transform_one(self, text: str) -> SparseVector:
        return SparseVector.from_row(self._matrix([self._views(text)]))

    def transform(self, dataset: Dataset) -> sparse.csr_matrix:
        return self._matrix(self._dataset_views(dataset))

    def _matrix(self, views: list[tuple[str, list[str]]]) -> sparse.csr_matrix:
        """One row per (basic text, semantic tokens) view, blocks side by side."""
        if not self.fitted:
            raise RuntimeError("the pipeline must be fitted before transforming")
        blocks: list[sparse.csr_matrix] = []
        config = self.ngram_config
        if self.blocks.bow:
            assert self.bow_vocabulary is not None
            word_grams = (vectorize.word_ngrams(tokens, config.word_n_max) for _, tokens in views)
            blocks.append(vectorize.ngram_matrix(word_grams, self.bow_vocabulary, config))
        if self.blocks.boc:
            assert self.boc_vocabulary is not None
            char_grams = (vectorize.char_ngrams(text, config.char_n_max) for text, _ in views)
            blocks.append(vectorize.ngram_matrix(char_grams, self.boc_vocabulary, config))
        if self.blocks.embedding:
            assert self.embedding_table is not None
            embedded = np.zeros((len(views), self.embedding_table.dim))
            for row, (_, tokens) in enumerate(views):
                vector = self._embed(tokens)
                if self.common_component is not None:
                    # One row at a time: a batched matrix-vector product rounds
                    # differently, and a row must not depend on its batch.
                    vector = remove_component(vector.reshape(1, -1), self.common_component)[0]
                embedded[row] = vector
            # CSR keeps no explicit zeros, so zero components are not stored.
            blocks.append(sparse.csr_matrix(embedded))
        return sparse.hstack(blocks, format="csr")


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
    from any working directory.
    """
    if not pipeline.fitted:
        raise ValueError("only fitted pipelines can be saved")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    resources = {name: _bundle_relative(path, directory) for name, path in resources.items()}
    config = pipeline.preprocess_config
    meta = {
        "format_version": PIPELINE_FORMAT_VERSION,
        "blocks": {
            "bow": pipeline.blocks.bow,
            "boc": pipeline.blocks.boc,
            "embedding": pipeline.blocks.embedding,
        },
        "ngrams": {
            "word_n_max": pipeline.ngram_config.word_n_max,
            "char_n_max": pipeline.ngram_config.char_n_max,
            "binarize": pipeline.ngram_config.binarize,
            "tfidf": pipeline.ngram_config.tfidf,
        },
        "preprocess": {
            "negation_words": sorted(config.negation_words),
            "negation_scope": config.negation_scope,
            "stopwords": sorted(config.stopwords),
            "lemma_table": dict(sorted(config.lemma_table.items())),
            "repeat_cap": config.repeat_cap,
        },
        "sif": {
            "a": pipeline.sif_config.a,
            "remove_common_component": pipeline.sif_config.remove_common_component,
        },
        "resources": resources,
        "layout": pipeline.layout,
    }
    with open(directory / "pipeline.json", "w", encoding="utf-8", newline="\n") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True, ensure_ascii=False)
        handle.write("\n")
    if pipeline.bow_vocabulary is not None:
        vectorize.save_vocabulary(pipeline.bow_vocabulary, pipeline.ngram_config, directory / "bow_vocab.tsv")
    if pipeline.boc_vocabulary is not None:
        vectorize.save_vocabulary(pipeline.boc_vocabulary, pipeline.ngram_config, directory / "boc_vocab.tsv")
    if pipeline.common_component is not None:
        np.save(directory / "common_component.npy", pipeline.common_component)


def load_pipeline(directory: str | Path) -> FeaturePipeline:
    """Reload a persisted pipeline, rejecting layout mismatches."""
    from .embeddings import load_embeddings, load_unigram_counts

    directory = Path(directory)
    with open(directory / "pipeline.json", encoding="utf-8") as handle:
        meta = json.load(handle)
    version = meta.get("format_version")
    if version not in (1, PIPELINE_FORMAT_VERSION):
        raise ValueError(f"unsupported pipeline format version {version!r}")
    preprocess_config = PreprocessConfig(
        negation_words=frozenset(meta["preprocess"]["negation_words"]),
        negation_scope=meta["preprocess"]["negation_scope"],
        stopwords=frozenset(meta["preprocess"]["stopwords"]),
        lemma_table=meta["preprocess"]["lemma_table"],
        repeat_cap=meta["preprocess"]["repeat_cap"],
    )
    ngram_config = NgramConfig(**meta["ngrams"])
    blocks = FeatureBlocks(**meta["blocks"])
    sif_config = SifConfig(**meta["sif"])
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
        pipeline.bow_vocabulary, _ = vectorize.load_vocabulary(directory / "bow_vocab.tsv")
    if blocks.boc:
        pipeline.boc_vocabulary, _ = vectorize.load_vocabulary(directory / "boc_vocab.tsv")
    component_path = directory / "common_component.npy"
    if component_path.exists():
        pipeline.common_component = np.load(component_path)
    pipeline.fitted = True
    stored_layout = [(str(name), int(dim)) for name, dim in meta["layout"]]
    if pipeline.layout != stored_layout:
        raise ValueError(
            f"reloaded feature layout {pipeline.layout} does not match stored layout {stored_layout}"
        )
    return pipeline
