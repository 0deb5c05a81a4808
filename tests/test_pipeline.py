import dataclasses
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_same_csr
from tweetsent.corpus import Dataset, Label, Tweet
from tweetsent.embeddings import (
    EmbeddingTable,
    SifConfig,
    UnigramModel,
    sif_embed,
)
from tweetsent.pipeline import (
    BLOCK_ORDER,
    FeatureBlocks,
    FeaturePipeline,
    load_pipeline,
    save_pipeline,
)
from tweetsent import csr, parallel, preprocess
from tweetsent import pipeline as pipeline_module
from tweetsent.cli import main
from tweetsent.experiment import AugmentConfig, ExperimentConfig, load_bundle, run_experiment
from tweetsent.preprocess import PreprocessConfig, basic_preprocess, join_tokens, tokenize
from tweetsent import vectorize
from tweetsent.vectorize import NgramConfig


def tiny_dataset():
    return Dataset(
        "toy",
        "train",
        (
            Tweet("t1", "el gato duerme", Label.P),
            Tweet("t2", "el perro ladra fuerte", Label.N),
            Tweet("t3", "gato y perro juegan", Label.NEU),
        ),
    )


def embedding_fixture(dim=4):
    words = ["gato", "perro", "duerme", "ladra", "fuerte", "juegan", "el", "y"]
    rng = np.random.default_rng(1)
    vectors = {w: rng.normal(size=dim) for w in words}
    table = EmbeddingTable(dim=dim, vectors=vectors)
    unigram = UnigramModel(counts={w: i + 1 for i, w in enumerate(words)}, total=36)
    return table, unigram


def make_pipeline(blocks=None, sif_config=None, stopwords=frozenset()):
    table, unigram = embedding_fixture()
    return FeaturePipeline(
        preprocess_config=PreprocessConfig(stopwords=stopwords),
        ngram_config=NgramConfig(word_n_max=2, char_n_max=3),
        blocks=blocks or FeatureBlocks(),
        embedding_table=table,
        unigram=unigram,
        sif_config=sif_config,
    )


class TestFeatureBlocks:
    def test_at_least_one_required(self):
        with pytest.raises(ValueError):
            FeatureBlocks(bow=False, boc=False, embedding=False)

    def test_block_order_constant(self):
        assert BLOCK_ORDER == ("bow", "boc", "embedding")


class TestFit:
    def test_layout_order_and_dims(self):
        pipeline = make_pipeline().fit(tiny_dataset())
        names = [name for name, _ in pipeline.layout]
        assert names == ["bow", "boc", "embedding"]
        dims = dict(pipeline.layout)
        assert dims["bow"] == len(pipeline.bow_vocabulary)
        assert dims["boc"] == len(pipeline.boc_vocabulary)
        assert dims["embedding"] == 4

    def test_disabled_blocks_absent_from_layout(self):
        pipeline = make_pipeline(blocks=FeatureBlocks(bow=True, boc=False, embedding=False))
        pipeline.fit(tiny_dataset())
        assert [name for name, _ in pipeline.layout] == ["bow"]

    def test_empty_train_rejected(self):
        pipeline = make_pipeline()
        with pytest.raises(ValueError):
            pipeline.fit(Dataset("toy", "test", ()))

    def test_embedding_block_requires_resources(self):
        with pytest.raises(ValueError):
            FeaturePipeline(
                preprocess_config=PreprocessConfig(),
                ngram_config=NgramConfig(),
                blocks=FeatureBlocks(),
            )

    def test_layout_requires_fit(self):
        pipeline = make_pipeline()
        with pytest.raises(RuntimeError):
            pipeline.layout


class TestTransform:
    def test_vector_dim_is_sum_of_blocks(self):
        pipeline = make_pipeline().fit(tiny_dataset())
        vec = pipeline.transform(dataset_of(["el gato ladra"]))
        assert vec.shape == (1, sum(dim for _, dim in pipeline.layout))

    def test_matrix_shape(self):
        ds = tiny_dataset()
        pipeline = make_pipeline().fit(ds)
        matrix = pipeline.transform(ds)
        assert matrix.shape == (3, sum(dim for _, dim in pipeline.layout))

    def test_embedding_tail_matches_direct_sif(self):
        pipeline = make_pipeline().fit(tiny_dataset())
        table, unigram = pipeline.embedding_table, pipeline.unigram
        vec = pipeline.transform(dataset_of(["el gato duerme"])).to_dense()[0]
        expected = sif_embed(
            ["el", "gato", "duerme"], table, unigram, pipeline.sif_config
        )
        assert np.allclose(vec[-4:], expected)

    def test_bow_ignores_stopwords_boc_keeps_them(self):
        # The word view drops the stopword; the character view runs over the
        # basic text, which keeps it.
        with_stop = make_pipeline(stopwords=frozenset({"el"})).fit(tiny_dataset())
        assert "el" not in with_stop.bow_vocabulary.index
        assert "el " in with_stop.boc_vocabulary.index

    def test_transform_before_fit_rejected(self):
        pipeline = make_pipeline()
        with pytest.raises(RuntimeError):
            pipeline.transform(dataset_of(["hola"]))

    def test_unseen_text_hits_embedding_only(self):
        pipeline = make_pipeline(
            blocks=FeatureBlocks(bow=True, boc=False, embedding=False)
        ).fit(tiny_dataset())
        vec = pipeline.transform(dataset_of(["zzz qqq"]))
        assert vec.nnz == 0

    def test_raw_and_preprocessed_text_agree(self):
        # Feeding back the basic-preprocessed text is a no-op by design, so
        # augmented instances and raw ones share one code path.
        pipeline = make_pipeline().fit(tiny_dataset())
        raw = "@maria el GATO duerme https://x.co/a"
        basic = "@USER el GATO duerme URL"
        assert_same_csr(pipeline.transform(dataset_of([raw])), pipeline.transform(dataset_of([basic])))


# Arbitrary Unicode a Tweet accepts, salted with placeholder literals and the
# characters that may follow them.
VIEW_PIECES = ["URL", "EMAIL", "@USER", "URL0", "EMAIL9", "URL_x", "https://x.co/a", "b@c.org", "_", "0", "²", "é", "😀"]
view_texts = st.lists(
    st.one_of(
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n"), max_size=8),
        st.sampled_from(VIEW_PIECES),
    ),
    max_size=8,
).map("".join)


class TestViews:
    @settings(max_examples=300, deadline=None)
    @given(view_texts)
    def test_preprocessed_text_has_the_views_of_its_raw_text(self, text):
        pipeline = make_pipeline()
        config = pipeline.preprocess_config
        assert pipeline._views(text) == pipeline._views(join_tokens(basic_preprocess(tokenize(text), config)))


class TestCommonComponent:
    def test_fit_records_component_when_enabled(self):
        pipeline = make_pipeline(sif_config=SifConfig(a=0.1, remove_common_component=True))
        pipeline.fit(tiny_dataset())
        assert pipeline.common_component is not None
        assert np.linalg.norm(pipeline.common_component) == pytest.approx(1.0)

    def test_train_embeddings_become_orthogonal(self):
        ds = tiny_dataset()
        pipeline = make_pipeline(sif_config=SifConfig(a=0.1, remove_common_component=True))
        pipeline.fit(ds)
        for row in pipeline.transform(ds).to_dense():
            assert abs(float(row[-4:] @ pipeline.common_component)) <= 1e-9

    def test_disabled_by_default(self):
        pipeline = make_pipeline().fit(tiny_dataset())
        assert pipeline.common_component is None


def write_resources(directory):
    """``embedding_fixture`` as files in ``directory``; returns their absolute paths."""
    table, unigram = embedding_fixture()
    emb = directory / "emb.txt"
    lines = [f"{len(table.vectors)} {table.dim}"]
    for word, vec in table.vectors.items():
        lines.append(word + " " + " ".join(repr(float(x)) for x in vec))
    emb.write_text("\n".join(lines) + "\n", encoding="utf-8")
    uni = directory / "uni.tsv"
    uni.write_text(
        "".join(f"{w}\t{c}\n" for w, c in unigram.counts.items()), encoding="utf-8"
    )
    return {"embeddings": str(emb), "subword": None, "unigram_counts": str(uni)}


class TestSaveLoad:

    def test_round_trip_transforms_identically(self, tmp_path):
        resources = write_resources(tmp_path)
        ds = tiny_dataset()
        table, unigram = embedding_fixture()
        pipeline = FeaturePipeline(
            preprocess_config=PreprocessConfig(stopwords=frozenset({"el"})),
            ngram_config=NgramConfig(word_n_max=2, char_n_max=3),
            blocks=FeatureBlocks(),
            embedding_table=table,
            unigram=unigram,
        ).fit(ds)
        save_pipeline(pipeline, tmp_path / "bundle", resources)
        loaded = load_pipeline(tmp_path / "bundle")
        assert loaded.layout == pipeline.layout
        for tweet in ds.tweets:
            assert_same_csr(loaded.transform(dataset_of([tweet.text])), pipeline.transform(dataset_of([tweet.text])))

    def fitted_embedding_pipeline(self):
        table, unigram = embedding_fixture()
        return FeaturePipeline(
            preprocess_config=PreprocessConfig(),
            ngram_config=NgramConfig(word_n_max=1, char_n_max=2),
            blocks=FeatureBlocks(),
            embedding_table=table,
            unigram=unigram,
        ).fit(tiny_dataset())

    def test_relative_resource_paths_are_stored_relative_to_the_bundle(self, tmp_path, monkeypatch):
        write_resources(tmp_path)
        pipeline = self.fitted_embedding_pipeline()
        monkeypatch.chdir(tmp_path)
        save_pipeline(pipeline, "runs/bundle", {"embeddings": "emb.txt", "subword": None, "unigram_counts": "uni.tsv"})
        meta = json.loads((tmp_path / "runs" / "bundle" / "pipeline.json").read_text(encoding="utf-8"))
        assert meta["format_version"] == 2
        assert meta["resources"] == {"embeddings": "../../emb.txt", "subword": None, "unigram_counts": "../../uni.tsv"}
        moved = tmp_path / "elsewhere"
        moved.mkdir()
        monkeypatch.chdir(moved)
        loaded = load_pipeline(tmp_path / "runs" / "bundle")
        one = dataset_of([tiny_dataset().tweets[0].text])
        assert_same_csr(loaded.transform(one), pipeline.transform(one))

    def test_absolute_resource_paths_are_kept(self, tmp_path):
        resources = write_resources(tmp_path)
        save_pipeline(self.fitted_embedding_pipeline(), tmp_path / "bundle", resources)
        meta = json.loads((tmp_path / "bundle" / "pipeline.json").read_text(encoding="utf-8"))
        assert meta["resources"] == resources

    def test_format_1_paths_stay_relative_to_the_working_directory(self, tmp_path, monkeypatch):
        resources = write_resources(tmp_path)
        save_pipeline(self.fitted_embedding_pipeline(), tmp_path / "bundle", resources)
        meta_path = tmp_path / "bundle" / "pipeline.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["format_version"] = 1
        meta["resources"] = {"embeddings": "emb.txt", "subword": None, "unigram_counts": "uni.tsv"}
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert load_pipeline("bundle").embedding_table is not None
        monkeypatch.chdir(tmp_path / "bundle")
        with pytest.raises(FileNotFoundError):
            load_pipeline(".")

    def test_unknown_format_version_rejected(self, tmp_path):
        save_pipeline(make_pipeline().fit(tiny_dataset()), tmp_path, {})
        meta = json.loads((tmp_path / "pipeline.json").read_text(encoding="utf-8"))
        meta["format_version"] = 3
        (tmp_path / "pipeline.json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(ValueError, match="version 3"):
            load_pipeline(tmp_path)

    def test_unfitted_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_pipeline(make_pipeline(), tmp_path, {})

    def test_tampered_layout_rejected(self, tmp_path):
        import json

        resources = write_resources(tmp_path)
        pipeline = make_pipeline().fit(tiny_dataset())
        save_pipeline(pipeline, tmp_path / "bundle", resources)
        meta_path = tmp_path / "bundle" / "pipeline.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["layout"][0][1] += 1
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(ValueError, match="layout"):
            load_pipeline(tmp_path / "bundle")

    def test_common_component_round_trip(self, tmp_path):
        resources = write_resources(tmp_path)
        ds = tiny_dataset()
        table, unigram = embedding_fixture()
        pipeline = FeaturePipeline(
            preprocess_config=PreprocessConfig(),
            ngram_config=NgramConfig(word_n_max=2, char_n_max=3),
            blocks=FeatureBlocks(),
            embedding_table=table,
            unigram=unigram,
            sif_config=SifConfig(a=0.1, remove_common_component=True),
        ).fit(ds)
        save_pipeline(pipeline, tmp_path / "bundle", resources)
        loaded = load_pipeline(tmp_path / "bundle")
        assert np.array_equal(loaded.common_component, pipeline.common_component)
        for tweet in ds.tweets:
            assert_same_csr(loaded.transform(dataset_of([tweet.text])), pipeline.transform(dataset_of([tweet.text])))


LAYOUTS = [
    FeatureBlocks(),
    FeatureBlocks(bow=True, boc=False, embedding=False),
    FeatureBlocks(bow=False, boc=True, embedding=False),
    FeatureBlocks(bow=False, boc=False, embedding=True),
]
NGRAM_CONFIGS = [
    NgramConfig(word_n_max=2, char_n_max=3),
    NgramConfig(word_n_max=2, char_n_max=3, binarize=True),
    NgramConfig(word_n_max=2, char_n_max=3, tfidf=False),
]
PREPROCESS_CONFIGS = [
    PreprocessConfig(),
    PreprocessConfig(stopwords=frozenset({"y", "el"}), negation_scope=1),
    PreprocessConfig(lemma_table={"ladra": "ladrar", "perro": "perro"}, negation_words=frozenset({"no", "ñu"})),
]


WORDS = ["el", "gato", "perro", "duerme", "ladra", "fuerte", "juegan", "y", "no", "GATO", "ñu", "😀"]

# Arbitrary Unicode a Tweet accepts (no tabs or newlines), and sentences
# over the fixture vocabulary.
tweet_texts = st.one_of(
    st.text(st.characters(blacklist_characters="\t\n"), max_size=25),
    st.lists(st.sampled_from(WORDS), max_size=7).map(" ".join),
)


def dataset_of(texts):
    return Dataset("toy", "test", tuple(Tweet(f"q{i}", text, None) for i, text in enumerate(texts)))


def fitted(blocks, ngram_config, remove_common_component=False, extra=(), preprocess_config=None):
    table, unigram = embedding_fixture()
    train = tiny_dataset()
    train = train.replace_tweets(
        train.tweets + tuple(Tweet(f"x{i}", text, Label.P) for i, text in enumerate(extra))
    )
    pipeline = FeaturePipeline(
        preprocess_config=preprocess_config or PreprocessConfig(stopwords=frozenset({"y"})),
        ngram_config=ngram_config,
        blocks=blocks,
        embedding_table=table,
        unigram=unigram,
        sif_config=SifConfig(a=0.1, remove_common_component=remove_common_component),
    )
    return pipeline, train


def clear_memos():
    for memo in (preprocess._chunk_tokens, preprocess._collapse_repeats, preprocess._word):
        memo.cache_clear()


class TestBatchEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(tweet_texts, min_size=1, max_size=6),
        st.sampled_from(LAYOUTS),
        st.sampled_from(NGRAM_CONFIGS),
        st.booleans(),
    )
    def test_transform_equals_stacked_transform_one(self, texts, blocks, ngram_config, remove):
        pipeline, train = fitted(blocks, ngram_config, remove)
        pipeline.fit(train)
        # Each text alone, as a one-row batch: its columns strictly increase and no zero is stored.
        rows = [pipeline.transform(dataset_of([text])) for text in texts]
        for row in rows:
            assert row.shape == (1, sum(dim for _, dim in pipeline.layout))
            assert np.all(np.diff(row.indices) > 0) and np.all(row.indices < row.shape[1])
            assert np.all(row.data != 0.0)
        assert_same_csr(pipeline.transform(dataset_of(texts)), csr.vstack(rows))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(tweet_texts, max_size=5), st.sampled_from(LAYOUTS), st.booleans())
    def test_fit_transform_equals_fit_then_transform(self, extra, blocks, remove):
        pipeline, train = fitted(blocks, NGRAM_CONFIGS[0], remove, extra)
        reference, _ = fitted(blocks, NGRAM_CONFIGS[0], remove, extra)
        assert_same_csr(pipeline.fit_transform(train), reference.fit(train).transform(train))
        assert pipeline.layout == reference.layout

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(tweet_texts, min_size=1, max_size=5),
        st.lists(tweet_texts, min_size=1, max_size=5),
        st.sampled_from(PREPROCESS_CONFIGS),
        st.sampled_from(PREPROCESS_CONFIGS),
    )
    def test_a_row_does_not_depend_on_what_the_memos_hold(self, texts, other, config, other_config):
        pipeline, train = fitted(FeatureBlocks(), NGRAM_CONFIGS[0], preprocess_config=config)
        pipeline.fit(train)
        warmer, warm_train = fitted(FeatureBlocks(), NGRAM_CONFIGS[0], extra=other, preprocess_config=other_config)
        warmer.fit(warm_train)
        clear_memos()
        cold = pipeline.transform(dataset_of(texts))
        clear_memos()
        warmer.transform(dataset_of(other + texts))
        assert_same_csr(pipeline.transform(dataset_of(texts)), cold)

    @pytest.mark.parametrize("blocks", LAYOUTS)
    @pytest.mark.parametrize("ngram_config", NGRAM_CONFIGS)
    def test_empty_and_unseen_texts_give_finite_rows(self, blocks, ngram_config):
        pipeline, train = fitted(blocks, ngram_config)
        pipeline.fit(train)
        with np.errstate(all="raise"):
            matrix = pipeline.transform(dataset_of(["", "zzz qqq", "   "]))
        assert matrix.shape == (3, sum(dim for _, dim in pipeline.layout))
        assert np.isfinite(matrix.data).all()
        if not blocks.boc:
            # Only character n-grams can see parts of unseen words.
            assert matrix.nnz == 0

    def test_ngram_blocks_match_vectorize(self):
        pipeline, train = fitted(FeatureBlocks(), NGRAM_CONFIGS[0])
        pipeline.fit(train)
        text = "el gato no ladra"
        boc_text, tokens = pipeline._views(text)
        vec = pipeline.transform(dataset_of([text]))
        bow = vectorize.transform(
            vectorize.extract_word_ngrams(tokens, 2), pipeline.bow_vocabulary, pipeline.ngram_config
        )
        boc = vectorize.transform(
            vectorize.extract_char_ngrams(boc_text, 3), pipeline.boc_vocabulary, pipeline.ngram_config
        )
        bow_dim, boc_dim = bow.shape[1], boc.shape[1]
        assert_same_csr(csr.take_columns(vec, np.arange(bow_dim)), bow)
        assert_same_csr(csr.take_columns(vec, np.arange(bow_dim, bow_dim + boc_dim)), boc)

    def test_empty_dataset_gives_no_rows(self):
        pipeline, train = fitted(FeatureBlocks(), NGRAM_CONFIGS[0])
        pipeline.fit(train)
        matrix = pipeline.transform(dataset_of([]))
        assert matrix.shape == (0, sum(dim for _, dim in pipeline.layout))

    def test_fit_transform_rejects_empty_train(self):
        pipeline, _ = fitted(FeatureBlocks(), NGRAM_CONFIGS[0])
        with pytest.raises(ValueError):
            pipeline.fit_transform(dataset_of([]))


def chunked(monkeypatch, cpus):
    """Featurize batches of 2+ rows in up to ``cpus`` forked workers; returns
    the number of chunks of every ``fork_map`` call ``transform`` makes."""
    calls = []
    fork_map = parallel.fork_map

    def recording_fork_map(fn, items):
        calls.append(len(items))
        return fork_map(fn, items)

    monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
    monkeypatch.setattr(parallel, "fork_map", recording_fork_map)
    monkeypatch.setattr(pipeline_module, "MIN_ROWS_PER_WORKER", 1)
    return calls


CHUNK_TEXTS = ["el gato duerme", "", "zzz qqq", "el perro no ladra 😀", "GATO y ñu", "   ", "juegan @ana https://x.co"]


@pytest.fixture(scope="module")
def bundle(mini_corpus, tmp_path_factory):
    """An all-blocks bundle trained with plain LR on the mini corpus."""
    config = ExperimentConfig.from_json(mini_corpus / "config.json")
    config = dataclasses.replace(config, augment=AugmentConfig(), model=dataclasses.replace(config.model, bagging=None))
    return run_experiment(config, tmp_path_factory.mktemp("bundle-run")).out_dir / "model"


def predict_argv(bundle, data, output):
    return ["predict", "--model", str(bundle), "--input", str(data), "--output", str(output)]


class TestChunkedTransform:
    """Row chunks featurized in forked workers join to exactly the one-batch matrix."""

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("blocks", LAYOUTS)
    @pytest.mark.parametrize("remove", [False, True])
    def test_chunks_join_to_the_one_batch_matrix(self, monkeypatch, cpus, blocks, remove):
        pipeline, train = fitted(blocks, NGRAM_CONFIGS[0], remove)
        pipeline.fit(train)
        dataset = dataset_of(CHUNK_TEXTS)
        whole = pipeline.transform(dataset)
        calls = chunked(monkeypatch, cpus)
        assert_same_csr(pipeline.transform(dataset), whole)
        assert calls == [cpus]

    @pytest.mark.parametrize("rows, expected_calls", [(0, []), (1, []), (2, [2])])
    def test_fewer_rows_than_workers(self, monkeypatch, rows, expected_calls):
        pipeline, train = fitted(FeatureBlocks(), NGRAM_CONFIGS[0], remove_common_component=True)
        pipeline.fit(train)
        dataset = dataset_of(CHUNK_TEXTS[:rows])
        whole = pipeline.transform(dataset)
        calls = chunked(monkeypatch, 3)
        matrix = pipeline.transform(dataset)
        assert_same_csr(matrix, whole)
        assert matrix.shape == (rows, sum(dim for _, dim in pipeline.layout))
        assert calls == expected_calls

    def test_each_worker_gets_at_least_the_row_minimum(self, monkeypatch):
        pipeline, train = fitted(FeatureBlocks(), NGRAM_CONFIGS[0])
        pipeline.fit(train)
        calls = chunked(monkeypatch, 2)
        monkeypatch.setattr(pipeline_module, "MIN_ROWS_PER_WORKER", 7)
        pipeline.transform(dataset_of(["el gato"] * 13))
        assert calls == []
        pipeline.transform(dataset_of(["el gato"] * 14))
        assert calls == [2]

    def test_cli_predict_writes_the_same_bytes_pooled(self, bundle, mini_corpus, tmp_path, monkeypatch):
        assert main(predict_argv(bundle, mini_corpus / "test.tsv", tmp_path / "serial.tsv")) == 0
        calls = chunked(monkeypatch, 2)
        assert main(predict_argv(bundle, mini_corpus / "test.tsv", tmp_path / "pooled.tsv")) == 0
        assert calls == [2]
        assert (tmp_path / "pooled.tsv").read_bytes() == (tmp_path / "serial.tsv").read_bytes()

    def test_dead_featurization_worker_exits_1_in_the_predict_stage(
        self, bundle, mini_corpus, tmp_path, monkeypatch, capsys
    ):
        parent = os.getpid()

        def exit_in_worker(*args):
            if os.getpid() != parent:
                os._exit(1)
            raise AssertionError("featurized in the parent process")

        chunked(monkeypatch, 2)
        monkeypatch.setattr(FeaturePipeline, "_views", exit_in_worker)
        code = main(predict_argv(bundle, mini_corpus / "test.tsv", tmp_path / "labels.tsv"))
        assert code == 1
        assert "error [predict]" in capsys.readouterr().err


GOLDEN_FULL_PIPELINE_JSON = """\
{
  "blocks": {
    "boc": true,
    "bow": true,
    "embedding": true
  },
  "format_version": 2,
  "layout": [
    [
      "bow",
      11
    ],
    [
      "boc",
      87
    ],
    [
      "embedding",
      4
    ]
  ],
  "ngrams": {
    "binarize": false,
    "char_n_max": 3,
    "tfidf": true,
    "word_n_max": 2
  },
  "preprocess": {
    "lemma_table": {
      "ladra": "ladrar",
      "niño": "niño"
    },
    "negation_scope": 2,
    "negation_words": [
      "jamás",
      "nada",
      "nadie",
      "ni",
      "ninguna",
      "ninguno",
      "ningún",
      "no",
      "nunca",
      "sin",
      "tampoco"
    ],
    "repeat_cap": 2,
    "stopwords": [
      "el",
      "y"
    ]
  },
  "resources": {
    "embeddings": "../emb.txt",
    "subword": null,
    "unigram_counts": "../uni.tsv"
  },
  "sif": {
    "a": 0.01,
    "remove_common_component": true
  }
}
"""

GOLDEN_BOW_PIPELINE_JSON = """\
{
  "blocks": {
    "boc": false,
    "bow": true,
    "embedding": false
  },
  "format_version": 2,
  "layout": [
    [
      "bow",
      8
    ]
  ],
  "ngrams": {
    "binarize": true,
    "char_n_max": 1,
    "tfidf": false,
    "word_n_max": 1
  },
  "preprocess": {
    "lemma_table": {},
    "negation_scope": 3,
    "negation_words": [
      "jamás",
      "nada",
      "nadie",
      "ni",
      "ninguna",
      "ninguno",
      "ningún",
      "no",
      "nunca",
      "sin",
      "tampoco"
    ],
    "repeat_cap": 2,
    "stopwords": []
  },
  "resources": {},
  "sif": {
    "a": 0.1,
    "remove_common_component": false
  }
}
"""


class TestPipelineFormat:
    """``pipeline.json`` pinned as format 2 writes it: each config section holds its dataclass's fields."""

    def check(self, pipeline, resources, expected_json):
        save_pipeline(pipeline, "bundle", resources)
        assert Path("bundle", "pipeline.json").read_bytes() == expected_json.encode("utf-8")
        loaded = load_pipeline("bundle")
        assert loaded.preprocess_config == pipeline.preprocess_config
        assert loaded.ngram_config == pipeline.ngram_config
        assert loaded.blocks == pipeline.blocks
        assert loaded.sif_config == pipeline.sif_config
        assert loaded.layout == pipeline.layout
        assert_same_csr(loaded.transform(tiny_dataset()), pipeline.transform(tiny_dataset()))

    def test_all_blocks_with_common_component_removal(self, tmp_path, monkeypatch):
        write_resources(tmp_path)
        monkeypatch.chdir(tmp_path)
        table, unigram = embedding_fixture()
        pipeline = FeaturePipeline(
            preprocess_config=PreprocessConfig(
                stopwords=frozenset({"y", "el"}), lemma_table={"ladra": "ladrar", "niño": "niño"}, negation_scope=2
            ),
            ngram_config=NgramConfig(word_n_max=2, char_n_max=3),
            blocks=FeatureBlocks(),
            embedding_table=table,
            unigram=unigram,
            sif_config=SifConfig(a=0.01, remove_common_component=True),
        ).fit(tiny_dataset())
        resources = {"embeddings": "emb.txt", "subword": None, "unigram_counts": "uni.tsv"}
        self.check(pipeline, resources, GOLDEN_FULL_PIPELINE_JSON)

    def test_bow_only(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pipeline = FeaturePipeline(
            preprocess_config=PreprocessConfig(),
            ngram_config=NgramConfig(word_n_max=1, char_n_max=1, binarize=True, tfidf=False),
            blocks=FeatureBlocks(bow=True, boc=False, embedding=False),
        ).fit(tiny_dataset())
        self.check(pipeline, {}, GOLDEN_BOW_PIPELINE_JSON)


def drop_term(rows, term):
    """Remove ``term``'s row from vocabulary ``rows``, renumbering the later ones."""
    (dropped,) = [i for i, row in enumerate(rows) if row[0] == term]
    del rows[dropped]
    for row in rows[dropped:]:
        row[1] = str(int(row[1]) - 1)


class TestBundleChecks:
    """A bundle value of the wrong type, or an unknown key, fails the load and names its key."""

    @pytest.mark.parametrize(
        "section, key, value",
        [("ngrams", "binarize", "false"), ("preprocess", "negation_scope", "3"), ("ngrams", "word_n_max", 5.5)],
    )
    def test_mistyped_value_names_its_key(self, tampered_bundle, section, key, value):
        bundle = tampered_bundle("pipeline.json", lambda meta: meta[section].update({key: value}))
        with pytest.raises(ValueError, match=re.escape(f"config key '{section}.{key}' must be of type")):
            load_bundle(bundle)

    def test_unknown_key_names_its_section(self, tampered_bundle):
        bundle = tampered_bundle("pipeline.json", lambda meta: meta["sif"].update(b=0.5))
        with pytest.raises(ValueError, match=re.escape("config section 'sif' has unknown keys ['b']")):
            load_bundle(bundle)

    def test_missing_section_is_named(self, tampered_bundle):
        bundle = tampered_bundle("pipeline.json", lambda meta: meta.pop("sif"))
        with pytest.raises(ValueError, match="config section 'sif' must be a JSON object, got None"):
            load_bundle(bundle)

    @pytest.mark.parametrize(
        "old, new", [("binarize=0", "binarize=1"), ("char_n_max=3", "char_n_max=4"), ("doc_count=3", "doc_count=03")]
    )
    def test_edited_vocabulary_header_fails_predict_in_the_bundle_stage(
        self, tampered_bundle, tmp_path, capsys, old, new
    ):
        bundle = tampered_bundle("pipeline.json", lambda meta: None)
        vocab = bundle / "boc_vocab.tsv"
        header, rest = vocab.read_text(encoding="utf-8").split("\n", 1)
        assert old in header
        vocab.write_text(header.replace(old, new) + "\n" + rest, encoding="utf-8")
        (tmp_path / "input.tsv").write_text("p1\tel gato duerme\n", encoding="utf-8")
        argv = ["predict", "--model", str(bundle), "--input", str(tmp_path / "input.tsv")]
        assert main([*argv, "--output", str(tmp_path / "labels.tsv")]) == 1
        assert "error [bundle]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            # The second row takes the first row's index: idf slot 1 was left unset.
            (
                lambda rows: rows[1].__setitem__(1, rows[0][1]),
                r"boc_vocab.tsv:3: index 0 is negative or taken by an earlier row",
            ),
            (lambda rows: rows[1].__setitem__(0, rows[0][0]), r"boc_vocab.tsv:3: term ' ' is listed by an earlier row"),
            (lambda rows: rows[-1].__setitem__(1, str(len(rows))), r"boc_vocab.tsv:\d+: index \d+ leaves a gap"),
            (lambda rows: drop_term(rows, "el"), r"boc_vocab.tsv:\d+: the prefix 'el' of term 'el ' is not a term"),
        ],
    )
    def test_inconsistent_vocabulary_rows_fail_predict_and_eval_in_the_bundle_stage(
        self, tampered_bundle, tmp_path, capsys, edit, message
    ):
        bundle = tampered_bundle("pipeline.json", lambda meta: None)
        vocab = bundle / "boc_vocab.tsv"
        header, *lines = vocab.read_text(encoding="utf-8").splitlines()
        rows = [line.split("\t") for line in lines]
        edit(rows)
        vocab.write_text("\n".join([header, *("\t".join(row) for row in rows)]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_bundle(bundle)
        (tmp_path / "input.tsv").write_text("p1\tel gato duerme\n", encoding="utf-8")
        (tmp_path / "dev.tsv").write_text("d1\tel gato duerme\tP\n", encoding="utf-8")
        argv = ["predict", "--model", str(bundle), "--input", str(tmp_path / "input.tsv")]
        assert main([*argv, "--output", str(tmp_path / "labels.tsv")]) == 1
        assert "error [bundle]" in capsys.readouterr().err
        assert main(["eval", "--model", str(bundle), "--data", str(tmp_path / "dev.tsv")]) == 1
        assert "error [bundle]" in capsys.readouterr().err

    def test_vocabulary_header_must_match_the_stored_ngram_config(self, tampered_bundle):
        bundle = tampered_bundle("pipeline.json", lambda meta: meta["ngrams"].update(char_n_max=4))
        with pytest.raises(ValueError, match="does not match the n-gram config"):
            load_bundle(bundle)


class TestSaveLoadProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(tweet_texts, max_size=5),
        st.lists(tweet_texts, min_size=1, max_size=5),
        st.sampled_from(LAYOUTS),
        st.sampled_from(NGRAM_CONFIGS),
        st.sampled_from(PREPROCESS_CONFIGS),
        st.booleans(),
    )
    # A lone surrogate is a str a vocabulary file must hold.
    @example(["\ud800"], [""], LAYOUTS[0], NGRAM_CONFIGS[0], PREPROCESS_CONFIGS[0], False)
    def test_loaded_pipeline_transforms_exactly_like_the_saved_one(
        self, extra, texts, blocks, ngram_config, preprocess_config, remove
    ):
        pipeline, train = fitted(blocks, ngram_config, remove, extra, preprocess_config)
        pipeline.fit(train)
        with tempfile.TemporaryDirectory() as directory:
            resources = write_resources(Path(directory))
            save_pipeline(pipeline, Path(directory) / "bundle", resources)
            loaded = load_pipeline(Path(directory) / "bundle")
        assert loaded.layout == pipeline.layout
        for dataset in (train, dataset_of(texts)):
            assert_same_csr(loaded.transform(dataset), pipeline.transform(dataset))
