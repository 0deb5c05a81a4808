import json
import logging
import re
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetsent.augment import (
    CROSSOVER_MARKER,
    CrossoverConfig,
    FixtureTranslator,
    RemoteTranslator,
    TranslationCache,
    TranslationConfig,
    TranslationError,
    TranslatorClient,
    assert_unaugmented,
    crossover_augment,
    crossover_pair,
    split_halves,
    translation_augment,
    two_way_translate,
)
from tweetsent.cli import main
from tweetsent.corpus import LABELS, Dataset, Label, Tweet

TWEET_A = (
    "@USER fue genial debemos organizar más cosas así sin necesidad "
    "de que nadie abandone el país"
)
TWEET_B = (
    "@USER me alegro mucho ! ! es importante darnos cuenta del gran valor "
    "que podemos aportar y encontrar nuestra misión"
)


class TestSplitHalves:
    def test_even_length(self):
        first, second = split_halves(["a", "b", "c", "d"])
        assert first == ["a", "b"] and second == ["c", "d"]

    def test_odd_length_first_half_larger(self):
        first, second = split_halves(["a", "b", "c"])
        assert first == ["a", "b"] and second == ["c"]

    def test_single_token(self):
        first, second = split_halves(["a"])
        assert first == ["a"] and second == []


class TestCrossoverPair:
    def test_worked_example(self):
        # Two real preprocessed tweets with 16 and 20 tokens: the child is
        # the first 8 tokens of one plus the last 10 of the other.
        child = crossover_pair(TWEET_A.split(), TWEET_B.split())
        assert " ".join(child) == (
            "@USER fue genial debemos organizar más cosas así "
            "del gran valor que podemos aportar y encontrar nuestra misión"
        )

    def test_reverse_direction(self):
        child = crossover_pair(TWEET_B.split(), TWEET_A.split())
        assert " ".join(child) == (
            "@USER me alegro mucho ! ! es importante darnos cuenta "
            "sin necesidad de que nadie abandone el país"
        )


def make_dataset(sizes: dict[Label, int]) -> Dataset:
    tweets = []
    for label, size in sizes.items():
        for k in range(size):
            words = [f"{label.value.lower()}{k}w{i}" for i in range(6)]
            tweets.append(Tweet(f"{label.value}{k}", " ".join(words), label))
    return Dataset("toy", "train", tuple(tweets))


class TestCrossoverAugment:
    def test_factor_one_returns_dataset_unchanged(self):
        ds = make_dataset({Label.P: 3, Label.N: 2})
        assert crossover_augment(ds, CrossoverConfig(factor=1, seed=5)) is ds

    def test_total_size_multiplied(self):
        ds = make_dataset({Label.P: 5, Label.N: 3, Label.NEU: 2, Label.NONE: 2})
        out = crossover_augment(ds, CrossoverConfig(factor=4, seed=0))
        assert len(out) == 4 * len(ds)

    def test_per_class_proportions_exact(self):
        sizes = {Label.P: 6, Label.N: 4, Label.NEU: 3, Label.NONE: 2}
        ds = make_dataset(sizes)
        out = crossover_augment(ds, CrossoverConfig(factor=8, seed=1))
        dist = {label: sum(tweet.label is label for tweet in out.tweets) for label in LABELS}
        for label, size in sizes.items():
            assert dist[label] == 8 * size

    def test_originals_kept_first(self):
        ds = make_dataset({Label.P: 3, Label.N: 3})
        out = crossover_augment(ds, CrossoverConfig(factor=2, seed=2))
        assert out.tweets[: len(ds)] == ds.tweets

    def test_new_ids_carry_marker_and_parents(self):
        ds = make_dataset({Label.P: 3})
        out = crossover_augment(ds, CrossoverConfig(factor=2, seed=3))
        fresh = out.tweets[len(ds) :]
        for tweet in fresh:
            assert CROSSOVER_MARKER in tweet.id
            parents = tweet.id.split(CROSSOVER_MARKER)[0].split("+")
            assert len(parents) == 2 and parents[0] != parents[1]

    def test_children_mix_two_parents(self):
        ds = make_dataset({Label.P: 4})
        out = crossover_augment(ds, CrossoverConfig(factor=3, seed=4))
        for tweet in out.tweets[len(ds) :]:
            words = tweet.text.split()
            prefixes = {w.split("w")[0] for w in words}
            assert len(prefixes) == 2

    def test_deterministic_for_seed(self):
        ds = make_dataset({Label.P: 5, Label.N: 4})
        a = crossover_augment(ds, CrossoverConfig(factor=6, seed=9))
        b = crossover_augment(ds, CrossoverConfig(factor=6, seed=9))
        assert a.tweets == b.tweets

    def test_seed_changes_output(self):
        ds = make_dataset({Label.P: 5, Label.N: 4})
        a = crossover_augment(ds, CrossoverConfig(factor=6, seed=9))
        b = crossover_augment(ds, CrossoverConfig(factor=6, seed=10))
        assert a.tweets != b.tweets

    def test_singleton_class_duplicates_with_warning(self, caplog):
        ds = make_dataset({Label.P: 3, Label.NEU: 1})
        with caplog.at_level(logging.WARNING):
            out = crossover_augment(ds, CrossoverConfig(factor=3, seed=0))
        assert "single instance" in caplog.text
        neu = [t for t in out.tweets if t.label is Label.NEU]
        assert len(neu) == 3
        assert len({t.text for t in neu}) == 1

    def test_unlabeled_rejected(self):
        ds = Dataset("toy", "test", (Tweet("a", "uno dos"),))
        with pytest.raises(ValueError):
            crossover_augment(ds, CrossoverConfig(factor=2, seed=0))

    def test_factor_below_one_rejected(self):
        with pytest.raises(ValueError):
            CrossoverConfig(factor=0, seed=0)


class CountingClient(TranslatorClient):
    def __init__(self, inner: TranslatorClient):
        self.inner = inner
        self.calls = 0

    def translate(self, text: str, src_lang: str, dst_lang: str) -> str:
        self.calls += 1
        return self.inner.translate(text, src_lang, dst_lang)


class FailingClient(TranslatorClient):
    def translate(self, text: str, src_lang: str, dst_lang: str) -> str:
        raise OSError("connection reset")


def fixture_client() -> FixtureTranslator:
    return FixtureTranslator(
        {
            ("es", "en"): {"hola mundo": "hello world", "adios": "goodbye"},
            ("en", "es"): {"hello world": "hola planeta", "goodbye": "adios"},
        }
    )


class TestFixtureTranslator:
    def test_lookup(self):
        client = fixture_client()
        assert client.translate("hola mundo", "es", "en") == "hello world"

    def test_identity_fallback(self):
        client = fixture_client()
        assert client.translate("sin tabla", "es", "en") == "sin tabla"

    def test_from_json(self, tmp_path):
        path = tmp_path / "tables.json"
        path.write_text(
            json.dumps(
                [
                    {"src_lang": "es", "dst_lang": "en", "entries": {"si": "yes"}},
                    {"src_lang": "en", "dst_lang": "es", "entries": {"yes": "claro"}},
                ]
            ),
            encoding="utf-8",
        )
        client = FixtureTranslator.from_json(path)
        assert client.translate("si", "es", "en") == "yes"
        assert client.translate("yes", "en", "es") == "claro"


@pytest.mark.parametrize(
    "table, problem",
    [
        ({"src_lang": "es", "dst_lang": "en", "entries": "x"}, "entries must be an object of string to string"),
        ({"src_lang": "es", "dst_lang": "en", "entries": [["a", "b"]]}, "entries must be an object of string to string"),
        ({"src_lang": "es", "dst_lang": "en", "entries": {"a": 1}}, "entries must be an object of string to string"),
        ({"src_lang": ["es"], "dst_lang": "en", "entries": {}}, "src_lang and dst_lang must be strings"),
        ({"src_lang": "es", "dst_lang": None, "entries": {}}, "src_lang and dst_lang must be strings"),
    ],
    ids=["entries-a-string", "entries-a-list-of-pairs", "an-int-translation", "src_lang-a-list", "dst_lang-null"],
)
def test_cli_augment_names_a_malformed_fixture_table(mini_corpus, tmp_path, capsys, table, problem):
    corpus = tmp_path / "corpus"
    shutil.copytree(mini_corpus, corpus)
    path = corpus / "translations.json"
    tables = json.loads(path.read_text(encoding="utf-8"))
    tables[1] = table
    path.write_text(json.dumps(tables), encoding="utf-8")
    code = main(["augment", "--config", str(corpus / "config.json"), "--out", str(tmp_path / "run")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error [augment] {path}: table 1: {problem}"]


@pytest.mark.parametrize("result", [5, None, "a\tb"], ids=["an-int", "null", "a-tab"])
def test_cli_augment_names_a_cache_line_whose_result_is_not_a_tweet_text(mini_corpus, tmp_path, capsys, result):
    corpus = tmp_path / "corpus"
    shutil.copytree(mini_corpus, corpus)
    argv = ["augment", "--config", str(corpus / "config.json"), "--out", str(tmp_path / "run")]
    assert main(argv) == 0
    path = corpus / "translations.cache.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), "result": result})
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 1
    (message,) = capsys.readouterr().err.splitlines()
    assert message.startswith(f"error [augment] {path}:1: malformed cache line: ")
    assert len(path.read_text(encoding="utf-8").splitlines()) == len(lines)


class TestRemoteTranslator:
    def test_is_explicit_stub(self):
        with pytest.raises(NotImplementedError):
            RemoteTranslator().translate("hola", "es", "en")


class TestTranslationCache:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = TranslationCache(path)
        cache.put("hola", "en", "hola otra vez")
        reloaded = TranslationCache(path)
        assert reloaded.get("hola", "en") == "hola otra vez"

    def test_jsonl_format(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = TranslationCache(path)
        cache.put("hola", "en", "res")
        record = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert record == {"text": "hola", "pivot": "en", "result": "res"}

    def test_append_only(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = TranslationCache(path)
        cache.put("a", "en", "1")
        cache.put("b", "en", "2")
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text('{"text": "a", "pivot": "en", "result": "r"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":2"):
            TranslationCache(path)

    def test_missing_file_is_empty_cache(self, tmp_path):
        cache = TranslationCache(tmp_path / "new.jsonl")
        assert cache.get("x", "en") is None

    @pytest.mark.parametrize(
        "fields, problem",
        [
            ({"result": 5}, "text, pivot and result must be strings"),
            ({"result": None}, "text, pivot and result must be strings"),
            ({"text": ["a"]}, "text, pivot and result must be strings"),
            ({"pivot": 1}, "text, pivot and result must be strings"),
            ({"result": "a\tb"}, "the result holds a tab or a newline"),
            ({"result": "a\nb"}, "the result holds a tab or a newline"),
        ],
        ids=["an-int-result", "a-null-result", "a-list-text", "an-int-pivot", "a-tab-in-the-result", "a-newline-in-the-result"],
    )
    def test_a_line_with_a_bad_field_names_path_and_line(self, tmp_path, fields, problem):
        path = tmp_path / "cache.jsonl"
        record = {"text": "b", "pivot": "en", "result": "r", **fields}
        path.write_text('{"text": "a", "pivot": "en", "result": "r"}\n' + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: malformed cache line: {problem}$"):
            TranslationCache(path)


class TestTwoWayTranslate:
    def test_round_trip(self, tmp_path):
        config = TranslationConfig(pivots=("en",), cache_path=tmp_path / "c.jsonl")
        result = two_way_translate(fixture_client(), "hola mundo", "en", config)
        assert result == "hola planeta"

    def test_cache_hit_makes_no_client_calls(self, tmp_path):
        config = TranslationConfig(pivots=("en",), cache_path=tmp_path / "c.jsonl")
        first = CountingClient(fixture_client())
        two_way_translate(first, "hola mundo", "en", config)
        assert first.calls == 2
        second = CountingClient(fixture_client())
        result = two_way_translate(second, "hola mundo", "en", config)
        assert result == "hola planeta"
        assert second.calls == 0


def labeled_dataset() -> Dataset:
    return Dataset(
        "toy",
        "train",
        (
            Tweet("t1", "hola mundo", Label.P),
            Tweet("t2", "adios", Label.N),
        ),
    )


class TestTranslationAugment:
    def test_output_order_and_size(self, tmp_path):
        config = TranslationConfig(pivots=("en",), cache_path=tmp_path / "c.jsonl")
        out = translation_augment(labeled_dataset(), fixture_client(), config)
        assert len(out) == 4
        assert [t.id for t in out.tweets] == ["t1", "t2", "t1.bt-en", "t2.bt-en"]
        assert out.tweets[2].text == "hola planeta"
        assert out.tweets[2].label is Label.P

    def test_multiple_pivots_size(self, tmp_path):
        client = FixtureTranslator({})
        config = TranslationConfig(pivots=("en", "fr"), cache_path=tmp_path / "c.jsonl")
        out = translation_augment(labeled_dataset(), client, config)
        assert len(out) == 6
        assert [t.id for t in out.tweets[2:]] == [
            "t1.bt-en", "t1.bt-fr", "t2.bt-en", "t2.bt-fr",
        ]

    def test_identity_paraphrases_kept(self, tmp_path):
        client = FixtureTranslator({})
        config = TranslationConfig(pivots=("en",), cache_path=tmp_path / "c.jsonl")
        out = translation_augment(labeled_dataset(), client, config)
        assert out.tweets[2].text == "hola mundo"

    def test_failure_wrapped_with_id_and_pivot(self, tmp_path):
        config = TranslationConfig(pivots=("en",), cache_path=tmp_path / "c.jsonl")
        with pytest.raises(TranslationError, match=r"'t1'.*'en'"):
            translation_augment(labeled_dataset(), FailingClient(), config)

    def test_second_run_hits_cache(self, tmp_path):
        config = TranslationConfig(pivots=("en",), cache_path=tmp_path / "c.jsonl")
        translation_augment(labeled_dataset(), fixture_client(), config)
        counting = CountingClient(fixture_client())
        out = translation_augment(labeled_dataset(), counting, config)
        assert counting.calls == 0
        assert out.tweets[2].text == "hola planeta"

    def test_unlabeled_rejected(self, tmp_path):
        ds = Dataset("toy", "test", (Tweet("t1", "hola"),))
        config = TranslationConfig(pivots=("en",), cache_path=tmp_path / "c.jsonl")
        with pytest.raises(ValueError):
            translation_augment(ds, fixture_client(), config)


class TestTranslationConfig:
    def test_source_cannot_be_pivot(self):
        with pytest.raises(ValueError):
            TranslationConfig(pivots=("es",), source="es")

    def test_duplicate_pivots_rejected(self):
        with pytest.raises(ValueError):
            TranslationConfig(pivots=("en", "en"))

    def test_empty_pivots_rejected(self):
        with pytest.raises(ValueError):
            TranslationConfig(pivots=())

    def test_empty_pivot_rejected(self):
        # Its rows' ids would end in a bare ``.bt-``, which the guard on
        # evaluation splits does not count as a marker.
        with pytest.raises(ValueError, match="pivot"):
            TranslationConfig(pivots=("en", ""))


class TestAssertUnaugmented:
    def dev(self, *ids: str) -> Dataset:
        return Dataset("toy", "dev", tuple(Tweet(i, "x", Label.P) for i in ids))

    def test_clean_dataset_passes(self):
        assert_unaugmented(self.dev("d1", "d2"), labeled_dataset())

    @pytest.mark.parametrize(
        "tweet_id",
        ["t1.cx0", "t1+t2.cx17", "t1.bt-en+t2.bt-fr.cx3", "t1.bt-en", "t2.bt-pt-BR", "t1.cx2.bt-en"],
    )
    def test_ids_made_from_training_rows_rejected(self, tweet_id):
        with pytest.raises(AssertionError, match=re.escape(f"augmented instance '{tweet_id}' found in dev split")):
            assert_unaugmented(self.dev("d1", tweet_id), labeled_dataset())

    @pytest.mark.parametrize(
        "tweet_id",
        ["dv0001.cx2", "a+t1.cx17", "a.bt-en", "t1", "t10.cx0", "t1cx0", "user.cxv1", "a.cx", "t1.cxv1", "t1.cx", "t1.bt-"],
    )
    def test_ids_not_made_from_training_rows_accepted(self, tweet_id):
        # Only an id that starts with a training id and then ``+`` or a
        # marker is one augmentation makes: crossover numbers its rows
        # (``.cx0``) and translation names a pivot (``.bt-en``).
        assert_unaugmented(self.dev(tweet_id), labeled_dataset())

    @pytest.mark.parametrize("method", ["crossover", "translation"])
    def test_augmentation_output_as_a_dev_split_rejected(self, method, tmp_path):
        if method == "crossover":
            augmented = crossover_augment(labeled_dataset(), CrossoverConfig(factor=2, seed=0))
        else:
            augmented = translation_augment(
                labeled_dataset(),
                FixtureTranslator({}),
                TranslationConfig(pivots=("en",), cache_path=str(tmp_path / "cache.jsonl")),
            )
        with pytest.raises(AssertionError):
            assert_unaugmented(Dataset("toy", "dev", augmented.tweets), labeled_dataset())
        for tweet in augmented.tweets[len(labeled_dataset()) :]:
            with pytest.raises(AssertionError):
                assert_unaugmented(Dataset("toy", "dev", (tweet,)), labeled_dataset())


class TestCrossoverProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(st.sampled_from(LABELS), st.integers(1, 9), min_size=1), st.integers(1, 12), st.integers(0, 99)
    )
    def test_sizes_and_label_counts_are_exact(self, sizes, factor, seed):
        ds = make_dataset(sizes)
        out = crossover_augment(ds, CrossoverConfig(factor=factor, seed=seed))
        assert len(out) == factor * len(ds)
        assert out.tweets[: len(ds)] == ds.tweets
        counts = {label: sum(tweet.label is label for tweet in out.tweets) for label in LABELS}
        assert counts == {label: factor * sizes.get(label, 0) for label in LABELS}
