import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetsent.embeddings import SifConfig
from tweetsent.model import CLASS_WEIGHT_MODES, BaggingConfig, LrConfig
from tweetsent.pipeline import FeatureBlocks
from tweetsent.preprocess import PreprocessConfig
from tweetsent.schema import dump, load_section
from tweetsent.vectorize import NgramConfig

# Any Unicode a UTF-8 file can hold: everything but lone surrogates.
words = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
lowercase_words = words.map(str.lower).filter(lambda word: word == word.lower())
positive = st.floats(min_value=1e-9, max_value=1e9, allow_nan=False, allow_infinity=False)

configs = st.one_of(
    st.builds(
        PreprocessConfig,
        negation_words=st.frozensets(words, max_size=6),
        negation_scope=st.integers(0, 50),
        stopwords=st.frozensets(words, max_size=6),
        lemma_table=st.dictionaries(lowercase_words, words, max_size=6),
        repeat_cap=st.integers(1, 50),
    ),
    st.builds(NgramConfig, st.integers(1, 9), st.integers(1, 9), st.booleans(), st.booleans()),
    st.builds(SifConfig, positive, st.booleans()),
    st.tuples(st.booleans(), st.booleans(), st.booleans()).filter(any).map(lambda on: FeatureBlocks(*on)),
    st.builds(LrConfig, positive, st.sampled_from(CLASS_WEIGHT_MODES), positive, st.integers(1, 10_000)),
    st.builds(BaggingConfig, st.integers(1, 100), st.integers(0, 2**31 - 1)),
)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(configs)
    def test_dump_then_load_section_gives_the_config_back(self, config):
        text = dump(asdict(config))
        assert load_section(type(config), json.loads(text), "section") == config
        assert dump(asdict(load_section(type(config), json.loads(text), "section"))) == text


class TestDump:
    def test_frozensets_are_sorted_lists_and_text_stays_unescaped(self):
        assert dump({"b": frozenset({"ñu", "el"}), "a": 1}) == '{\n  "a": 1,\n  "b": [\n    "el",\n    "ñu"\n  ]\n}\n'

    def test_ensure_ascii_escapes(self):
        assert dump(["ñ"], ensure_ascii=True) == '[\n  "\\u00f1"\n]\n'


class TestNewValueTypes:
    def test_a_field_with_a_default_factory_may_be_left_out(self):
        assert load_section(PreprocessConfig, {}, "preprocess") == PreprocessConfig()

    def test_a_word_set_is_a_list_not_a_string(self):
        with pytest.raises(ValueError, match="'preprocess.stopwords' must be a list, got 'el'"):
            load_section(PreprocessConfig, {"stopwords": "el"}, "preprocess")

    def test_word_set_items_are_checked(self):
        with pytest.raises(ValueError, match=r"'preprocess.stopwords\[1\]' must be of type str, got 3"):
            load_section(PreprocessConfig, {"stopwords": ["el", 3]}, "preprocess")

    def test_a_lemma_table_is_an_object(self):
        with pytest.raises(ValueError, match="'preprocess.lemma_table' must be a JSON object"):
            load_section(PreprocessConfig, {"lemma_table": [["a", "b"]]}, "preprocess")

    def test_lemma_table_values_are_checked(self):
        with pytest.raises(ValueError, match=r"""'preprocess.lemma_table\["gatos"\]' must be of type str"""):
            load_section(PreprocessConfig, {"lemma_table": {"gatos": None}}, "preprocess")

    def test_the_config_checks_still_run(self):
        with pytest.raises(ValueError, match="not lowercase"):
            load_section(PreprocessConfig, {"lemma_table": {"Gatos": "gato"}}, "preprocess")
