import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetsent.vectorize import (
    NgramConfig,
    SparseVector,
    Vocabulary,
    char_ngrams,
    extract_char_ngrams,
    extract_word_ngrams,
    fit_vocabulary,
    load_vocabulary,
    ngram_matrix,
    save_vocabulary,
    transform,
    word_ngrams,
)


class TestWordNgrams:
    def test_unigrams_and_bigrams(self):
        counts = extract_word_ngrams(["a", "b", "a"], 2)
        assert counts == {"a": 2, "b": 1, "a b": 1, "b a": 1}

    def test_n_max_longer_than_sentence(self):
        counts = extract_word_ngrams(["x", "y"], 5)
        assert set(counts) == {"x", "y", "x y"}

    def test_empty_tokens(self):
        assert extract_word_ngrams([], 5) == {}


class TestCharNgrams:
    def test_counts(self):
        counts = extract_char_ngrams("aba", 2)
        assert counts == {"a": 2, "b": 1, "ab": 1, "ba": 1}

    def test_includes_spaces(self):
        counts = extract_char_ngrams("a b", 2)
        assert counts["a "] == 1 and counts[" b"] == 1

    def test_empty_text(self):
        assert extract_char_ngrams("", 6) == {}


class TestFitVocabulary:
    def test_idf_hand_computed(self):
        # Three documents; "solo" appears in one of them.
        # idf = ln((1 + 3) / (1 + 1)) + 1 = ln 2 + 1 = 1.6931...
        docs = [{"comun": 1, "solo": 1}, {"comun": 2}, {"comun": 1}]
        vocab = fit_vocabulary(docs)
        i = vocab.index["solo"]
        assert vocab.idf[i] == pytest.approx(1.6931, abs=1e-4)
        j = vocab.index["comun"]
        # Term in every document: ln(4/4) + 1 = 1.
        assert vocab.idf[j] == pytest.approx(1.0, abs=1e-12)

    def test_df_counts_documents_not_occurrences(self):
        docs = [{"x": 7}, {"y": 1}]
        vocab = fit_vocabulary(docs)
        assert vocab.idf[vocab.index["x"]] == pytest.approx(
            math.log(3 / 2) + 1, abs=1e-12
        )

    def test_indices_follow_sorted_terms(self):
        vocab = fit_vocabulary([{"zeta": 1, "alfa": 1, "media": 1}])
        assert vocab.index == {"alfa": 0, "media": 1, "zeta": 2}

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            fit_vocabulary([])

    def test_doc_count_recorded(self):
        assert fit_vocabulary([{"a": 1}, {"b": 1}]).doc_count == 2


class TestTransform:
    def setup_method(self):
        self.vocab = fit_vocabulary([{"a": 1, "b": 1}, {"a": 1}])

    def test_tfidf_vector_is_unit_norm(self):
        vec = transform({"a": 3, "b": 1}, self.vocab, NgramConfig())
        norm = math.sqrt(sum(v * v for _, v in vec.entries))
        assert norm == pytest.approx(1.0, abs=1e-9)

    def test_tfidf_values(self):
        config = NgramConfig(tfidf=True)
        vec = transform({"a": 2, "b": 1}, self.vocab, config)
        idf_a = self.vocab.idf[self.vocab.index["a"]]
        idf_b = self.vocab.idf[self.vocab.index["b"]]
        raw = {0: 2 * idf_a, 1: 1 * idf_b}
        norm = math.sqrt(sum(v * v for v in raw.values()))
        expected = {i: v / norm for i, v in raw.items()}
        assert dict(vec.entries) == pytest.approx(expected)

    def test_counts_mode_not_normalized(self):
        config = NgramConfig(binarize=False, tfidf=False)
        vec = transform({"a": 3, "b": 2}, self.vocab, config)
        assert dict(vec.entries) == {0: 3.0, 1: 2.0}

    def test_binarize_clamps_counts(self):
        config = NgramConfig(binarize=True, tfidf=False)
        vec = transform({"a": 5, "b": 1}, self.vocab, config)
        assert dict(vec.entries) == {0: 1.0, 1: 1.0}

    def test_binarize_with_tfidf(self):
        config = NgramConfig(binarize=True, tfidf=True)
        vec = transform({"a": 9, "b": 1}, self.vocab, config)
        idf_a = self.vocab.idf[self.vocab.index["a"]]
        idf_b = self.vocab.idf[self.vocab.index["b"]]
        norm = math.sqrt(idf_a**2 + idf_b**2)
        assert dict(vec.entries) == pytest.approx({0: idf_a / norm, 1: idf_b / norm})

    def test_unseen_terms_skipped(self):
        vec = transform({"nuevo": 4}, self.vocab, NgramConfig())
        assert vec.entries == ()

    def test_empty_counts_give_empty_vector(self):
        vec = transform({}, self.vocab, NgramConfig())
        assert vec.entries == () and vec.dim == 2


class TestSparseVector:
    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValueError):
            SparseVector(3, ((1, 1.0), (0, 1.0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparseVector(2, ((2, 1.0),))

    def test_rejects_stored_zero(self):
        with pytest.raises(ValueError):
            SparseVector(2, ((0, 0.0),))

    def test_to_dense(self):
        vec = SparseVector(4, ((1, 2.0), (3, -1.0)))
        assert vec.to_dense().tolist() == [0.0, 2.0, 0.0, -1.0]


class TestSaveLoad:
    def test_round_trip_exact(self, tmp_path):
        vocab = fit_vocabulary([{"a": 1, "ñu": 1}, {"a": 1}])
        config = NgramConfig(word_n_max=4, char_n_max=3, binarize=True, tfidf=False)
        path = tmp_path / "vocab.tsv"
        save_vocabulary(vocab, config, path)
        loaded = load_vocabulary(path, config)
        assert loaded.index == vocab.index
        assert loaded.doc_count == vocab.doc_count
        assert np.array_equal(loaded.idf, vocab.idf)
        with pytest.raises(ValueError, match="does not match the n-gram config"):
            load_vocabulary(path, dataclasses.replace(config, binarize=False))

    def test_vector_identical_after_reload(self, tmp_path):
        vocab = fit_vocabulary([{"a": 1, "b": 1, "c": 1}, {"a": 1}, {"b": 1}])
        config = NgramConfig()
        path = tmp_path / "vocab.tsv"
        save_vocabulary(vocab, config, path)
        loaded = load_vocabulary(path, config)
        counts = {"a": 2, "c": 1}
        assert transform(counts, vocab, config) == transform(counts, loaded, config)


CONFIGS = [
    NgramConfig(char_n_max=3),
    NgramConfig(char_n_max=3, binarize=True),
    NgramConfig(char_n_max=3, tfidf=False),
    NgramConfig(char_n_max=3, binarize=True, tfidf=False),
]

# Arbitrary Unicode (emoji, combining marks, empty strings) plus texts built
# from a few letters, so that fitted and queried texts share n-grams.
texts = st.one_of(st.text(max_size=12), st.text(alphabet="abñ é😀", max_size=12))


def dense_reference(documents, vocabulary, config):
    """Brute-force tf-idf: count loops, idf from the formula, exact norms."""
    df = Counter()
    for terms in documents["fit"]:
        df.update(set(terms))
    n_docs = len(documents["fit"])
    rows = []
    for terms in documents["query"]:
        row = np.zeros(len(vocabulary))
        for term, count in Counter(terms).items():
            if term in vocabulary.index:
                value = 1.0 if config.binarize else float(count)
                if config.tfidf:
                    value *= math.log((1.0 + n_docs) / (1.0 + df[term])) + 1.0
                row[vocabulary.index[term]] = value
        if config.tfidf:
            # The norm rule: squares added one by one in column order.
            total = 0.0
            for value in row[row != 0.0]:
                total += value * value
            if total > 0.0:
                row /= math.sqrt(total)
        rows.append(row)
    return np.array(rows).reshape(len(rows), len(vocabulary))


class TestNgramLists:
    @given(st.lists(st.text(max_size=4), max_size=8), st.integers(1, 5))
    def test_word_list_counts_match_counter(self, tokens, n_max):
        assert Counter(word_ngrams(tokens, n_max)) == extract_word_ngrams(tokens, n_max)

    @given(st.text(max_size=20), st.integers(1, 6))
    def test_char_list_holds_every_occurrence(self, text, n_max):
        grams = char_ngrams(text, n_max)
        assert len(grams) == sum(max(len(text) - n + 1, 0) for n in range(1, n_max + 1))
        assert Counter(grams) == extract_char_ngrams(text, n_max)


class TestNgramMatrix:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(texts, min_size=1, max_size=6),
        st.lists(texts, max_size=6),
        st.sampled_from(CONFIGS),
    )
    def test_equals_dense_reference(self, fit_texts, query_texts, config):
        fit_docs = [char_ngrams(text, config.char_n_max) for text in fit_texts]
        query_docs = [char_ngrams(text, config.char_n_max) for text in query_texts]
        vocabulary = fit_vocabulary(fit_docs)
        matrix = ngram_matrix(query_docs, vocabulary, config)
        expected = dense_reference({"fit": fit_docs, "query": query_docs}, vocabulary, config)
        assert matrix.shape == expected.shape
        assert np.array_equal(matrix.toarray(), expected)
        assert matrix.has_sorted_indices and np.all(matrix.data != 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(texts, min_size=1, max_size=6), st.sampled_from(CONFIGS))
    def test_rows_equal_single_document_transform(self, query_texts, config):
        vocabulary = fit_vocabulary([char_ngrams(text, 3) for text in ["abñ a", "é😀 b", "ab"]])
        docs = [char_ngrams(text, config.char_n_max) for text in query_texts]
        matrix = ngram_matrix(docs, vocabulary, config)
        for i, terms in enumerate(docs):
            assert np.array_equal(matrix[i].toarray()[0], transform(Counter(terms), vocabulary, config).to_dense())

    @pytest.mark.parametrize("config", CONFIGS)
    def test_empty_and_unseen_documents_give_zero_rows(self, config):
        vocabulary = fit_vocabulary([["a", "b"], ["a"]])
        with np.errstate(all="raise"):
            matrix = ngram_matrix([[], ["zzz", "q"], ["a", "zzz"]], vocabulary, config)
        dense = matrix.toarray()
        assert matrix.shape == (3, 2)
        assert not dense[:2].any()
        assert dense[2, vocabulary.index["a"]] > 0.0
        assert np.isfinite(dense).all()

    def test_no_documents_give_empty_matrix(self):
        matrix = ngram_matrix([], fit_vocabulary([["a"]]), NgramConfig())
        assert matrix.shape == (0, 1) and matrix.nnz == 0

    def test_empty_vocabulary(self):
        vocabulary = fit_vocabulary([[]])
        matrix = ngram_matrix([["a"], []], vocabulary, NgramConfig())
        assert matrix.shape == (2, 0) and matrix.nnz == 0

    def test_norm_is_summed_in_column_order(self):
        # Values whose squares round differently when summed pairwise: the
        # result must follow the left-to-right order that vectors had before
        # batching, term for term.
        terms = [f"t{i:03d}" for i in range(200)]
        documents = {"fit": [terms[: i + 1] for i in range(len(terms))], "query": [terms + terms[:37] + terms[:5]]}
        vocabulary = fit_vocabulary(documents["fit"])
        matrix = ngram_matrix(documents["query"], vocabulary, NgramConfig())
        assert np.array_equal(matrix.toarray(), dense_reference(documents, vocabulary, NgramConfig()))
