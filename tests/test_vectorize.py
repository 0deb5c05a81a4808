import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_csr, scipy_csr
from tweetsent.csr import csr_matrix
from tweetsent.vectorize import (
    CharTrie,
    NgramConfig,
    Vocabulary,
    char_ngrams,
    count_matrix,
    extract_char_ngrams,
    extract_word_ngrams,
    fit_char_vocabulary,
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


def one_row(entries, dim):
    """The one-row CSR matrix holding ``entries`` (column -> value), columns ascending."""
    columns = sorted(entries)
    return csr_matrix(np.array([entries[i] for i in columns], dtype=np.float64), columns, [0, len(columns)], (1, dim))


class TestTransform:
    def setup_method(self):
        self.vocab = fit_vocabulary([{"a": 1, "b": 1}, {"a": 1}])

    def test_tfidf_vector_is_unit_norm(self):
        vec = transform({"a": 3, "b": 1}, self.vocab, NgramConfig())
        norm = math.sqrt(sum(v * v for v in vec.data.tolist()))
        assert norm == pytest.approx(1.0, abs=1e-9)

    def test_tfidf_values(self):
        config = NgramConfig(tfidf=True)
        vec = transform({"a": 2, "b": 1}, self.vocab, config)
        idf_a = self.vocab.idf[self.vocab.index["a"]]
        idf_b = self.vocab.idf[self.vocab.index["b"]]
        raw = {0: 2 * idf_a, 1: 1 * idf_b}
        norm = math.sqrt(sum(v * v for v in raw.values()))
        assert_same_csr(vec, one_row({i: v / norm for i, v in raw.items()}, 2))

    def test_counts_mode_not_normalized(self):
        config = NgramConfig(binarize=False, tfidf=False)
        vec = transform({"a": 3, "b": 2}, self.vocab, config)
        assert_same_csr(vec, one_row({0: 3.0, 1: 2.0}, 2))

    def test_binarize_clamps_counts(self):
        config = NgramConfig(binarize=True, tfidf=False)
        vec = transform({"a": 5, "b": 1}, self.vocab, config)
        assert_same_csr(vec, one_row({0: 1.0, 1: 1.0}, 2))

    def test_binarize_with_tfidf(self):
        config = NgramConfig(binarize=True, tfidf=True)
        vec = transform({"a": 9, "b": 1}, self.vocab, config)
        idf_a = self.vocab.idf[self.vocab.index["a"]]
        idf_b = self.vocab.idf[self.vocab.index["b"]]
        norm = math.sqrt(idf_a**2 + idf_b**2)
        assert_same_csr(vec, one_row({0: idf_a / norm, 1: idf_b / norm}, 2))

    def test_unseen_terms_skipped(self):
        vec = transform({"nuevo": 4}, self.vocab, NgramConfig())
        assert_same_csr(vec, one_row({}, 2))

    def test_empty_counts_give_empty_vector(self):
        vec = transform({}, self.vocab, NgramConfig())
        assert_same_csr(vec, one_row({}, 2))


ROW_VOCAB = fit_vocabulary([{"a": 1, "b": 1, "c": 2}, {"a": 1}, {"d": 1}])
row_counts = st.dictionaries(st.sampled_from(["a", "b", "c", "d", "nuevo"]), st.integers(-2, 5))
row_configs = st.builds(NgramConfig, binarize=st.booleans(), tfidf=st.booleans())


class TestTransformRow:
    """The one-row matrix ``transform`` returns is canonical CSR."""

    @given(row_counts, row_configs)
    @settings(max_examples=60, deadline=None)
    def test_indices_strictly_increasing_and_in_range(self, counts, config):
        row = transform(counts, ROW_VOCAB, config)
        assert row.shape == (1, len(ROW_VOCAB))
        assert row.indptr.tolist() == [0, row.nnz]
        assert all(a < b for a, b in zip(row.indices.tolist(), row.indices.tolist()[1:]))
        assert all(0 <= i < len(ROW_VOCAB) for i in row.indices.tolist())

    @given(row_counts, row_configs)
    @settings(max_examples=60, deadline=None)
    def test_stores_no_zero(self, counts, config):
        row = transform(counts, ROW_VOCAB, config)
        assert 0.0 not in row.data.tolist()
        kept = {ROW_VOCAB.index[term] for term, count in counts.items() if count > 0 and term in ROW_VOCAB.index}
        assert set(row.indices.tolist()) == kept

    def test_to_dense(self):
        config = NgramConfig(binarize=False, tfidf=False)
        row = transform({"b": 2, "d": -1, "nuevo": 3, "c": 0, "a": 1}, ROW_VOCAB, config)
        assert row.to_dense().tolist() == [[1.0, 2.0, 0.0, 0.0]]


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
        assert_same_csr(transform(counts, vocab, config), transform(counts, loaded, config))

    def test_any_str_term_round_trips(self, tmp_path):
        vocab = fit_vocabulary([["\ud800", "a\udfff", "😀"], ["\ud800"]])
        path = tmp_path / "vocab.tsv"
        save_vocabulary(vocab, NgramConfig(), path)
        loaded = load_vocabulary(path, NgramConfig())
        assert loaded.index == vocab.index and np.array_equal(loaded.idf, vocab.idf)

    def test_a_vocabulary_without_surrogates_keeps_its_bytes(self, tmp_path):
        vocab = fit_vocabulary([["ñu", "😀", "a b"]])
        path = tmp_path / "vocab.tsv"
        save_vocabulary(vocab, NgramConfig(), path)
        body = "".join(f"{term}\t{i}\t{float(vocab.idf[i])!r}\n" for term, i in vocab.index.items())
        assert path.read_bytes() == (_header_line(vocab.doc_count) + body).encode("utf-8")


def _header_line(doc_count):
    return f"#doc_count={doc_count}\tword_n_max=5\tchar_n_max=6\tbinarize=0\ttfidf=1\n"


class TestLoadChecks:
    """A vocabulary file is checked row by row; a bad row is named by ``path:line``."""

    def load(self, tmp_path, rows, chars=False):
        path = tmp_path / "vocab.tsv"
        path.write_text(_header_line(3) + "".join(f"{row}\n" for row in rows), encoding="utf-8")
        return load_vocabulary(path, NgramConfig(), chars=chars), str(path)

    def test_a_well_formed_file_loads(self, tmp_path):
        vocab, _ = self.load(tmp_path, ["a\t0\t1.25", "ab\t1\t1.5", "b\t2\t2.0"], chars=True)
        assert vocab.index == {"a": 0, "ab": 1, "b": 2}
        assert vocab.idf.tolist() == [1.25, 1.5, 2.0]

    def test_rows_may_come_in_any_order(self, tmp_path):
        vocab, _ = self.load(tmp_path, ["abc\t2\t1.5", "b\t3\t2.0", "ab\t1\t1.25", "a\t0\t1.0"], chars=True)
        assert vocab.index == {"abc": 2, "b": 3, "ab": 1, "a": 0}
        assert vocab.idf.tolist() == [1.0, 1.25, 1.5, 2.0]

    @pytest.mark.parametrize(
        "rows, line, message",
        [
            (["a\t0\t1.25", "b\t0\t1.5", "c\t2\t2.0"], 3, "index 0 is negative or taken by an earlier row"),
            (["a\t0\t1.25", "a\t1\t1.5"], 3, "term 'a' is listed by an earlier row"),
            (["a\t2\t1.25", "b\t0\t1.5"], 2, "index 2 leaves a gap: 2 terms need indices 0..1"),
            (["a\t-1\t1.25"], 2, "index -1 is negative or taken by an earlier row"),
            (["a\t0"], 2, "expected 'term<TAB>index<TAB>idf'"),
            (["a\tzero\t1.25"], 2, "expected 'term<TAB>index<TAB>idf'"),
            (["a\t0\tx"], 2, "expected 'term<TAB>index<TAB>idf'"),
        ],
    )
    def test_a_bad_row_is_named(self, tmp_path, rows, line, message):
        with pytest.raises(ValueError, match=re.escape(f"vocab.tsv:{line}: {message}")):
            self.load(tmp_path, rows)

    @pytest.mark.parametrize(
        "rows, line, message",
        [
            (["a\t0\t1.25", "abc\t1\t1.5"], 3, "the prefix 'ab' of term 'abc' is not a term"),
            (["ab\t0\t1.25", "b\t1\t1.5"], 2, "the prefix 'a' of term 'ab' is not a term"),
            (["\t0\t1.25"], 2, "term '' is not 1 to 6 characters long"),
            (["abcdefg\t0\t1.25"], 2, "term 'abcdefg' is not 1 to 6 characters long"),
        ],
    )
    def test_a_character_vocabulary_must_be_a_trie(self, tmp_path, rows, line, message):
        self.load(tmp_path, rows)
        with pytest.raises(ValueError, match=re.escape(f"vocab.tsv:{line}: {message}")):
            self.load(tmp_path, rows, chars=True)


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
        matrix = scipy_csr(ngram_matrix(query_docs, vocabulary, config))
        expected = dense_reference({"fit": fit_docs, "query": query_docs}, vocabulary, config)
        assert matrix.shape == expected.shape
        assert np.array_equal(matrix.toarray(), expected)
        assert matrix.has_sorted_indices and np.all(matrix.data != 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(texts, min_size=1, max_size=6), st.sampled_from(CONFIGS))
    def test_rows_equal_single_document_transform(self, query_texts, config):
        vocabulary = fit_vocabulary([char_ngrams(text, 3) for text in ["abñ a", "é😀 b", "ab"]])
        docs = [char_ngrams(text, config.char_n_max) for text in query_texts]
        matrix = scipy_csr(ngram_matrix(docs, vocabulary, config))
        for i, terms in enumerate(docs):
            assert_same_csr(matrix[i], transform(Counter(terms), vocabulary, config))

    @pytest.mark.parametrize("config", CONFIGS)
    def test_empty_and_unseen_documents_give_zero_rows(self, config):
        vocabulary = fit_vocabulary([["a", "b"], ["a"]])
        with np.errstate(all="raise"):
            matrix = ngram_matrix([[], ["zzz", "q"], ["a", "zzz"]], vocabulary, config)
        dense = scipy_csr(matrix).toarray()
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
        assert np.array_equal(scipy_csr(matrix).toarray(), dense_reference(documents, vocabulary, NgramConfig()))


# Arbitrary Unicode with lone surrogates mixed in, and texts over a few
# letters, so that fitted and queried texts share n-grams.
surrogates = st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, categories=["Cs"])
any_texts = st.one_of(
    st.text(st.one_of(st.characters(), surrogates), max_size=12),
    st.text(alphabet="ab \ud800😀", max_size=12),
)


class TestCharTrie:
    """The array BoC path equals ``fit_vocabulary`` and ``count_matrix`` over ``char_ngrams``."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(any_texts, min_size=1, max_size=6), st.lists(any_texts, max_size=6), st.integers(1, 6))
    def test_equals_the_string_path(self, fit_texts, query_texts, n_max):
        vocabulary = fit_char_vocabulary(fit_texts, n_max)
        expected = fit_vocabulary(char_ngrams(text, n_max) for text in fit_texts)
        assert list(vocabulary.index.items()) == list(expected.index.items())
        assert vocabulary.idf.tolist() == expected.idf.tolist() and vocabulary.idf.dtype == expected.idf.dtype
        assert vocabulary.doc_count == expected.doc_count
        trie = CharTrie.of(vocabulary)
        for texts in (fit_texts, query_texts):
            counts = trie.count_matrix(texts)
            reference = count_matrix([char_ngrams(text, n_max) for text in texts], expected)
            assert counts.shape == reference.shape
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(counts, part), getattr(reference, part))
                assert getattr(counts, part).dtype == getattr(reference, part).dtype

    def test_empty_texts_give_an_empty_vocabulary(self):
        vocabulary = fit_char_vocabulary(["", ""], 6)
        assert vocabulary.index == {} and vocabulary.doc_count == 2 and len(vocabulary.idf) == 0
        trie = CharTrie.of(vocabulary)
        matrix = trie.count_matrix(["abc", ""])
        assert trie.keys == () and matrix.shape == (2, 0) and matrix.nnz == 0

    def test_no_texts_give_an_empty_matrix(self):
        assert CharTrie.of(fit_char_vocabulary(["ab"], 2)).count_matrix([]).shape == (0, 3)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            fit_char_vocabulary([], 3)
