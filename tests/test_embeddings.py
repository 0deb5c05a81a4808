import functools
import math
import re
import shutil

import numpy as np
import pytest

from tweetsent.embeddings import (
    EmbeddingTable,
    SifConfig,
    SubwordTable,
    UnigramModel,
    fnv1a_32,
    leading_component,
    load_embeddings,
    load_unigram_counts,
    remove_common_component,
    remove_component,
    sif_embed,
    sif_weight,
    subword_ngrams,
    word_vector,
)
from tweetsent.cli import main


def reference_fnv1a(data: bytes) -> int:
    # Independent restatement of the 32-bit FNV-1a recurrence.
    return functools.reduce(
        lambda h, byte: ((h ^ byte) * 0x01000193) % 2**32, data, 0x811C9DC5
    )


class TestFnv1a:
    def test_known_vectors(self):
        # Published reference values for the 32-bit variant.
        assert fnv1a_32(b"") == 0x811C9DC5
        assert fnv1a_32(b"a") == 0xE40C292C
        assert fnv1a_32(b"foobar") == 0xBF9CF968

    def test_matches_independent_recurrence(self):
        for word in ["hola", "año", "<ni", "ña>", "x" * 40, "😀"]:
            data = word.encode("utf-8")
            assert fnv1a_32(data) == reference_fnv1a(data)


class TestSubwordNgrams:
    def test_grams_over_angle_bracketed_word(self):
        grams = subword_ngrams("ab", 3, 4)
        assert grams == ["<ab", "ab>", "<ab>"]

    def test_short_word_min_longer_than_padded(self):
        assert subword_ngrams("a", 4, 5) == []

    def test_count_formula(self):
        word = "hola"
        padded = len(word) + 2
        grams = subword_ngrams(word, 3, 5)
        expected = sum(padded - n + 1 for n in range(3, 6) if padded >= n)
        assert len(grams) == expected


def write_embedding_files(tmp_path, vectors, subword=None):
    emb = tmp_path / "emb.txt"
    dim = len(next(iter(vectors.values())))
    lines = [f"{len(vectors)} {dim}"]
    for word, vec in vectors.items():
        lines.append(word + " " + " ".join(str(x) for x in vec))
    emb.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if subword is None:
        return emb, None
    min_n, max_n, bucket_count, buckets = subword
    sub = tmp_path / "emb.subword.txt"
    lines = [f"{min_n} {max_n} {bucket_count}"]
    for idx, vec in buckets.items():
        lines.append(str(idx) + " " + " ".join(str(x) for x in vec))
    sub.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return emb, sub


class TestLoadEmbeddings:
    def test_loads_vectors(self, tmp_path):
        emb, _ = write_embedding_files(tmp_path, {"hola": [1.0, 2.0], "adios": [3.0, 4.0]})
        table = load_embeddings(emb)
        assert table.dim == 2
        assert np.allclose(table.vectors["hola"], [1.0, 2.0])

    def test_header_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\nhola 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_embeddings(path)

    def test_dim_mismatch_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 3\nhola 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_embeddings(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 2\nhola 1.0 x\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_embeddings(path)

    def test_subword_sidecar(self, tmp_path):
        emb, sub = write_embedding_files(
            tmp_path,
            {"hola": [1.0, 0.0]},
            subword=(3, 4, 16, {0: [0.5, 0.5], 7: [1.0, -1.0]}),
        )
        table = load_embeddings(emb, sub)
        assert table.subword is not None
        assert table.subword.bucket_count == 16
        assert np.allclose(table.subword.buckets[7], [1.0, -1.0])

    def test_fasttext_vec_trailing_spaces(self, tmp_path):
        # fastText .vec files end every vector line with a space.
        path = tmp_path / "wiki.es.vec"
        path.write_text("2 3 \nhola 0.1 0.2 0.3 \nadios -1 0 2.5 \r\n", encoding="utf-8")
        table = load_embeddings(path)
        assert table.dim == 3
        assert table.vectors["hola"].tolist() == [0.1, 0.2, 0.3]
        assert table.vectors["adios"].tolist() == [-1.0, 0.0, 2.5]

    def test_subword_sidecar_trailing_spaces(self, tmp_path):
        emb = tmp_path / "emb.vec"
        emb.write_text("1 2\nhola 1 0\n", encoding="utf-8")
        sub = tmp_path / "sub.txt"
        sub.write_text("3 4 16\n7 1.0 -1.0 \n", encoding="utf-8")
        table = load_embeddings(emb, sub)
        assert table.subword.buckets[7].tolist() == [1.0, -1.0]

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_component_rejected_naming_its_line(self, tmp_path, value):
        path = tmp_path / "emb.txt"
        path.write_text(f"2 2\nhola 1.0 2.0\nadios 3.0 {value}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: non-finite vector component")):
            load_embeddings(path)

    def test_non_finite_subword_component_rejected_naming_its_line(self, tmp_path):
        emb = tmp_path / "emb.vec"
        emb.write_text("1 2\nhola 1 0\n", encoding="utf-8")
        sub = tmp_path / "sub.txt"
        sub.write_text("3 4 16\n7 1.0 -1.0\n2 nan 0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{sub}:3: non-finite vector component")):
            load_embeddings(emb, sub)

    @pytest.mark.parametrize(
        "header, problem",
        [("0 4 16", "need 1 <= min_n <= max_n"), ("4 3 16", "need 1 <= min_n <= max_n"), ("3 4 0", "bucket_count")],
    )
    def test_sidecar_header_the_table_rejects_names_line_1(self, tmp_path, header, problem):
        emb = tmp_path / "emb.vec"
        emb.write_text("1 2\nhola 1 0\n", encoding="utf-8")
        sub = tmp_path / "sub.txt"
        sub.write_text(f"{header}\n7 1.0 -1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{sub}:1: {problem}")):
            load_embeddings(emb, sub)

    def test_blank_and_space_only_lines_are_skipped(self, tmp_path):
        emb = tmp_path / "emb.vec"
        emb.write_text("2 2\nhola 1 0\n\n   \nadios 0 1 \n", encoding="utf-8")
        sub = tmp_path / "sub.txt"
        sub.write_text("3 4 16\n\n7 1.0 -1.0 \n \n", encoding="utf-8")
        table = load_embeddings(emb, sub)
        assert sorted(table.vectors) == ["adios", "hola"]
        assert sorted(table.subword.buckets) == [7]

    @pytest.mark.parametrize(
        "rows, problem",
        [
            ("hola 1 0\nadios \n", "3: expected 2 vector components, got 0"),
            ("hola 1 0\nadios 0 1\nhola 2 2\n", "4: 'hola' repeats line 2"),
        ],
        ids=["a-word-without-components", "a-repeated-word"],
    )
    def test_cut_or_repeated_word_rejected_naming_its_line(self, tmp_path, rows, problem):
        path = tmp_path / "emb.vec"
        path.write_text(f"2 2\n{rows}", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{problem}")):
            load_embeddings(path)

    @pytest.mark.parametrize(
        "rows, problem",
        [
            ("7 1.0 -1.0\n9\n", "3: expected 2 vector components, got 0"),
            ("7 1.0 -1.0\n2 0 0\n7 0.5 0.5\n", "4: 7 repeats line 2"),
        ],
        ids=["a-bucket-without-components", "a-repeated-bucket"],
    )
    def test_cut_or_repeated_bucket_rejected_naming_its_line(self, tmp_path, rows, problem):
        emb = tmp_path / "emb.vec"
        emb.write_text("1 2\nhola 1 0\n", encoding="utf-8")
        sub = tmp_path / "sub.txt"
        sub.write_text(f"3 4 16\n{rows}", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{sub}:{problem}")):
            load_embeddings(emb, sub)


def test_cli_train_names_a_non_finite_vector_in_the_features_stage(mini_corpus, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(mini_corpus, corpus)
    path = corpus / "embeddings.txt"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    word, _, *rest = lines[3].split(" ")
    lines[3] = " ".join([word, "nan", *rest])
    path.write_text("".join(lines), encoding="utf-8")
    code = main(["train", "--config", str(corpus / "config.json"), "--out", str(tmp_path / "run")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error [features] {path}:4: non-finite vector component"]
    assert not (tmp_path / "run" / "model").exists()


def test_cli_train_names_a_cut_sidecar_row_in_the_features_stage(mini_corpus, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(mini_corpus, corpus)
    path = corpus / "embeddings.subword.txt"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = lines[2].split(" ")[0] + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    code = main(["train", "--config", str(corpus / "config.json"), "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error [features] {path}:3: expected 50 vector components, got 0"]
    assert not (tmp_path / "run" / "model").exists()


class TestWordVector:
    def test_known_word_exact(self, tmp_path):
        emb, _ = write_embedding_files(tmp_path, {"hola": [1.0, 2.0]})
        table = load_embeddings(emb)
        assert np.array_equal(word_vector(table, "hola"), [1.0, 2.0])

    def test_oov_without_subword_is_zero(self, tmp_path):
        emb, _ = write_embedding_files(tmp_path, {"hola": [1.0, 2.0]})
        table = load_embeddings(emb)
        assert np.array_equal(word_vector(table, "nuevo"), [0.0, 0.0])

    def test_oov_matches_hand_built_mean(self):
        # Oracle: place every n-gram of "<ab>" in its own hand-hashed bucket
        # and check the mean, including a missing bucket contributing zeros.
        min_n, max_n, count = 3, 4, 64
        grams = ["<ab", "ab>", "<ab>"]
        hashed = [reference_fnv1a(g.encode("utf-8")) % count for g in grams]
        buckets = {
            hashed[0]: np.array([3.0, 0.0]),
            hashed[1]: np.array([0.0, 6.0]),
            # bucket for "<ab>" intentionally absent
        }
        assert len(set(hashed)) == 3, "fixture needs collision-free grams"
        table = EmbeddingTable(
            dim=2,
            vectors={"otro": np.zeros(2)},
            subword=SubwordTable(min_n, max_n, count, buckets),
        )
        vec = word_vector(table, "ab")
        assert np.allclose(vec, [1.0, 2.0])

    def test_oov_too_short_for_any_gram(self):
        table = EmbeddingTable(
            dim=2, vectors={}, subword=SubwordTable(5, 6, 8, {})
        )
        assert np.array_equal(word_vector(table, "ab"), [0.0, 0.0])


class TestUnigramModel:
    def test_probability(self):
        model = UnigramModel(counts={"a": 3, "b": 1}, total=4)
        assert model.probability("a") == 0.75
        assert model.probability("zz") == 0.0

    def test_load_sums_duplicates(self, tmp_path):
        path = tmp_path / "uni.tsv"
        path.write_text("a\t2\nb\t1\na\t3\n", encoding="utf-8")
        model = load_unigram_counts(path)
        assert model.counts["a"] == 5 and model.total == 6

    def test_load_rejects_non_positive(self, tmp_path):
        path = tmp_path / "uni.tsv"
        path.write_text("a\t0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_unigram_counts(path)


class TestSifWeight:
    def test_formula(self):
        assert sif_weight(0.0, 0.1) == 1.0
        assert sif_weight(0.1, 0.1) == pytest.approx(0.5)
        assert sif_weight(0.9, 0.1) == pytest.approx(0.1)

    def test_rare_words_weigh_more(self):
        assert sif_weight(1e-6, 0.1) > sif_weight(1e-2, 0.1)

    def test_large_a_approaches_plain_mean(self):
        # As a grows the weight tends to 1 for every token.
        for p in (0.0, 1e-4, 0.5, 1.0):
            assert sif_weight(p, 1e9) == pytest.approx(1.0, rel=1e-6)


def toy_table():
    return EmbeddingTable(
        dim=2,
        vectors={
            "raro": np.array([2.0, 0.0]),
            "comun": np.array([0.0, 2.0]),
        },
    )


class TestSifEmbed:
    def test_weighted_mean_hand_computed(self):
        table = toy_table()
        unigram = UnigramModel(counts={"raro": 1, "comun": 9}, total=10)
        config = SifConfig(a=0.1)
        vec = sif_embed(["raro", "comun"], table, unigram, config)
        w_raro = 0.1 / (0.1 + 0.1)
        w_comun = 0.1 / (0.1 + 0.9)
        expected = (w_raro * np.array([2.0, 0.0]) + w_comun * np.array([0.0, 2.0])) / 2
        assert np.allclose(vec, expected)

    def test_empty_tokens_zero_vector(self):
        table = toy_table()
        unigram = UnigramModel(counts={}, total=0)
        vec = sif_embed([], table, unigram, SifConfig())
        assert np.array_equal(vec, [0.0, 0.0])

    def test_large_a_equals_plain_mean(self):
        table = toy_table()
        unigram = UnigramModel(counts={"raro": 1, "comun": 99}, total=100)
        tokens = ["raro", "comun", "raro"]
        vec = sif_embed(tokens, table, unigram, SifConfig(a=1e12))
        plain = np.mean([table.vectors[t] for t in tokens], axis=0)
        assert np.allclose(vec, plain, rtol=1e-6)

    def test_oov_token_contributes_zeros(self):
        table = toy_table()
        unigram = UnigramModel(counts={"raro": 1}, total=1)
        vec = sif_embed(["raro", "desconocido"], table, unigram, SifConfig(a=0.1))
        w = 0.1 / (0.1 + 1.0)
        assert np.allclose(vec, w * np.array([2.0, 0.0]) / 2)


def power_iteration_direction(matrix: np.ndarray) -> np.ndarray:
    # Independent oracle: dominant right singular vector via power iteration
    # on the Gram matrix.
    gram = matrix.T @ matrix
    v = np.full(matrix.shape[1], 1.0 / math.sqrt(matrix.shape[1]))
    for _ in range(3000):
        nxt = gram @ v
        norm = np.linalg.norm(nxt)
        if norm == 0:
            return nxt
        v = nxt / norm
    for x in v:
        if abs(x) > 1e-12:
            return v if x > 0 else -v
    return v


class TestCommonComponent:
    def test_matches_power_iteration(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(1, 6))
        matrix = np.repeat(base, 20, axis=0) + 0.05 * rng.normal(size=(20, 6))
        mine = leading_component(matrix)
        oracle = power_iteration_direction(matrix)
        assert np.allclose(np.abs(mine), np.abs(oracle), atol=1e-6)
        assert np.linalg.norm(mine) == pytest.approx(1.0, abs=1e-12)

    def test_sign_convention_first_nonzero_positive(self):
        matrix = np.array([[-1.0, 0.0], [-2.0, 0.0]])
        component = leading_component(matrix)
        assert component[0] > 0

    def test_requires_two_rows(self):
        with pytest.raises(ValueError):
            leading_component(np.ones((1, 4)))

    def test_removal_makes_rows_orthogonal(self):
        rng = np.random.default_rng(11)
        matrix = rng.normal(size=(15, 5)) + 4.0 * np.outer(np.ones(15), rng.normal(size=5))
        component = leading_component(matrix)
        cleaned = remove_component(matrix, component)
        assert np.max(np.abs(cleaned @ component)) <= 1e-9

    def test_rank_one_matrix_becomes_zero(self):
        direction = np.array([3.0, 4.0, 0.0]) / 5.0
        matrix = np.outer([1.0, -2.0, 0.5, 3.0], direction)
        cleaned = remove_common_component(matrix)
        assert np.max(np.abs(cleaned)) <= 1e-9

    def test_zero_matrix_unchanged(self):
        matrix = np.zeros((3, 4))
        cleaned = remove_common_component(matrix)
        assert np.array_equal(cleaned, matrix)
