import pytest

from tweetsent.corpus import (
    LABELS,
    Dataset,
    Label,
    Tweet,
    load_tsv,
    merge,
    save_tsv,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLabel:
    def test_canonical_order(self):
        assert [lb.value for lb in LABELS] == ["P", "N", "NEU", "NONE"]

    def test_parse_case_insensitive(self):
        assert Label.parse("p") is Label.P
        assert Label.parse("None") is Label.NONE
        assert Label.parse(" neu ") is Label.NEU

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="label"):
            Label.parse("POS")


class TestTweet:
    def test_rejects_tab_in_text(self):
        with pytest.raises(ValueError):
            Tweet("t1", "a\tb", Label.P)

    def test_rejects_newline_in_text(self):
        with pytest.raises(ValueError):
            Tweet("t1", "a\nb", Label.P)

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            Tweet("", "hola", Label.P)

    def test_label_optional(self):
        assert Tweet("t1", "hola").label is None


class TestDataset:
    def test_duplicate_ids_rejected(self):
        tweets = (Tweet("a", "x", Label.P), Tweet("a", "y", Label.N))
        with pytest.raises(ValueError, match="duplicate"):
            Dataset("d", "train", tweets)

    def test_unlabeled_only_allowed_in_test(self):
        tweets = (Tweet("a", "x"),)
        Dataset("d", "test", tweets)
        with pytest.raises(ValueError):
            Dataset("d", "train", tweets)
        with pytest.raises(ValueError):
            Dataset("d", "dev", tweets)

    def test_invalid_split_rejected(self):
        with pytest.raises(ValueError, match="split"):
            Dataset("d", "validation", (Tweet("a", "x", Label.P),))


class TestLoadTsv:
    def test_round_trip(self, tmp_path):
        path = write(tmp_path / "d.tsv", "id1\thola mundo\tP\nid2\tque tal\tNONE\n")
        ds = load_tsv(path, "train")
        assert len(ds) == 2
        assert ds.tweets[0] == Tweet("id1", "hola mundo", Label.P)
        assert ds.tweets[1].label is Label.NONE
        out = tmp_path / "copy.tsv"
        save_tsv(ds, out)
        assert out.read_bytes() == path.read_bytes()

    def test_name_defaults_to_stem(self, tmp_path):
        path = write(tmp_path / "montevideo.tsv", "id1\thola\tP\n")
        assert load_tsv(path, "train").name == "montevideo"

    def test_lowercase_label_accepted(self, tmp_path):
        path = write(tmp_path / "d.tsv", "id1\thola\tneu\n")
        assert load_tsv(path, "train").tweets[0].label is Label.NEU

    def test_unlabeled_rows_in_test(self, tmp_path):
        path = write(tmp_path / "d.tsv", "id1\thola\nid2\tadios\n")
        ds = load_tsv(path, "test")
        assert not ds.is_labeled()

    def test_unlabeled_rows_rejected_in_train(self, tmp_path):
        path = write(tmp_path / "d.tsv", "id1\thola\n")
        with pytest.raises(ValueError, match=r"d\.tsv:1"):
            load_tsv(path, "train")

    def test_too_many_fields_reports_line(self, tmp_path):
        path = write(tmp_path / "d.tsv", "id1\thola\tP\nid2\ta\tb\tP\n")
        with pytest.raises(ValueError, match=r"d\.tsv:2"):
            load_tsv(path, "train")

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path / "d.tsv", "id1\thola\tP\n\nid2\tadios\tN\n")
        assert len(load_tsv(path, "train")) == 2

    def test_duplicate_id_rejected(self, tmp_path):
        path = write(tmp_path / "d.tsv", "id1\thola\tP\nid1\tadios\tN\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_tsv(path, "train")


class TestDistributionAndMerge:
    def test_merge_prefixes_ids(self):
        a = Dataset("es", "train", (Tweet("1", "x", Label.P),))
        b = Dataset("pe", "train", (Tweet("1", "y", Label.N),))
        merged = merge([a, b])
        assert merged.name == "es+pe"
        assert [t.id for t in merged.tweets] == ["es:1", "pe:1"]

    def test_merge_requires_same_split(self):
        a = Dataset("es", "train", (Tweet("1", "x", Label.P),))
        b = Dataset("pe", "dev", (Tweet("1", "y", Label.N),))
        with pytest.raises(ValueError):
            merge([a, b])

    def test_merge_requires_distinct_names(self):
        a = Dataset("es", "train", (Tweet("1", "x", Label.P),))
        b = Dataset("es", "train", (Tweet("2", "y", Label.N),))
        with pytest.raises(ValueError):
            merge([a, b])
