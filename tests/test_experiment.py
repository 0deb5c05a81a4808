"""End-to-end coverage: config parsing, full runs, ablations, grid, CLI."""

import dataclasses
import hashlib
import json
import os
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetsent import model, parallel, synthetic
from tweetsent import pipeline as pipeline_module
from tweetsent.cli import main
from tweetsent.corpus import load_tsv
from tweetsent.experiment import (
    ABLATIONS,
    PRESET_NAMES,
    AugmentConfig,
    BaggingSection,
    CrossoverSection,
    DataConfig,
    ExperimentConfig,
    FeatureConfig,
    IncompatibleAblation,
    StageError,
    ablation_variant,
    augment_only,
    derive_seed,
    eval_file,
    grid_search,
    load_bundle,
    ModelConfig,
    PreprocessFiles,
    TranslationBackend,
    TranslationSection,
    _input_files,
    load_preset,
    predict_file,
    preprocess_only,
    run_ablation,
    run_experiment,
)
from tweetsent.metrics import confusion, report_from_confusion
from tweetsent.model import CLASS_WEIGHT_MODES, predict_many
from tweetsent.pipeline import FeaturePipeline


def demo_config(corpus_dir: Path) -> ExperimentConfig:
    return ExperimentConfig.from_json(corpus_dir / "config.json")


def light_config(corpus_dir: Path) -> ExperimentConfig:
    """The demo config stripped to BoW + BoC and plain LR, for cheap runs."""
    config = demo_config(corpus_dir)
    return dataclasses.replace(
        config,
        features=dataclasses.replace(config.features, embedding=False),
        augment=AugmentConfig(),
        model=dataclasses.replace(config.model, bagging=None),
    )


def minimal_raw() -> dict:
    return {
        "seed": 1,
        "data": {"name": "d", "train": "train.tsv", "dev": "dev.tsv"},
        "features": {"embedding": False},
    }


def tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def demo_run(mini_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("demo-run")
    return run_experiment(demo_config(mini_corpus), out)


@pytest.fixture(scope="module")
def light_run(mini_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("light-run")
    return run_experiment(light_config(mini_corpus), out)


@pytest.fixture(scope="module")
def component_run(mini_corpus, tmp_path_factory):
    """A light run with the embedding block and common component removal."""
    config = light_config(mini_corpus)
    features = dataclasses.replace(config.features, embedding=True, remove_common_component=True)
    return run_experiment(dataclasses.replace(config, features=features), tmp_path_factory.mktemp("component-run"))


class TestDeriveSeed:
    def test_matches_reference_derivation(self):
        # Independent restatement: first four digest bytes, top bit cleared.
        for seed, consumer in [(0, "crossover"), (42, "bagging"), (7, "x")]:
            digest = hashlib.sha256(f"{seed}:{consumer}".encode("utf-8")).digest()
            expected = int.from_bytes(digest[:4], "big") % 2**31
            assert derive_seed(seed, consumer) == expected

    def test_deterministic(self):
        assert derive_seed(42, "crossover") == derive_seed(42, "crossover")

    def test_consumers_get_distinct_streams(self):
        assert derive_seed(42, "crossover") != derive_seed(42, "bagging")

    def test_seed_changes_output(self):
        assert derive_seed(1, "bagging") != derive_seed(2, "bagging")

    def test_index_changes_output(self):
        values = {derive_seed(42, "bagging", k) for k in range(20)}
        assert len(values) == 20
        assert derive_seed(42, "bagging") != derive_seed(42, "bagging", 0)

    def test_range_is_31_bit(self):
        for k in range(200):
            value = derive_seed(k, "crossover")
            assert 0 <= value < 2**31


class TestConfigParsing:
    def test_minimal_defaults(self):
        config = ExperimentConfig.from_dict(minimal_raw())
        assert config.seed == 1
        assert config.data.train == ("train.tsv",)
        assert config.data.test is None
        assert config.preprocess.negation_scope == 3
        assert config.preprocess.repeat_cap == 2
        assert config.features.word_n_max == 5
        assert config.features.char_n_max == 6
        assert config.features.tfidf is True
        assert config.features.binarize is False
        assert config.features.sif_a == 0.1
        assert config.features.remove_common_component is False
        assert config.augment.translation is None
        assert config.augment.crossover is None
        assert config.model.C == 1.0
        assert config.model.class_weight == "none"
        assert config.model.bagging is None

    def test_train_accepts_a_list(self):
        raw = minimal_raw()
        raw["data"]["train"] = ["a.tsv", "b.tsv"]
        config = ExperimentConfig.from_dict(raw)
        assert config.data.train == ("a.tsv", "b.tsv")

    def test_empty_train_list_rejected(self):
        raw = minimal_raw()
        raw["data"]["train"] = []
        with pytest.raises(ValueError, match="at least one"):
            ExperimentConfig.from_dict(raw)

    def test_missing_seed(self):
        raw = minimal_raw()
        del raw["seed"]
        with pytest.raises(ValueError, match="'seed'"):
            ExperimentConfig.from_dict(raw)

    def test_negative_seed(self):
        raw = minimal_raw()
        raw["seed"] = -1
        with pytest.raises(ValueError, match="non-negative"):
            ExperimentConfig.from_dict(raw)

    def test_missing_dev(self):
        raw = minimal_raw()
        del raw["data"]["dev"]
        with pytest.raises(ValueError, match="'dev'"):
            ExperimentConfig.from_dict(raw)

    def test_translation_requires_pivots(self):
        raw = minimal_raw()
        raw["augment"] = {"translation": {"source": "es"}}
        with pytest.raises(ValueError, match="'pivots'"):
            ExperimentConfig.from_dict(raw)

    def test_crossover_requires_factor(self):
        raw = minimal_raw()
        raw["augment"] = {"crossover": {}}
        with pytest.raises(ValueError, match="'factor'"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "mutate, section",
        [
            (lambda raw: raw.update(extra=1), "<root>"),
            (lambda raw: raw["data"].update(foo=1), "'data'"),
            (lambda raw: raw.update(preprocess={"bogus": 1}), "'preprocess'"),
            (lambda raw: raw["features"].update(x=1), "'features'"),
            (lambda raw: raw.update(augment={"y": 1}), "'augment'"),
            (
                lambda raw: raw.update(augment={"translation": {"pivots": ["en"], "z": 1}}),
                r"'augment\.translation'",
            ),
            (
                lambda raw: raw.update(
                    augment={"translation": {"pivots": ["en"], "backend": {"type": "remote", "w": 1}}}
                ),
                r"'augment\.translation\.backend'",
            ),
            (
                lambda raw: raw.update(augment={"crossover": {"factor": 2, "k": 1}}),
                r"'augment\.crossover'",
            ),
            (lambda raw: raw.update(model={"q": 1}), "'model'"),
            (lambda raw: raw.update(model={"bagging": {"n": 1}}), r"'model\.bagging'"),
        ],
    )
    def test_unknown_keys_name_their_section(self, mutate, section):
        raw = minimal_raw()
        mutate(raw)
        with pytest.raises(ValueError, match=f"{section}.*unknown keys"):
            ExperimentConfig.from_dict(raw)

    def test_from_json_resolves_relative_paths(self, mini_corpus):
        config = demo_config(mini_corpus)
        for role, path in _input_files(config):
            if path is not None:
                assert Path(path).is_absolute(), role
                assert Path(path).exists(), role
        assert Path(config.augment.translation.cache).is_absolute()

    def test_absolute_paths_stay_untouched(self, tmp_path):
        raw = minimal_raw()
        raw["data"]["train"] = "/abs/train.tsv"
        config = ExperimentConfig.from_dict(raw, base_dir=tmp_path)
        assert config.data.train == ("/abs/train.tsv",)
        assert config.data.dev == str(tmp_path / "dev.tsv")

    def test_to_dict_round_trips(self, mini_corpus):
        config = demo_config(mini_corpus)
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("features", "bow", "false"),
            ("features", "tfidf", 1),
            ("features", "word_n_max", True),
            ("features", "char_n_max", 2.5),
            ("features", "sif_a", True),
            ("model", "C", False),
            ("model", "C", "1.0"),
            ("model", "tol", float("nan")),
            ("features", "word_n_max", float("inf")),
            ("model", "class_weight", 0),
            ("preprocess", "negation_scope", "3"),
            ("data", "dev", None),
        ],
    )
    def test_mistyped_value_names_its_key(self, section, key, value):
        raw = minimal_raw()
        raw.setdefault(section, {})[key] = value
        with pytest.raises(ValueError, match=rf"'{section}\.{key}' must be of type"):
            ExperimentConfig.from_dict(raw)

    def test_mistyped_seed_and_list_item(self):
        raw = minimal_raw()
        raw["seed"] = 1.5
        with pytest.raises(ValueError, match="'seed' must be of type int"):
            ExperimentConfig.from_dict(raw)
        raw = minimal_raw()
        raw["data"]["train"] = ["a.tsv", 3]
        with pytest.raises(ValueError, match=r"'data\.train\[1\]' must be of type str"):
            ExperimentConfig.from_dict(raw)

    def test_numbers_that_fit_are_accepted(self):
        raw = minimal_raw()
        raw["model"] = {"C": 1, "max_iter": 50.0}
        config = ExperimentConfig.from_dict(raw)
        assert config.model.C == 1.0 and isinstance(config.model.C, float)
        assert config.model.max_iter == 50 and isinstance(config.model.max_iter, int)
        assert json.dumps(config.to_dict()["model"]["C"]) == "1.0"

    def test_section_must_be_an_object(self):
        raw = minimal_raw()
        raw["features"] = ["bow"]
        with pytest.raises(ValueError, match="'features' must be a JSON object"):
            ExperimentConfig.from_dict(raw)

    def test_to_dict_round_trips_without_optional_sections(self, mini_corpus):
        config = light_config(mini_corpus)
        again = ExperimentConfig.from_dict(config.to_dict())
        assert again == config
        assert again.augment.translation is None
        assert again.model.bagging is None


paths = st.text(alphabet="abxyz/._-ñ", min_size=1, max_size=12)
maybe_paths = st.none() | paths
positive = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False, allow_infinity=False)
configs = st.builds(
    ExperimentConfig,
    seed=st.integers(0, 2**31 - 1),
    data=st.builds(
        DataConfig,
        name=st.text(max_size=8),
        train=st.lists(paths, min_size=1, max_size=3).map(tuple),
        dev=paths,
        test=maybe_paths,
    ),
    preprocess=st.builds(
        PreprocessFiles,
        stopwords=maybe_paths,
        lemmas=maybe_paths,
        negation_words=maybe_paths,
        negation_scope=st.integers(0, 9),
        repeat_cap=st.integers(1, 9),
    ),
    features=st.builds(
        FeatureConfig,
        bow=st.booleans(),
        boc=st.booleans(),
        embedding=st.booleans(),
        word_n_max=st.integers(1, 9),
        char_n_max=st.integers(1, 9),
        binarize=st.booleans(),
        tfidf=st.booleans(),
        embeddings=paths,
        subword=maybe_paths,
        unigram_counts=paths,
        sif_a=positive,
        remove_common_component=st.booleans(),
    ),
    augment=st.builds(
        AugmentConfig,
        translation=st.none()
        | st.builds(
            TranslationSection,
            pivots=st.lists(st.sampled_from(["en", "fr", "pt", "ar"]), min_size=1, unique=True).map(tuple),
            source=st.just("es"),
            cache=paths,
            backend=st.builds(TranslationBackend, type=st.just("fixture"), tables=paths)
            | st.builds(TranslationBackend, type=st.just("remote"), tables=maybe_paths),
        ),
        crossover=st.none() | st.builds(CrossoverSection, factor=st.integers(1, 16)),
    ),
    model=st.builds(
        ModelConfig,
        C=positive,
        class_weight=st.sampled_from(CLASS_WEIGHT_MODES),
        tol=positive,
        max_iter=st.integers(1, 5000),
        bagging=st.none() | st.builds(BaggingSection, n_estimators=st.integers(1, 50)),
    ),
).filter(lambda config: config.features.bow or config.features.boc or config.features.embedding)


def echo(config: ExperimentConfig) -> str:
    """The ``config.json`` text a run writes for ``config``."""
    return json.dumps(config.to_dict(), indent=2, sort_keys=True, ensure_ascii=False) + "\n"


class TestConfigSchemaProperties:
    @settings(max_examples=200, deadline=None)
    @given(configs)
    def test_dict_round_trip_and_stable_echo(self, config):
        config.validate()
        assert ExperimentConfig.from_dict(config.to_dict()) == config
        text = echo(config)
        again = ExperimentConfig.from_dict(json.loads(text))
        assert again == config
        assert echo(again) == text


class TestConfigValidation:
    def test_embedding_block_needs_resource_paths(self):
        raw = minimal_raw()
        raw["features"] = {"embedding": True}
        with pytest.raises(ValueError, match="embeddings.*unigram_counts"):
            ExperimentConfig.from_dict(raw)

    def test_fixture_backend_needs_tables(self):
        raw = minimal_raw()
        raw["augment"] = {"translation": {"pivots": ["en"], "backend": {"type": "fixture"}}}
        with pytest.raises(ValueError, match="tables"):
            ExperimentConfig.from_dict(raw)

    def test_unknown_backend_type(self):
        raw = minimal_raw()
        raw["augment"] = {"translation": {"pivots": ["en"], "backend": {"type": "oracle"}}}
        with pytest.raises(ValueError, match="backend type"):
            ExperimentConfig.from_dict(raw)

    def test_empty_pivot(self):
        raw = minimal_raw()
        raw["augment"] = {"translation": {"pivots": ["en", ""], "backend": {"type": "fixture", "tables": "t.json"}}}
        with pytest.raises(ValueError, match="pivot"):
            ExperimentConfig.from_dict(raw)

    def test_crossover_factor_below_one(self):
        raw = minimal_raw()
        raw["augment"] = {"crossover": {"factor": 0}}
        with pytest.raises(ValueError, match="factor"):
            ExperimentConfig.from_dict(raw)

    def test_bagging_needs_positive_count(self):
        raw = minimal_raw()
        raw["model"] = {"bagging": {"n_estimators": 0}}
        with pytest.raises(ValueError, match="n_estimators"):
            ExperimentConfig.from_dict(raw)

    def test_negative_negation_scope(self):
        raw = minimal_raw()
        raw["preprocess"] = {"negation_scope": -1}
        with pytest.raises(ValueError, match="negation_scope"):
            ExperimentConfig.from_dict(raw)

    def test_repeat_cap_below_one(self):
        raw = minimal_raw()
        raw["preprocess"] = {"repeat_cap": 0}
        with pytest.raises(ValueError, match="repeat_cap"):
            ExperimentConfig.from_dict(raw)

    def test_unknown_class_weight(self):
        raw = minimal_raw()
        raw["model"] = {"class_weight": "focal"}
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(raw)

    def test_require_files_reports_the_role(self, mini_corpus):
        config = demo_config(mini_corpus)
        broken = dataclasses.replace(
            config, data=dataclasses.replace(config.data, dev=str(mini_corpus / "gone.tsv"))
        )
        broken.validate()  # structural checks alone do not touch the disk
        with pytest.raises(FileNotFoundError, match=r"data\.dev"):
            broken.validate(require_files=True)


class TestRunExperiment:
    def test_artifacts_written(self, demo_run):
        for name in (
            "config.json",
            "train_augmented.tsv",
            "report_dev.txt",
            "report_dev.json",
            "report_test.txt",
            "report_test.json",
            "predictions_test.tsv",
        ):
            assert (demo_run.out_dir / name).is_file(), name
        assert (demo_run.out_dir / "model").is_dir()

    def test_config_echo_parses_back(self, demo_run, mini_corpus):
        with open(demo_run.out_dir / "config.json", encoding="utf-8") as handle:
            echoed = ExperimentConfig.from_dict(json.load(handle))
        assert echoed == demo_config(mini_corpus)

    def test_augmented_train_size(self, demo_run):
        # 120 rows doubled by one back-translation pivot, then crossover x4.
        rows = (demo_run.out_dir / "train_augmented.tsv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 120 * 2 * 4

    def test_augmented_ids_carry_markers(self, demo_run):
        rows = (demo_run.out_dir / "train_augmented.tsv").read_text(encoding="utf-8").splitlines()
        ids = [row.split("\t")[0] for row in rows]
        assert any(".bt-en" in i for i in ids)
        assert any(".cx" in i and "+" in i for i in ids)

    def test_beats_the_majority_baseline(self, demo_run, mini_corpus):
        golds = [t.label for t in load_tsv(mini_corpus / "dev.tsv", split="dev").tweets]
        top = Counter(golds).most_common(1)[0][0]
        baseline = report_from_confusion(confusion(golds, [top] * len(golds)))
        assert demo_run.dev_report.accuracy > baseline.accuracy
        assert demo_run.dev_report.macro_f1 > baseline.macro_f1 + 10.0

    def test_dev_report_json_matches_result(self, demo_run):
        with open(demo_run.out_dir / "report_dev.json", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["accuracy"] == demo_run.dev_report.accuracy
        assert payload["macro"]["f1"] == demo_run.dev_report.macro_f1

    def test_predictions_follow_input_order(self, demo_run, mini_corpus):
        rows = (demo_run.out_dir / "predictions_test.tsv").read_text(encoding="utf-8").splitlines()
        test = load_tsv(mini_corpus / "test.tsv", split="test")
        assert [row.split("\t")[0] for row in rows] == [t.id for t in test.tweets]
        assert set(row.split("\t")[1] for row in rows) <= {"P", "N", "NEU", "NONE"}

    def test_labeled_test_split_gets_a_report(self, demo_run):
        assert demo_run.test_report is not None
        assert demo_run.test_matrix is not None

    def test_rerun_is_byte_identical(self, demo_run, mini_corpus, tmp_path):
        again = run_experiment(demo_config(mini_corpus), tmp_path / "again")
        assert tree_digest(again.out_dir) == tree_digest(demo_run.out_dir)
        assert again.dev_report == demo_run.dev_report

    def test_forked_training_featurization_writes_the_in_process_tree(self, mini_corpus, tmp_path, monkeypatch):
        chunked = []
        fork_map = parallel.fork_map

        def recording_fork_map(fn, items):
            chunked.append(len(items))
            return fork_map(fn, items)

        monkeypatch.setattr(parallel, "fork_map", recording_fork_map)
        monkeypatch.setattr(parallel, "cpu_count", lambda: 1)
        in_process = run_experiment(demo_config(mini_corpus), tmp_path / "in-process")
        assert chunked == []
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
        monkeypatch.setattr(pipeline_module, "MIN_ROWS_PER_WORKER", 10)
        forked = run_experiment(demo_config(mini_corpus), tmp_path / "forked")
        # Train, dev and test each split in two.
        assert chunked == [2, 2, 2]
        assert tree_digest(forked.out_dir) == tree_digest(in_process.out_dir)

    def test_without_test_split(self, mini_corpus, tmp_path):
        config = light_config(mini_corpus)
        config = dataclasses.replace(config, data=dataclasses.replace(config.data, test=None))
        result = run_experiment(config, tmp_path / "no-test")
        assert result.test_report is None
        assert not (result.out_dir / "report_test.txt").exists()
        assert not (result.out_dir / "predictions_test.tsv").exists()

    def test_merges_multiple_train_files(self, mini_corpus, tmp_path):
        rows = (mini_corpus / "train.tsv").read_text(encoding="utf-8").splitlines()
        half = len(rows) // 2
        (tmp_path / "es.tsv").write_text("\n".join(rows[:half]) + "\n", encoding="utf-8")
        (tmp_path / "pe.tsv").write_text("\n".join(rows[half:]) + "\n", encoding="utf-8")
        config = light_config(mini_corpus)
        config = dataclasses.replace(
            config,
            data=dataclasses.replace(
                config.data, train=(str(tmp_path / "es.tsv"), str(tmp_path / "pe.tsv"))
            ),
        )
        result = run_experiment(config, tmp_path / "merged")
        out_rows = (result.out_dir / "train_augmented.tsv").read_text(encoding="utf-8").splitlines()
        assert len(out_rows) == len(rows)
        ids = [row.split("\t")[0] for row in out_rows]
        assert all(i.startswith(("es:", "pe:")) for i in ids)


class TestStageErrors:
    def test_missing_file_fails_in_the_config_stage(self, mini_corpus, tmp_path):
        config = light_config(mini_corpus)
        config = dataclasses.replace(
            config, data=dataclasses.replace(config.data, dev=str(tmp_path / "gone.tsv"))
        )
        with pytest.raises(StageError) as err:
            run_experiment(config, tmp_path / "out")
        assert err.value.stage == "config"
        assert str(err.value).startswith("[config] ")

    def test_malformed_data_fails_in_the_load_stage(self, mini_corpus, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("x1\ttext\tP\textra\n", encoding="utf-8")
        config = light_config(mini_corpus)
        config = dataclasses.replace(config, data=dataclasses.replace(config.data, train=(str(bad),)))
        with pytest.raises(StageError) as err:
            run_experiment(config, tmp_path / "out")
        assert err.value.stage == "load"
        assert isinstance(err.value.cause, ValueError)


class TestBundleReuse:
    def test_load_bundle_reproduces_the_saved_predictions(self, demo_run, mini_corpus):
        predictor, pipeline = load_bundle(demo_run.out_dir / "model")
        test = load_tsv(mini_corpus / "test.tsv", split="test")
        predicted = predict_many(predictor, pipeline.transform(test))
        rows = (demo_run.out_dir / "predictions_test.tsv").read_text(encoding="utf-8").splitlines()
        assert [label.value for label in predicted] == [row.split("\t")[1] for row in rows]

    def test_eval_file_matches_the_run_report(self, demo_run, mini_corpus):
        report, matrix = eval_file(demo_run.out_dir / "model", mini_corpus / "dev.tsv")
        assert report == demo_run.dev_report
        assert matrix == demo_run.dev_matrix

    def test_eval_file_rejects_unlabeled_data(self, demo_run, tmp_path):
        unlabeled = tmp_path / "u.tsv"
        unlabeled.write_text("u1\talgo de texto\n", encoding="utf-8")
        with pytest.raises(ValueError):
            eval_file(demo_run.out_dir / "model", unlabeled)

    def test_predict_file_round_trip(self, demo_run, mini_corpus, tmp_path):
        out = tmp_path / "pred.tsv"
        count = predict_file(demo_run.out_dir / "model", mini_corpus / "test.tsv", out)
        assert count == 60
        rows = out.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 60
        expected = (demo_run.out_dir / "predictions_test.tsv").read_text(encoding="utf-8")
        assert out.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("version", [1, 2])
    def test_bundle_of_either_pipeline_format_reproduces_the_test_predictions(
        self, version, demo_run, mini_corpus, tmp_path, monkeypatch
    ):
        bundle = tmp_path / "model"
        shutil.copytree(demo_run.out_dir / "model", bundle)
        if version == 1:
            # Format 1 stored resource paths relative to the working directory of training.
            meta = json.loads((bundle / "pipeline.json").read_text(encoding="utf-8"))
            meta["format_version"] = 1
            resources = meta["resources"].items()
            meta["resources"] = {name: path and os.path.relpath(path, tmp_path) for name, path in resources}
            (bundle / "pipeline.json").write_text(json.dumps(meta), encoding="utf-8")
            monkeypatch.chdir(tmp_path)
        out = tmp_path / "labels.tsv"
        predict_file(bundle, mini_corpus / "test.tsv", out)
        expected = (demo_run.out_dir / "predictions_test.tsv").read_text(encoding="utf-8")
        assert out.read_text(encoding="utf-8") == expected

    def test_predict_file_on_empty_input(self, demo_run, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "pred.tsv"
        assert predict_file(demo_run.out_dir / "model", empty, out) == 0
        assert out.read_text(encoding="utf-8") == ""


class TestPreprocessAndAugmentOnly:
    def test_preprocess_only_writes_both_views(self, mini_corpus, tmp_path):
        outputs = preprocess_only(demo_config(mini_corpus), tmp_path)
        expected = {
            f"{split}_{view}" for split in ("train", "dev", "test") for view in ("basic", "semantic")
        }
        assert set(outputs) == expected
        for path in outputs.values():
            assert path.is_file()
        basic = (tmp_path / "train_basic.tsv").read_text(encoding="utf-8").splitlines()
        assert len(basic) == 120

    def test_augment_only_matches_the_run_artifact(self, demo_run, mini_corpus, tmp_path):
        path = augment_only(demo_config(mini_corpus), tmp_path)
        assert path.name == "train_augmented.tsv"
        expected = (demo_run.out_dir / "train_augmented.tsv").read_text(encoding="utf-8")
        assert path.read_text(encoding="utf-8") == expected


class TestAblation:
    def test_unknown_name(self, mini_corpus):
        with pytest.raises(ValueError, match="unknown ablation"):
            ablation_variant(demo_config(mini_corpus), "no-dropout")

    def test_each_named_ablation_applies_to_the_full_config(self, mini_corpus):
        config = demo_config(mini_corpus)
        for name in ABLATIONS:
            variant = ablation_variant(config, name)
            assert variant != config

    def test_variants_leave_the_original_alone(self, mini_corpus):
        config = demo_config(mini_corpus)
        variant = ablation_variant(config, "no-bagging")
        assert variant.model.bagging is None
        assert config.model.bagging is not None
        assert variant.data == config.data

    def test_block_removal_flips_only_that_flag(self, mini_corpus):
        config = demo_config(mini_corpus)
        variant = ablation_variant(config, "no-BoW+BoC")
        assert variant.features.bow is False
        assert variant.features.boc is False
        assert variant.features.embedding is True

    def test_absent_component_is_incompatible(self, mini_corpus):
        config = light_config(mini_corpus)
        for name in ("no-translation", "no-crossover", "no-bagging"):
            with pytest.raises(IncompatibleAblation):
                ablation_variant(config, name)

    def test_already_disabled_block_is_incompatible(self, mini_corpus):
        config = light_config(mini_corpus)
        with pytest.raises(IncompatibleAblation, match="already disabled"):
            ablation_variant(config, "no-embeddings")

    def test_removing_the_last_block_is_incompatible(self, mini_corpus):
        config = demo_config(mini_corpus)
        config = dataclasses.replace(
            config, features=dataclasses.replace(config.features, bow=False, boc=False)
        )
        with pytest.raises(IncompatibleAblation):
            ablation_variant(config, "no-embeddings")

    def test_run_ablation_rows_and_artifacts(self, mini_corpus, light_run, tmp_path):
        rows = run_ablation(light_config(mini_corpus), tmp_path, ablations=("no-bagging", "no-BoC"))
        assert [row["variant"] for row in rows] == ["full-system", "no-bagging", "no-BoC"]
        assert rows[0]["accuracy"] == light_run.dev_report.accuracy
        assert rows[0]["macro_f1"] == light_run.dev_report.macro_f1
        assert "skipped" in rows[1]
        assert "accuracy" in rows[2]
        with open(tmp_path / "ablation.json", encoding="utf-8") as handle:
            assert json.load(handle) == rows
        table = (tmp_path / "ablation.txt").read_text(encoding="utf-8")
        assert "full-system" in table
        assert "(skipped:" in table
        assert (tmp_path / "no-BoC" / "report_dev.json").is_file()


class TestGridSearch:
    def test_empty_grid_rejected(self, mini_corpus, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            grid_search(light_config(mini_corpus), {}, tmp_path)

    @pytest.mark.parametrize("grid", [["C"], 5])
    def test_non_object_grid_rejected(self, grid, mini_corpus, tmp_path):
        with pytest.raises(ValueError, match="JSON object"):
            grid_search(light_config(mini_corpus), grid, tmp_path)

    @pytest.mark.parametrize("name, values", [("C", 1.0), ("class_weight", "balanced")])
    def test_non_list_values_rejected(self, name, values, mini_corpus, tmp_path):
        with pytest.raises(ValueError, match="must be a list"):
            grid_search(light_config(mini_corpus), {name: values}, tmp_path)

    def test_unorderable_values_rejected(self, mini_corpus, tmp_path):
        with pytest.raises(ValueError, match="cannot be ordered"):
            grid_search(light_config(mini_corpus), {"C": [1.0, "abc"]}, tmp_path)
        assert not list(tmp_path.iterdir())

    def test_unknown_parameter_rejected(self, mini_corpus, tmp_path):
        with pytest.raises(ValueError, match="unknown grid parameter"):
            grid_search(light_config(mini_corpus), {"dropout": [0.5]}, tmp_path)

    def test_empty_value_list_rejected(self, mini_corpus, tmp_path):
        with pytest.raises(ValueError, match="no values"):
            grid_search(light_config(mini_corpus), {"C": []}, tmp_path)

    def test_bagging_n_needs_a_bagging_section(self, mini_corpus, tmp_path):
        with pytest.raises(ValueError, match="bagging"):
            grid_search(light_config(mini_corpus), {"bagging_n": [5]}, tmp_path)

    def test_sif_a_needs_the_embedding_block(self, mini_corpus, tmp_path):
        with pytest.raises(ValueError, match="embedding"):
            grid_search(light_config(mini_corpus), {"sif_a": [0.1]}, tmp_path)

    def test_search_over_c(self, mini_corpus, tmp_path):
        summary = grid_search(light_config(mini_corpus), {"C": [1.0, 0.5]}, tmp_path)
        assert [row["params"]["C"] for row in summary["rows"]] == [0.5, 1.0]
        assert (tmp_path / "combo-000" / "report_dev.json").is_file()
        assert (tmp_path / "combo-001" / "report_dev.json").is_file()
        best = summary["best"]
        assert best == max(summary["rows"], key=lambda row: (row["macro_f1"], row["accuracy"]))
        with open(tmp_path / "best_config.json", encoding="utf-8") as handle:
            best_config = ExperimentConfig.from_dict(json.load(handle))
        assert best_config.model.C == best["params"]["C"]
        with open(tmp_path / "grid.json", encoding="utf-8") as handle:
            assert json.load(handle) == summary

    def test_ties_keep_the_first_combination(self, mini_corpus, tmp_path):
        # Two identical candidates tie exactly; the earlier one must win.
        summary = grid_search(light_config(mini_corpus), {"C": [1.0, 1.0]}, tmp_path)
        assert len(summary["rows"]) == 2
        assert summary["rows"][0]["macro_f1"] == summary["rows"][1]["macro_f1"]
        assert summary["best"]["out_dir"] == "combo-000"


class TestPresets:
    def test_all_presets_load_and_validate(self):
        for name in PRESET_NAMES:
            config = load_preset(name)
            assert isinstance(config, ExperimentConfig)
            assert config.seed == 42
            assert config.features.word_n_max == 5
            assert config.features.char_n_max == 6
            assert config.features.tfidf is True
            assert name in config.data.train[0]

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            load_preset("AR")

    def test_tuned_knobs(self):
        es = load_preset("ES")
        assert es.model.C == 0.2
        assert es.model.class_weight == "none"
        assert es.model.bagging.n_estimators == 40
        assert es.augment.translation.pivots == ("en", "fr", "pt", "ar")
        assert es.augment.crossover.factor == 8

        pe = load_preset("PE")
        assert pe.model.C == 0.22
        assert pe.model.class_weight == "balanced"
        assert pe.augment.translation is not None

        cr = load_preset("CR")
        assert cr.model.C == 1.15
        assert cr.augment.translation is None
        assert cr.augment.crossover.factor == 8

        uy = load_preset("UY")
        assert uy.model.C == 0.6
        assert uy.model.class_weight == "none"
        assert uy.augment.translation is None

        mx = load_preset("MX")
        assert mx.model.C == 0.125
        assert mx.augment.crossover.factor == 16


def write_config(config: ExperimentConfig, path: Path) -> Path:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(config.to_dict(), handle, indent=2, sort_keys=True)
    return path


def bundle_argv(command: str, bundle: Path, data: Path, tmp_path: Path) -> list[str]:
    if command == "eval":
        return ["eval", "--model", str(bundle), "--data", str(data)]
    return ["predict", "--model", str(bundle), "--input", str(data), "--output", str(tmp_path / "labels.tsv")]


def bundle_error(capsys) -> str:
    """The one line on stderr, which must be an ``error [bundle]`` line."""
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error [bundle] ")
    return line


def truncate(path: Path) -> None:
    """Cut the last entry's bytes off a float64 ``.npy`` file."""
    path.write_bytes(path.read_bytes()[:-8])


def empty(path: Path) -> None:
    path.write_bytes(b"")


def archive(path: Path) -> None:
    """Overwrite ``path`` with an ``.npz`` archive of its array."""
    array = np.load(path)
    with open(path, "wb") as handle:
        np.savez(handle, array=array)


def archive_and_truncate(path: Path) -> None:
    """Overwrite ``path`` with the first half of an ``.npz`` archive of its array."""
    archive(path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def hold_objects(path: Path) -> None:
    """Overwrite ``path`` with a pickled object array."""
    np.save(path, np.array([{"w": 1.0}, None], dtype=object), allow_pickle=True)


def with_nan(array: np.ndarray) -> np.ndarray:
    array = array.copy()
    array[0, -1] = np.nan
    return array


def with_inf(array: np.ndarray) -> np.ndarray:
    array = array.copy()
    array[-1] = np.inf
    return array


def as_int64(array: np.ndarray) -> np.ndarray:
    return array.astype(np.int64)


def not_an_object(meta: dict) -> list:
    return []


def without_key(key: str):
    def drop(meta: dict) -> dict:
        del meta[key]
        return meta

    return drop


def with_key(key: str, value):
    def put(meta: dict) -> dict:
        meta[key] = value
        return meta

    return put


def member_without_classes(meta: dict) -> dict:
    del meta["members"][1]["classes"]
    return meta


class TestCli:
    def test_train_with_seed_override(self, mini_corpus, tmp_path, capsys):
        config_path = write_config(light_config(mini_corpus), tmp_path / "config.json")
        out = tmp_path / "run"
        code = main(["train", "--config", str(config_path), "--out", str(out), "--seed", "9"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "accuracy" in stdout
        assert "artifacts:" in stdout
        with open(out / "config.json", encoding="utf-8") as handle:
            assert json.load(handle)["seed"] == 9

    def test_a_dev_id_that_looks_augmented_is_still_evaluated(self, tmp_path):
        # Only ids made from training rows mark an augmented tweet.
        for name in ("plain", "renamed"):
            synthetic.generate(tmp_path / name, seed=7, train_size=40, dev_size=20, test_size=20)
        dev = tmp_path / "renamed" / "dev.tsv"
        dev.write_text(dev.read_text(encoding="utf-8").replace("dv0001\t", "dv0001.cx2\t", 1), encoding="utf-8")
        assert dev.read_text(encoding="utf-8").startswith("dv0001.cx2\t")
        for corpus in (tmp_path / "plain", tmp_path / "renamed"):
            assert main(["train", "--config", str(corpus / "config.json"), "--out", str(corpus / "run")]) == 0
        for report in ("report_dev.json", "report_dev.txt"):
            renamed = (tmp_path / "renamed" / "run" / report).read_bytes()
            assert renamed == (tmp_path / "plain" / "run" / report).read_bytes()

    def test_augmented_training_rows_given_as_the_dev_split_exit_1(self, tmp_path, capsys):
        synthetic.generate(tmp_path, seed=7, train_size=40, dev_size=20, test_size=20)
        assert main(["train", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "run")]) == 0
        config = json.loads((tmp_path / "config.json").read_text(encoding="utf-8"))
        config["data"]["dev"] = str(tmp_path / "run" / "train_augmented.tsv")
        config_path = tmp_path / "leaky.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        capsys.readouterr()
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "leaky")]) == 1
        err = capsys.readouterr().err
        assert "error [evaluate]" in err
        assert "found in dev split" in err

    def test_eval_writes_a_report(self, demo_run, mini_corpus, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "eval",
                "--model",
                str(demo_run.out_dir / "model"),
                "--data",
                str(mini_corpus / "dev.tsv"),
                "--out",
                str(report_path),
            ]
        )
        assert code == 0
        assert "accuracy" in capsys.readouterr().out
        with open(report_path, encoding="utf-8") as handle:
            assert json.load(handle)["accuracy"] == demo_run.dev_report.accuracy

    def test_predict_labels_a_file(self, demo_run, mini_corpus, tmp_path, capsys):
        out = tmp_path / "labels.tsv"
        code = main(
            [
                "predict",
                "--model",
                str(demo_run.out_dir / "model"),
                "--input",
                str(mini_corpus / "test.tsv"),
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert "labeled 60 tweets" in capsys.readouterr().out
        assert len(out.read_text(encoding="utf-8").splitlines()) == 60

    def test_preprocess_subcommand(self, mini_corpus, tmp_path, capsys):
        code = main(
            ["preprocess", "--config", str(mini_corpus / "config.json"), "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "dev_semantic.tsv").is_file()
        assert "train_basic" in capsys.readouterr().out

    def test_augment_subcommand(self, mini_corpus, tmp_path, capsys):
        code = main(["augment", "--config", str(mini_corpus / "config.json"), "--out", str(tmp_path)])
        assert code == 0
        assert "train_augmented.tsv" in capsys.readouterr().out
        rows = (tmp_path / "train_augmented.tsv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 120 * 2 * 4

    def test_ablate_subcommand(self, mini_corpus, tmp_path, capsys):
        # With augmentation, bagging and embeddings absent, five of the seven
        # removals are reported as skipped and only three variants train.
        config_path = write_config(light_config(mini_corpus), tmp_path / "config.json")
        code = main(["ablate", "--config", str(config_path), "--out", str(tmp_path / "ablation")])
        assert code == 0
        table = capsys.readouterr().out
        assert "full-system" in table
        assert table.count("(skipped:") == 5
        with open(tmp_path / "ablation" / "ablation.json", encoding="utf-8") as handle:
            rows = json.load(handle)
        assert [row["variant"] for row in rows] == ["full-system", *ABLATIONS]

    def test_grid_subcommand_takes_inline_json(self, mini_corpus, tmp_path, capsys):
        config_path = write_config(light_config(mini_corpus), tmp_path / "config.json")
        code = main(
            [
                "grid",
                "--config",
                str(config_path),
                "--out",
                str(tmp_path / "grid"),
                "--grid",
                '{"C": [1.0]}',
            ]
        )
        assert code == 0
        best = json.loads(capsys.readouterr().out)
        assert best["params"] == {"C": 1.0}
        assert (tmp_path / "grid" / "best_config.json").is_file()

    @pytest.mark.parametrize("spec", ['{"C": 1.0}', '{"C": [1.0, "abc"]}', '["C"]'])
    def test_malformed_grid_exits_2(self, spec, mini_corpus, tmp_path, capsys):
        config_path = write_config(light_config(mini_corpus), tmp_path / "config.json")
        if not spec.startswith("{"):
            (tmp_path / "grid.json").write_text(spec, encoding="utf-8")
            spec = str(tmp_path / "grid.json")
        code = main(["grid", "--config", str(config_path), "--out", str(tmp_path / "grid"), "--grid", spec])
        assert code == 2
        assert "error [config] " in capsys.readouterr().err
        assert not (tmp_path / "grid").exists()

    def test_stage_failure_exits_1(self, mini_corpus, tmp_path, capsys):
        config = light_config(mini_corpus)
        config = dataclasses.replace(
            config, data=dataclasses.replace(config.data, dev=str(tmp_path / "gone.tsv"))
        )
        config_path = write_config(config, tmp_path / "config.json")
        code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "[config]" in capsys.readouterr().err

    def test_invalid_seed_override_exits_2(self, mini_corpus, tmp_path, capsys):
        code = main(
            ["augment", "--config", str(mini_corpus / "config.json"), "--out", str(tmp_path), "--seed", "-1"]
        )
        assert code == 2
        assert "error [config] seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "train_augmented.tsv").exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_missing_bundle_exits_1_in_the_bundle_stage(self, command, mini_corpus, tmp_path, capsys):
        code = main(bundle_argv(command, tmp_path / "no-model", mini_corpus / "dev.tsv", tmp_path))
        assert code == 1
        assert "error [bundle]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_corrupt_bundle_exits_1_in_the_bundle_stage(self, command, demo_run, mini_corpus, tmp_path, capsys):
        bundle = tmp_path / "model"
        shutil.copytree(demo_run.out_dir / "model", bundle)
        (bundle / "model.json").write_text("{", encoding="utf-8")
        code = main(bundle_argv(command, bundle, mini_corpus / "dev.tsv", tmp_path))
        assert code == 1
        assert "error [bundle]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_empty_ensemble_exits_1_in_the_bundle_stage(self, command, demo_run, mini_corpus, tmp_path, capsys):
        bundle = tmp_path / "model"
        shutil.copytree(demo_run.out_dir / "model", bundle)
        meta = json.loads((bundle / "model.json").read_text(encoding="utf-8"))
        meta["members"] = []
        (bundle / "model.json").write_text(json.dumps(meta), encoding="utf-8")
        code = main(bundle_argv(command, bundle, mini_corpus / "dev.tsv", tmp_path))
        assert code == 1
        assert "error [bundle] ensemble has 0 members" in capsys.readouterr().err
        assert not (tmp_path / "labels.tsv").exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("key, value", [("binarize", "false"), ("word_n_max", 5.5)])
    def test_mistyped_bundle_value_exits_1_in_the_bundle_stage(
        self, command, key, value, demo_run, mini_corpus, tmp_path, capsys
    ):
        bundle = tmp_path / "model"
        shutil.copytree(demo_run.out_dir / "model", bundle)
        meta = json.loads((bundle / "pipeline.json").read_text(encoding="utf-8"))
        meta["ngrams"][key] = value
        (bundle / "pipeline.json").write_text(json.dumps(meta), encoding="utf-8")
        code = main(bundle_argv(command, bundle, mini_corpus / "dev.tsv", tmp_path))
        assert code == 1
        assert f"error [bundle] config key 'ngrams.{key}' must be of type" in capsys.readouterr().err
        assert not (tmp_path / "labels.tsv").exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize(
        "run, name, corrupt, problem",
        [
            ("demo_run", "member_000_weights.npy", with_nan, "non-finite"),
            ("light_run", "biases.npy", with_inf, "non-finite"),
            ("demo_run", "member_001_biases.npy", as_int64, "int64"),
            ("component_run", "common_component.npy", with_inf, "non-finite"),
            ("component_run", "common_component.npy", as_int64, "int64"),
        ],
    )
    def test_weights_that_are_not_finite_float64_exit_1_in_the_bundle_stage(
        self, command, run, name, corrupt, problem, mini_corpus, tmp_path, request, capsys
    ):
        bundle = tmp_path / "model"
        shutil.copytree(request.getfixturevalue(run).out_dir / "model", bundle)
        np.save(bundle / name, corrupt(np.load(bundle / name)))
        code = main(bundle_argv(command, bundle, mini_corpus / "dev.tsv", tmp_path))
        assert code == 1
        line = bundle_error(capsys)
        assert name in line and problem in line
        assert not (tmp_path / "labels.tsv").exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize(
        "run, name, spoil, problem",
        [
            ("demo_run", "member_001_weights.npy", truncate, "cannot be read as an array"),
            ("demo_run", "member_001_weights.npy", hold_objects, "Object arrays cannot be loaded"),
            ("component_run", "common_component.npy", truncate, "cannot be read as an array"),
            ("light_run", "biases.npy", empty, "cannot be read as an array"),
            ("demo_run", "member_002_biases.npy", archive, "archive of arrays"),
            ("demo_run", "member_000_weights.npy", archive_and_truncate, "cannot be read as an array"),
        ],
        ids=[
            "truncated-weights",
            "object-weights",
            "truncated-component",
            "empty-biases",
            "archived-biases",
            "archived-then-truncated-weights",
        ],
    )
    def test_an_array_file_numpy_cannot_read_is_named_in_the_bundle_stage(
        self, command, run, name, spoil, problem, mini_corpus, tmp_path, request, capsys
    ):
        bundle = tmp_path / "model"
        shutil.copytree(request.getfixturevalue(run).out_dir / "model", bundle)
        spoil(bundle / name)
        code = main(bundle_argv(command, bundle, mini_corpus / "dev.tsv", tmp_path))
        assert code == 1
        line = bundle_error(capsys)
        assert str(bundle / name) in line and problem in line
        assert not (tmp_path / "labels.tsv").exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize(
        "corrupt, problem",
        [(lambda component: np.full_like(component, np.nan), "non-finite"), (lambda component: component[:-1], "(49,)")],
        ids=["nan", "49-entries"],
    )
    def test_a_common_component_the_bundle_uses_is_checked_in_the_bundle_stage(
        self, command, corrupt, problem, component_run, mini_corpus, tmp_path, capsys
    ):
        bundle = tmp_path / "model"
        shutil.copytree(component_run.out_dir / "model", bundle)
        path = bundle / "common_component.npy"
        np.save(path, corrupt(np.load(path)))
        code = main(bundle_argv(command, bundle, mini_corpus / "dev.tsv", tmp_path))
        assert code == 1
        line = bundle_error(capsys)
        assert str(path) in line and problem in line
        assert not (tmp_path / "labels.tsv").exists()

    def test_a_common_component_pipeline_json_does_not_name_is_not_read(
        self, demo_run, mini_corpus, tmp_path, capsys
    ):
        bundle = tmp_path / "model"
        shutil.copytree(demo_run.out_dir / "model", bundle)
        assert json.loads((bundle / "pipeline.json").read_text(encoding="utf-8"))["sif"]["remove_common_component"] is False
        np.save(bundle / "common_component.npy", np.full(50, np.nan))
        assert main(bundle_argv("predict", bundle, mini_corpus / "test.tsv", tmp_path)) == 0
        assert (tmp_path / "labels.tsv").read_bytes() == (demo_run.out_dir / "predictions_test.tsv").read_bytes()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_a_non_finite_embedding_vector_exits_1_in_the_bundle_stage(
        self, command, demo_run, mini_corpus, tmp_path, capsys
    ):
        embeddings = tmp_path / "embeddings.txt"
        lines = (mini_corpus / "embeddings.txt").read_text(encoding="utf-8").splitlines(keepends=True)
        word, _, *rest = lines[3].split(" ")
        lines[3] = " ".join([word, "nan", *rest])
        embeddings.write_text("".join(lines), encoding="utf-8")
        bundle = tmp_path / "model"
        shutil.copytree(demo_run.out_dir / "model", bundle)
        meta = json.loads((bundle / "pipeline.json").read_text(encoding="utf-8"))
        meta["resources"]["embeddings"] = str(embeddings)
        (bundle / "pipeline.json").write_text(json.dumps(meta), encoding="utf-8")
        code = main(bundle_argv(command, bundle, mini_corpus / "dev.tsv", tmp_path))
        assert code == 1
        assert bundle_error(capsys) == f"error [bundle] {embeddings}:4: non-finite vector component"
        assert not (tmp_path / "labels.tsv").exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize(
        "manifest, edit, expected",
        [
            ("model.json", not_an_object, "must hold a JSON object"),
            ("pipeline.json", not_an_object, "must hold a JSON object"),
            ("model.json", without_key("layout"), "is missing key 'layout'"),
            ("model.json", without_key("members"), "is missing key 'members'"),
            ("pipeline.json", without_key("ngrams"), "is missing key 'ngrams'"),
            ("model.json", member_without_classes, "members[1] is missing key 'classes'"),
            ("model.json", with_key("layout", [["bow"]]), "key 'layout' must be a list of [block, dim] pairs"),
            ("model.json", with_key("members", 3), "key 'members' must be a list, got 3"),
            ("model.json", with_key("members", [3]), "members[0] must hold a JSON object, got int"),
            ("model.json", with_key("classes", 3), "key 'classes' must be a list of class labels, got 3"),
            ("pipeline.json", with_key("layout", [["bow", "11"]]), "key 'layout' must be a list of [block, dim] pairs"),
        ],
    )
    def test_a_malformed_manifest_exits_1_naming_the_file(
        self, command, manifest, edit, expected, demo_run, mini_corpus, tmp_path, capsys
    ):
        bundle = tmp_path / "model"
        shutil.copytree(demo_run.out_dir / "model", bundle)
        meta = json.loads((bundle / manifest).read_text(encoding="utf-8"))
        (bundle / manifest).write_text(json.dumps(edit(meta)), encoding="utf-8")
        code = main(bundle_argv(command, bundle, mini_corpus / "dev.tsv", tmp_path))
        assert code == 1
        assert f"{bundle / manifest} {expected}" in bundle_error(capsys)
        assert not (tmp_path / "labels.tsv").exists()

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_malformed_input_exits_1_in_the_load_stage(self, command, demo_run, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("x1\ttext\tP\textra\n", encoding="utf-8")
        code = main(bundle_argv(command, demo_run.out_dir / "model", bad, tmp_path))
        assert code == 1
        assert "error [load]" in capsys.readouterr().err

    def test_eval_on_unlabeled_data_exits_1_in_the_load_stage(self, demo_run, tmp_path, capsys):
        unlabeled = tmp_path / "u.tsv"
        unlabeled.write_text("u1\talgo de texto\n", encoding="utf-8")
        code = main(bundle_argv("eval", demo_run.out_dir / "model", unlabeled, tmp_path))
        assert code == 1
        assert "error [load]" in capsys.readouterr().err

    def test_bundle_predicts_from_another_working_directory(self, mini_corpus, tmp_path, monkeypatch, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(mini_corpus, corpus)
        raw = json.loads((corpus / "config.json").read_text(encoding="utf-8"))
        raw["augment"] = {}
        raw["model"]["bagging"] = None
        (corpus / "config.json").write_text(json.dumps(raw), encoding="utf-8")
        monkeypatch.chdir(corpus)
        assert main(["train", "--config", "config.json", "--out", "run"]) == 0
        monkeypatch.chdir(tmp_path)
        code = main(["predict", "--model", "corpus/run/model", "--input", "corpus/test.tsv", "--output", "labels.tsv"])
        assert code == 0, capsys.readouterr().err
        expected = (corpus / "run" / "predictions_test.tsv").read_text(encoding="utf-8")
        assert (tmp_path / "labels.tsv").read_text(encoding="utf-8") == expected

    def test_dead_training_worker_exits_1_in_the_train_stage(self, mini_corpus, tmp_path, monkeypatch, capsys):
        parent = os.getpid()

        def exit_in_worker(*args):
            if os.getpid() != parent:
                os._exit(1)
            raise AssertionError("solved in the parent process")

        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
        monkeypatch.setattr(model, "binary_objective", exit_in_worker)
        config_path = write_config(light_config(mini_corpus), tmp_path / "config.json")
        code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error [train]" in capsys.readouterr().err

    @staticmethod
    def train_with_a_dead_featurization_worker(split, mini_corpus, tmp_path, monkeypatch, capsys) -> str:
        """Train where a featurization worker exits on the texts of ``split``
        only; returns stderr."""
        parent = os.getpid()
        views = FeaturePipeline._views
        train, dev = ({t.text for t in load_tsv(mini_corpus / f"{name}.tsv", name).tweets} for name in ("train", "dev"))
        doomed = train - dev if split == "train" else dev - train

        def exit_in_worker(self, text):
            if os.getpid() != parent and text in doomed:
                os._exit(1)
            return views(self, text)

        # The 120-row train split and the 60-row dev split each go to two workers.
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
        monkeypatch.setattr(pipeline_module, "MIN_ROWS_PER_WORKER", 10)
        monkeypatch.setattr(FeaturePipeline, "_views", exit_in_worker)
        config_path = write_config(light_config(mini_corpus), tmp_path / "config.json")
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
        return capsys.readouterr().err

    def test_dead_training_featurization_worker_exits_1_in_the_features_stage(
        self, mini_corpus, tmp_path, monkeypatch, capsys
    ):
        err = self.train_with_a_dead_featurization_worker("train", mini_corpus, tmp_path, monkeypatch, capsys)
        assert "error [features]" in err

    def test_dead_dev_featurization_worker_exits_1_in_the_evaluate_stage(
        self, mini_corpus, tmp_path, monkeypatch, capsys
    ):
        err = self.train_with_a_dead_featurization_worker("dev", mini_corpus, tmp_path, monkeypatch, capsys)
        assert "error [evaluate]" in err

    def test_bad_config_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"seed": 1, "mystery": true}', encoding="utf-8")
        code = main(["train", "--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error [config]" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = main(
            ["train", "--config", str(tmp_path / "nowhere.json"), "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert "error [config]" in capsys.readouterr().err
