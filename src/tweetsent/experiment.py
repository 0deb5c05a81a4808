"""Experiment orchestration: config files, full runs, ablations, grid search.

A JSON config describes one experiment end to end.  ``run_experiment``
executes the stages in order (load, resources, basic preprocessing,
translation augmentation, crossover augmentation, feature fitting, training,
evaluation, persistence) and writes reports plus a reloadable model bundle.
Augmentation only ever sees the training split.

Randomness discipline: the config carries one top-level seed and every
consumer (crossover, bagging) gets its own seed derived by hashing, so runs
are reproducible end to end and adding a consumer does not shift the others.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from contextlib import contextmanager
from importlib import resources
from dataclasses import dataclass
from pathlib import Path

from . import augment as augment_mod
from .augment import (
    CrossoverConfig,
    FixtureTranslator,
    RemoteTranslator,
    TranslationConfig,
    TranslatorClient,
    assert_unaugmented,
    crossover_augment,
    translation_augment,
)
from .corpus import Dataset, Tweet, load_tsv, merge, save_tsv
from .embeddings import SifConfig, load_embeddings, load_unigram_counts
from .metrics import ClassificationReport, ConfusionMatrix, evaluate, format_report, report_to_json, score
from .model import (
    BaggingConfig,
    BaggingEnsemble,
    LinearModel,
    LrConfig,
    load_model,
    predict_many,
    save_model,
    train_bagging,
    train_lr,
)
from .pipeline import FeatureBlocks, FeaturePipeline, load_pipeline, save_pipeline
from .preprocess import (
    DEFAULT_NEGATION_WORDS,
    PreprocessConfig,
    basic_preprocess,
    join_tokens,
    load_lemma_table,
    load_wordlist,
    semantic_preprocess,
    tokenize,
)
from .vectorize import NgramConfig


def derive_seed(seed: int, consumer: str, k: int | None = None) -> int:
    """Deterministic per-consumer seed from the top-level experiment seed."""
    material = f"{seed}:{consumer}" if k is None else f"{seed}:{consumer}:{k}"
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


class StageError(RuntimeError):
    """An error tagged with the pipeline stage that raised it."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ValueError(f"config section {where!r} is missing required key {key!r}")
    return mapping[key]


def _reject_unknown(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ValueError(f"config section {where!r} has unknown keys {sorted(unknown)}")


def _resolve(path: str | None, base: Path | None) -> str | None:
    if path is None or base is None:
        return path
    candidate = Path(path)
    if candidate.is_absolute():
        return path
    return str(base / candidate)


@dataclass(frozen=True)
class DataConfig:
    name: str
    train: tuple[str, ...]
    dev: str
    test: str | None = None


@dataclass(frozen=True)
class PreprocessFiles:
    stopwords: str | None = None
    lemmas: str | None = None
    negation_words: str | None = None
    negation_scope: int = 3
    repeat_cap: int = 2


@dataclass(frozen=True)
class FeatureConfig:
    bow: bool = True
    boc: bool = True
    embedding: bool = True
    word_n_max: int = 5
    char_n_max: int = 6
    binarize: bool = False
    tfidf: bool = True
    embeddings: str | None = None
    subword: str | None = None
    unigram_counts: str | None = None
    sif_a: float = 0.1
    remove_common_component: bool = False


@dataclass(frozen=True)
class TranslationBackend:
    type: str = "remote"
    tables: str | None = None


@dataclass(frozen=True)
class TranslationSection:
    pivots: tuple[str, ...]
    source: str = "es"
    cache: str = "translations.cache.jsonl"
    backend: TranslationBackend = TranslationBackend()


@dataclass(frozen=True)
class CrossoverSection:
    factor: int = 1


@dataclass(frozen=True)
class AugmentConfig:
    translation: TranslationSection | None = None
    crossover: CrossoverSection | None = None


@dataclass(frozen=True)
class BaggingSection:
    n_estimators: int = 40


@dataclass(frozen=True)
class ModelConfig:
    C: float = 1.0
    class_weight: str = "none"
    tol: float = 1e-6
    max_iter: int = 1000
    bagging: BaggingSection | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    data: DataConfig
    preprocess: PreprocessFiles = PreprocessFiles()
    features: FeatureConfig = FeatureConfig()
    augment: AugmentConfig = AugmentConfig()
    model: ModelConfig = ModelConfig()

    @classmethod
    def from_dict(cls, raw: dict, base_dir: Path | None = None) -> "ExperimentConfig":
        _reject_unknown(raw, {"seed", "data", "preprocess", "features", "augment", "model"}, "<root>")
        seed = int(_require(raw, "seed", "<root>"))
        if seed < 0:
            raise ValueError("seed must be non-negative")

        data_raw = dict(_require(raw, "data", "<root>"))
        _reject_unknown(data_raw, {"name", "train", "dev", "test"}, "data")
        train = _require(data_raw, "train", "data")
        train_paths = (train,) if isinstance(train, str) else tuple(train)
        if not train_paths:
            raise ValueError("data.train must name at least one file")
        data = DataConfig(
            name=str(_require(data_raw, "name", "data")),
            train=tuple(_resolve(p, base_dir) for p in train_paths),
            dev=_resolve(str(_require(data_raw, "dev", "data")), base_dir),
            test=_resolve(data_raw.get("test"), base_dir),
        )

        pre_raw = dict(raw.get("preprocess", {}))
        _reject_unknown(
            pre_raw, {"stopwords", "lemmas", "negation_words", "negation_scope", "repeat_cap"}, "preprocess"
        )
        preprocess = PreprocessFiles(
            stopwords=_resolve(pre_raw.get("stopwords"), base_dir),
            lemmas=_resolve(pre_raw.get("lemmas"), base_dir),
            negation_words=_resolve(pre_raw.get("negation_words"), base_dir),
            negation_scope=int(pre_raw.get("negation_scope", 3)),
            repeat_cap=int(pre_raw.get("repeat_cap", 2)),
        )

        feat_raw = dict(raw.get("features", {}))
        _reject_unknown(
            feat_raw,
            {
                "bow",
                "boc",
                "embedding",
                "word_n_max",
                "char_n_max",
                "binarize",
                "tfidf",
                "embeddings",
                "subword",
                "unigram_counts",
                "sif_a",
                "remove_common_component",
            },
            "features",
        )
        features = FeatureConfig(
            bow=bool(feat_raw.get("bow", True)),
            boc=bool(feat_raw.get("boc", True)),
            embedding=bool(feat_raw.get("embedding", True)),
            word_n_max=int(feat_raw.get("word_n_max", 5)),
            char_n_max=int(feat_raw.get("char_n_max", 6)),
            binarize=bool(feat_raw.get("binarize", False)),
            tfidf=bool(feat_raw.get("tfidf", True)),
            embeddings=_resolve(feat_raw.get("embeddings"), base_dir),
            subword=_resolve(feat_raw.get("subword"), base_dir),
            unigram_counts=_resolve(feat_raw.get("unigram_counts"), base_dir),
            sif_a=float(feat_raw.get("sif_a", 0.1)),
            remove_common_component=bool(feat_raw.get("remove_common_component", False)),
        )

        aug_raw = dict(raw.get("augment", {}))
        _reject_unknown(aug_raw, {"translation", "crossover"}, "augment")
        translation = None
        if aug_raw.get("translation") is not None:
            t_raw = dict(aug_raw["translation"])
            _reject_unknown(t_raw, {"pivots", "source", "cache", "backend"}, "augment.translation")
            backend_raw = dict(t_raw.get("backend", {"type": "remote"}))
            _reject_unknown(backend_raw, {"type", "tables"}, "augment.translation.backend")
            backend = TranslationBackend(
                type=str(backend_raw.get("type", "remote")),
                tables=_resolve(backend_raw.get("tables"), base_dir),
            )
            translation = TranslationSection(
                pivots=tuple(_require(t_raw, "pivots", "augment.translation")),
                source=str(t_raw.get("source", "es")),
                cache=_resolve(str(t_raw.get("cache", "translations.cache.jsonl")), base_dir),
                backend=backend,
            )
        crossover = None
        if aug_raw.get("crossover") is not None:
            c_raw = dict(aug_raw["crossover"])
            _reject_unknown(c_raw, {"factor"}, "augment.crossover")
            crossover = CrossoverSection(factor=int(_require(c_raw, "factor", "augment.crossover")))
        augment = AugmentConfig(translation=translation, crossover=crossover)

        model_raw = dict(raw.get("model", {}))
        _reject_unknown(model_raw, {"C", "class_weight", "tol", "max_iter", "bagging"}, "model")
        bagging = None
        if model_raw.get("bagging") is not None:
            b_raw = dict(model_raw["bagging"])
            _reject_unknown(b_raw, {"n_estimators"}, "model.bagging")
            bagging = BaggingSection(n_estimators=int(b_raw.get("n_estimators", 40)))
        model = ModelConfig(
            C=float(model_raw.get("C", 1.0)),
            class_weight=str(model_raw.get("class_weight", "none")),
            tol=float(model_raw.get("tol", 1e-6)),
            max_iter=int(model_raw.get("max_iter", 1000)),
            bagging=bagging,
        )

        config = cls(
            seed=seed, data=data, preprocess=preprocess, features=features, augment=augment, model=model
        )
        config.validate()
        return config

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
        return cls.from_dict(raw, base_dir=path.parent)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["data"]["train"] = list(out["data"]["train"])
        if out["augment"]["translation"] is not None:
            out["augment"]["translation"]["pivots"] = list(out["augment"]["translation"]["pivots"])
        return out

    def validate(self, require_files: bool = False) -> None:
        """Structural checks; with ``require_files`` every referenced path must exist."""
        # These constructors raise on out-of-range values.
        NgramConfig(
            word_n_max=self.features.word_n_max,
            char_n_max=self.features.char_n_max,
            binarize=self.features.binarize,
            tfidf=self.features.tfidf,
        )
        FeatureBlocks(bow=self.features.bow, boc=self.features.boc, embedding=self.features.embedding)
        SifConfig(a=self.features.sif_a, remove_common_component=self.features.remove_common_component)
        LrConfig(
            C=self.model.C,
            class_weight=self.model.class_weight,
            tol=self.model.tol,
            max_iter=self.model.max_iter,
        )
        if self.model.bagging is not None and self.model.bagging.n_estimators < 1:
            raise ValueError("model.bagging.n_estimators must be >= 1")
        if self.preprocess.negation_scope < 0:
            raise ValueError("preprocess.negation_scope must be >= 0")
        if self.preprocess.repeat_cap < 1:
            raise ValueError("preprocess.repeat_cap must be >= 1")
        if self.features.embedding:
            if not self.features.embeddings or not self.features.unigram_counts:
                raise ValueError(
                    "features.embeddings and features.unigram_counts are required "
                    "while the embedding block is enabled"
                )
        if self.augment.translation is not None:
            section = self.augment.translation
            TranslationConfig(pivots=section.pivots, source=section.source, cache_path=section.cache)
            if section.backend.type not in ("fixture", "remote"):
                raise ValueError(f"unknown translation backend type {section.backend.type!r}")
            if section.backend.type == "fixture" and not section.backend.tables:
                raise ValueError("the fixture translation backend needs a tables file")
        if self.augment.crossover is not None and self.augment.crossover.factor < 1:
            raise ValueError("augment.crossover.factor must be >= 1")
        if require_files:
            for role, path in self._file_references():
                if path is not None and not Path(path).exists():
                    raise FileNotFoundError(f"{role} file not found: {path}")

    def _file_references(self) -> list[tuple[str, str | None]]:
        refs: list[tuple[str, str | None]] = [
            ("data.dev", self.data.dev),
            ("data.test", self.data.test),
            ("preprocess.stopwords", self.preprocess.stopwords),
            ("preprocess.lemmas", self.preprocess.lemmas),
            ("preprocess.negation_words", self.preprocess.negation_words),
            ("features.embeddings", self.features.embeddings),
            ("features.subword", self.features.subword),
            ("features.unigram_counts", self.features.unigram_counts),
        ]
        refs.extend((f"data.train[{i}]", path) for i, path in enumerate(self.data.train))
        if self.augment.translation is not None and self.augment.translation.backend.type == "fixture":
            refs.append(("augment.translation.backend.tables", self.augment.translation.backend.tables))
        return refs


@dataclass
class RunResult:
    out_dir: Path
    dev_report: ClassificationReport
    dev_matrix: ConfusionMatrix
    test_report: ClassificationReport | None = None
    test_matrix: ConfusionMatrix | None = None


def _load_preprocess_config(config: ExperimentConfig) -> PreprocessConfig:
    stopwords = load_wordlist(config.preprocess.stopwords) if config.preprocess.stopwords else frozenset()
    lemmas = load_lemma_table(config.preprocess.lemmas) if config.preprocess.lemmas else {}
    negation = (
        load_wordlist(config.preprocess.negation_words)
        if config.preprocess.negation_words
        else DEFAULT_NEGATION_WORDS
    )
    return PreprocessConfig(
        negation_words=negation,
        negation_scope=config.preprocess.negation_scope,
        stopwords=stopwords,
        lemma_table=lemmas,
        repeat_cap=config.preprocess.repeat_cap,
    )


def _basic_dataset(dataset: Dataset, preprocess_config: PreprocessConfig) -> Dataset:
    tweets = [
        Tweet(t.id, join_tokens(basic_preprocess(tokenize(t.text), preprocess_config)), t.label)
        for t in dataset.tweets
    ]
    return dataset.replace_tweets(tweets)


def _make_client(section: TranslationSection) -> TranslatorClient:
    if section.backend.type == "fixture":
        assert section.backend.tables is not None
        return FixtureTranslator.from_json(section.backend.tables)
    return RemoteTranslator()


def _load_train(config: ExperimentConfig) -> Dataset:
    parts = [load_tsv(path, split="train") for path in config.data.train]
    if len(parts) == 1:
        return Dataset(config.data.name, "train", parts[0].tweets)
    merged = merge(parts)
    return Dataset(config.data.name, "train", merged.tweets)


def _build_pipeline(config: ExperimentConfig, preprocess_config: PreprocessConfig) -> FeaturePipeline:
    blocks = FeatureBlocks(
        bow=config.features.bow, boc=config.features.boc, embedding=config.features.embedding
    )
    ngram_config = NgramConfig(
        word_n_max=config.features.word_n_max,
        char_n_max=config.features.char_n_max,
        binarize=config.features.binarize,
        tfidf=config.features.tfidf,
    )
    table = None
    unigram = None
    if blocks.embedding:
        table = load_embeddings(config.features.embeddings, config.features.subword)
        unigram = load_unigram_counts(config.features.unigram_counts)
    return FeaturePipeline(
        preprocess_config=preprocess_config,
        ngram_config=ngram_config,
        blocks=blocks,
        embedding_table=table,
        unigram=unigram,
        sif_config=SifConfig(
            a=config.features.sif_a,
            remove_common_component=config.features.remove_common_component,
        ),
    )


def run_experiment(config: ExperimentConfig, out_dir: str | Path) -> RunResult:
    """Execute the full pipeline and persist reports plus the model bundle."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _stage("config"):
        config.validate(require_files=True)
        with open(out_dir / "config.json", "w", encoding="utf-8", newline="\n") as handle:
            json.dump(config.to_dict(), handle, indent=2, sort_keys=True, ensure_ascii=False)
            handle.write("\n")
    with _stage("load"):
        train = _load_train(config)
        dev = load_tsv(config.data.dev, split="dev")
        test = load_tsv(config.data.test, split="test") if config.data.test else None
    with _stage("resources"):
        preprocess_config = _load_preprocess_config(config)
    with _stage("preprocess"):
        train = _basic_dataset(train, preprocess_config)
    with _stage("augment"):
        if config.augment.translation is not None:
            section = config.augment.translation
            translation_config = TranslationConfig(
                pivots=section.pivots, source=section.source, cache_path=section.cache
            )
            train = translation_augment(train, _make_client(section), translation_config)
        if config.augment.crossover is not None:
            crossover_config = CrossoverConfig(
                factor=config.augment.crossover.factor,
                seed=derive_seed(config.seed, "crossover"),
            )
            train = crossover_augment(train, crossover_config)
        save_tsv(train, out_dir / "train_augmented.tsv")
    with _stage("features"):
        pipeline = _build_pipeline(config, preprocess_config)
        features = pipeline.fit_transform(train)
        labels = [t.label for t in train.tweets]
    with _stage("train"):
        lr_config = LrConfig(
            C=config.model.C,
            class_weight=config.model.class_weight,
            tol=config.model.tol,
            max_iter=config.model.max_iter,
        )
        predictor: LinearModel | BaggingEnsemble
        if config.model.bagging is not None:
            bagging_config = BaggingConfig(
                n_estimators=config.model.bagging.n_estimators,
                seed=derive_seed(config.seed, "bagging"),
            )
            predictor = train_bagging(features, labels, lr_config, bagging_config)
        else:
            predictor = train_lr(features, labels, lr_config)
    with _stage("evaluate"):
        assert_unaugmented(dev)
        dev_report, dev_matrix = evaluate(predictor, dev, pipeline)
        test_report = None
        test_matrix = None
        test_predictions = None
        if test is not None:
            assert_unaugmented(test)
            if len(test):
                test_predictions = predict_many(predictor, pipeline.transform(test))
                if test.is_labeled():
                    test_report, test_matrix = score(test, test_predictions)
    with _stage("persist"):
        bundle_dir = out_dir / "model"
        save_pipeline(
            pipeline,
            bundle_dir,
            resources={
                "embeddings": config.features.embeddings,
                "subword": config.features.subword,
                "unigram_counts": config.features.unigram_counts,
            },
        )
        save_model(predictor, bundle_dir, pipeline.layout)
        _write_report(out_dir, "dev", dev_report, dev_matrix)
        if test_report is not None and test_matrix is not None:
            _write_report(out_dir, "test", test_report, test_matrix)
        if test is not None and test_predictions is not None:
            with open(out_dir / "predictions_test.tsv", "w", encoding="utf-8", newline="\n") as handle:
                for tweet, label in zip(test.tweets, test_predictions):
                    handle.write(f"{tweet.id}\t{label.value}\n")
    return RunResult(
        out_dir=out_dir,
        dev_report=dev_report,
        dev_matrix=dev_matrix,
        test_report=test_report,
        test_matrix=test_matrix,
    )


def _write_report(out_dir: Path, split: str, report: ClassificationReport, matrix: ConfusionMatrix) -> None:
    with open(out_dir / f"report_{split}.txt", "w", encoding="utf-8", newline="\n") as handle:
        handle.write(format_report(report, matrix))
    with open(out_dir / f"report_{split}.json", "w", encoding="utf-8", newline="\n") as handle:
        handle.write(report_to_json(report, matrix))


def load_bundle(bundle_dir: str | Path) -> tuple[LinearModel | BaggingEnsemble, FeaturePipeline]:
    """Reload a persisted model plus its feature pipeline, checking layouts agree."""
    pipeline = load_pipeline(bundle_dir)
    predictor, layout = load_model(bundle_dir)
    if layout != pipeline.layout:
        raise ValueError(f"model layout {layout} does not match pipeline layout {pipeline.layout}")
    return predictor, pipeline


def eval_file(bundle_dir: str | Path, data_path: str | Path, split: str = "dev"):
    """Evaluate a persisted bundle on a labeled TSV."""
    predictor, pipeline = load_bundle(bundle_dir)
    dataset = load_tsv(data_path, split=split)
    return evaluate(predictor, dataset, pipeline)


def predict_file(bundle_dir: str | Path, input_path: str | Path, output_path: str | Path) -> int:
    """Label a TSV with a persisted bundle; returns the instance count.

    Output rows are ``id<TAB>label`` in input order.
    """
    predictor, pipeline = load_bundle(bundle_dir)
    dataset = load_tsv(input_path, split="test")
    with open(output_path, "w", encoding="utf-8", newline="\n") as handle:
        if len(dataset):
            for tweet, label in zip(dataset.tweets, predict_many(predictor, pipeline.transform(dataset))):
                handle.write(f"{tweet.id}\t{label.value}\n")
    return len(dataset)


ABLATIONS = (
    "no-translation",
    "no-crossover",
    "no-BoW",
    "no-BoC",
    "no-BoW+BoC",
    "no-embeddings",
    "no-bagging",
)


class IncompatibleAblation(ValueError):
    pass


def ablation_variant(config: ExperimentConfig, name: str) -> ExperimentConfig:
    """The config with one component removed; raises when nothing is removable."""
    if name == "no-translation":
        if config.augment.translation is None:
            raise IncompatibleAblation("translation augmentation is not enabled")
        return dataclasses.replace(
            config, augment=dataclasses.replace(config.augment, translation=None)
        )
    if name == "no-crossover":
        if config.augment.crossover is None:
            raise IncompatibleAblation("crossover augmentation is not enabled")
        return dataclasses.replace(config, augment=dataclasses.replace(config.augment, crossover=None))
    if name == "no-bagging":
        if config.model.bagging is None:
            raise IncompatibleAblation("bagging is not enabled")
        return dataclasses.replace(config, model=dataclasses.replace(config.model, bagging=None))
    block_flags = {
        "no-BoW": {"bow": False},
        "no-BoC": {"boc": False},
        "no-BoW+BoC": {"bow": False, "boc": False},
        "no-embeddings": {"embedding": False},
    }
    if name not in block_flags:
        raise ValueError(f"unknown ablation {name!r}, expected one of {ABLATIONS}")
    flags = block_flags[name]
    for flag, value in flags.items():
        if getattr(config.features, flag) == value:
            raise IncompatibleAblation(f"feature block {flag} is already disabled")
    features = dataclasses.replace(config.features, **flags)
    try:
        FeatureBlocks(bow=features.bow, boc=features.boc, embedding=features.embedding)
    except ValueError as exc:
        raise IncompatibleAblation(str(exc)) from None
    return dataclasses.replace(config, features=features)


def run_ablation(
    config: ExperimentConfig, out_dir: str | Path, ablations: tuple[str, ...] = ABLATIONS
) -> list[dict]:
    """Run the full system and each single-component removal.

    Every variant gets its own output directory.  Rows report dev accuracy
    and macro F1; removals that do not apply are kept as skipped rows.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    full = run_experiment(config, out_dir / "full-system")
    rows.append(
        {
            "variant": "full-system",
            "accuracy": full.dev_report.accuracy,
            "macro_f1": full.dev_report.macro_f1,
        }
    )
    for name in ablations:
        try:
            variant = ablation_variant(config, name)
        except IncompatibleAblation as exc:
            rows.append({"variant": name, "skipped": str(exc)})
            continue
        result = run_experiment(variant, out_dir / name)
        rows.append(
            {
                "variant": name,
                "accuracy": result.dev_report.accuracy,
                "macro_f1": result.dev_report.macro_f1,
            }
        )
    with open(out_dir / "ablation.json", "w", encoding="utf-8", newline="\n") as handle:
        json.dump(rows, handle, indent=2, sort_keys=True)
        handle.write("\n")
    with open(out_dir / "ablation.txt", "w", encoding="utf-8", newline="\n") as handle:
        handle.write(format_ablation_table(rows))
    return rows


def format_ablation_table(rows: list[dict]) -> str:
    lines = [f"{'variant':<16}{'Acc.':>8}{'M-F1':>8}"]
    for row in rows:
        if "skipped" in row:
            lines.append(f"{row['variant']:<16}{'-':>8}{'-':>8}  (skipped: {row['skipped']})")
        else:
            lines.append(f"{row['variant']:<16}{row['accuracy']:>8.2f}{row['macro_f1']:>8.2f}")
    lines.append("")
    return "\n".join(lines)


GRID_PARAMS = ("C", "bagging_n", "class_weight", "crossover_factor", "sif_a")


def _apply_grid_param(config: ExperimentConfig, name: str, value) -> ExperimentConfig:
    if name == "C":
        return dataclasses.replace(config, model=dataclasses.replace(config.model, C=float(value)))
    if name == "class_weight":
        return dataclasses.replace(
            config, model=dataclasses.replace(config.model, class_weight=str(value))
        )
    if name == "bagging_n":
        if config.model.bagging is None:
            raise ValueError("grid parameter bagging_n requires a model.bagging section")
        return dataclasses.replace(
            config,
            model=dataclasses.replace(config.model, bagging=BaggingSection(n_estimators=int(value))),
        )
    if name == "crossover_factor":
        if config.augment.crossover is None:
            raise ValueError("grid parameter crossover_factor requires an augment.crossover section")
        return dataclasses.replace(
            config,
            augment=dataclasses.replace(config.augment, crossover=CrossoverSection(factor=int(value))),
        )
    if name == "sif_a":
        if not config.features.embedding:
            raise ValueError("grid parameter sif_a requires the embedding block")
        return dataclasses.replace(
            config, features=dataclasses.replace(config.features, sif_a=float(value))
        )
    raise ValueError(f"unknown grid parameter {name!r}, expected one of {GRID_PARAMS}")


def grid_search(config: ExperimentConfig, grid: dict[str, list], out_dir: str | Path) -> dict:
    """Exhaustive search over the given parameter lists, scored on dev.

    The best combination has the highest macro F1, breaking ties by accuracy
    and then by position in lexicographic parameter order (sorted names,
    ascending values), which is also the evaluation order.
    """
    if not grid:
        raise ValueError("the grid must name at least one parameter")
    for name in grid:
        if name not in GRID_PARAMS:
            raise ValueError(f"unknown grid parameter {name!r}, expected one of {GRID_PARAMS}")
        if not grid[name]:
            raise ValueError(f"grid parameter {name!r} has no values")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = sorted(grid)
    value_lists = [sorted(grid[name]) for name in names]
    rows: list[dict] = []
    best: dict | None = None
    best_config: ExperimentConfig | None = None

    def combos(prefix: list, remaining: list[list]):
        if not remaining:
            yield list(prefix)
            return
        for value in remaining[0]:
            yield from combos(prefix + [value], remaining[1:])

    for i, values in enumerate(combos([], value_lists)):
        variant = config
        for name, value in zip(names, values):
            variant = _apply_grid_param(variant, name, value)
        result = run_experiment(variant, out_dir / f"combo-{i:03d}")
        row = {
            "params": dict(zip(names, values)),
            "macro_f1": result.dev_report.macro_f1,
            "accuracy": result.dev_report.accuracy,
            "out_dir": f"combo-{i:03d}",
        }
        rows.append(row)
        if best is None or (row["macro_f1"], row["accuracy"]) > (best["macro_f1"], best["accuracy"]):
            best = row
            best_config = variant
    assert best is not None and best_config is not None
    summary = {"best": best, "rows": rows}
    with open(out_dir / "grid.json", "w", encoding="utf-8", newline="\n") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    with open(out_dir / "best_config.json", "w", encoding="utf-8", newline="\n") as handle:
        json.dump(best_config.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return summary


def preprocess_only(config: ExperimentConfig, out_dir: str | Path) -> dict[str, Path]:
    """Write basic and semantic preprocessed views of every configured split."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _stage("resources"):
        preprocess_config = _load_preprocess_config(config)
    outputs: dict[str, Path] = {}
    with _stage("preprocess"):
        splits: list[tuple[str, Dataset]] = [("train", _load_train(config))]
        splits.append(("dev", load_tsv(config.data.dev, split="dev")))
        if config.data.test:
            splits.append(("test", load_tsv(config.data.test, split="test")))
        for split_name, dataset in splits:
            basic = _basic_dataset(dataset, preprocess_config)
            semantic = dataset.replace_tweets(
                Tweet(
                    t.id,
                    join_tokens(
                        semantic_preprocess(
                            basic_preprocess(tokenize(t.text), preprocess_config), preprocess_config
                        )
                    ),
                    t.label,
                )
                for t in dataset.tweets
            )
            basic_path = out_dir / f"{split_name}_basic.tsv"
            semantic_path = out_dir / f"{split_name}_semantic.tsv"
            save_tsv(basic, basic_path)
            save_tsv(semantic, semantic_path)
            outputs[f"{split_name}_basic"] = basic_path
            outputs[f"{split_name}_semantic"] = semantic_path
    return outputs


def augment_only(config: ExperimentConfig, out_dir: str | Path) -> Path:
    """Run basic preprocessing plus the configured augmentations on train."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _stage("resources"):
        preprocess_config = _load_preprocess_config(config)
    with _stage("load"):
        train = _load_train(config)
    with _stage("preprocess"):
        train = _basic_dataset(train, preprocess_config)
    with _stage("augment"):
        if config.augment.translation is not None:
            section = config.augment.translation
            translation_config = TranslationConfig(
                pivots=section.pivots, source=section.source, cache_path=section.cache
            )
            train = translation_augment(train, _make_client(section), translation_config)
        if config.augment.crossover is not None:
            train = crossover_augment(
                train,
                CrossoverConfig(
                    factor=config.augment.crossover.factor, seed=derive_seed(config.seed, "crossover")
                ),
            )
    path = out_dir / "train_augmented.tsv"
    save_tsv(train, path)
    return path


PRESET_NAMES = ("CR", "ES", "MX", "PE", "UY")


def load_preset(name: str) -> ExperimentConfig:
    """Load one of the bundled per-country starting configs.

    Presets fix the feature setup and the tuned training knobs; their data
    and resource paths are placeholders relative to the working directory,
    so point them at real files before running.
    """
    if name not in PRESET_NAMES:
        known = ", ".join(PRESET_NAMES)
        raise ValueError(f"unknown preset {name!r}, expected one of: {known}")
    text = resources.files("tweetsent").joinpath("presets").joinpath(f"{name}.json").read_text("utf-8")
    return ExperimentConfig.from_dict(json.loads(text))
