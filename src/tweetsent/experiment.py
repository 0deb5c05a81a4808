"""Experiment orchestration: config files, studies, ablations, grid search.

A JSON config describes one experiment end to end.  Its sections are the
dataclasses below: field names are the JSON keys, fields without a default
are required, and each section builds the component configs it describes.

Every run is a study of one or more configs: ``run_experiment`` studies one,
``run_ablation`` and ``grid_search`` one per variant.  A study executes
``STAGES`` in order and writes each variant's reports and reloadable model
bundle to its own directory, byte for byte what a standalone ``train`` of
that variant writes.  Data, preprocessing and augmentation are computed once
per distinct config subtree.  Variants that agree on the feature inputs form
one build: its pipeline is fitted once, with every block they enable, and
each variant trains and predicts on its own blocks' columns.  Build after
build, one worker pool solves the problems of all the build's variants, and
each variant is evaluated and persisted as its solutions come in, so the
study holds one build's matrices at a time.  ``preprocess_only`` and
``augment_only`` run a prefix of the same stages.  Augmentation only ever
sees the training split.

Randomness discipline: the config carries one top-level seed and every
consumer (crossover, bagging) gets its own seed derived by hashing, so runs
are reproducible end to end and adding a consumer does not shift the others.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import logging
import time
import typing
from contextlib import closing, contextmanager
from importlib import resources
from dataclasses import dataclass, field
from pathlib import Path

from .augment import (
    CrossoverConfig,
    FixtureTranslator,
    RemoteTranslator,
    TranslationConfig,
    assert_unaugmented,
    crossover_augment,
    translation_augment,
)
from .corpus import Dataset, Label, Tweet, load_tsv, merge, save_tsv
from .csr import take_columns
from .embeddings import SifConfig, load_embeddings, load_unigram_counts
from .metrics import ClassificationReport, ConfusionMatrix, evaluate, format_report, report_to_json, score
from .model import (
    BaggingConfig,
    Ensemble,
    LrConfig,
    TrainingPlan,
    load_model,
    plan,
    predict_many,
    save_model,
    solve_all,
    solver,
    # A study trains through plans; bench/tracing.py still wraps these names.
    train_bagging,  # noqa: F401
    train_lr,  # noqa: F401
)
from .pipeline import BLOCK_ORDER, FeatureBlocks, FeaturePipeline, load_pipeline, save_pipeline
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
from .schema import dump, load_section
from .vectorize import NgramConfig

logger = logging.getLogger(__name__)


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
def stage(name: str):
    """Re-raise any error from the block as a ``StageError`` tagged ``name``."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


# Field metadata marking an input file, which must exist before a run.  Every
# field with a "path" mark resolves against the config file's directory.
_INPUT = {"path": "input"}


@dataclass(frozen=True)
class DataConfig:
    name: str
    train: tuple[str, ...] = field(metadata=_INPUT)
    dev: str = field(metadata=_INPUT)
    test: str | None = field(default=None, metadata=_INPUT)


@dataclass(frozen=True)
class PreprocessFiles:
    stopwords: str | None = field(default=None, metadata=_INPUT)
    lemmas: str | None = field(default=None, metadata=_INPUT)
    negation_words: str | None = field(default=None, metadata=_INPUT)
    negation_scope: int = 3
    repeat_cap: int = 2

    def build(self, read_files: bool = True) -> PreprocessConfig:
        """The preprocessing config; without ``read_files`` the word lists keep their defaults."""

        def read(path, loader, default):
            return loader(path) if read_files and path else default

        return PreprocessConfig(
            stopwords=read(self.stopwords, load_wordlist, frozenset()),
            lemma_table=read(self.lemmas, load_lemma_table, {}),
            negation_words=read(self.negation_words, load_wordlist, DEFAULT_NEGATION_WORDS),
            negation_scope=self.negation_scope,
            repeat_cap=self.repeat_cap,
        )


@dataclass(frozen=True)
class FeatureConfig:
    bow: bool = True
    boc: bool = True
    embedding: bool = True
    word_n_max: int = 5
    char_n_max: int = 6
    binarize: bool = False
    tfidf: bool = True
    embeddings: str | None = field(default=None, metadata=_INPUT)
    subword: str | None = field(default=None, metadata=_INPUT)
    unigram_counts: str | None = field(default=None, metadata=_INPUT)
    sif_a: float = 0.1
    remove_common_component: bool = False

    def blocks(self) -> FeatureBlocks:
        return FeatureBlocks(bow=self.bow, boc=self.boc, embedding=self.embedding)

    def ngram(self) -> NgramConfig:
        return NgramConfig(
            word_n_max=self.word_n_max, char_n_max=self.char_n_max, binarize=self.binarize, tfidf=self.tfidf
        )

    def sif(self) -> SifConfig:
        return SifConfig(a=self.sif_a, remove_common_component=self.remove_common_component)


@dataclass(frozen=True)
class TranslationBackend:
    type: str = "remote"
    tables: str | None = field(default=None, metadata=_INPUT)


@dataclass(frozen=True)
class TranslationSection:
    pivots: tuple[str, ...]
    source: str = "es"
    cache: str = field(default="translations.cache.jsonl", metadata={"path": "cache"})
    backend: TranslationBackend = TranslationBackend()

    def build(self) -> TranslationConfig:
        return TranslationConfig(pivots=self.pivots, source=self.source, cache_path=self.cache)


@dataclass(frozen=True)
class CrossoverSection:
    factor: int

    def build(self, experiment_seed: int) -> CrossoverConfig:
        return CrossoverConfig(factor=self.factor, seed=derive_seed(experiment_seed, "crossover"))


@dataclass(frozen=True)
class AugmentConfig:
    translation: TranslationSection | None = None
    crossover: CrossoverSection | None = None


@dataclass(frozen=True)
class BaggingSection:
    n_estimators: int = 40

    def build(self, experiment_seed: int) -> BaggingConfig:
        return BaggingConfig(n_estimators=self.n_estimators, seed=derive_seed(experiment_seed, "bagging"))


@dataclass(frozen=True)
class ModelConfig:
    C: float = 1.0
    class_weight: str = "none"
    tol: float = 1e-6
    max_iter: int = 1000
    bagging: BaggingSection | None = None

    def lr(self) -> LrConfig:
        return LrConfig(C=self.C, class_weight=self.class_weight, tol=self.tol, max_iter=self.max_iter)


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
        config = load_section(cls, raw, "<root>", base_dir)
        config.validate()
        return config

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        return cls.from_dict(json.loads(path.read_text(encoding="utf-8")), base_dir=path.parent)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def validate(self, require_files: bool = False) -> None:
        """Value checks; with ``require_files`` every referenced input file must exist."""
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not self.data.train:
            raise ValueError("data.train must name at least one file")
        # The component configs raise on out-of-range values.
        self.preprocess.build(read_files=False)
        self.features.blocks()
        self.features.ngram()
        self.features.sif()
        self.model.lr()
        if self.model.bagging is not None:
            self.model.bagging.build(self.seed)
        if self.features.embedding:
            if not self.features.embeddings or not self.features.unigram_counts:
                raise ValueError(
                    "features.embeddings and features.unigram_counts are required "
                    "while the embedding block is enabled"
                )
        if self.augment.translation is not None:
            section = self.augment.translation
            section.build()
            if section.backend.type not in ("fixture", "remote"):
                raise ValueError(f"unknown translation backend type {section.backend.type!r}")
            if section.backend.type == "fixture" and not section.backend.tables:
                raise ValueError("the fixture translation backend needs a tables file")
        if self.augment.crossover is not None:
            self.augment.crossover.build(self.seed)
        if require_files:
            for role, path in self._file_references():
                if not Path(path).exists():
                    raise FileNotFoundError(f"{role} file not found: {path}")

    def _file_references(self) -> list[tuple[str, str]]:
        return list(_input_files(self))


def _input_files(section, where: str = ""):
    """(key path, path) of every input file named in ``section``."""
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        if dataclasses.is_dataclass(value):
            yield from _input_files(value, f"{where}{f.name}.")
        elif f.metadata.get("path") == "input" and isinstance(value, tuple):
            yield from ((f"{where}{f.name}[{i}]", path) for i, path in enumerate(value))
        elif f.metadata.get("path") == "input" and value is not None:
            yield f"{where}{f.name}", value


@dataclass
class RunResult:
    out_dir: Path
    dev_report: ClassificationReport
    dev_matrix: ConfusionMatrix
    test_report: ClassificationReport | None = None
    test_matrix: ConfusionMatrix | None = None


@dataclass
class _Run:
    """One variant's state: each stage reads what the stages before it set."""

    config: ExperimentConfig
    out_dir: Path
    train: Dataset = field(init=False)
    dev: Dataset = field(init=False)
    test: Dataset | None = field(init=False)
    preprocess_config: PreprocessConfig = field(init=False)
    pipeline: FeaturePipeline = field(init=False)  # its build, narrowed to its own blocks
    features: dict[str, typing.Any] = field(init=False)  # the build's matrix of each split
    columns: typing.Any = field(init=False)  # this variant's columns of the build's matrices; None is all
    predictor: Ensemble = field(init=False)
    test_predictions: list[Label] | None = None
    result: RunResult = field(init=False)

    def matrix(self, split: str):
        """This variant's columns of its build's matrix of ``split``."""
        matrix = self.features[split]
        return matrix if self.columns is None else take_columns(matrix, self.columns)

    def key(self, *entries: str) -> str:
        """sha256 of the named top-level config entries, feature block switches left out."""
        raw = self.config.to_dict()
        raw["features"] = {name: value for name, value in raw["features"].items() if name not in BLOCK_ORDER}
        return hashlib.sha256(dump({name: raw[name] for name in entries}).encode("utf-8")).hexdigest()


#: The config entries the feature stage reads: variants that agree on them share one build.
_FEATURE_INPUTS = ("seed", "data", "preprocess", "augment", "features")


def _shared(runs: list[_Run], entries: tuple[str, ...], compute) -> list:
    """``compute(run)`` for every run, computed once per distinct key of the config ``entries``."""
    keys = [run.key(*entries) for run in runs]
    values: dict[str, typing.Any] = {}
    for key, run in zip(keys, runs):
        if key not in values:
            values[key] = compute(run)
    return [values[key] for key in keys]


def _preprocessed(dataset: Dataset, config: PreprocessConfig, semantic: bool = False) -> Dataset:
    """``dataset`` after basic preprocessing, followed by the semantic pass when asked."""

    def text(raw: str) -> str:
        tokens = basic_preprocess(tokenize(raw), config)
        return join_tokens(semantic_preprocess(tokens, config) if semantic else tokens)

    return dataset.replace_tweets(Tweet(t.id, text(t.text), t.label) for t in dataset.tweets)


def _check_config(runs: list[_Run]) -> None:
    for run in runs:
        run.config.validate(require_files=True)
        _write(run.out_dir / "config.json", dump(run.config.to_dict()))


def _read(run: _Run) -> tuple[Dataset, Dataset, Dataset | None]:
    data = run.config.data
    parts = [load_tsv(path, split="train") for path in data.train]
    merged = parts[0] if len(parts) == 1 else merge(parts)
    test = load_tsv(data.test, split="test") if data.test else None
    return Dataset(data.name, "train", merged.tweets), load_tsv(data.dev, split="dev"), test


def _load(runs: list[_Run]) -> None:
    for run, (train, dev, test) in zip(runs, _shared(runs, ("data",), _read)):
        run.train, run.dev, run.test = train, dev, test


def _load_resources(runs: list[_Run]) -> None:
    for run, config in zip(runs, _shared(runs, ("preprocess",), lambda run: run.config.preprocess.build())):
        run.preprocess_config = config


def _preprocess(runs: list[_Run]) -> None:
    trains = _shared(runs, ("data", "preprocess"), lambda run: _preprocessed(run.train, run.preprocess_config))
    for run, train in zip(runs, trains):
        run.train = train


def _augmented(run: _Run) -> Dataset:
    train = run.train
    translation, crossover = run.config.augment.translation, run.config.augment.crossover
    if translation is not None:
        backend = translation.backend
        client = FixtureTranslator.from_json(backend.tables) if backend.type == "fixture" else RemoteTranslator()
        train = translation_augment(train, client, translation.build())
    if crossover is not None:
        train = crossover_augment(train, crossover.build(run.config.seed))
    return train


def _augment(runs: list[_Run]) -> None:
    for run, train in zip(runs, _shared(runs, ("seed", "data", "preprocess", "augment"), _augmented)):
        run.train = train
        save_tsv(train, run.out_dir / "train_augmented.tsv")


def _featurize(runs: list[_Run]) -> None:
    """Fit one pipeline for the variants of a build, with every block they
    enable; each variant takes the share of its own blocks."""
    first = runs[0]
    features = first.config.features
    blocks = FeatureBlocks(**{name: any(getattr(run.config.features, name) for run in runs) for name in BLOCK_ORDER})
    table = unigram = None
    if blocks.embedding:
        table = load_embeddings(features.embeddings, features.subword)
        unigram = load_unigram_counts(features.unigram_counts)
    build = FeaturePipeline(
        preprocess_config=first.preprocess_config,
        ngram_config=features.ngram(),
        blocks=blocks,
        embedding_table=table,
        unigram=unigram,
        sif_config=features.sif(),
    )
    matrices = {"train": build.fit_transform(first.train)}
    # Dev and test are featurized before the solve pool starts its threads,
    # as a large batch forks workers of its own.  Their failures belong to
    # the evaluate stage, as in a standalone run.
    with stage("evaluate"):
        matrices["dev"] = build.transform(first.dev)
        if first.test is not None and len(first.test):
            matrices["test"] = build.transform(first.test)
    for run in runs:
        run.features = matrices
        run.pipeline = build.narrowed(run.config.features.blocks())
        run.columns = build.columns(run.pipeline.blocks)


def _plan(run: _Run) -> TrainingPlan:
    model = run.config.model
    bagging = None if model.bagging is None else model.bagging.build(run.config.seed)
    labels = [t.label for t in run.train.tweets]
    return plan(run.features["train"], labels, model.lr(), bagging, columns=run.columns)


def _train(runs: list[_Run], counts: dict[str, int]):
    """One pool solves the problems of every variant of a build, in order;
    each next step gives the next variant its predictor."""
    plans = [_plan(run) for run in runs]
    counts["problems"] += sum(len(plan.problems) for plan in plans)
    with closing(solve_all([problem for plan in plans for problem in plan.problems])) as solutions:
        for run, plan in zip(runs, plans):
            run.predictor = plan.assemble(itertools.islice(solutions, len(plan.problems)))
            yield


def _evaluate(run: _Run) -> None:
    assert_unaugmented(run.dev)
    run.result = RunResult(run.out_dir, *score(run.dev, predict_many(run.predictor, run.matrix("dev"))))
    if run.test is not None:
        assert_unaugmented(run.test)
        if len(run.test):
            run.test_predictions = predict_many(run.predictor, run.matrix("test"))
            if run.test.is_labeled():
                run.result.test_report, run.result.test_matrix = score(run.test, run.test_predictions)


def _persist(run: _Run) -> None:
    features = run.config.features
    bundle_dir = run.out_dir / "model"
    save_pipeline(
        run.pipeline,
        bundle_dir,
        resources={
            "embeddings": features.embeddings,
            "subword": features.subword,
            "unigram_counts": features.unigram_counts,
        },
    )
    save_model(run.predictor, bundle_dir, run.pipeline.layout)
    result = run.result
    _write_report(run.out_dir, "dev", result.dev_report, result.dev_matrix)
    if result.test_report is not None and result.test_matrix is not None:
        _write_report(run.out_dir, "test", result.test_report, result.test_matrix)
    if run.test_predictions is not None:
        _write_predictions(run.out_dir / "predictions_test.tsv", run.test, run.test_predictions)
    # Only the result outlives the stages.
    del run.train, run.features, run.pipeline, run.predictor


#: The stages of a full run, in order; ``_study`` says how a study of
#: several variants runs them.
STAGES = {
    "config": _check_config,
    "load": _load,
    "resources": _load_resources,
    "preprocess": _preprocess,
    "augment": _augment,
    "features": _featurize,
    "train": _train,
    "evaluate": _evaluate,
    "persist": _persist,
}


def _study(variants: list[tuple[ExperimentConfig, str | Path]], stages) -> list[_Run]:
    """Run the named ``stages``, a prefix of ``STAGES``, over every
    (config, out_dir) variant.

    The stages before ``features`` run once over all variants.  Then build
    after build, in the order of each build's first variant, the build is
    featurized and its variants are trained, evaluated and persisted one
    after another.  Failures are tagged with their stage.  One line of
    counts and one of stage wall times go to the log.
    """
    runs = [_Run(config, Path(out_dir)) for config, out_dir in variants]
    for run in runs:
        run.out_dir.mkdir(parents=True, exist_ok=True)
    counts = {"variants": len(runs)}
    times = dict.fromkeys(stages, 0.0)

    def timed(name: str, step, *args) -> None:
        start = time.perf_counter()
        with stage(name):
            step(*args)
        times[name] += time.perf_counter() - start

    for name in itertools.takewhile(lambda name: name != "features", stages):
        timed(name, STAGES[name], runs)
    if "features" in stages:
        builds: dict[str, list[_Run]] = {}
        for run in runs:
            builds.setdefault(run.key(*_FEATURE_INPUTS), []).append(run)
        counts.update(builds=len(builds), builds_reused=len(runs) - len(builds), problems=0)
        for build in builds.values():
            timed("features", STAGES["features"], build)
            with closing(STAGES["train"](build, counts)) as trained:
                for run in build:
                    timed("train", next, trained)
                    timed("evaluate", STAGES["evaluate"], run)
                    timed("persist", STAGES["persist"], run)
    logger.info("study: %s", " ".join(f"{name}={count}" for name, count in counts.items()))
    logger.info("study times: %s", " ".join(f"{name}={seconds:.3f}s" for name, seconds in times.items()))
    return runs


def _run_all(variants: list[tuple[ExperimentConfig, str | Path]]) -> list[_Run]:
    """A study of ``variants`` through every stage."""
    # Load the solver before the study allocates its data, as an import at
    # start-up would.  Loaded at the first solve instead, a bench train run
    # takes twice the minor page faults (about 92k against 46k).
    solver()
    return _study(variants, STAGES)


def run_experiment(config: ExperimentConfig, out_dir: str | Path) -> RunResult:
    """Execute the full pipeline and persist reports plus the model bundle."""
    [run] = _run_all([(config, out_dir)])
    return run.result


def _write(path: str | Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _write_report(out_dir: Path, split: str, report: ClassificationReport, matrix: ConfusionMatrix) -> None:
    _write(out_dir / f"report_{split}.txt", format_report(report, matrix))
    _write(out_dir / f"report_{split}.json", report_to_json(report, matrix))


def _write_predictions(path: str | Path, dataset: Dataset, labels) -> None:
    """``id<TAB>label`` rows in dataset order."""
    _write(path, "".join(f"{tweet.id}\t{label.value}\n" for tweet, label in zip(dataset.tweets, labels)))


def load_bundle(bundle_dir: str | Path) -> tuple[Ensemble, FeaturePipeline]:
    """Reload a persisted model plus its feature pipeline, checking layouts agree."""
    pipeline = load_pipeline(bundle_dir)
    predictor, layout = load_model(bundle_dir)
    if layout != pipeline.layout:
        raise ValueError(f"model layout {layout} does not match pipeline layout {pipeline.layout}")
    return predictor, pipeline


def eval_file(bundle_dir: str | Path, data_path: str | Path, split: str = "dev"):
    """Evaluate a persisted bundle on a labeled TSV.

    Bundle and scoring failures raise ``StageError``.  A data file that does
    not load raises the ``ValueError`` of ``load_tsv``; the CLI tags it.
    """
    with stage("bundle"):
        predictor, pipeline = load_bundle(bundle_dir)
    dataset = load_tsv(data_path, split=split)
    with stage("evaluate"):
        return evaluate(predictor, dataset, pipeline)


def predict_file(bundle_dir: str | Path, input_path: str | Path, output_path: str | Path) -> int:
    """Label a TSV with a persisted bundle; returns the instance count.

    Output rows are ``id<TAB>label`` in input order.  Errors are tagged as
    in ``eval_file``.
    """
    with stage("bundle"):
        predictor, pipeline = load_bundle(bundle_dir)
    dataset = load_tsv(input_path, split="test")
    with stage("predict"):
        labels = pipeline.label(predictor, dataset)
        _write_predictions(output_path, dataset, labels)
    return len(dataset)


#: Ablation -> the config keys it sets to remove one component.
_REMOVALS = {
    "no-translation": {"augment.translation": None},
    "no-crossover": {"augment.crossover": None},
    "no-BoW": {"features.bow": False},
    "no-BoC": {"features.boc": False},
    "no-BoW+BoC": {"features.bow": False, "features.boc": False},
    "no-embeddings": {"features.embedding": False},
    "no-bagging": {"model.bagging": None},
}
ABLATIONS = tuple(_REMOVALS)


class IncompatibleAblation(ValueError):
    pass


def _replace(config: ExperimentConfig, changes: dict) -> ExperimentConfig:
    """``config`` with each dotted key in ``changes`` set, loaded and validated anew."""
    raw = config.to_dict()
    for path, value in changes.items():
        *sections, key = path.split(".")
        section = raw
        for i, name in enumerate(sections):
            section = section[name]
            if section is None:
                raise ValueError(f"{path} cannot be set without a {'.'.join(sections[: i + 1])} section")
        section[key] = value
    return ExperimentConfig.from_dict(raw)


def ablation_variant(config: ExperimentConfig, name: str) -> ExperimentConfig:
    """The config with one component removed; raises when nothing is removable."""
    if name not in _REMOVALS:
        raise ValueError(f"unknown ablation {name!r}, expected one of {ABLATIONS}")
    for path, value in _REMOVALS[name].items():
        section, key = path.split(".")
        if getattr(getattr(config, section), key) == value:
            raise IncompatibleAblation(f"{path} is already disabled")
    try:
        return _replace(config, _REMOVALS[name])
    except ValueError as exc:
        raise IncompatibleAblation(str(exc)) from None


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
    variants = []
    for name in ("full-system", *ablations):
        try:
            variants.append((config if name == "full-system" else ablation_variant(config, name), out_dir / name))
        except IncompatibleAblation as exc:
            rows.append({"variant": name, "skipped": str(exc)})
            continue
        rows.append({"variant": name})
    runs = iter(_run_all(variants))
    for row in rows:
        if "skipped" not in row:
            report = next(runs).result.dev_report
            row.update(accuracy=report.accuracy, macro_f1=report.macro_f1)
    _write(out_dir / "ablation.json", dump(rows, ensure_ascii=True))
    _write(out_dir / "ablation.txt", format_ablation_table(rows))
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


#: Grid parameter -> the config key it sets.
_GRID_KEYS = {
    "C": "model.C",
    "bagging_n": "model.bagging.n_estimators",
    "class_weight": "model.class_weight",
    "crossover_factor": "augment.crossover.factor",
    "sif_a": "features.sif_a",
}
GRID_PARAMS = tuple(_GRID_KEYS)


def grid_search(config: ExperimentConfig, grid: dict[str, list], out_dir: str | Path) -> dict:
    """Exhaustive search over the given parameter lists, scored on dev.

    The best combination has the highest macro F1, breaking ties by accuracy
    and then by position in lexicographic parameter order (sorted names,
    ascending values), which is also the evaluation order.
    """
    if not isinstance(grid, dict) or not grid:
        raise ValueError("the grid must be a JSON object naming at least one parameter")
    columns: dict[str, list] = {}
    for name in sorted(grid):
        if name not in GRID_PARAMS:
            raise ValueError(f"unknown grid parameter {name!r}, expected one of {GRID_PARAMS}")
        if not isinstance(grid[name], list):
            raise ValueError(f"grid parameter {name!r} must be a list of values")
        if not grid[name]:
            raise ValueError(f"grid parameter {name!r} has no values")
        try:
            columns[name] = sorted(grid[name])
        except TypeError:
            raise ValueError(f"grid parameter {name!r} has values that cannot be ordered") from None
    if "sif_a" in grid and not config.features.embedding:
        raise ValueError("grid parameter sif_a requires the embedding block")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    combinations = [dict(zip(columns, values)) for values in itertools.product(*columns.values())]
    variants = [
        (_replace(config, {_GRID_KEYS[name]: value for name, value in params.items()}), out_dir / f"combo-{i:03d}")
        for i, params in enumerate(combinations)
    ]
    runs = _run_all(variants)
    rows = [
        {
            "params": params,
            "macro_f1": run.result.dev_report.macro_f1,
            "accuracy": run.result.dev_report.accuracy,
            "out_dir": run.out_dir.name,
        }
        for params, run in zip(combinations, runs)
    ]
    best = max(range(len(rows)), key=lambda i: (rows[i]["macro_f1"], rows[i]["accuracy"], -i))
    summary = {"best": rows[best], "rows": rows}
    _write(out_dir / "grid.json", dump(summary, ensure_ascii=True))
    _write(out_dir / "best_config.json", dump(runs[best].config.to_dict(), ensure_ascii=True))
    return summary


def preprocess_only(config: ExperimentConfig, out_dir: str | Path) -> dict[str, Path]:
    """Write basic and semantic preprocessed views of every configured split."""
    [run] = _study([(config, out_dir)], ("load", "resources"))
    outputs: dict[str, Path] = {}
    with stage("preprocess"):
        for split, dataset in (("train", run.train), ("dev", run.dev), ("test", run.test)):
            if dataset is None:
                continue
            for view, semantic in (("basic", False), ("semantic", True)):
                path = run.out_dir / f"{split}_{view}.tsv"
                save_tsv(_preprocessed(dataset, run.preprocess_config, semantic), path)
                outputs[f"{split}_{view}"] = path
    return outputs


def augment_only(config: ExperimentConfig, out_dir: str | Path) -> Path:
    """Run basic preprocessing plus the configured augmentations on train."""
    [run] = _study([(config, out_dir)], ("load", "resources", "preprocess", "augment"))
    return run.out_dir / "train_augmented.tsv"


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
