"""Spans around the public functions of each tweetsent module.

The traced benchmark run installs a wrapper on every binding in ``SPANS``
before it calls the CLI.  Each binding is named the way its caller looks it
up (``tweetsent.pipeline:tokenize`` is the name ``FeaturePipeline._views``
calls), so every call is counted exactly once.  Spans stay in memory as
``(name, start, end, parent, run)`` rows and are written out when the run
ends; ``layer_metrics`` turns them into self times, call counts and the
work counters collected beside them.

A binding that no longer exists is recorded as missing and skipped, and a
metric whose spans are all missing is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

#: Span name -> bindings (``module:attribute`` or ``module:Owner.attribute``).
SPANS: dict[str, tuple[str, ...]] = {
    "cli.main": ("tweetsent.cli:main",),
    "experiment.run_experiment": ("tweetsent.cli:run_experiment", "tweetsent.experiment:run_experiment"),
    "experiment.load_bundle": ("tweetsent.experiment:load_bundle",),
    "corpus.load_tsv": ("tweetsent.experiment:load_tsv",),
    "corpus.save_tsv": ("tweetsent.experiment:save_tsv",),
    "preprocess.tokenize": ("tweetsent.experiment:tokenize", "tweetsent.pipeline:tokenize"),
    "preprocess.basic_preprocess": (
        "tweetsent.experiment:basic_preprocess",
        "tweetsent.pipeline:basic_preprocess",
    ),
    "preprocess.semantic_preprocess": (
        "tweetsent.experiment:semantic_preprocess",
        "tweetsent.pipeline:semantic_preprocess",
    ),
    "augment.translation_augment": ("tweetsent.experiment:translation_augment",),
    "augment.cache_get": ("tweetsent.augment:TranslationCache.get",),
    "augment.client_translate": (
        "tweetsent.augment:FixtureTranslator.translate",
        "tweetsent.augment:RemoteTranslator.translate",
    ),
    "augment.crossover_augment": ("tweetsent.experiment:crossover_augment",),
    "pipeline.fit": ("tweetsent.pipeline:FeaturePipeline.fit",),
    "pipeline.transform": ("tweetsent.pipeline:FeaturePipeline.transform",),
    "vectorize.fit_vocabulary": ("tweetsent.vectorize:fit_vocabulary",),
    "vectorize.extract_word_ngrams": ("tweetsent.vectorize:extract_word_ngrams",),
    "vectorize.extract_char_ngrams": ("tweetsent.vectorize:extract_char_ngrams",),
    "vectorize.transform": ("tweetsent.vectorize:transform",),
    "vectorize.concat_features": ("tweetsent.pipeline:concat_features",),
    "vectorize.stack_vectors": ("tweetsent.pipeline:stack_vectors",),
    "embeddings.sif_embed": ("tweetsent.pipeline:sif_embed",),
    "embeddings.load_embeddings": (
        "tweetsent.experiment:load_embeddings",
        "tweetsent.embeddings:load_embeddings",
    ),
    "embeddings.load_unigram_counts": (
        "tweetsent.experiment:load_unigram_counts",
        "tweetsent.embeddings:load_unigram_counts",
    ),
    "model.train_bagging": ("tweetsent.experiment:train_bagging",),
    "model.train_lr": ("tweetsent.experiment:train_lr", "tweetsent.model:train_lr"),
    # The solver as tweetsent.model sees it: scipy itself stays untouched.
    "model.minimize": ("tweetsent.model:optimize.minimize",),
    "model.predict_many": ("tweetsent.experiment:predict_many", "tweetsent.model:predict_many"),
    "model.save_model": ("tweetsent.experiment:save_model",),
    "model.load_model": ("tweetsent.experiment:load_model",),
    "metrics.evaluate": ("tweetsent.experiment:evaluate",),
}


def _count_solver(counters, args, result) -> None:
    counters["solver_nit"] += int(result.nit)
    counters["solver_nfev"] += int(result.nfev)
    counters["solver_unconverged"] += int(not result.success)


def _count_transform(counters, args, result) -> None:
    counters["pipeline_rows"] += result.shape[0]
    counters["pipeline_nnz"] += result.nnz
    counters["pipeline_dim"] = max(counters["pipeline_dim"], result.shape[1])


def _count_fit(counters, args, result) -> None:
    pipeline = args[0]
    for block in ("bow", "boc"):
        vocabulary = getattr(pipeline, f"{block}_vocabulary", None)
        if vocabulary is not None:
            counters[f"{block}_terms"] += len(vocabulary)


def _count_rows(key: str):
    def count(counters, args, result) -> None:
        counters[key] += len(result)

    return count


def _count_cache_hit(counters, args, result) -> None:
    counters["cache_hits"] += result is not None


#: Work counters taken from a span's arguments and result, outside the span.
COUNTERS = {
    "model.minimize": _count_solver,
    "pipeline.transform": _count_transform,
    "pipeline.fit": _count_fit,
    "corpus.load_tsv": _count_rows("rows_read"),
    "augment.translation_augment": _count_rows("augment_rows_out"),
    "augment.crossover_augment": _count_rows("augment_rows_out"),
    "augment.cache_get": _count_cache_hit,
}


class _ModuleView(types.ModuleType):
    """A module seen through one importer: overrides set here stay local."""

    def __init__(self, module: types.ModuleType):
        super().__init__(module.__name__, module.__doc__)
        self._module = module

    def __getattr__(self, name: str):
        return getattr(self._module, name)


class Tracer:
    """Records spans for every call through an installed binding."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple | None] = []
        self.counters: Counter = Counter()
        self.tokenized: set[str] = set()
        self.installed: list[str] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, function):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        run_id = self.run_id
        counters = self.counters
        count = COUNTERS.get(name)
        tokenized = self.tokenized if name == "preprocess.tokenize" else None

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, run_id)
            if count is not None:
                count(counters, args, result)
            if tokenized is not None:
                tokenized.add(args[0])
            return result

        traced.__wrapped_by_bench__ = True
        return traced

    def install(self, spans: dict[str, tuple[str, ...]] = SPANS) -> None:
        """Wrap every binding that exists; record the ones that do not."""
        for name, bindings in spans.items():
            for binding in bindings:
                try:
                    holder, attribute = _resolve(binding)
                    original = getattr(holder, attribute)
                except (ImportError, AttributeError):
                    self.missing.append(binding)
                    continue
                if getattr(original, "__wrapped_by_bench__", False):
                    continue
                setattr(holder, attribute, self.wrap(name, original))
                self.installed.append(binding)

    def write(self, path: str | Path) -> None:
        counters = dict(self.counters)
        counters["tokenize_distinct_texts"] = len(self.tokenized)
        record = {
            "run": self.run_id,
            "installed": self.installed,
            "missing": self.missing,
            "counters": counters,
            "spans": [list(span) for span in self.spans if span is not None],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


def _resolve(binding: str):
    """(object holding the binding, attribute name) for ``module:a.b``."""
    module_name, _, path = binding.partition(":")
    holder = importlib.import_module(module_name)
    *owners, attribute = path.split(".")
    for owner in owners:
        inner = getattr(holder, owner)
        if isinstance(inner, types.ModuleType) and not inner.__name__.startswith("tweetsent"):
            if not isinstance(inner, _ModuleView):
                inner = _ModuleView(inner)
                setattr(holder, owner, inner)
        holder = inner
    return holder, attribute


def self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float], Counter]:
    """Per span name: summed self time, summed inclusive time, call count.

    A span's self time is its duration minus that of its direct children;
    spans nest strictly because the program runs on one thread.
    """
    durations = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for index, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[index]
    own: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for index, (name, _, _, _, _) in enumerate(spans):
        own[name] += durations[index] - child_time[index]
        total[name] += durations[index]
        calls[name] += 1
    return own, total, calls


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# Metric builders: (span names the metric needs, value function).  A value
# function receives (self time, inclusive time, calls, counters).
def _self_time(*spans: str):
    return list(spans), lambda own, total, calls, counters: sum(own[name] for name in spans)


def _calls(span: str):
    return [span], lambda own, total, calls, counters: calls[span]


def _counter(key: str, *spans: str):
    return list(spans), lambda own, total, calls, counters: counters[key]


#: Per-layer metric -> (unit, span names it needs, value function).
LAYER_METRICS = {
    "model.bagging_s": ("s", *_self_time("model.train_bagging")),
    "model.train_lr_s": ("s", *_self_time("model.train_lr")),
    "model.solver_s": ("s", *_self_time("model.minimize")),
    "model.train_lr_calls": ("count", *_calls("model.train_lr")),
    "model.solver_calls": ("count", *_calls("model.minimize")),
    "model.solver_nit": ("count", *_counter("solver_nit", "model.minimize")),
    "model.solver_nfev": ("count", *_counter("solver_nfev", "model.minimize")),
    "model.solver_unconverged": ("count", *_counter("solver_unconverged", "model.minimize")),
    "model.predict_s": ("s", *_self_time("model.predict_many")),
    "model.save_s": ("s", *_self_time("model.save_model")),
    "model.load_s": ("s", *_self_time("model.load_model")),
    "experiment.load_bundle_s": ("s", *_self_time("experiment.load_bundle")),
    "embeddings.load_s": ("s", *_self_time("embeddings.load_embeddings", "embeddings.load_unigram_counts")),
    "pipeline.transform_s": ("s", *_self_time("pipeline.transform")),
    "pipeline.transform_calls": ("count", *_calls("pipeline.transform")),
    "pipeline.rows": ("count", *_counter("pipeline_rows", "pipeline.transform")),
    "pipeline.nnz": ("count", *_counter("pipeline_nnz", "pipeline.transform")),
    "pipeline.dim": ("count", *_counter("pipeline_dim", "pipeline.transform")),
    # Rows over the inclusive transform time: the throughput of the whole stage.
    "pipeline.rows_per_s": (
        "rows/s",
        ["pipeline.transform"],
        lambda own, total, calls, counters: _ratio(counters["pipeline_rows"], total["pipeline.transform"]),
    ),
    "pipeline.fit_s": ("s", *_self_time("pipeline.fit")),
    "pipeline.fit_calls": ("count", *_calls("pipeline.fit")),
    "vectorize.fit_vocabulary_s": ("s", *_self_time("vectorize.fit_vocabulary")),
    "vectorize.bow_terms": ("count", *_counter("bow_terms", "pipeline.fit")),
    "vectorize.boc_terms": ("count", *_counter("boc_terms", "pipeline.fit")),
    "vectorize.word_ngram_s": ("s", *_self_time("vectorize.extract_word_ngrams")),
    "vectorize.char_ngram_s": ("s", *_self_time("vectorize.extract_char_ngrams")),
    "vectorize.to_csr_s": (
        "s", *_self_time("vectorize.transform", "vectorize.concat_features", "vectorize.stack_vectors")
    ),
    "preprocess.tokenize_s": ("s", *_self_time("preprocess.tokenize")),
    "preprocess.basic_s": ("s", *_self_time("preprocess.basic_preprocess")),
    "preprocess.semantic_s": ("s", *_self_time("preprocess.semantic_preprocess")),
    "preprocess.tokenize_calls": ("count", *_calls("preprocess.tokenize")),
    # Tokenize calls per distinct text tokenized: 1 means no text is redone.
    "preprocess.tokenize_per_row": (
        "ratio",
        ["preprocess.tokenize"],
        lambda own, total, calls, counters: _ratio(
            calls["preprocess.tokenize"], counters["tokenize_distinct_texts"]
        ),
    ),
    "embeddings.sif_s": ("s", *_self_time("embeddings.sif_embed")),
    "embeddings.sif_calls": ("count", *_calls("embeddings.sif_embed")),
    "augment.translation_s": (
        "s", *_self_time("augment.translation_augment", "augment.cache_get", "augment.client_translate")
    ),
    "augment.crossover_s": ("s", *_self_time("augment.crossover_augment")),
    "augment.rows_out": (
        "count", *_counter("augment_rows_out", "augment.translation_augment", "augment.crossover_augment")
    ),
    "augment.client_calls": ("count", *_calls("augment.client_translate")),
    # Cache hits over lookups; each lookup is one (tweet, pivot) pair.
    "augment.cache_hit_ratio": (
        "ratio",
        ["augment.cache_get"],
        lambda own, total, calls, counters: _ratio(counters["cache_hits"], calls["augment.cache_get"]),
    ),
    "corpus.load_tsv_s": ("s", *_self_time("corpus.load_tsv")),
    "corpus.save_tsv_s": ("s", *_self_time("corpus.save_tsv")),
    "corpus.rows_read": ("count", *_counter("rows_read", "corpus.load_tsv")),
    "metrics.evaluate_s": ("s", *_self_time("metrics.evaluate")),
    "experiment.runs": ("count", *_calls("experiment.run_experiment")),
    "experiment.run_s": ("s", *_self_time("experiment.run_experiment")),
    "cli.main_s": ("s", *_self_time("cli.main")),
}


def layer_metrics(record: dict) -> dict[str, dict]:
    """``{metric: {"value", "unit"}}`` from a written trace; absent metrics
    (every span they need is missing) get ``value`` None and ``absent``."""
    own, total, calls = self_times(record["spans"])
    counters = Counter(record["counters"])
    missing_spans = {
        name
        for name, bindings in SPANS.items()
        if all(binding in record["missing"] for binding in bindings)
    }
    out: dict[str, dict] = {}
    for metric, (unit, needs, value) in LAYER_METRICS.items():
        if all(name in missing_spans for name in needs):
            out[metric] = {"value": None, "unit": unit, "absent": True}
        else:
            out[metric] = {"value": value(own, total, calls, counters), "unit": unit}
    out["trace.spans"] = {"value": len(record["spans"]), "unit": "count"}
    return out
