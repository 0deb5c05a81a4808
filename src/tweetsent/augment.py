"""Training-data augmentation: instance crossover and two-way translation.

Crossover splices the first half of one tweet onto the second half of
another tweet with the same label, multiplying each class by a constant
factor so label proportions stay identical.  Two-way translation round-trips
a tweet through a pivot language and keeps the paraphrase as an extra
instance.  Both operate on training data only; evaluation splits must never
pass through here.
"""

from __future__ import annotations

import json
import logging
import random
import re
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from .corpus import LABELS, Dataset, Tweet

logger = logging.getLogger(__name__)

#: Id suffix markers for augmented instances: ``.cx<counter>`` and ``.bt-<pivot>``.
CROSSOVER_MARKER = ".cx"
TRANSLATION_MARKER = ".bt-"
#: What follows the first parent's id in an augmented id: another parent
#: (``a+b.cx3``), or a marker with its row number or its non-empty pivot
#: (``a.cx0``, ``a.bt-en``).
_AFTER_PARENT = re.compile(rf"\+|{re.escape(CROSSOVER_MARKER)}[0-9]|{re.escape(TRANSLATION_MARKER)}.", re.DOTALL)


@dataclass(frozen=True)
class CrossoverConfig:
    factor: int
    seed: int

    def __post_init__(self) -> None:
        if self.factor < 1:
            raise ValueError("crossover factor must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def split_halves(tokens: Sequence[str]) -> tuple[list[str], list[str]]:
    """Split a token sequence in half; odd lengths round the first half up."""
    cut = (len(tokens) + 1) // 2
    return list(tokens[:cut]), list(tokens[cut:])


def crossover_pair(tokens_a: Sequence[str], tokens_b: Sequence[str]) -> list[str]:
    """First half of one tweet followed by the second half of another."""
    first, _ = split_halves(tokens_a)
    _, second = split_halves(tokens_b)
    return first + second


def crossover_augment(dataset: Dataset, config: CrossoverConfig) -> Dataset:
    """Grow every class by ``factor`` through same-label crossover.

    Parents (i, j), i != j, are drawn uniformly with replacement from the
    class' instances using the seeded generator, so the output is stable for
    a given (dataset, config).  Texts are expected to be basic-preprocessed
    tokens joined with single spaces.  A class with a single instance cannot
    be crossed and is padded by duplication, with a warning.
    """
    if config.factor == 1:
        return dataset
    rng = random.Random(config.seed)
    out: list[Tweet] = list(dataset.tweets)
    by_label: dict = {label: [] for label in LABELS}
    for tweet in dataset.tweets:
        if tweet.label is None:
            raise ValueError(f"cannot crossover-augment unlabeled tweet {tweet.id!r}")
        by_label[tweet.label].append(tweet)
    counter = 0
    for label in LABELS:
        members = by_label[label]
        size = len(members)
        if size == 0:
            continue
        wanted = (config.factor - 1) * size
        if size == 1:
            logger.warning(
                "class %s has a single instance; padding by duplication instead of crossover",
                label.value,
            )
            single = members[0]
            for _ in range(wanted):
                out.append(Tweet(f"{single.id}{CROSSOVER_MARKER}{counter}", single.text, label))
                counter += 1
            continue
        for _ in range(wanted):
            i = rng.randrange(size)
            j = rng.randrange(size - 1)
            if j >= i:
                j += 1
            parent_a, parent_b = members[i], members[j]
            text = " ".join(crossover_pair(parent_a.text.split(), parent_b.text.split()))
            out.append(
                Tweet(f"{parent_a.id}+{parent_b.id}{CROSSOVER_MARKER}{counter}", text, label)
            )
            counter += 1
    return dataset.replace_tweets(out)


class TranslationError(RuntimeError):
    pass


class TranslatorClient:
    """Interface for text translation backends."""

    def translate(self, text: str, src_lang: str, dst_lang: str) -> str:
        raise NotImplementedError


class RemoteTranslator(TranslatorClient):
    """Placeholder for a hosted translation API.

    Batch experiments run from cached translations, so the remote path is an
    integration point rather than a dependency; wire an HTTP client here.
    """

    def translate(self, text: str, src_lang: str, dst_lang: str) -> str:
        raise NotImplementedError("no remote translation backend is configured")


class FixtureTranslator(TranslatorClient):
    """Offline lookup-table translator for tests and demos.

    Loaded from a JSON list of ``{src_lang, dst_lang, entries}`` tables.
    Texts missing from a table translate to themselves.
    """

    def __init__(self, tables: dict[tuple[str, str], dict[str, str]]):
        self.tables = tables

    @classmethod
    def from_json(cls, path: str | Path) -> "FixtureTranslator":
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
        if not isinstance(raw, list):
            raise ValueError(f"{path}: expected a JSON list of translation tables")
        tables: dict[tuple[str, str], dict[str, str]] = {}
        for i, table in enumerate(raw):
            try:
                key = (table["src_lang"], table["dst_lang"])
                entries = table["entries"]
            except (TypeError, KeyError) as exc:
                raise ValueError(f"{path}: table {i} is missing {exc}") from None
            if not all(isinstance(lang, str) for lang in key):
                raise ValueError(f"{path}: table {i}: src_lang and dst_lang must be strings")
            if not isinstance(entries, dict) or not all(isinstance(text, str) for text in entries.values()):
                raise ValueError(f"{path}: table {i}: entries must be an object of string to string")
            tables.setdefault(key, {}).update(entries)
        return cls(tables)

    def translate(self, text: str, src_lang: str, dst_lang: str) -> str:
        table = self.tables.get((src_lang, dst_lang), {})
        return table.get(text, text)


@dataclass(frozen=True)
class TranslationConfig:
    pivots: tuple[str, ...]
    source: str = "es"
    cache_path: str | Path = "translations.cache.jsonl"

    def __post_init__(self) -> None:
        if not self.pivots:
            raise ValueError("need at least one pivot language")
        if "" in self.pivots:
            raise ValueError("a pivot language cannot be empty")
        if len(set(self.pivots)) != len(self.pivots):
            raise ValueError("pivot languages must be distinct")
        if self.source in self.pivots:
            raise ValueError("the source language cannot be its own pivot")


class TranslationCache:
    """Append-only JSON-lines cache of round-trip translations.

    Each line is ``{"text": ..., "pivot": ..., "result": ...}``, three
    strings, and a result holds no tab or newline, as no tweet does.  Entries
    are flushed as soon as they are computed, so an aborted run keeps
    everything translated so far.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._entries: dict[tuple[str, str], str] = {}
        if self.path.exists():
            with open(self.path, encoding="utf-8") as handle:
                for lineno, line in enumerate(handle, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                        text, pivot, result = record["text"], record["pivot"], record["result"]
                    except (json.JSONDecodeError, KeyError, TypeError) as exc:
                        raise ValueError(f"{self.path}:{lineno}: malformed cache line: {exc}") from None
                    if not all(isinstance(field, str) for field in (text, pivot, result)):
                        raise ValueError(
                            f"{self.path}:{lineno}: malformed cache line: text, pivot and result must be strings"
                        )
                    if "\t" in result or "\n" in result:
                        raise ValueError(
                            f"{self.path}:{lineno}: malformed cache line: the result holds a tab or a newline"
                        )
                    self._entries[(text, pivot)] = result

    def get(self, text: str, pivot: str) -> str | None:
        return self._entries.get((text, pivot))

    def put(self, text: str, pivot: str, result: str) -> None:
        self._entries[(text, pivot)] = result
        with open(self.path, "a", encoding="utf-8", newline="\n") as handle:
            handle.write(json.dumps({"text": text, "pivot": pivot, "result": result}, ensure_ascii=False))
            handle.write("\n")


def two_way_translate(
    client: TranslatorClient,
    text: str,
    pivot: str,
    config: TranslationConfig,
    cache: TranslationCache | None = None,
) -> str:
    """Translate source -> pivot -> source, consulting the cache first.

    A cache hit answers without any client call.
    """
    if cache is None:
        cache = TranslationCache(config.cache_path)
    cached = cache.get(text, pivot)
    if cached is not None:
        return cached
    forward = client.translate(text, config.source, pivot)
    back = client.translate(forward, pivot, config.source)
    cache.put(text, pivot, back)
    return back


def translation_augment(dataset: Dataset, client: TranslatorClient, config: TranslationConfig) -> Dataset:
    """Add one round-trip paraphrase per (tweet, pivot), keeping the label.

    The output holds the originals followed by the paraphrases in input
    order, ``(1 + len(pivots)) * len(dataset)`` instances in total.
    Identity paraphrases are kept; dropping duplicates would skew the label
    proportions.
    """
    for tweet in dataset.tweets:
        if tweet.label is None:
            raise ValueError(f"cannot translation-augment unlabeled tweet {tweet.id!r}")
    cache = TranslationCache(config.cache_path)
    out: list[Tweet] = list(dataset.tweets)
    for tweet in dataset.tweets:
        for pivot in config.pivots:
            try:
                paraphrase = two_way_translate(client, tweet.text, pivot, config, cache)
            except Exception as exc:
                raise TranslationError(
                    f"translation failed for tweet {tweet.id!r} via pivot {pivot!r}: {exc}"
                ) from exc
            out.append(Tweet(f"{tweet.id}{TRANSLATION_MARKER}{pivot}", paraphrase, tweet.label))
    return dataset.replace_tweets(out)


def assert_unaugmented(dataset: Dataset, train: Dataset) -> None:
    """Guard for evaluation splits: no tweet is one that augmenting
    ``train`` makes.

    An augmented id starts with its first parent's id, a training id, and
    then ``+`` or a marker; ids survive a TSV round trip, so augmentation
    output read back as a dev split is refused.  An id that only ends like
    an augmented one (``dv0001.cx2``) is a corpus id like any other.
    """
    train_ids = {tweet.id for tweet in train.tweets}
    for tweet in dataset.tweets:
        if any(tweet.id[: m.start()] in train_ids for m in _AFTER_PARENT.finditer(tweet.id)):
            raise AssertionError(
                f"augmented instance {tweet.id!r} found in {dataset.split} split "
                "(augmentation must stay within training data)"
            )
