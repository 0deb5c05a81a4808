"""Labeled tweet collections and the TSV interchange format.

A corpus file is UTF-8 text, one tweet per line: ``id<TAB>text`` or
``id<TAB>text<TAB>label``.  There is no header and no quoting; tabs and
newlines cannot appear inside the text itself.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path


class Label(enum.Enum):
    """The four polarity classes, declared in canonical order.

    Every matrix, report and tie break in the package orders classes
    P, N, NEU, NONE.
    """

    P = "P"
    N = "N"
    NEU = "NEU"
    NONE = "NONE"

    @classmethod
    def parse(cls, raw: str) -> "Label":
        try:
            return cls[raw.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown label {raw!r}") from None


#: Canonical class order used for all row/column orderings and tie breaks.
LABELS: tuple[Label, ...] = tuple(Label)

SPLITS = ("train", "dev", "test")


@dataclass(frozen=True)
class Tweet:
    """One instance: a stable id, the text, and an optional gold label."""

    id: str
    text: str
    label: Label | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("tweet id must be non-empty")
        if "\t" in self.text or "\n" in self.text:
            raise ValueError(f"tweet {self.id}: tabs/newlines inside text are not supported")


@dataclass(frozen=True)
class Dataset:
    """A named split of tweets with ids unique within the dataset."""

    name: str
    split: str
    tweets: tuple[Tweet, ...]

    def __post_init__(self) -> None:
        if self.split not in SPLITS:
            raise ValueError(f"unknown split {self.split!r}, expected one of {SPLITS}")
        seen: set[str] = set()
        for tweet in self.tweets:
            if tweet.id in seen:
                raise ValueError(f"duplicate tweet id {tweet.id!r} in dataset {self.name!r}")
            seen.add(tweet.id)
            if tweet.label is None and self.split != "test":
                raise ValueError(
                    f"unlabeled tweet {tweet.id!r} in {self.split} split; "
                    "missing labels are only permitted in test data"
                )

    def __len__(self) -> int:
        return len(self.tweets)

    def is_labeled(self) -> bool:
        return all(t.label is not None for t in self.tweets)

    def replace_tweets(self, tweets: Iterable[Tweet]) -> "Dataset":
        return Dataset(self.name, self.split, tuple(tweets))


def load_tsv(path: str | Path, split: str, name: str | None = None) -> Dataset:
    """Read a corpus TSV.  Labels are parsed case-insensitively.

    The label column is required outside the test split; malformed lines are
    rejected with their line number.
    """
    path = Path(path)
    if name is None:
        name = path.stem
    tweets: list[Tweet] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) == 2:
                tweet_id, text = fields
                label = None
            elif len(fields) == 3:
                tweet_id, text, raw_label = fields
                try:
                    label = Label.parse(raw_label)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
            else:
                raise ValueError(
                    f"{path}:{lineno}: expected 2 or 3 tab-separated fields, got {len(fields)}"
                )
            if label is None and split != "test":
                raise ValueError(f"{path}:{lineno}: missing label in {split} split")
            if not tweet_id:
                raise ValueError(f"{path}:{lineno}: empty tweet id")
            tweets.append(Tweet(tweet_id, text, label))
    return Dataset(name=name, split=split, tweets=tuple(tweets))


def save_tsv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset back to the TSV format, one LF-terminated line per tweet."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for tweet in dataset.tweets:
            if tweet.label is None:
                handle.write(f"{tweet.id}\t{tweet.text}\n")
            else:
                handle.write(f"{tweet.id}\t{tweet.text}\t{tweet.label.value}\n")


def merge(datasets: Sequence[Dataset]) -> Dataset:
    """Concatenate datasets, prefixing ids with the source dataset name."""
    if not datasets:
        raise ValueError("merge needs at least one dataset")
    names = [ds.name for ds in datasets]
    if len(set(names)) != len(names):
        raise ValueError(f"dataset names must be pairwise distinct, got {names}")
    splits = {ds.split for ds in datasets}
    if len(splits) > 1:
        raise ValueError(f"refusing to merge datasets from different splits: {sorted(splits)}")
    tweets: list[Tweet] = []
    for ds in datasets:
        for tweet in ds.tweets:
            tweets.append(Tweet(f"{ds.name}:{tweet.id}", tweet.text, tweet.label))
    return Dataset(name="+".join(names), split=datasets[0].split, tweets=tuple(tweets))
