"""Evaluation: confusion matrices and the tournament metric conventions.

All ratios are computed with exact rational arithmetic and only rounded
(half up, two decimals) for display.  The macro F1 here is the harmonic mean
of macro precision and macro recall, NOT the average of per-class F1 scores;
the two disagree and only the former matches the reported results.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

from .corpus import LABELS, Dataset, Label


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with rows = gold label, columns = predicted label.

    Rows and columns always follow the canonical class order, whether or not
    every class occurs in the data.
    """

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.counts) != len(LABELS) or any(len(row) != len(LABELS) for row in self.counts):
            raise ValueError(f"confusion matrix must be {len(LABELS)}x{len(LABELS)}")
        for row in self.counts:
            for cell in row:
                if cell < 0:
                    raise ValueError("confusion matrix counts must be non-negative")

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    @property
    def trace(self) -> int:
        return sum(self.counts[i][i] for i in range(len(LABELS)))

    def row_sum(self, label: Label) -> int:
        return sum(self.counts[LABELS.index(label)])

    def column_sum(self, label: Label) -> int:
        j = LABELS.index(label)
        return sum(row[j] for row in self.counts)


def confusion(golds: Sequence[Label], predictions: Sequence[Label]) -> ConfusionMatrix:
    if len(golds) != len(predictions):
        raise ValueError(f"{len(golds)} gold labels vs {len(predictions)} predictions")
    counts = [[0] * len(LABELS) for _ in LABELS]
    for gold, predicted in zip(golds, predictions):
        counts[LABELS.index(gold)][LABELS.index(predicted)] += 1
    return ConfusionMatrix(tuple(tuple(row) for row in counts))


def round_percent(value: Fraction) -> float:
    """Render a ratio as a percentage with two decimals, rounding halves up."""
    scaled = Decimal(value.numerator * 100) / Decimal(value.denominator)
    return float(scaled.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _harmonic(a: Fraction, b: Fraction) -> Fraction:
    if a + b == 0:
        return Fraction(0)
    return 2 * a * b / (a + b)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class ClassificationReport:
    per_class: dict[Label, ClassMetrics]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    accuracy: float


def report_from_confusion(matrix: ConfusionMatrix) -> ClassificationReport:
    """Precision/recall/F1 per class plus macro averages and accuracy.

    Undefined ratios (empty row or column) count as zero.  F1 values are built
    from the unrounded ratios; percentages are rounded only at the end.
    """
    if matrix.total == 0:
        raise ValueError("cannot report on an empty confusion matrix")
    precisions: dict[Label, Fraction] = {}
    recalls: dict[Label, Fraction] = {}
    per_class: dict[Label, ClassMetrics] = {}
    for i, label in enumerate(LABELS):
        hit = matrix.counts[i][i]
        column = matrix.column_sum(label)
        row = matrix.row_sum(label)
        precision = Fraction(hit, column) if column else Fraction(0)
        recall = Fraction(hit, row) if row else Fraction(0)
        precisions[label] = precision
        recalls[label] = recall
        per_class[label] = ClassMetrics(
            precision=round_percent(precision),
            recall=round_percent(recall),
            f1=round_percent(_harmonic(precision, recall)),
        )
    macro_precision = sum(precisions.values(), Fraction(0)) / len(LABELS)
    macro_recall = sum(recalls.values(), Fraction(0)) / len(LABELS)
    macro_f1 = _harmonic(macro_precision, macro_recall)
    accuracy = Fraction(matrix.trace, matrix.total)
    return ClassificationReport(
        per_class=per_class,
        macro_precision=round_percent(macro_precision),
        macro_recall=round_percent(macro_recall),
        macro_f1=round_percent(macro_f1),
        accuracy=round_percent(accuracy),
    )


def format_report(report: ClassificationReport, matrix: ConfusionMatrix) -> str:
    """Aligned plain-text rendering of the report and confusion matrix."""
    lines = []
    lines.append(f"{'':<10}{'Prec.':>8}{'Rec.':>8}{'F1':>8}")
    for label in LABELS:
        metrics = report.per_class[label]
        lines.append(
            f"{label.value:<10}{metrics.precision:>8.2f}{metrics.recall:>8.2f}{metrics.f1:>8.2f}"
        )
    lines.append(
        f"{'macro':<10}{report.macro_precision:>8.2f}{report.macro_recall:>8.2f}{report.macro_f1:>8.2f}"
    )
    lines.append(f"accuracy  {report.accuracy:.2f}")
    lines.append("")
    lines.append("confusion matrix (rows = gold, columns = predicted)")
    header = f"{'':<6}" + "".join(f"{label.value:>6}" for label in LABELS)
    lines.append(header)
    for i, label in enumerate(LABELS):
        lines.append(f"{label.value:<6}" + "".join(f"{cell:>6}" for cell in matrix.counts[i]))
    lines.append("")
    return "\n".join(lines)


def report_to_dict(report: ClassificationReport, matrix: ConfusionMatrix) -> dict:
    return {
        "per_class": {
            label.value: {
                "precision": report.per_class[label].precision,
                "recall": report.per_class[label].recall,
                "f1": report.per_class[label].f1,
            }
            for label in LABELS
        },
        "macro": {
            "precision": report.macro_precision,
            "recall": report.macro_recall,
            "f1": report.macro_f1,
        },
        "accuracy": report.accuracy,
        "confusion": [list(row) for row in matrix.counts],
        "labels": [label.value for label in LABELS],
    }


def report_to_json(report: ClassificationReport, matrix: ConfusionMatrix) -> str:
    return json.dumps(report_to_dict(report, matrix), indent=2, sort_keys=True) + "\n"


def score(dataset: Dataset, predictions: Sequence[Label]) -> tuple[ClassificationReport, ConfusionMatrix]:
    """Score predictions, in dataset order, against a labeled dataset."""
    golds: list[Label] = []
    for tweet in dataset.tweets:
        if tweet.label is None:
            raise ValueError(f"cannot evaluate on unlabeled tweet {tweet.id!r}")
        golds.append(tweet.label)
    matrix = confusion(golds, predictions)
    return report_from_confusion(matrix), matrix


def evaluate(predictor, dataset: Dataset, features) -> tuple[ClassificationReport, ConfusionMatrix]:
    """Score a predictor on a labeled dataset.

    ``features`` is a fitted pipeline exposing ``transform(dataset)``;
    ``predictor`` is a ``model.Ensemble``.
    """
    from .model import predict_many

    return score(dataset, predict_many(predictor, features.transform(dataset)))
