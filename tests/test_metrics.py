import json
from fractions import Fraction

import numpy as np
import pytest

from tweetsent.corpus import LABELS, Dataset, Label, Tweet
from tweetsent.metrics import (
    ClassificationReport,
    ConfusionMatrix,
    confusion,
    evaluate,
    format_report,
    report_from_confusion,
    report_to_dict,
    report_to_json,
    round_percent,
)
from tweetsent.model import Ensemble, LinearModel, LrConfig, predict_many

# Two full published-style reports, frozen as regression oracles.  Rows and
# columns follow the canonical order P, N, NEU, NONE.
MATRIX_A = ConfusionMatrix(
    (
        (114, 36, 5, 13),
        (28, 215, 8, 15),
        (29, 43, 4, 7),
        (17, 23, 2, 22),
    )
)
EXPECTED_A = {
    Label.P: (60.64, 67.86, 64.04),
    Label.N: (67.82, 80.83, 73.76),
    Label.NEU: (21.05, 4.82, 7.84),
    Label.NONE: (38.60, 34.38, 36.36),
}
MACRO_A = (47.03, 46.97, 47.00)
ACCURACY_A = 61.10

MATRIX_B = ConfusionMatrix(
    (
        (122, 42, 1, 3),
        (27, 233, 1, 5),
        (29, 49, 2, 3),
        (20, 27, 0, 17),
    )
)
EXPECTED_B = {
    Label.P: (61.62, 72.62, 66.67),
    Label.N: (66.38, 87.59, 75.53),
    Label.NEU: (50.00, 2.41, 4.60),
    Label.NONE: (60.71, 26.56, 36.96),
}
MACRO_B = (59.68, 47.30, 52.77)
ACCURACY_B = 64.37


class TestConfusionMatrix:
    def test_validation_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(((1, 2), (3, 4)))

    def test_rejects_negative_counts(self):
        counts = [[0] * 4 for _ in range(4)]
        counts[1][2] = -1
        with pytest.raises(ValueError):
            ConfusionMatrix(tuple(tuple(row) for row in counts))

    def test_sums(self):
        assert MATRIX_A.total == 581
        assert MATRIX_A.trace == 355
        assert MATRIX_A.row_sum(Label.P) == 168
        assert MATRIX_A.column_sum(Label.P) == 188

    def test_counts_follow_canonical_order(self):
        # Gold P predicted N is row 0, column 1.
        assert MATRIX_A.counts[0][1] == 36
        assert [MATRIX_A.row_sum(label) for label in LABELS] == [sum(row) for row in MATRIX_A.counts]
        assert [MATRIX_A.column_sum(label) for label in LABELS] == [sum(col) for col in zip(*MATRIX_A.counts)]


class TestConfusion:
    def test_single_hit(self):
        matrix = confusion([Label.P], [Label.P])
        assert matrix.counts[0][0] == 1 and matrix.total == 1

    def test_single_miss(self):
        matrix = confusion([Label.P], [Label.N])
        assert matrix.counts[0][1] == 1

    def test_permutation_invariant(self):
        golds = [Label.P, Label.N, Label.NEU, Label.NONE, Label.P, Label.N]
        preds = [Label.N, Label.N, Label.P, Label.NONE, Label.P, Label.NEU]
        pairs = list(zip(golds, preds))
        reordered = [pairs[i] for i in (5, 2, 0, 4, 3, 1)]
        a = confusion(golds, preds)
        b = confusion([g for g, _ in reordered], [p for _, p in reordered])
        assert a == b

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion([Label.P], [Label.P, Label.N])


class TestRounding:
    def test_half_up_at_the_third_decimal(self):
        assert round_percent(Fraction(34375, 100000)) == 34.38
        assert round_percent(Fraction(125, 100000)) == 0.13

    def test_plain_truncation_cases(self):
        assert round_percent(Fraction(1, 3)) == 33.33
        assert round_percent(Fraction(2, 3)) == 66.67

    def test_exact_values_unchanged(self):
        assert round_percent(Fraction(1, 2)) == 50.0
        assert round_percent(Fraction(0)) == 0.0
        assert round_percent(Fraction(1)) == 100.0


class TestReportRegressionA:
    report = report_from_confusion(MATRIX_A)

    @pytest.mark.parametrize("label", LABELS)
    def test_per_class(self, label):
        metrics = self.report.per_class[label]
        expected = EXPECTED_A[label]
        assert (metrics.precision, metrics.recall, metrics.f1) == expected

    def test_macros(self):
        assert self.report.macro_precision == MACRO_A[0]
        assert self.report.macro_recall == MACRO_A[1]
        assert self.report.macro_f1 == MACRO_A[2]

    def test_accuracy(self):
        assert self.report.accuracy == ACCURACY_A

    def test_macro_f1_is_harmonic_not_mean_of_f1s(self):
        mean_f1 = sum(m.f1 for m in self.report.per_class.values()) / 4
        assert mean_f1 == pytest.approx(45.50, abs=0.01)
        assert self.report.macro_f1 == 47.00


class TestReportRegressionB:
    report = report_from_confusion(MATRIX_B)

    @pytest.mark.parametrize("label", LABELS)
    def test_per_class(self, label):
        metrics = self.report.per_class[label]
        expected = EXPECTED_B[label]
        assert (metrics.precision, metrics.recall, metrics.f1) == expected

    def test_macros(self):
        assert self.report.macro_precision == MACRO_B[0]
        assert self.report.macro_recall == MACRO_B[1]
        assert self.report.macro_f1 == MACRO_B[2]

    def test_accuracy(self):
        assert self.report.accuracy == ACCURACY_B


class TestConventions:
    def test_perfect_predictions(self):
        matrix = ConfusionMatrix(
            ((5, 0, 0, 0), (0, 5, 0, 0), (0, 0, 5, 0), (0, 0, 0, 5))
        )
        report = report_from_confusion(matrix)
        assert report.accuracy == 100.0
        assert report.macro_f1 == 100.0
        assert all(m.f1 == 100.0 for m in report.per_class.values())

    def test_empty_predicted_column_gives_zero_precision(self):
        # Nothing ever predicted NEU.
        matrix = ConfusionMatrix(
            ((5, 1, 0, 0), (1, 5, 0, 0), (2, 2, 0, 0), (0, 0, 0, 2))
        )
        report = report_from_confusion(matrix)
        assert report.per_class[Label.NEU].precision == 0.0
        assert report.per_class[Label.NEU].recall == 0.0
        assert report.per_class[Label.NEU].f1 == 0.0

    def test_empty_gold_row_gives_zero_recall(self):
        matrix = ConfusionMatrix(
            ((5, 0, 1, 0), (0, 5, 0, 0), (0, 0, 0, 0), (0, 0, 0, 2))
        )
        report = report_from_confusion(matrix)
        assert report.per_class[Label.NEU].recall == 0.0
        # The macro averages still divide by 4.
        assert report.macro_recall == round_percent(
            (Fraction(5, 6) + Fraction(1) + Fraction(0) + Fraction(1)) / 4
        )

    def test_empty_matrix_rejected(self):
        matrix = ConfusionMatrix(tuple(tuple([0] * 4) for _ in range(4)))
        with pytest.raises(ValueError):
            report_from_confusion(matrix)

    def test_accuracy_times_total_equals_trace(self):
        for matrix in (MATRIX_A, MATRIX_B):
            assert Fraction(matrix.trace, matrix.total) * matrix.total == matrix.trace


class TestFormatting:
    def test_text_layout(self):
        text = format_report(report_from_confusion(MATRIX_A), MATRIX_A)
        lines = text.splitlines()
        assert lines[0].split() == ["Prec.", "Rec.", "F1"]
        assert lines[1].split() == ["P", "60.64", "67.86", "64.04"]
        assert any(line.startswith("accuracy") and "61.10" in line for line in lines)
        assert any("confusion matrix" in line for line in lines)

    def test_class_rows_in_canonical_order(self):
        text = format_report(report_from_confusion(MATRIX_A), MATRIX_A)
        names = [line.split()[0] for line in text.splitlines()[1:5]]
        assert names == ["P", "N", "NEU", "NONE"]

    def test_json_round_trip(self):
        report = report_from_confusion(MATRIX_A)
        payload = json.loads(report_to_json(report, MATRIX_A))
        assert payload["accuracy"] == 61.10
        assert payload["macro"]["f1"] == 47.00
        assert payload["per_class"]["NEU"]["precision"] == 21.05
        assert payload["confusion"][0] == [114, 36, 5, 13]

    def test_dict_keys_are_plain_strings(self):
        payload = report_to_dict(report_from_confusion(MATRIX_B), MATRIX_B)
        assert set(payload["per_class"]) == {"P", "N", "NEU", "NONE"}


class IdentityFeatures:
    """Stand-in pipeline: every tweet maps to a fixed dense vector."""

    def transform(self, dataset):
        return np.ones((len(dataset), 1))

    def label(self, predictor, dataset):
        return predict_many(predictor, self.transform(dataset))


def constant_p_model() -> Ensemble:
    return Ensemble.of(
        LinearModel(
            classes=(Label.P, Label.N),
            weights=np.array([[0.0], [0.0]]),
            biases=np.array([5.0, -5.0]),
            config=LrConfig(),
            converged=True,
        )
    )


class TestEvaluate:
    def make_dataset(self):
        tweets = [Tweet(f"p{i}", "bien", Label.P) for i in range(8)]
        tweets += [Tweet(f"n{i}", "mal", Label.N) for i in range(2)]
        return Dataset("toy", "dev", tuple(tweets))

    def test_constant_predictor_accuracy(self):
        report, matrix = evaluate(constant_p_model(), self.make_dataset(), IdentityFeatures())
        assert report.accuracy == 80.0
        assert matrix.counts[0][0] == 8 and matrix.counts[1][0] == 2

    def test_deterministic(self):
        ds = self.make_dataset()
        first = evaluate(constant_p_model(), ds, IdentityFeatures())
        second = evaluate(constant_p_model(), ds, IdentityFeatures())
        assert first == second

    def test_unlabeled_rejected(self):
        ds = Dataset("toy", "test", (Tweet("a", "x"),))
        with pytest.raises(ValueError):
            evaluate(constant_p_model(), ds, IdentityFeatures())

    def test_report_consistent_with_matrix(self):
        report, matrix = evaluate(constant_p_model(), self.make_dataset(), IdentityFeatures())
        assert report == report_from_confusion(matrix)
