"""Metrics: confusion counting, P/R/F1 against a brute-force oracle, result tables."""

import csv
import io
import math

import numpy as np
import pytest

from tlanet import metrics as MET
from tlanet.wisdomnet import REJECTED


def brute_force_per_class(matrix, cls):
    """Independent recomputation of TP/FP/FN by explicit iteration."""
    n = matrix.shape[0]
    tp = fp = fn = 0
    for g in range(n):
        for p in range(n):
            count = int(matrix[g, p])
            if g == cls and p == cls:
                tp += count
            elif p == cls:
                fp += count
            elif g == cls:
                fn += count
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return prec, rec, f1, tp, fp, fn


def random_cm(rng, classes=3, max_count=20):
    matrix = rng.integers(0, max_count, (classes, classes))
    rejected = int(rng.integers(0, 10))
    return MET.ConfusionMatrix(matrix, rejected, int(matrix.sum()) + rejected)


class TestConfusion:
    def test_all_rejected(self):
        cm = MET.confusion([REJECTED] * 5, [0, 1, 2, 0, 1], num_classes=3)
        assert np.all(cm.matrix == 0)
        assert cm.rejected_count == 5
        assert cm.total_count == 5

    def test_perfect_predictions_diagonal(self):
        cm = MET.confusion([0, 1, 2, 1], [0, 1, 2, 1], num_classes=3)
        assert np.array_equal(cm.matrix, np.diag([1, 2, 1]))

    def test_mixed_rejections_and_coverage(self):
        preds = [0, 1, 2, 0, 1, 2, 0, 1, REJECTED, REJECTED]
        gold = [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]
        cm = MET.confusion(preds, gold, num_classes=3)
        assert int(np.trace(cm.matrix)) == 8
        assert cm.rejected_count == 2
        report = MET.aggregate(cm)
        assert report.coverage == 0.8
        assert report.accuracy == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            MET.confusion([0, 1], [0], num_classes=2)

    def test_invariant_total(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            cm = random_cm(rng)
            assert int(cm.matrix.sum()) + cm.rejected_count == cm.total_count

    def test_inconsistent_totals_rejected(self):
        with pytest.raises(ValueError):
            MET.ConfusionMatrix(np.ones((2, 2), dtype=int), 1, 3)


class TestPerClassMetrics:
    def test_precision_cases(self):
        cm = MET.ConfusionMatrix(np.array([[5, 0], [0, 0]]), 0, 5)
        assert MET.precision(cm, 0) == 1.0
        cm = MET.ConfusionMatrix(np.array([[5, 0], [5, 0]]), 0, 10)
        assert MET.precision(cm, 0) == 0.5
        assert MET.precision(cm, 1) == 0.0  # 0/0 convention

    def test_recall_cases(self):
        cm = MET.ConfusionMatrix(np.array([[5, 0], [0, 0]]), 0, 5)
        assert MET.recall(cm, 0) == 1.0
        cm = MET.ConfusionMatrix(np.array([[1, 3], [0, 0]]), 0, 4)
        assert MET.recall(cm, 0) == 0.25
        assert MET.recall(cm, 1) == 0.0

    def test_f1_identities(self):
        rng = np.random.default_rng(1)
        for x in rng.uniform(0, 1, 100):
            assert math.isclose(MET.f1(x, x), x, rel_tol=1e-12)
        assert MET.f1(1.0, 0.0) == 0.0
        assert MET.f1(0.0, 0.0) == 0.0

    def test_f1_below_arithmetic_mean(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p, r = rng.uniform(0, 1, 2)
            f = MET.f1(p, r)
            assert f <= (p + r) / 2 + 1e-12
            if abs(p - r) > 1e-9:
                assert f < (p + r) / 2


class TestAggregate:
    def test_oracle_equivalence_random_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            cm = random_cm(rng)
            report = MET.aggregate(cm, scheme="macro")
            for cls, pc in enumerate(report.per_class):
                prec, rec, f1, tp, fp, fn = brute_force_per_class(cm.matrix, cls)
                assert pc["precision"] == prec
                assert pc["recall"] == rec
                assert pc["f1"] == f1
                assert cm.true_positives(cls) == tp
                assert cm.false_positives(cls) == fp
                assert cm.false_negatives(cls) == fn
            expect_macro = np.mean([brute_force_per_class(cm.matrix, c)[0] for c in range(3)])
            assert math.isclose(report.precision, expect_macro, rel_tol=1e-12)

    def test_single_class_aggregate_is_that_class(self):
        cm = MET.ConfusionMatrix(np.array([[7, 3], [0, 0]]), 0, 10)
        report = MET.aggregate(cm, scheme="weighted")
        assert report.precision == report.per_class[0]["precision"]
        assert report.recall == report.per_class[0]["recall"]

    def test_balanced_macro_equals_weighted(self):
        matrix = np.array([[8, 1, 1], [2, 7, 1], [1, 1, 8]])
        cm = MET.ConfusionMatrix(matrix, 0, int(matrix.sum()))
        macro = MET.aggregate(cm, scheme="macro")
        weighted = MET.aggregate(cm, scheme="weighted")
        assert math.isclose(macro.recall, weighted.recall, rel_tol=1e-12)

    def test_all_metrics_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            report = MET.aggregate(random_cm(rng), scheme="weighted")
            for value in (report.accuracy, report.precision, report.recall,
                          report.f1, report.coverage):
                assert 0.0 <= value <= 1.0

    def test_rejections_do_not_change_per_class_metrics(self):
        matrix = np.array([[5, 2], [1, 6]])
        base = MET.ConfusionMatrix(matrix, 0, 14)
        more = MET.ConfusionMatrix(matrix, 9, 23)
        a = MET.aggregate(base, scheme="macro")
        b = MET.aggregate(more, scheme="macro")
        assert a.precision == b.precision
        assert a.recall == b.recall
        assert a.f1 == b.f1
        assert b.coverage < a.coverage

    def test_all_rejected_warns_and_zeroes(self):
        cm = MET.ConfusionMatrix(np.zeros((3, 3), dtype=int), 10, 10)
        report = MET.aggregate(cm)
        assert report.accuracy == 0.0
        assert any("rejected" in w for w in report.warnings)

    def test_zero_over_zero_warned(self):
        cm = MET.ConfusionMatrix(np.array([[3, 0], [0, 0]]), 0, 3)
        report = MET.aggregate(cm, class_names=("NAG", "OAG"))
        assert any("OAG" in w for w in report.warnings)

    def test_unknown_scheme(self):
        cm = MET.ConfusionMatrix(np.zeros((2, 2), dtype=int), 0, 0)
        with pytest.raises(ValueError):
            MET.aggregate(cm, scheme="median")


class TestResultsTable:
    def sample_reports(self):
        cm = MET.ConfusionMatrix(np.array([[40, 5, 5], [4, 30, 6], [3, 2, 35]]), 10, 140)
        report = MET.aggregate(cm, scheme="weighted")
        return {
            ("tla-net", "english"): report,
            ("tla-net", "bangla"): report,
            ("lstm", "hindi"): {"accuracy": 0.78, "precision": 0.62,
                                "recall": 0.78, "f1": 0.69},
        }

    def test_empty_input_header_only(self):
        assert MET.emit_results_table({}, "text").strip().startswith("Model")
        assert MET.emit_results_table({}, "csv").strip() == "model,language,accuracy,precision,recall,f1"

    def test_text_two_decimals(self):
        out = MET.emit_results_table({("lstm", "english"):
                                      {"accuracy": 0.77777, "precision": 0.5,
                                       "recall": 0.25, "f1": 0.333333}}, "text")
        assert "0.78" in out
        assert "0.33" in out

    def test_language_order_model_major(self):
        lines = MET.emit_results_table(self.sample_reports(), "text").splitlines()
        assert lines[1].startswith("tla-net") and "english" in lines[1]
        assert lines[2].startswith("tla-net") and "bangla" in lines[2]
        assert lines[3].startswith("lstm") and "hindi" in lines[3]

    def test_csv_json_round_trip_full_precision(self):
        import json
        reports = self.sample_reports()
        csv_out = MET.emit_results_table(reports, "csv")
        json_out = json.loads(MET.emit_results_table(reports, "json"))
        parsed = {(r["model"], r["language"]): r for r in csv.DictReader(io.StringIO(csv_out))}
        for row in json_out["rows"]:
            key = (row["model"], row["language"])
            for field in ("accuracy", "precision", "recall", "f1"):
                assert float(parsed[key][field]) == row[field]

    def test_external_rows_accepted(self):
        out = MET.emit_results_table(
            {("bert", "english"): {"accuracy": 0.79, "precision": 0.79,
                                   "recall": 0.79, "f1": 0.79}}, "text")
        assert "bert" in out

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            MET.emit_results_table({}, "xml")
