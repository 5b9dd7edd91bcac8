"""Rejection-aware evaluation: confusion counts, per-class P/R/F1, and result tables.

Rejected predictions never enter the confusion matrix; they are counted
separately and surface as coverage. Accuracy is taken over accepted
samples only. The 0/0 corner of every ratio is defined as 0 and flagged
with a warning instead of NaN.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .wisdomnet import is_rejected

LANGUAGE_ORDER = ("english", "bangla", "hindi")


@dataclass
class ConfusionMatrix:
    """Rows are gold classes, columns are predictions; rejections live outside."""

    matrix: np.ndarray
    rejected_count: int
    total_count: int

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.int64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError(f"confusion matrix must be square, got {self.matrix.shape}")
        if (self.matrix < 0).any() or self.rejected_count < 0:
            raise ValueError("confusion counts must be non-negative")
        if int(self.matrix.sum()) + self.rejected_count != self.total_count:
            raise ValueError(f"matrix sum {int(self.matrix.sum())} + rejected "
                             f"{self.rejected_count} != total {self.total_count}")

    @property
    def num_classes(self) -> int:
        return self.matrix.shape[0]

    @property
    def accepted_count(self) -> int:
        return self.total_count - self.rejected_count

    def true_positives(self, cls: int) -> int:
        return int(self.matrix[cls, cls])

    def false_positives(self, cls: int) -> int:
        return int(self.matrix[:, cls].sum() - self.matrix[cls, cls])

    def false_negatives(self, cls: int) -> int:
        return int(self.matrix[cls, :].sum() - self.matrix[cls, cls])

    def support(self, cls: int) -> int:
        """Gold examples of the class among accepted predictions."""
        return int(self.matrix[cls, :].sum())


def confusion(preds, gold, num_classes: int) -> ConfusionMatrix:
    if len(preds) != len(gold):
        raise ValueError(f"{len(preds)} predictions vs {len(gold)} gold labels")
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    rejected = 0
    for p, g in zip(preds, gold):
        g = int(g)
        if not 0 <= g < num_classes:
            raise ValueError(f"gold label {g} outside [0, {num_classes})")
        if is_rejected(p):
            rejected += 1
        else:
            matrix[g, int(p)] += 1
    return ConfusionMatrix(matrix, rejected, len(preds))


def precision(cm: ConfusionMatrix, cls: int) -> float:
    tp, fp = cm.true_positives(cls), cm.false_positives(cls)
    return tp / (tp + fp) if tp + fp else 0.0


def recall(cm: ConfusionMatrix, cls: int) -> float:
    tp, fn = cm.true_positives(cls), cm.false_negatives(cls)
    return tp / (tp + fn) if tp + fn else 0.0


def f1(p: float, r: float) -> float:
    return 2.0 * p * r / (p + r) if p + r else 0.0


@dataclass
class EvalReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    coverage: float
    scheme: str
    per_class: list[dict]
    rejected_count: int
    total_count: int
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "coverage": self.coverage,
            "scheme": self.scheme,
            "per_class": self.per_class,
            "rejected_count": self.rejected_count,
            "total_count": self.total_count,
            "warnings": self.warnings,
        }


def aggregate(cm: ConfusionMatrix, scheme: str = "weighted",
              class_names: tuple[str, ...] | None = None) -> EvalReport:
    """Fold per-class P/R/F1 into one report; ``macro`` or support-``weighted``."""
    if scheme not in ("macro", "weighted"):
        raise ValueError(f"scheme must be macro or weighted, got {scheme!r}")
    warnings: list[str] = []
    per_class = []
    for c in range(cm.num_classes):
        p, r = precision(cm, c), recall(cm, c)
        name = class_names[c] if class_names else str(c)
        if cm.true_positives(c) + cm.false_positives(c) == 0:
            warnings.append(f"class {name}: precision 0/0 reported as 0")
        if cm.true_positives(c) + cm.false_negatives(c) == 0:
            warnings.append(f"class {name}: recall 0/0 reported as 0")
        per_class.append({
            "class": name,
            "precision": p,
            "recall": r,
            "f1": f1(p, r),
            "support": cm.support(c),
        })
    accepted = cm.accepted_count
    if accepted:
        accuracy = float(np.trace(cm.matrix)) / accepted
        if scheme == "macro":
            agg_p = sum(pc["precision"] for pc in per_class) / cm.num_classes
            agg_r = sum(pc["recall"] for pc in per_class) / cm.num_classes
            agg_f = sum(pc["f1"] for pc in per_class) / cm.num_classes
        else:
            agg_p = sum(pc["precision"] * pc["support"] for pc in per_class) / accepted
            agg_r = sum(pc["recall"] * pc["support"] for pc in per_class) / accepted
            agg_f = sum(pc["f1"] * pc["support"] for pc in per_class) / accepted
    else:
        warnings.append("all samples rejected; accuracy and aggregates reported as 0")
        accuracy = agg_p = agg_r = agg_f = 0.0
    coverage = accepted / cm.total_count if cm.total_count else 0.0
    return EvalReport(accuracy, agg_p, agg_r, agg_f, coverage, scheme, per_class,
                      cm.rejected_count, cm.total_count, warnings)


# ---------------------------------------------------------------------------
# result tables
# ---------------------------------------------------------------------------

_TABLE_FIELDS = ("accuracy", "precision", "recall", "f1")


def _row_values(report) -> dict[str, float]:
    if isinstance(report, EvalReport):
        src = report.to_dict()
    elif isinstance(report, dict):
        src = report
    else:
        raise TypeError(f"cannot render a results row from {type(report).__name__}")
    return {k: float(src[k]) for k in _TABLE_FIELDS}


def _ordered_rows(reports: dict) -> list[tuple[str, str, dict[str, float]]]:
    models = []
    for model, _ in reports:
        if model not in models:
            models.append(model)
    rows = []
    for model in models:
        langs = [lang for (m, lang) in reports if m == model]
        known = [l for l in LANGUAGE_ORDER if l in langs]
        rest = sorted(l for l in langs if l not in LANGUAGE_ORDER)
        for lang in known + rest:
            rows.append((model, lang, _row_values(reports[(model, lang)])))
    return rows


def emit_results_table(reports: dict, fmt: str = "text") -> str:
    """Render (model, language) -> report rows; text is 2-decimal, csv/json full precision.

    ``reports`` values may be ``EvalReport`` objects or plain mappings with
    accuracy/precision/recall/f1 keys (for externally produced results).
    """
    rows = _ordered_rows(reports)
    if fmt == "text":
        lines = [f"{'Model':<20} {'Set':<9} {'Accuracy':>8} {'Precision':>9} "
                 f"{'Recall':>7} {'F1 Score':>8}"]
        for model, lang, vals in rows:
            lines.append(f"{model:<20} {lang:<9} {vals['accuracy']:>8.2f} "
                         f"{vals['precision']:>9.2f} {vals['recall']:>7.2f} {vals['f1']:>8.2f}")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(("model", "language") + _TABLE_FIELDS)
        for model, lang, vals in rows:
            writer.writerow([model, lang] + [repr(vals[k]) for k in _TABLE_FIELDS])
        return buf.getvalue()
    if fmt == "json":
        return json.dumps(
            {"rows": [{"model": m, "language": l, **v} for m, l, v in rows]},
            indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown results format {fmt!r}; use text, csv, or json")
