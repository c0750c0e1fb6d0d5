"""Binary-classification metrics, ROC/AUC, privacy cost.

Two false-positive-rate variants are exposed: ``fpr_standard`` is
FP/(FP+TN); ``fpr_paper`` is FP/(FP+FN), a nonstandard denominator kept so
reports can show both.  Headline tables use the standard one.

Privacy cost is the performance a party gives up (or gains) when moving
between modeling regimes: the federated cost compares open sharing with
federation; the open-share cost compares open sharing with separate local
models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(labels, probabilities, threshold: float = 0.5) -> ConfusionMatrix:
    y = np.asarray(labels, dtype=np.int64)
    p = np.asarray(probabilities, dtype=np.float64)
    if y.size == 0:
        raise MetricError("empty input")
    if y.shape != p.shape:
        raise MetricError("labels and probabilities differ in length")
    pred = p >= threshold
    pos = y == 1
    return ConfusionMatrix(
        tp=int(np.sum(pred & pos)),
        fp=int(np.sum(pred & ~pos)),
        fn=int(np.sum(~pred & pos)),
        tn=int(np.sum(~pred & ~pos)),
    )


def _ratio(num: int, den: int) -> float:
    return num / den if den > 0 else 0.0


@dataclass
class MetricReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    fpr_standard: float
    fpr_paper: float
    auc: float = float("nan")
    fold_id: int = -1
    model_tag: str = ""

    def as_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "fpr_standard": self.fpr_standard,
            "fpr_paper": self.fpr_paper,
            "auc": self.auc,
            "fold_id": self.fold_id,
            "model_tag": self.model_tag,
        }


def metrics_from_confusion(cm: ConfusionMatrix) -> MetricReport:
    """Thresholded metrics; zero denominators resolve to 0 by convention."""
    if cm.total == 0:
        raise MetricError("empty confusion matrix")
    precision = _ratio(cm.tp, cm.tp + cm.fp)
    recall = _ratio(cm.tp, cm.tp + cm.fn)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return MetricReport(
        accuracy=_ratio(cm.tp + cm.tn, cm.total),
        precision=precision,
        recall=recall,
        f1=f1,
        fpr_standard=_ratio(cm.fp, cm.fp + cm.tn),
        fpr_paper=_ratio(cm.fp, cm.fp + cm.fn),
    )


def auc_roc(labels, scores) -> float:
    """Rank-based AUC: the fraction of (positive, negative) pairs ranked
    correctly, ties counting one half."""
    y = np.asarray(labels, dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC needs at least one sample of each class")
    order = np.argsort(s, kind="mergesort")
    sorted_s = s[order]
    ranks = np.empty(s.size, dtype=np.float64)
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # average rank, 1-based
        i = j + 1
    rank_sum_pos = float(ranks[y == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate_scores(labels, scores, threshold: float = 0.5, fold_id: int = -1, model_tag: str = "") -> MetricReport:
    report = metrics_from_confusion(confusion(labels, scores, threshold))
    report.auc = auc_roc(labels, scores)
    report.fold_id = fold_id
    report.model_tag = model_tag
    return report


METRIC_FIELDS = ("accuracy", "precision", "recall", "f1", "fpr_standard", "fpr_paper", "auc")


def average_reports(reports: list[MetricReport], model_tag: str = "") -> MetricReport:
    if not reports:
        raise MetricError("no reports to average")
    avg = MetricReport(
        **{f: float(np.mean([getattr(r, f) for r in reports])) for f in METRIC_FIELDS},
        fold_id=-1,
        model_tag=model_tag or reports[0].model_tag,
    )
    return avg


@dataclass(frozen=True)
class PrivacyCost:
    metric: str
    kind: str  # "federated" or "open_share"
    baseline: float  # open-share score in both kinds
    alternative: float  # federated score, or the separate-model score
    cost: float


def privacy_cost(kind: str, metric: str, open_share: float, other: float) -> PrivacyCost:
    """Cost of a privacy regime relative to open sharing.

    ``federated``: open-share score minus federated score (what federation
    gives up).  ``open_share``: open-share score minus the separate-model
    score (what a party gains by sharing openly, i.e. the cost it would pay
    to stay fully local).
    """
    if kind not in ("federated", "open_share"):
        raise MetricError(f"unknown privacy-cost kind {kind!r}")
    return PrivacyCost(
        metric=metric,
        kind=kind,
        baseline=open_share,
        alternative=other,
        cost=open_share - other,
    )
