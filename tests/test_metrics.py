import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedgbt.metrics import (
    ConfusionMatrix,
    MetricError,
    auc_roc,
    average_reports,
    confusion,
    evaluate_scores,
    metrics_from_confusion,
    privacy_cost,
)


def naive_metrics(labels, probs, threshold=0.5):
    """Independent counting oracle, no vectorization."""
    tp = fp = fn = tn = 0
    for y, p in zip(labels, probs):
        pred = 1 if p >= threshold else 0
        if pred == 1 and y == 1:
            tp += 1
        elif pred == 1 and y == 0:
            fp += 1
        elif pred == 0 and y == 1:
            fn += 1
        else:
            tn += 1
    div = lambda a, b: a / b if b else 0.0
    precision, recall = div(tp, tp + fp), div(tp, tp + fn)
    return {
        "tp": tp, "fp": fp, "fn": fn, "tn": tn,
        "accuracy": div(tp + tn, tp + fp + fn + tn),
        "precision": precision,
        "recall": recall,
        "f1": div(2 * precision * recall, precision + recall),
        "fpr_standard": div(fp, fp + tn),
        "fpr_paper": div(fp, fp + fn),
    }


def pairwise_auc(labels, scores):
    """Oracle: enumerate all (positive, negative) pairs, ties count half."""
    pos = [s for y, s in zip(labels, scores) if y == 1]
    neg = [s for y, s in zip(labels, scores) if y == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_confusion_hand_count():
    cm = confusion([1, 1, 0, 0], [0.9, 0.4, 0.6, 0.1])
    assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 1, 1)


def test_confusion_all_positive_and_threshold_zero():
    cm = confusion([1, 1, 1], [0.9, 0.8, 0.7])
    assert (cm.tp, cm.fp, cm.fn, cm.tn) == (3, 0, 0, 0)
    cm0 = confusion([1, 0, 1], [0.1, 0.0, 0.2], threshold=0.0)
    assert cm0.tn == 0 and cm0.fn == 0


def test_confusion_rejects_empty():
    with pytest.raises(MetricError):
        confusion([], [])


def test_metrics_hand_values():
    rep = metrics_from_confusion(ConfusionMatrix(tp=50, fp=10, fn=10, tn=30))
    assert rep.accuracy == pytest.approx(0.8)
    assert rep.precision == pytest.approx(5 / 6)
    assert rep.recall == pytest.approx(5 / 6)
    assert rep.f1 == pytest.approx(5 / 6)
    assert rep.fpr_standard == pytest.approx(0.25)
    assert rep.fpr_paper == pytest.approx(0.5)


def test_metrics_perfect_and_degenerate():
    perfect = metrics_from_confusion(ConfusionMatrix(tp=5, fp=0, fn=0, tn=5))
    assert perfect.accuracy == perfect.precision == perfect.recall == perfect.f1 == 1.0
    assert perfect.fpr_standard == perfect.fpr_paper == 0.0
    no_pos_pred = metrics_from_confusion(ConfusionMatrix(tp=0, fp=0, fn=3, tn=4))
    assert no_pos_pred.precision == 0.0
    assert no_pos_pred.f1 == 0.0


def test_auc_perfect_separation_and_hand_value():
    assert auc_roc([1, 1, 0, 0], [0.9, 0.8, 0.3, 0.2]) == pytest.approx(1.0)
    assert auc_roc([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.6]) == pytest.approx(0.75)


def test_auc_all_ties_is_half():
    assert auc_roc([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.5)


def test_auc_single_class_rejected():
    with pytest.raises(MetricError):
        auc_roc([1, 1], [0.1, 0.2])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_metrics_and_auc_match_oracles(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    # quantized scores generate plenty of ties
    scores = rng.integers(0, 10, size=n) / 10.0
    rep = evaluate_scores(labels, scores)
    oracle = naive_metrics(labels, scores)
    for name in ("accuracy", "precision", "recall", "f1", "fpr_standard", "fpr_paper"):
        assert getattr(rep, name) == oracle[name]
    assert rep.auc == pytest.approx(pairwise_auc(labels, scores), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_auc_invariances(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    scores = rng.normal(size=n)  # continuous, so ties have measure zero
    base = auc_roc(labels, scores)
    assert auc_roc(labels, np.exp(scores)) == pytest.approx(base)  # monotone transform
    assert auc_roc(labels, 3 * scores + 7) == pytest.approx(base)
    assert base + auc_roc(labels, -scores) == pytest.approx(1.0)


def test_privacy_cost_published_comparison_values():
    fed = privacy_cost("federated", "auc", open_share=89.61, other=89.33)
    assert fed.cost == pytest.approx(0.28, abs=1e-12)
    acc = privacy_cost("federated", "accuracy", open_share=84.17, other=82.76)
    assert acc.cost == pytest.approx(1.41, abs=1e-12)
    f1 = privacy_cost("federated", "f1", open_share=86.74, other=85.47)
    assert f1.cost == pytest.approx(1.27, abs=1e-12)
    open_share = privacy_cost("open_share", "auc", open_share=89.61, other=69.25)
    assert open_share.cost == pytest.approx(20.36, abs=1e-12)
    assert privacy_cost("federated", "auc", 0.5, 0.5).cost == 0.0
    with pytest.raises(MetricError):
        privacy_cost("other", "auc", 1, 1)


def test_average_reports_is_arithmetic_mean():
    rng = np.random.default_rng(4)
    labels = (rng.normal(size=50) > 0).astype(int)
    per_fold = [evaluate_scores(labels, rng.uniform(size=50), fold_id=i) for i in range(5)]
    averaged = average_reports(per_fold)
    for metric in ("auc", "accuracy", "f1", "fpr_paper"):
        assert getattr(averaged, metric) == pytest.approx(
            np.mean([getattr(r, metric) for r in per_fold]), abs=1e-12
        )
    with pytest.raises(MetricError):
        average_reports([])
