"""Histogram-based gradient-boosted trees for binary classification.

This is the shared mathematical core: the centralized trainer here and the
federated trainers in :mod:`fedgbt.hfl` / :mod:`fedgbt.vfl` all reduce to the
same per-bin gradient sums, the same split-gain scan, and the same leaf
weights, which is what makes the federated-versus-centralized equivalence
checks meaningful.

Conventions fixed across every training path:

* equal-width binning over each feature's [min, max]; a sample with value x
  lands in the bin counting thresholds strictly below x, so x goes left at a
  split exactly when x <= threshold;
* split candidates are scanned feature-ascending then bin-ascending, and a
  candidate replaces the incumbent only on strictly larger gain, so ties
  resolve to the lowest feature id, then the lowest bin;
* boosting updates margins by ``learning_rate * leaf_weight`` per tree.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .data import PartyDataset


class TrainingError(ValueError):
    """Invalid training inputs (empty data, missing labels, bad params)."""


class DegenerateNodeError(ZeroDivisionError):
    """Leaf weight requested with a vanishing curvature denominator."""


@dataclass(frozen=True)
class GbtParams:
    """Boosting configuration; defaults follow the fixed baseline setting."""

    n_estimators: int = 20
    max_depth: int = 5
    learning_rate: float = 0.3
    max_bin: int = 32
    min_child_weight: float = 1.0
    reg_alpha: float = 0.0
    reg_lambda: float = 0.0
    gamma: float = 0.0
    subsample: float = 1.0
    min_split_gain: float = 0.0
    base_score_logit: float = 0.0
    # optional seeded random margin initialization (0 = deterministic start
    # at the base score, the default; > 0 adds that much noise per sample)
    random_init_scale: float = 0.0

    def __post_init__(self):
        if self.n_estimators < 1:
            raise TrainingError("n_estimators must be >= 1")
        if self.max_bin < 2:
            raise TrainingError("max_bin must be >= 2")
        if not 0 < self.subsample <= 1:
            raise TrainingError("subsample must be in (0, 1]")
        if self.max_depth < 0:
            raise TrainingError("max_depth must be >= 0")

    def replace(self, **kwargs) -> "GbtParams":
        merged = {**asdict(self), **kwargs}
        return GbtParams(**merged)


@dataclass(frozen=True)
class GradPair:
    g: float
    h: float


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def logistic_gradients(y, margin):
    """First/second derivatives of the logistic loss at the current margin.

    Vectorized: returns (g, h) arrays with g = p - y and h = p(1 - p),
    p clamped away from 0 and 1.
    """
    p = np.clip(sigmoid(margin), 1e-15, 1 - 1e-15)
    y = np.asarray(y, dtype=np.float64)
    return p - y, p * (1.0 - p)


def logistic_gradient_pair(y: int, margin: float) -> GradPair:
    g, h = logistic_gradients(np.array([y]), np.array([margin]))
    return GradPair(float(g[0]), float(h[0]))


def logistic_loss(y, margin) -> float:
    p = np.clip(sigmoid(margin), 1e-15, 1 - 1e-15)
    y = np.asarray(y, dtype=np.float64)
    return float(np.mean(-(y * np.log(p) + (1 - y) * np.log(1 - p))))


# ---------------------------------------------------------------------------
# Binning


def boundaries_from_range(low: float, high: float, n_bins: int) -> np.ndarray:
    """Equal-width thresholds between low and high: n_bins - 1 interior cuts."""
    if n_bins < 2:
        raise TrainingError("n_bins must be >= 2")
    width = (high - low) / n_bins
    return low + width * np.arange(1, n_bins)


def compute_bins(column: np.ndarray, n_bins: int) -> np.ndarray:
    """Thresholds for one feature from its observed range."""
    column = np.asarray(column, dtype=np.float64)
    if column.size == 0:
        raise TrainingError("cannot bin an empty column")
    return boundaries_from_range(float(column.min()), float(column.max()), n_bins)


@dataclass(frozen=True)
class Binning:
    """Per-feature equal-width thresholds shared by all samples of a run."""

    boundaries: np.ndarray  # (n_features, n_bins - 1)
    n_bins: int

    def bin_column(self, values: np.ndarray, feature: int) -> np.ndarray:
        # Counting thresholds strictly below x puts x == threshold in the
        # lower bin, so "bin <= split bin" matches "x <= threshold".
        return np.searchsorted(self.boundaries[feature], values, side="left")

    def bin_matrix(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape, dtype=np.int64)
        for f in range(X.shape[1]):
            out[:, f] = self.bin_column(X[:, f], f)
        return out

    def threshold(self, feature: int, bin_index: int) -> float:
        return float(self.boundaries[feature][bin_index])


def compute_binning(X: np.ndarray, n_bins: int) -> Binning:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] == 0:
        raise TrainingError("cannot bin an empty matrix")
    rows = [compute_bins(X[:, f], n_bins) for f in range(X.shape[1])]
    return Binning(boundaries=np.vstack(rows), n_bins=n_bins)


def binning_from_ranges(lows: np.ndarray, highs: np.ndarray, n_bins: int) -> Binning:
    rows = [boundaries_from_range(float(lo), float(hi), n_bins) for lo, hi in zip(lows, highs)]
    return Binning(boundaries=np.vstack(rows), n_bins=n_bins)


# ---------------------------------------------------------------------------
# Gradient histograms


@dataclass
class GradHistogram:
    """Per-feature, per-bin sums of g and h plus sample counts."""

    g: np.ndarray  # (n_features, n_bins)
    h: np.ndarray
    counts: np.ndarray  # int64

    @staticmethod
    def zeros(n_features: int, n_bins: int) -> "GradHistogram":
        return GradHistogram(
            g=np.zeros((n_features, n_bins)),
            h=np.zeros((n_features, n_bins)),
            counts=np.zeros((n_features, n_bins), dtype=np.int64),
        )

    @property
    def n_features(self) -> int:
        return self.g.shape[0]

    @property
    def n_bins(self) -> int:
        return self.g.shape[1]

    def totals(self) -> tuple[float, float, int]:
        """Node-level (G, H, count); every feature row sums to the same totals."""
        return float(self.g[0].sum()), float(self.h[0].sum()), int(self.counts[0].sum())

    def add(self, other: "GradHistogram") -> "GradHistogram":
        return GradHistogram(self.g + other.g, self.h + other.h, self.counts + other.counts)

    def subtract(self, other: "GradHistogram") -> "GradHistogram":
        counts = self.counts - other.counts
        if (counts < 0).any():
            raise TrainingError("histogram subtraction produced a negative count")
        return GradHistogram(self.g - other.g, self.h - other.h, counts)


def build_histogram(
    binned: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    sample_idx: np.ndarray,
    n_bins: int,
) -> GradHistogram:
    """Accumulate (G, H, count) per feature and bin over the given samples."""
    n_features = binned.shape[1]
    hist = GradHistogram.zeros(n_features, n_bins)
    idx = np.asarray(sample_idx, dtype=np.int64)
    if idx.size == 0:
        return hist
    gs, hs = g[idx], h[idx]
    for f in range(n_features):
        bins = binned[idx, f]
        hist.g[f] = np.bincount(bins, weights=gs, minlength=n_bins)
        hist.h[f] = np.bincount(bins, weights=hs, minlength=n_bins)
        hist.counts[f] = np.bincount(bins, minlength=n_bins)
    return hist


# ---------------------------------------------------------------------------
# Split search


def soft_threshold(g, alpha: float):
    """L1 shrinkage of an aggregated gradient: sign(g) * max(|g| - alpha, 0)."""
    if alpha == 0:
        return g
    return np.sign(g) * np.maximum(np.abs(g) - alpha, 0.0)


def _gain_term(G, H, reg_lambda: float):
    den = np.asarray(H, dtype=np.float64) + reg_lambda
    G = np.asarray(G, dtype=np.float64)
    out = np.zeros_like(den)
    ok = den > 0
    out[ok] = G[ok] ** 2 / den[ok]
    return out


def split_gain(G_L: float, H_L: float, G_R: float, H_R: float, reg_lambda: float, gamma: float) -> float:
    """Objective reduction of partitioning (G_L+G_R, H_L+H_R) into the two sides."""
    terms = _gain_term(
        np.array([G_L, G_R, G_L + G_R]), np.array([H_L, H_R, H_L + H_R]), reg_lambda
    )
    return 0.5 * float(terms[0] + terms[1] - terms[2]) - gamma


def leaf_weight(G: float, H: float, reg_lambda: float) -> float:
    den = H + reg_lambda
    if den <= 0:
        raise DegenerateNodeError("leaf weight needs H + reg_lambda > 0")
    return -G / den


@dataclass(frozen=True)
class SplitCandidate:
    feature: int
    bin_index: int
    gain: float
    left: tuple[float, float, int]  # (G, H, count)
    right: tuple[float, float, int]


# Candidates whose gains differ by less than this relative tolerance count
# as tied.  Distinct features often induce the exact same partition of a
# node, and the per-path float/fixed-point noise on such twins is far below
# this bound while genuinely different partitions sit far above it; snapping
# keeps the lowest-feature/lowest-bin rule stable across the centralized and
# federated arithmetic.
GAIN_TIE_REL_TOL = 1e-9


def find_best_split(hist: GradHistogram, params: GbtParams) -> SplitCandidate | None:
    """Scan every feature and interior bin boundary for the highest gain.

    Returns None when no candidate clears min_split_gain with both children
    at or above min_child_weight in hessian mass.  Candidates within
    GAIN_TIE_REL_TOL of the maximum count as tied; ties go to the lowest
    feature id, then the lowest bin index.

    A gain must also clear min_split_gain by GAIN_TIE_REL_TOL relative to
    the parent's score term: a node whose samples share one g/h ratio has
    zero gain for every partition, and at reg_lambda=0 float or fixed-point
    noise would otherwise pick a split at random.
    """
    G_node, H_node, _ = hist.totals()
    parent_term = float(_gain_term(soft_threshold(G_node, params.reg_alpha), H_node,
                                   params.reg_lambda))
    min_gain = params.min_split_gain + GAIN_TIE_REL_TOL * (1.0 + parent_term)
    per_feature = []
    best_gain = -math.inf
    for f in range(hist.n_features):
        gl = np.cumsum(hist.g[f])[:-1]
        hl = np.cumsum(hist.h[f])[:-1]
        cl = np.cumsum(hist.counts[f])[:-1]
        G, H, C = hist.g[f].sum(), hist.h[f].sum(), hist.counts[f].sum()
        gr, hr, cr = G - gl, H - hl, C - cl
        gl_s = soft_threshold(gl, params.reg_alpha)
        gr_s = soft_threshold(gr, params.reg_alpha)
        g_tot_s = soft_threshold(G, params.reg_alpha)
        gains = (
            0.5
            * (
                _gain_term(gl_s, hl, params.reg_lambda)
                + _gain_term(gr_s, hr, params.reg_lambda)
                - _gain_term(np.full_like(gl, g_tot_s), np.full_like(hl, H), params.reg_lambda)
            )
            - params.gamma
        )
        ok = (hl >= params.min_child_weight) & (hr >= params.min_child_weight)
        ok &= gains > min_gain
        per_feature.append((gains, ok, gl, hl, cl, gr, hr, cr))
        if ok.any():
            best_gain = max(best_gain, float(gains[ok].max()))
    if not math.isfinite(best_gain):
        return None
    cutoff = best_gain - GAIN_TIE_REL_TOL * (1.0 + abs(best_gain))
    for f, (gains, ok, gl, hl, cl, gr, hr, cr) in enumerate(per_feature):
        hit = np.flatnonzero(ok & (gains >= cutoff))
        if hit.size:
            b = int(hit[0])
            return SplitCandidate(
                feature=f,
                bin_index=b,
                gain=float(gains[b]),
                left=(float(gl[b]), float(hl[b]), int(cl[b])),
                right=(float(gr[b]), float(hr[b]), int(cr[b])),
            )
    return None


# ---------------------------------------------------------------------------
# Trees and ensembles


@dataclass
class TreeNode:
    node_id: int
    is_leaf: bool
    weight: float = 0.0
    feature: int = -1
    bin_index: int = -1
    threshold: float = math.nan
    owner: str = ""
    record_id: int = -1
    left: int = -1
    right: int = -1


@dataclass
class Tree:
    nodes: list[TreeNode] = field(default_factory=list)

    def root(self) -> TreeNode:
        return self.nodes[0]

    def depth(self) -> int:
        def walk(node_id: int) -> int:
            node = self.nodes[node_id]
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(0) if self.nodes else 0


@dataclass
class BoostedEnsemble:
    trees: list[Tree]
    params: GbtParams
    base_score_logit: float
    feature_names: tuple[str, ...] | None = None

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def tree_leaf_weights_binned(tree: Tree, binned: np.ndarray) -> np.ndarray:
    """Leaf weight per row, routing by bin index (training-time evaluation)."""
    out = np.empty(binned.shape[0])
    for i in range(binned.shape[0]):
        node = tree.nodes[0]
        while not node.is_leaf:
            if binned[i, node.feature] <= node.bin_index:
                node = tree.nodes[node.left]
            else:
                node = tree.nodes[node.right]
        out[i] = node.weight
    return out


def _tree_leaf_weights_raw(tree: Tree, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        node = tree.nodes[0]
        while not node.is_leaf:
            if node.feature < 0 or node.feature >= X.shape[1] or math.isnan(node.threshold):
                raise TrainingError(
                    f"node {node.node_id} references feature {node.feature}, "
                    "which this row does not carry"
                )
            if X[i, node.feature] <= node.threshold:
                node = tree.nodes[node.left]
            else:
                node = tree.nodes[node.right]
        out[i] = node.weight
    return out


def predict_margin(model: BoostedEnsemble, X: np.ndarray, n_trees: int | None = None) -> np.ndarray:
    """Accumulated margin: base score plus learning_rate-scaled leaf weights."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    margins = np.full(X.shape[0], model.base_score_logit, dtype=np.float64)
    use = model.trees if n_trees is None else model.trees[:n_trees]
    for tree in use:
        margins += model.params.learning_rate * _tree_leaf_weights_raw(tree, X)
    return margins


def predict_proba(model: BoostedEnsemble, X: np.ndarray) -> np.ndarray:
    return sigmoid(predict_margin(model, X))


def predict(model: BoostedEnsemble, x: np.ndarray) -> tuple[float, float, int]:
    """(margin, probability, label at 0.5) for a single feature row."""
    margin = float(predict_margin(model, np.atleast_2d(x))[0])
    prob = float(sigmoid(margin))
    return margin, prob, int(prob >= 0.5)


def tree_row_sample(
    n_samples: int, subsample: float, seed: int, tree_index: int, stream: tuple[int, ...] = ()
) -> np.ndarray:
    """Seeded per-tree row subsample (sorted); the full range when subsample=1."""
    if subsample >= 1.0:
        return np.arange(n_samples, dtype=np.int64)
    rng = np.random.default_rng([seed, 9176, tree_index, *stream])
    size = max(1, int(round(subsample * n_samples)))
    return np.sort(rng.choice(n_samples, size=size, replace=False)).astype(np.int64)


def initial_margins(
    n_samples: int, params: GbtParams, seed: int, stream: tuple[int, ...] = ()
) -> np.ndarray:
    """Starting margin per sample: the base score, optionally with seeded noise."""
    margins = np.full(n_samples, params.base_score_logit, dtype=np.float64)
    if params.random_init_scale > 0:
        rng = np.random.default_rng([seed, 3307, *stream])
        margins += params.random_init_scale * rng.standard_normal(n_samples)
    return margins


def _grow_tree(
    binned: np.ndarray,
    binning: Binning,
    g: np.ndarray,
    h: np.ndarray,
    rows: np.ndarray,
    params: GbtParams,
) -> Tree:
    tree = Tree()
    tree.nodes.append(TreeNode(node_id=0, is_leaf=False))
    frontier: list[tuple[int, np.ndarray, int]] = [(0, rows, 0)]
    while frontier:
        node_id, samples, depth = frontier.pop(0)
        node = tree.nodes[node_id]
        G, H = float(g[samples].sum()), float(h[samples].sum())
        if depth >= params.max_depth or samples.size < 2:
            _finalize_leaf(node, G, H, params)
            continue
        hist = build_histogram(binned, g, h, samples, binning.n_bins)
        best = find_best_split(hist, params)
        if best is None or best.left[2] == 0 or best.right[2] == 0:
            _finalize_leaf(node, G, H, params)
            continue
        left_mask = binned[samples, best.feature] <= best.bin_index
        left_id, right_id = len(tree.nodes), len(tree.nodes) + 1
        node.is_leaf = False
        node.feature = best.feature
        node.bin_index = best.bin_index
        node.threshold = binning.threshold(best.feature, best.bin_index)
        node.left, node.right = left_id, right_id
        tree.nodes.append(TreeNode(node_id=left_id, is_leaf=False))
        tree.nodes.append(TreeNode(node_id=right_id, is_leaf=False))
        frontier.append((left_id, samples[left_mask], depth + 1))
        frontier.append((right_id, samples[~left_mask], depth + 1))
    return tree


def _finalize_leaf(node: TreeNode, G: float, H: float, params: GbtParams) -> None:
    node.is_leaf = True
    node.weight = leaf_weight(float(soft_threshold(G, params.reg_alpha)), H, params.reg_lambda)


def train_centralized(
    data: PartyDataset,
    params: GbtParams,
    seed: int = 0,
    binning: Binning | None = None,
) -> BoostedEnsemble:
    """Boosted training on a single pooled dataset.

    Pass a precomputed binning to reproduce a federated run's shared
    boundaries; otherwise boundaries come from this dataset's own ranges.
    """
    if data.labels is None:
        raise TrainingError("labeled data required")
    if data.n_samples == 0:
        raise TrainingError("empty dataset")
    X, y = data.features, data.labels
    binning = binning or compute_binning(X, params.max_bin)
    binned = binning.bin_matrix(X)
    margins = initial_margins(data.n_samples, params, seed)
    trees: list[Tree] = []
    for t in range(params.n_estimators):
        rows = tree_row_sample(data.n_samples, params.subsample, seed, t)
        g, h = logistic_gradients(y, margins)
        tree = _grow_tree(binned, binning, g, h, rows, params)
        trees.append(tree)
        margins += params.learning_rate * tree_leaf_weights_binned(tree, binned)
    return BoostedEnsemble(
        trees=trees,
        params=params,
        base_score_logit=params.base_score_logit,
        feature_names=data.feature_names,
    )


# ---------------------------------------------------------------------------
# Model document (versioned tree list, explicit child indices)

MODEL_FORMAT_VERSION = 1


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"id": node.node_id, "leaf": True, "weight": node.weight}
    out = {
        "id": node.node_id,
        "leaf": False,
        "feature": node.feature,
        "bin": node.bin_index,
        "left": node.left,
        "right": node.right,
    }
    if not math.isnan(node.threshold):
        out["threshold"] = node.threshold
    if node.owner:
        out["owner"] = node.owner
    if node.record_id >= 0:
        out["record"] = node.record_id
    return out


def model_to_dict(model: BoostedEnsemble) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "base_score_logit": model.base_score_logit,
        "learning_rate": model.params.learning_rate,
        "params": asdict(model.params),
        "feature_names": list(model.feature_names) if model.feature_names else None,
        "trees": [{"nodes": [_node_to_dict(n) for n in t.nodes]} for t in model.trees],
    }


def model_to_json(model: BoostedEnsemble) -> str:
    return json.dumps(model_to_dict(model), indent=2, sort_keys=True)


def model_from_dict(doc: dict) -> BoostedEnsemble:
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise TrainingError(f"unsupported model format: {doc.get('format_version')!r}")
    params = GbtParams(**doc["params"])
    trees = []
    for tdoc in doc["trees"]:
        nodes = []
        for nd in tdoc["nodes"]:
            if nd["leaf"]:
                nodes.append(TreeNode(node_id=nd["id"], is_leaf=True, weight=nd["weight"]))
            else:
                nodes.append(
                    TreeNode(
                        node_id=nd["id"],
                        is_leaf=False,
                        feature=nd["feature"],
                        bin_index=nd["bin"],
                        threshold=nd.get("threshold", math.nan),
                        owner=nd.get("owner", ""),
                        record_id=nd.get("record", -1),
                        left=nd["left"],
                        right=nd["right"],
                    )
                )
        nodes.sort(key=lambda n: n.node_id)
        trees.append(Tree(nodes=nodes))
    names = doc.get("feature_names")
    return BoostedEnsemble(
        trees=trees,
        params=params,
        base_score_logit=doc["base_score_logit"],
        feature_names=tuple(names) if names else None,
    )


def model_from_json(text: str) -> BoostedEnsemble:
    return model_from_dict(json.loads(text))
