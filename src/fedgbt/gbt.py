"""Histogram-based gradient-boosted trees for binary classification.

This is the shared mathematical core: the centralized trainer here and the
federated trainers in :mod:`fedgbt.hfl` / :mod:`fedgbt.vfl` all reduce to the
same per-bin gradient sums, the same split-gain scan, and the same leaf
weights, which is what makes the federated-versus-centralized equivalence
checks meaningful.  All three grow their trees with :func:`grow_tree`, and
differ only in where a node's histogram comes from and how a level's
samples are partitioned.

Conventions fixed across every training path:

* equal-width binning over each feature's [min, max]; a sample with value x
  lands in the bin counting thresholds strictly below x, so x goes left at a
  split exactly when x <= threshold;
* g and h are quantized once per sample per tree (:func:`quantize`), and
  every histogram is an int64 sum of them, exact in any order: every trainer
  holds the same integers, and sibling subtraction is exact;
* split search reads the integer prefix sums as floats once, so equal sums
  give equal gains, and a tie goes to the lowest feature id, then bin;
* boosting updates margins by ``learning_rate * leaf_weight`` per tree;
* histograms, split search and routing are vectorized over features, bins,
  rows and trees, yet every result equals a per-feature, per-row loop's:
  margins accumulate tree by tree.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field, asdict

import numpy as np

from .data import PartyDataset
from .paillier import EncodingError


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
    if X.shape[1] == 0:
        raise TrainingError("no features to bin")
    rows = [compute_bins(X[:, f], n_bins) for f in range(X.shape[1])]
    return Binning(boundaries=np.vstack(rows), n_bins=n_bins)


def binning_from_ranges(lows: np.ndarray, highs: np.ndarray, n_bins: int) -> Binning:
    rows = [boundaries_from_range(float(lo), float(hi), n_bins) for lo, hi in zip(lows, highs)]
    if not rows:
        raise TrainingError("no features to bin")
    return Binning(boundaries=np.vstack(rows), n_bins=n_bins)


# ---------------------------------------------------------------------------
# Fixed-point gradients

# g and h travel and sum as integers scaled by 2**GRAD_SCALE_BITS
GRAD_SCALE_BITS = 40
GRAD_SCALE = 1 << GRAD_SCALE_BITS


def quantize(x) -> np.ndarray:
    """``x * 2**GRAD_SCALE_BITS`` rounded half to even, as int64; a value
    whose image leaves int64 raises :class:`EncodingError`."""
    scaled = np.rint(np.asarray(x, dtype=np.float64) * GRAD_SCALE)
    if not (np.abs(scaled) < 2.0**63).all():
        raise EncodingError("a gradient's fixed-point image leaves int64")
    return scaled.astype(np.int64)


def check_capacity(modulus: int, terms: int) -> None:
    """Raise unless sums of ``terms`` quantized values of magnitude at most
    1 (every logistic g and h) stay below ``modulus / 2``, so they read back
    signed from their residues without a wrap."""
    if (2 * terms) << GRAD_SCALE_BITS >= modulus:
        raise EncodingError(f"modulus too small for {terms} terms of magnitude 1")


# ---------------------------------------------------------------------------
# Gradient histograms


@dataclass
class GradHistogram:
    """Per-feature, per-bin int64 sums of quantized g and h plus sample counts."""

    g: np.ndarray  # (n_features, n_bins)
    h: np.ndarray
    counts: np.ndarray

    @property
    def n_features(self) -> int:
        return self.g.shape[0]

    @property
    def n_bins(self) -> int:
        return self.g.shape[1]

    def totals(self) -> tuple[int, int, int]:
        """Node-level (G, H, count); every feature row sums to the same totals."""
        return int(self.g[0].sum()), int(self.h[0].sum()), int(self.counts[0].sum())

    def subtract(self, other: "GradHistogram") -> "GradHistogram":
        """The sibling's sums: this parent's minus one child's, exactly."""
        return GradHistogram(self.g - other.g, self.h - other.h, self.counts - other.counts)


def build_histogram(
    binned: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    sample_idx: np.ndarray,
    n_bins: int,
) -> GradHistogram:
    """Accumulate (G, H, count) per feature and bin over the given samples.

    ``g`` and ``h`` are quantized (int64).  One offset ``np.add.at`` per
    statistic covers every feature, cell ``f * n_bins + b``; integer sums
    are exact in any order.
    """
    n_features = binned.shape[1]
    idx = np.asarray(sample_idx, dtype=np.int64)
    # binned[idx] is a copy, so the offsets go in place without a second buffer
    cells = binned[idx].astype(np.intp, copy=False)
    cells += np.arange(n_features) * n_bins
    cells = cells.ravel()
    size, shape = n_features * n_bins, (n_features, n_bins)
    sums = [np.zeros(size, dtype=np.int64) for _ in range(2)]
    for out, values in zip(sums, (g, h)):
        np.add.at(out, cells, np.repeat(values[idx], n_features))
    counts = np.bincount(cells, minlength=size)
    return GradHistogram(*(a.reshape(shape) for a in (*sums, counts)))


# ---------------------------------------------------------------------------
# Split search


def soft_threshold(g, alpha: float):
    """L1 shrinkage of an aggregated gradient: sign(g) * max(|g| - alpha, 0)."""
    if alpha == 0:
        return g
    return np.sign(g) * np.maximum(np.abs(g) - alpha, 0.0)


def _gain_term(G, H, reg_lambda: float):
    """G^2 / (H + reg_lambda) where the denominator is positive, else 0."""
    den = np.asarray(H, dtype=np.float64) + reg_lambda
    return np.divide(np.square(G), den, out=np.zeros(den.shape), where=den > 0)


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
    left: tuple[int, int, int]  # quantized (G, H) and count
    right: tuple[int, int, int]


# A gain must clear min_split_gain by this much relative to the parent's
# score term.  A node whose samples share one g/h ratio has zero gain for
# every partition, and at reg_lambda=0 float rounding in the gain formula
# would otherwise pick a split at random.
GAIN_NOISE_REL_TOL = 1e-9


def find_best_split(hist: GradHistogram, params: GbtParams) -> SplitCandidate | None:
    """Scan every feature and interior bin boundary for the highest gain.

    Returns None when no candidate clears min_split_gain (plus the
    GAIN_NOISE_REL_TOL margin) with both children at or above
    min_child_weight in hessian mass.  The integer prefix sums become floats
    once, so equal sums give bit-identical gains, and a tie goes to the
    lowest feature id, then the lowest bin index.
    """
    G_node, H_node, n_node = hist.totals()
    alpha, lam = params.reg_alpha, params.reg_lambda
    parent_term = float(_gain_term(soft_threshold(G_node / GRAD_SCALE, alpha),
                                   H_node / GRAD_SCALE, lam))
    min_gain = params.min_split_gain + GAIN_NOISE_REL_TOL * (1.0 + parent_term)
    # (3, n_features, n_bins - 1) integer grids of (G, H, count): the left
    # side takes bins 0..b, the right side the rest of the node
    left = np.cumsum(np.stack([hist.g, hist.h, hist.counts]), axis=2)[:, :, :-1]
    right = np.array([G_node, H_node, n_node]).reshape(3, 1, 1) - left
    gl, hl = left[:2] / GRAD_SCALE
    gr, hr = right[:2] / GRAD_SCALE
    gains = (
        0.5
        * (
            _gain_term(soft_threshold(gl, alpha), hl, lam)
            + _gain_term(soft_threshold(gr, alpha), hr, lam)
            - parent_term
        )
        - params.gamma
    )
    ok = (hl >= params.min_child_weight) & (hr >= params.min_child_weight) & (gains > min_gain)
    if not ok.any():
        return None
    best_gain = float(gains[ok].max())
    if not math.isfinite(best_gain):
        return None
    # row-major order: the lowest feature first, then the lowest bin
    f, b = divmod(int(np.flatnonzero(ok & (gains == best_gain))[0]), gains.shape[1])
    return SplitCandidate(
        feature=f,
        bin_index=b,
        gain=best_gain,
        left=tuple(int(v) for v in left[:, f, b]),
        right=tuple(int(v) for v in right[:, f, b]),
    )


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

    def depth(self) -> int:
        def walk(node_id: int) -> int:
            node = self.nodes[node_id]
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(0) if self.nodes else 0


@dataclass(frozen=True, eq=False)
class CompiledTrees:
    """Trees as flat node arrays.  Node ``i`` sends a row left when its
    ``feature[i]`` value is at most ``threshold[i]`` (raw rows) or
    ``bin_index[i]`` (binned rows); a leaf points at itself on both sides.
    ``table`` holds the nodes as tuples for the single-row walker, and rows
    must carry ``width`` features (infinite when a split has no raw
    threshold, as a vertical model's foreign splits do)."""

    feature: np.ndarray
    threshold: np.ndarray
    bin_index: np.ndarray
    left: np.ndarray
    right: np.ndarray
    weight: np.ndarray
    roots: np.ndarray
    depth: int
    width: float
    table: list  # (feature, threshold, bin_index, left, right, weight) per node


def compile_trees(trees: list[Tree]) -> CompiledTrees:
    """Flatten trees whose node ids are their list positions."""
    table, roots = [], []
    for tree in trees:
        roots.append(base := len(table))
        table += [(0, 0.0, 0, base + i, base + i, n.weight) if n.is_leaf else
                  (n.feature, n.threshold, n.bin_index, base + n.left, base + n.right, 0.0)
                  for i, n in enumerate(tree.nodes)]
    types = (np.int64, np.float64, np.int64, np.int64, np.int64, np.float64)
    columns = [np.array(c, dtype=d) for c, d in zip(list(zip(*table)) or [()] * 6, types)]
    return CompiledTrees(
        *columns, roots=np.array(roots, dtype=np.int64),
        depth=max((t.depth() for t in trees), default=0),
        width=max((n.feature + 1 if n.feature >= 0 and not math.isnan(n.threshold) else math.inf
                   for t in trees for n in t.nodes if not n.is_leaf), default=0),
        table=table,
    )


def _route(compiled: CompiledTrees, X: np.ndarray, cuts: np.ndarray,
           roots: np.ndarray) -> np.ndarray:
    """Leaf node per (row, tree); each step moves every row down every tree."""
    n, n_features = X.shape
    flat = X.ravel()
    row_start = (np.arange(n, dtype=np.int64) * n_features)[:, None]
    node = np.tile(roots, (n, 1))
    for _ in range(compiled.depth):
        go_left = flat[row_start + compiled.feature[node]] <= cuts[node]
        node = np.where(go_left, compiled.left[node], compiled.right[node])
    return node


@dataclass
class BoostedEnsemble:
    """A boosted model.  Trees must not change once they are in an
    ensemble: the first prediction compiles them into :class:`CompiledTrees`,
    which every later prediction reuses."""

    trees: list[Tree]
    params: GbtParams
    base_score_logit: float
    feature_names: tuple[str, ...] | None = None
    _compiled: CompiledTrees | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def compiled(self, n_features: int) -> CompiledTrees:
        """The compiled trees, once rows of ``n_features`` features are
        known to carry every feature a split reads."""
        if self._compiled is None:
            self._compiled = compile_trees(self.trees)
        if n_features < self._compiled.width:
            node = next(n for t in self.trees for n in t.nodes if not n.is_leaf and not (
                0 <= n.feature < n_features and not math.isnan(n.threshold)))
            raise TrainingError(f"node {node.node_id} references feature {node.feature}, "
                                "which this row does not carry")
        return self._compiled


def tree_leaf_weights_binned(tree: Tree, binned: np.ndarray) -> np.ndarray:
    """Leaf weight per row, routing by bin index (training-time evaluation)."""
    compiled = compile_trees([tree])
    return compiled.weight[_route(compiled, binned, compiled.bin_index, compiled.roots)[:, 0]]


def predict_margin(model: BoostedEnsemble, X: np.ndarray, n_trees: int | None = None) -> np.ndarray:
    """Accumulated margin: base score plus learning_rate-scaled leaf weights.

    The first ``n_trees`` trees (all by default) are summed left to right,
    as ``margins += learning_rate * weights`` tree by tree would.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    compiled = model.compiled(X.shape[1])
    leaves = _route(compiled, X, compiled.threshold, compiled.roots[:n_trees])
    terms = np.empty((X.shape[0], leaves.shape[1] + 1))
    terms[:, 0] = model.base_score_logit
    terms[:, 1:] = model.params.learning_rate * compiled.weight[leaves]
    return np.cumsum(terms, axis=1)[:, -1]


def predict_proba(model: BoostedEnsemble, X: np.ndarray) -> np.ndarray:
    return sigmoid(predict_margin(model, X))


def predict(model: BoostedEnsemble, x: np.ndarray) -> tuple[float, float, int]:
    """(margin, probability, label at 0.5) for a single feature row.

    A plain Python walk over the compiled nodes: for one row it beats the
    router's fixed numpy cost, and its float operations are the same, so
    the margin equals ``predict_margin``'s.
    """
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    compiled = model.compiled(X.shape[1])
    table, row = compiled.table, X[0].tolist()
    margin, rate = float(model.base_score_logit), model.params.learning_rate
    for node in compiled.roots.tolist():
        feature, threshold, _, left, right, weight = table[node]
        while left != node:
            node = left if row[feature] <= threshold else right
            feature, threshold, _, left, right, weight = table[node]
        margin += rate * weight
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


def leaf_value(G: int, H: int, params: GbtParams) -> float:
    """The weight of a leaf whose samples' quantized g and h sum to G and H."""
    G, H = G / GRAD_SCALE, H / GRAD_SCALE
    return leaf_weight(float(soft_threshold(G, params.reg_alpha)), H, params.reg_lambda)


def grow_tree(
    params: GbtParams,
    histogram: Callable[[int], GradHistogram | None],
    totals: Callable[[int], tuple[int, int]],
    finish_level: Callable[[Tree, int, list[int]], None],
) -> Tree:
    """Grow one tree level by level: the one grower of every trainer.

    Below ``max_depth`` a node takes the best split of ``histogram(node_id)``
    (None when the node cannot split) unless it leaves a child empty; else it
    is a leaf weighted from ``totals(node_id)``, the node's quantized (G, H).
    Children are numbered in level order.  ``finish_level(tree, depth,
    level)`` then does a trainer's own work on the decided level:
    partitions, thresholds, child histograms.
    """
    tree = Tree(nodes=[TreeNode(node_id=0, is_leaf=False)])
    level, depth = [0], 0
    while level:
        next_level = []
        for node_id in level:
            node = tree.nodes[node_id]
            hist = histogram(node_id) if depth < params.max_depth else None
            best = None if hist is None else find_best_split(hist, params)
            if best is None or best.left[2] == 0 or best.right[2] == 0:
                node.is_leaf = True
                node.weight = leaf_value(*totals(node_id), params)
                continue
            node.feature, node.bin_index = best.feature, best.bin_index
            node.left, node.right = len(tree.nodes), len(tree.nodes) + 1
            tree.nodes += [TreeNode(node_id=node.left, is_leaf=False),
                           TreeNode(node_id=node.right, is_leaf=False)]
            next_level += [node.left, node.right]
        finish_level(tree, depth, level)
        level, depth = next_level, depth + 1
    return tree


def _grow_pooled(binned: np.ndarray, binning: Binning, g: np.ndarray, h: np.ndarray,
                 rows: np.ndarray, params: GbtParams) -> Tree:
    """One tree over the pooled rows.  Each split builds the histogram of its
    smaller child (by rows; a tie builds the left) and derives the larger as
    parent minus smaller, exact in int64.  Only one level's histograms are
    kept, and nodes at ``max_depth``, which the grower never asks for, get
    none."""
    samples = {0: rows}
    hists = {}
    if params.max_depth > 0 and rows.size >= 2:
        hists[0] = build_histogram(binned, g, h, rows, binning.n_bins)

    def histogram(node_id):
        return hists[node_id] if samples[node_id].size >= 2 else None

    def totals(node_id):
        return int(g[samples[node_id]].sum()), int(h[samples[node_id]].sum())

    def finish_level(tree, depth, level):
        parents = hists.copy()
        hists.clear()
        for node in (tree.nodes[i] for i in level if not tree.nodes[i].is_leaf):
            rows = samples.pop(node.node_id)
            left = binned[rows, node.feature] <= node.bin_index
            samples[node.left], samples[node.right] = rows[left], rows[~left]
            node.threshold = binning.threshold(node.feature, node.bin_index)
            n_left, n_right = samples[node.left].size, samples[node.right].size
            if depth + 1 < params.max_depth and max(n_left, n_right) >= 2:
                small, large = ((node.left, node.right) if n_left <= n_right
                                else (node.right, node.left))
                hists[small] = build_histogram(binned, g, h, samples[small], binning.n_bins)
                hists[large] = parents[node.node_id].subtract(hists[small])

    return grow_tree(params, histogram, totals, finish_level)


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
    check_capacity(1 << 64, data.n_samples)  # every histogram sum fits int64
    margins = initial_margins(data.n_samples, params, seed)
    trees: list[Tree] = []
    for t in range(params.n_estimators):
        rows = tree_row_sample(data.n_samples, params.subsample, seed, t)
        g, h = map(quantize, logistic_gradients(y, margins))
        tree = _grow_pooled(binned, binning, g, h, rows, params)
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


def node_to_dict(node: TreeNode) -> dict:
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
        "trees": [{"nodes": [node_to_dict(n) for n in t.nodes]} for t in model.trees],
    }


def model_to_json(model: BoostedEnsemble) -> str:
    return json.dumps(model_to_dict(model), indent=2, sort_keys=True)


def tree_from_dicts(docs: list[dict]) -> Tree:
    """A tree from its node documents (any order; ids are positions)."""
    nodes = []
    for nd in docs:
        if nd["leaf"]:
            nodes.append(TreeNode(node_id=nd["id"], is_leaf=True, weight=nd["weight"]))
        else:
            nodes.append(TreeNode(
                node_id=nd["id"], is_leaf=False, feature=nd["feature"], bin_index=nd["bin"],
                threshold=nd.get("threshold", math.nan), owner=nd.get("owner", ""),
                record_id=nd.get("record", -1), left=nd["left"], right=nd["right"],
            ))
    nodes.sort(key=lambda n: n.node_id)
    return Tree(nodes=nodes)


def model_from_dict(doc: dict) -> BoostedEnsemble:
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise TrainingError(f"unsupported model format: {doc.get('format_version')!r}")
    names = doc.get("feature_names")
    return BoostedEnsemble(
        trees=[tree_from_dicts(tdoc["nodes"]) for tdoc in doc["trees"]],
        params=GbtParams(**doc["params"]),
        base_score_logit=doc["base_score_logit"],
        feature_names=tuple(names) if names else None,
    )


def model_from_json(text: str) -> BoostedEnsemble:
    return model_from_dict(json.loads(text))
