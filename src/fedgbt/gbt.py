"""Histogram-based gradient-boosted trees for binary classification.

This is the shared mathematical core: the centralized trainer here and the
federated trainers in :mod:`fedgbt.hfl` / :mod:`fedgbt.vfl` all reduce to the
same per-bin gradient sums, the same split-gain scan, and the same leaf
weights, which is what makes the federated-versus-centralized equivalence
checks meaningful.  All three grow their trees with :func:`grow_tree`, which
owns every node's totals, sibling subtraction and the histogram checks; they
differ only in how a level's samples are partitioned and where a built
histogram comes from.  The core is vectorized over a level's nodes: one
product of the rows' one-hot cells and their gradients builds the
histograms a level asks for, and one call each checks them and searches
their splits.

Conventions fixed across every training path:

* equal-width binning over each feature's [min, max]; a sample with value x
  lands in the bin counting thresholds strictly below x, so x goes left at a
  split exactly when x <= threshold;
* g and h are quantized once per sample per tree (:func:`quantize`), and
  every histogram sums them in float64 under the 2^53 bound
  (``FLOAT64_MODULUS``), so it is exact in any order and read back as int64:
  every trainer holds the same integers, and sibling subtraction is exact;
* split search reads the integer prefix sums as floats once, so equal sums
  give equal gains, and a tie goes to the lowest feature id, then bin;
* boosting updates margins by ``learning_rate * leaf_weight`` per tree;
* histograms, split search and routing are vectorized over nodes, features,
  bins, rows and trees, yet every result equals a per-node, per-feature,
  per-row loop's: margins accumulate tree by tree;
* a trainer bins its rows once per training, into one contiguous small-int
  row per feature (:meth:`Binning.bin_columns`), which partitions read, and
  each row's flat cell ids (:func:`cell_ids`), which histograms read.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field, asdict
from itertools import repeat

import numpy as np
from scipy import sparse

from .data import PartyDataset
from .paillier import EncodingError


class TrainingError(ValueError):
    """Invalid training inputs (empty data, missing labels, bad params)."""


class DegenerateNodeError(ZeroDivisionError):
    """Leaf weight requested with a vanishing curvature denominator."""


class ProtocolError(RuntimeError):
    """A round produced inconsistent or missing protocol data."""


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


@dataclass(frozen=True)
class Binning:
    """Per-feature equal-width thresholds shared by all samples of a run."""

    boundaries: np.ndarray  # (n_features, n_bins - 1)
    n_bins: int

    def bin_columns(self, X: np.ndarray) -> np.ndarray:
        """Bin per feature and row, ``(n_features, n)``: each feature one
        contiguous row of the smallest unsigned type that holds a bin."""
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape[::-1], dtype=np.min_scalar_type(self.n_bins - 1))
        for f in range(X.shape[1]):
            # Counting thresholds strictly below x puts x == threshold in the
            # lower bin, so "bin <= split bin" matches "x <= threshold".
            out[f] = np.searchsorted(self.boundaries[f], X[:, f], side="left")
        return out

    def threshold(self, feature: int, bin_index: int) -> float:
        return float(self.boundaries[feature][bin_index])


def cell_ids(columns: np.ndarray, n_bins: int) -> np.ndarray:
    """Each row's flat cell id ``f * n_bins + b`` per feature: ``(n,
    n_features)`` int32, from :meth:`Binning.bin_columns`."""
    cells = columns.T.astype(np.int32, order="C")
    cells += np.arange(columns.shape[0], dtype=np.int32) * n_bins
    return cells


def compute_binning(X: np.ndarray, n_bins: int) -> Binning:
    """Thresholds for each feature from its observed range."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] == 0:
        raise TrainingError("cannot bin an empty matrix")
    return binning_from_ranges(X.min(axis=0), X.max(axis=0), n_bins)


def binning_from_ranges(lows: np.ndarray, highs: np.ndarray, n_bins: int) -> Binning:
    rows = [boundaries_from_range(float(lo), float(hi), n_bins) for lo, hi in zip(lows, highs)]
    if not rows:
        raise TrainingError("no features to bin")
    return Binning(boundaries=np.vstack(rows), n_bins=n_bins)


# ---------------------------------------------------------------------------
# Fixed-point gradients

# g and h travel and sum as integers scaled by 2**GRAD_SCALE_BITS
GRAD_SCALE_BITS = 20
GRAD_SCALE = 1 << GRAD_SCALE_BITS
# histograms sum in int64: check_capacity(INT64_MODULUS, n) bounds n samples' sums
INT64_MODULUS = 1 << 64
# and accumulate in float64, exact while every sum stays within 2^53:
# check_capacity(FLOAT64_MODULUS, n), read as a signed ring of twice that, bounds them
FLOAT64_MODULUS = 1 << 54


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
# Packed slots


def _uint64_words(bits: np.ndarray) -> np.ndarray:
    """Rows of at most 64 little-endian bits -> one uint64 per row."""
    padded = np.zeros((bits.shape[0], 64), dtype=np.uint8)
    padded[:, :bits.shape[1]] = bits
    return np.packbits(padded, axis=1, bitorder="little").view("<u8").ravel()


@dataclass(frozen=True)
class PackedLayout:
    """Fixed-width slots side by side in one integer, the layout of both
    federations' packed histograms.

    A party puts ``v + offset`` in each slot, ``v`` a quantized sum, which
    is positive and below ``2 * offset`` while ``|v| < offset``, and
    ``width`` leaves room for the sum of ``n_clients`` such slots.  Slot
    ``j`` of a packed integer is bits ``[width * j, width * (j + 1))``.  The
    horizontal clients pack residues of a ring
    (:func:`fedgbt.hfl.packed_layout`); a vertical passive party folds each
    run of ``slots`` bin sums into one ciphertext, with ``n_clients = 1``
    (:func:`fedgbt.vfl.histogram_layout`).
    """

    offset: int
    width: int
    slots: int
    n_clients: int

    def pack(self, values) -> list[int]:
        """Quantized int64 values -> integers of up to ``slots`` slots each.

        The slots are built in uint64: ``v + offset < 2 * offset`` fits
        whenever the int64 capacity check admits the roster.
        """
        values = np.asarray(values, dtype=np.int64).ravel()
        bad = np.flatnonzero((values <= -self.offset) | (values >= self.offset))
        if bad.size:
            raise EncodingError(f"slot value {values[bad[0]]} reaches the packing offset "
                                f"2^{self.offset.bit_length() - 1}")
        # v + offset wraps back into range from the two's-complement cast
        slot = values.astype(np.uint64) + np.uint64(self.offset)
        bits = np.unpackbits(slot.astype("<u8").view(np.uint8).reshape(-1, 8), axis=1,
                             bitorder="little")
        keep = min(self.width, 64)  # v + offset < 2 * offset <= 2^width, and fits uint64
        n_res = -(-values.size // self.slots)
        laid = np.zeros((n_res * self.slots, self.width), dtype=np.uint8)
        laid[:values.size, :keep] = bits[:, :keep]
        size = -(-self.slots * self.width // 8)
        laid = np.packbits(laid.reshape(n_res, self.slots * self.width), axis=1,
                           bitorder="little").tobytes()
        return [int.from_bytes(laid[k:k + size], "little") for k in range(0, len(laid), size)]

    def unpack(self, totals: list[int], n_values: int) -> list[int]:
        """Aggregates of ``n_clients`` packings -> the summed values.

        Each total is checked for bits above its used slots; then every slot
        is read at once in numpy, mirroring :meth:`pack`: its low 64 bits as
        one uint64, and any bits above them (widths over 64 only) as another.
        """
        last = n_values - (len(totals) - 1) * self.slots  # slots the last total uses
        if totals and (not 0 < last <= self.slots or totals[-1] >> (self.width * last)
                       or max(totals[:-1], default=0) >> (self.width * self.slots)):
            for i, total in enumerate(totals):  # name the first offender
                used = min(self.slots, n_values - i * self.slots)
                if total >> (self.width * used):
                    raise ProtocolError(
                        f"packed aggregate {i} has bits above its {used} slots: "
                        "a submission was tampered with or counted twice"
                    )
        size = -(-self.slots * self.width // 8)
        raw = np.frombuffer(b"".join(map(int.to_bytes, totals, repeat(size), repeat("little"))),
                            dtype=np.uint8)
        bits = np.unpackbits(raw.reshape(len(totals), size), axis=1, bitorder="little")
        bits = bits[:, :self.slots * self.width].reshape(-1, self.width)[:n_values]
        low = _uint64_words(bits[:, :64])
        bias = self.n_clients * self.offset
        if self.width <= 64 and max(bias, (1 << self.width) - bias) <= 1 << 63:
            # every slot minus the bias lies in int64: subtract with wraparound
            return (low - np.uint64(bias)).view(np.int64).tolist()
        high = _uint64_words(bits[:, 64:])
        return [hi * INT64_MODULUS + lo - bias for hi, lo in zip(high.tolist(), low.tolist())]


# ---------------------------------------------------------------------------
# Gradient histograms


@dataclass
class GradHistogram:
    """Per-feature, per-bin int64 sums of quantized g and h plus sample counts."""

    g: np.ndarray  # (n_features, n_bins)
    h: np.ndarray
    counts: np.ndarray

    def totals(self) -> tuple[int, int, int]:
        """Node-level (G, H, count); every feature row sums to the same totals."""
        return int(self.g[0].sum()), int(self.h[0].sum()), int(self.counts[0].sum())

    def subtract(self, other: "GradHistogram") -> "GradHistogram":
        """The sibling's sums: this parent's minus one child's, exactly."""
        return GradHistogram(self.g - other.g, self.h - other.h, self.counts - other.counts)


def check_histogram(hists: list[GradHistogram], totals: list[tuple[int, int, int]],
                    where: list[str]) -> list[GradHistogram]:
    """Return ``hists`` if quantized logistic gradients can have produced
    each at a node of its ``totals`` = (G, H, n), else raise
    :class:`ProtocolError` naming the first offender's ``where``.  It
    requires, with ``S = GRAD_SCALE_BITS``:

    * every feature row sums to (G, H, n);
    * per bin, ``count <= n`` (so no row sum wraps int64) and
      ``|G| <= count * 2**S``, the most ``count`` values of ``|g| <= 1`` sum to;
    * per bin, ``0 <= H <= count * 2**(S - 2)``, since a logistic h is at
      most 1/4 and ``2**S / 4`` is exact.  This also requires ``count >= 0``
      and zero sums in every empty bin.

    The histograms are checked as one ``(nodes, F, B)`` stack; the first
    that fails is reported as a check of it alone would report it, a bin
    before a row.
    """
    if not hists:
        return []
    g, h, counts = np.array([(x.g, x.h, x.counts) for x in hists]).swapaxes(0, 1)
    node = np.array(totals, dtype=np.int64)[:, :, None]
    top = counts << GRAD_SCALE_BITS
    bad = (counts > node[:, 2:]) | (g > top) | (g < -top) | (h < 0) | (h > top >> 2)
    off = (g.sum(axis=2) != node[:, 0]) | (h.sum(axis=2) != node[:, 1]) | (
        counts.sum(axis=2) != node[:, 2])
    if np.count_nonzero(bad) or np.count_nonzero(off):
        i = int(np.flatnonzero(bad.any(axis=(1, 2)) | off.any(axis=1))[0])
        g, h, counts = g[i], h[i], counts[i]
        if bad[i].any():
            f, b = (int(k) for k in np.argwhere(bad[i])[0])
            raise ProtocolError(
                f"{where[i]}: feature {f}, bin {b} holds (G, H, count) = ({g[f, b]}, "
                f"{h[f, b]}, {counts[f, b]}), beyond what that many logistic gradients sum to")
        f = int(np.flatnonzero(off[i])[0])
        raise ProtocolError(f"{where[i]}: feature {f} sums to (G, H, count) = ({g[f].sum()}, "
                            f"{h[f].sum()}, {counts[f].sum()}), not the node's {tuple(totals[i])}")
    return hists


def build_histogram(cells: np.ndarray, g: np.ndarray, h: np.ndarray, row_sets: list[np.ndarray],
                    n_bins: int) -> list[GradHistogram]:
    """(G, H, count) per feature and bin of each row set, in one product.

    ``cells`` holds each row's flat cell ids (:func:`cell_ids`) and ``g``
    and ``h`` are quantized (int64).  Set ``k``'s rows put a one in cell
    ``k * F * n_bins + f * n_bins + b`` per feature, a sparse matrix that
    multiplies the float64 columns ``[g h 1]`` of the same rows.  Every term
    is an integer, so each sum is exact in any order while it stays within
    ``FLOAT64_MODULUS / 2``, which every trainer checks, and reads back as
    an int64.
    """
    if not row_sets:
        return []
    n_sets, n_features = len(row_sets), cells.shape[1]
    size = n_sets * n_features * n_bins
    rows = np.concatenate(row_sets)
    onehot = cells[rows]
    if n_sets > 1:
        onehot += np.repeat(np.arange(n_sets, dtype=np.int32) * (size // n_sets),
                            [len(r) for r in row_sets])[:, None]
    weights = np.empty((rows.size, 3))
    weights[:, 0], weights[:, 1], weights[:, 2] = g[rows], h[rows], 1.0
    sums = (sparse.csc_matrix(
        (np.ones(onehot.size), onehot.ravel(), np.arange(0, onehot.size + 1, n_features)),
        shape=(size, rows.size)) @ weights).T
    sums = sums.astype(np.int64, order="C").reshape(3, n_sets, n_features, n_bins)
    return [GradHistogram(*sums[:, k]) for k in range(n_sets)]


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


def find_best_split(hists: list[GradHistogram], params: GbtParams) -> list[SplitCandidate | None]:
    """Per histogram, scan every feature and interior bin boundary for the
    highest gain; the histograms are searched as one ``(nodes, F, B)`` stack.

    A node's result is None when no candidate clears min_split_gain (plus
    the GAIN_NOISE_REL_TOL margin) with both children at or above
    min_child_weight in hessian mass.  The integer prefix sums become floats
    once, so equal sums give bit-identical gains, and a tie goes to the
    lowest feature id, then the lowest bin index.
    """
    if not hists:
        return []
    # (nodes, 3, F, B) integer grids of (G, H, count); every feature row
    # sums to its node's totals
    grid = np.array([(x.g, x.h, x.counts) for x in hists])
    node = grid[:, :, 0].sum(axis=2)
    alpha, lam = params.reg_alpha, params.reg_lambda
    parent_term = _gain_term(soft_threshold(node[:, 0] / GRAD_SCALE, alpha),
                             node[:, 1] / GRAD_SCALE, lam)[:, None, None]
    min_gain = params.min_split_gain + GAIN_NOISE_REL_TOL * (1.0 + parent_term)
    # the left side takes bins 0..b, the right side the rest of the node
    left = np.cumsum(grid, axis=3)[..., :-1]
    right = node[:, :, None, None] - left
    gl, hl = left[:, 0] / GRAD_SCALE, left[:, 1] / GRAD_SCALE
    gr, hr = right[:, 0] / GRAD_SCALE, right[:, 1] / GRAD_SCALE
    gains = 0.5 * (_gain_term(soft_threshold(gl, alpha), hl, lam)
                   + _gain_term(soft_threshold(gr, alpha), hr, lam) - parent_term) - params.gamma
    ok = (hl >= params.min_child_weight) & (hr >= params.min_child_weight) & (gains > min_gain)
    best = np.where(ok, gains, -np.inf).max(axis=(1, 2))
    # row-major order: the lowest feature first, then the lowest bin
    first = (ok & (gains == best[:, None, None])).reshape(len(hists), -1).argmax(axis=1)
    out = []
    for i, (gain, hit) in enumerate(zip(best.tolist(), first.tolist())):
        f, b = divmod(hit, gains.shape[2])
        out.append(SplitCandidate(f, b, gain, tuple(left[i, :, f, b].tolist()),
                                  tuple(right[i, :, f, b].tolist())) if math.isfinite(gain) else None)
    return out


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
    tree_index: int,
    root: tuple[int, int, int],
    finish_level: Callable[[Tree, int, list[int], dict, list[int]], dict[int, GradHistogram]],
) -> Tree:
    """Grow one tree level by level: the one grower of every trainer.

    ``stats`` holds each node's quantized (G, H, count): ``root``, then each
    child's from its parent's :class:`SplitCandidate`.  A node may split
    while ``depth < max_depth`` and it holds two samples; it takes the best
    split of its histogram unless that leaves a child empty, else it is a
    leaf weighted from its (G, H).  Children are numbered in level order.
    ``finish_level(tree, depth, level, stats, build)`` partitions a decided
    level and returns the histograms of the nodes in ``build``: the root, by
    an empty level at depth -1, if it may split; then, of each split whose
    children may, the smaller child (a tie builds the left).  The larger is
    the parent's histogram minus the smaller's, exactly.  Each level's
    histograms, built and derived in pairs, pass one :func:`check_histogram`
    against their nodes' totals, naming tree ``tree_index`` and the node,
    and one :func:`find_best_split` call searches the nodes that may split.
    One level's histograms are kept.
    """
    tree = Tree(nodes=[TreeNode(node_id=0, is_leaf=False)])
    stats = {0: root}

    def may_split(node_id, depth):
        return depth < params.max_depth and stats[node_id][2] >= 2

    hists = {}
    if may_split(0, 0):
        hists[0] = check_histogram([finish_level(tree, -1, [], stats, [0])[0]], [root],
                                   [f"tree {tree_index}, node 0"])[0]
    level, depth = [0], 0
    while level:
        searched = [node_id for node_id in level if may_split(node_id, depth)]
        found = dict(zip(searched, find_best_split([hists[i] for i in searched], params)))
        next_level, pairs = [], {}  # built child -> (parent, derived sibling)
        for node_id in level:
            node, best = tree.nodes[node_id], found.get(node_id)
            if best is None or best.left[2] == 0 or best.right[2] == 0:
                node.is_leaf = True
                node.weight = leaf_value(*stats[node_id][:2], params)
                continue
            node.feature, node.bin_index = best.feature, best.bin_index
            node.left, node.right = len(tree.nodes), len(tree.nodes) + 1
            tree.nodes += [TreeNode(node_id=node.left, is_leaf=False),
                           TreeNode(node_id=node.right, is_leaf=False)]
            stats[node.left], stats[node.right] = best.left, best.right
            next_level += [node.left, node.right]
            if may_split(node.left, depth + 1) or may_split(node.right, depth + 1):
                small, large = ((node.left, node.right) if best.left[2] <= best.right[2]
                                else (node.right, node.left))
                pairs[small] = (node_id, large)
        got = finish_level(tree, depth, level, stats, list(pairs))
        order, stack, where = [], [], []
        for small, (parent, large) in pairs.items():
            order += [small, large]
            stack += [got[small], hists[parent].subtract(got[small])]
            where += [f"tree {tree_index}, node {small}",
                      f"tree {tree_index}, node {large} (node {parent} minus node {small})"]
        hists = dict(zip(order, check_histogram(stack, [stats[i] for i in order], where)))
        level, depth = next_level, depth + 1
    return tree


def _grow_pooled(columns: np.ndarray, cells: np.ndarray, binning: Binning, g: np.ndarray,
                 h: np.ndarray, rows: np.ndarray, params: GbtParams,
                 tree_index: int) -> tuple[Tree, dict[int, np.ndarray]]:
    """One tree over the pooled rows, and its final partition: leaf id ->
    rows.  Each level's wanted histograms come from one build."""
    samples = {0: rows}

    def finish_level(tree, depth, level, stats, build):
        for node in (tree.nodes[i] for i in level if not tree.nodes[i].is_leaf):
            rows = samples.pop(node.node_id)
            left = columns[node.feature][rows] <= node.bin_index
            samples[node.left], samples[node.right] = rows[left], rows[~left]
            node.threshold = binning.threshold(node.feature, node.bin_index)
        return dict(zip(build, build_histogram(cells, g, h, [samples[n] for n in build],
                                               binning.n_bins)))

    root = int(g[rows].sum()), int(h[rows].sum()), rows.size
    return grow_tree(params, tree_index, root, finish_level), samples


def grown_leaf_weights(tree: Tree, leaves: dict[int, np.ndarray],
                       columns: np.ndarray) -> np.ndarray:
    """Leaf weight per row of ``columns`` (:meth:`Binning.bin_columns`).
    The rows the tree was grown on take it from the grower's final
    partition, ``leaves`` (leaf id -> rows); only the rows that subsampling
    left out are routed by bin index."""
    weights = np.empty(columns.shape[1])
    rest = np.ones(columns.shape[1], dtype=bool)
    for node_id, rows in leaves.items():
        weights[rows], rest[rows] = tree.nodes[node_id].weight, False
    if rest.any():
        weights[rest] = tree_leaf_weights_binned(tree, columns[:, rest].T)
    return weights


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
    columns = binning.bin_columns(X)
    cells = cell_ids(columns, binning.n_bins)
    # every histogram sum is exact in float64, and so fits int64
    check_capacity(FLOAT64_MODULUS, data.n_samples)
    margins = initial_margins(data.n_samples, params, seed)
    trees: list[Tree] = []
    for t in range(params.n_estimators):
        rows = tree_row_sample(data.n_samples, params.subsample, seed, t)
        g, h = map(quantize, logistic_gradients(y, margins))
        tree, leaves = _grow_pooled(columns, cells, binning, g, h, rows, params, t)
        trees.append(tree)
        margins += params.learning_rate * grown_leaf_weights(tree, leaves, columns)
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
