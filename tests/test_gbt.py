import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedgbt import gbt
from fedgbt.data import PartyDataset
from fedgbt.gbt import (
    FLOAT64_MODULUS,
    GRAD_SCALE_BITS,
    Binning,
    BoostedEnsemble,
    GbtParams,
    GradHistogram,
    ProtocolError,
    Tree,
    TreeNode,
    TrainingError,
    DegenerateNodeError,
    binning_from_ranges,
    build_histogram,
    cell_ids,
    check_capacity,
    compute_binning,
    GAIN_NOISE_REL_TOL,
    SplitCandidate,
    find_best_split,
    grow_tree,
    initial_margins,
    leaf_value,
    leaf_weight,
    logistic_gradients,
    model_from_json,
    model_to_json,
    predict,
    predict_margin,
    quantize,
    sigmoid,
    soft_threshold,
    train_centralized,
    tree_leaf_weights_binned,
    tree_row_sample,
)
from fedgbt.paillier import EncodingError

SCALE = 2**GRAD_SCALE_BITS


def make_dataset(X, y=None, party="p"):
    X = np.asarray(X, dtype=np.float64)
    return PartyDataset(
        party_id=party,
        sample_ids=np.arange(X.shape[0]),
        features=X,
        feature_names=tuple(f"f{i}" for i in range(X.shape[1])),
        labels=None if y is None else np.asarray(y),
    )


# ---------------------------------------------------------------------------
# Reference implementations: per-feature and per-row loops that the
# vectorized core must match bit for bit.


@dataclass(frozen=True)
class GradPair:
    g: float
    h: float


def logistic_gradient_pair(y: int, margin: float) -> GradPair:
    g, h = logistic_gradients(np.array([y]), np.array([margin]))
    return GradPair(float(g[0]), float(h[0]))


def logistic_loss(y, margin) -> float:
    """Mean logistic loss, with p clamped as ``logistic_gradients`` clamps it."""
    p = np.clip(sigmoid(margin), 1e-15, 1 - 1e-15)
    y = np.asarray(y, dtype=np.float64)
    return float(np.mean(-(y * np.log(p) + (1 - y) * np.log(1 - p))))


def zero_histogram(n_features, n_bins):
    shape = (n_features, n_bins)
    return GradHistogram(*(np.zeros(shape, dtype=np.int64) for _ in range(3)))


def reference_gain_term(G, H, reg_lambda):
    den = np.asarray(H, dtype=np.float64) + reg_lambda
    G = np.asarray(G, dtype=np.float64)
    out = np.zeros_like(den)
    ok = den > 0
    out[ok] = G[ok] ** 2 / den[ok]
    return out


def split_gain(G_L, H_L, G_R, H_R, reg_lambda, gamma):
    """Objective reduction of partitioning (G_L+G_R, H_L+H_R) into the two sides."""
    terms = reference_gain_term(
        np.array([G_L, G_R, G_L + G_R]), np.array([H_L, H_R, H_L + H_R]), reg_lambda
    )
    return 0.5 * float(terms[0] + terms[1] - terms[2]) - gamma


def histogram_of(binned, g, h, sample_idx, n_bins):
    """``build_histogram`` of one row set of an ``(n, F)`` bin matrix."""
    cells = cell_ids(np.ascontiguousarray(np.asarray(binned).T), n_bins)
    (hist,) = build_histogram(cells, g, h, [np.asarray(sample_idx, dtype=np.int64)], n_bins)
    return hist


def add_at_histogram(binned, g, h, sample_idx, n_bins):
    """int64 sums by one offset ``np.add.at`` per statistic over the flat
    cells ``f * n_bins + b``, exact in any order."""
    F = binned.shape[1]
    idx = np.asarray(sample_idx, dtype=np.int64)
    cells = (binned[idx] + np.arange(F) * n_bins).ravel()
    sums = [np.zeros(F * n_bins, dtype=np.int64) for _ in range(3)]
    for out, values in zip(sums, (g, h, np.ones_like(g))):
        np.add.at(out, cells, np.repeat(np.asarray(values, dtype=np.int64)[idx], F))
    return GradHistogram(*(a.reshape(F, n_bins) for a in sums))


def row_partition(rng, n, shape):
    """Disjoint row sets over ``n`` rows: random cuts of a permutation
    (empty and single-row sets among them), all rows among empty sets, or
    single rows."""
    perm = rng.permutation(n)
    if shape == "all":
        sets = [perm] + [perm[:0]] * int(rng.integers(0, 3))
        return [sets[i] for i in rng.permutation(len(sets))]
    if shape == "single":
        return [perm[i:i + 1] for i in range(min(n, int(rng.integers(1, 6))))]
    return np.split(perm, np.sort(rng.integers(0, n + 1, size=int(rng.integers(1, 6)))))


def reference_histogram(binned, g, h, sample_idx, n_bins):
    """Python-int sums, feature by feature and sample by sample."""
    F = binned.shape[1]
    sums = [[[0] * n_bins for _ in range(F)] for _ in range(3)]
    for i in sample_idx:
        for f in range(F):
            b = int(binned[i, f])
            for stat, value in zip(sums, (int(g[i]), int(h[i]), 1)):
                stat[f][b] += value
    return GradHistogram(*(np.array(stat, dtype=np.int64).reshape(F, n_bins) for stat in sums))


def reference_best_split(hist, params):
    """The per-feature scan, with the same exact-tie rule and noise cutoff."""
    G_node, H_node, _ = hist.totals()
    parent_term = float(reference_gain_term(soft_threshold(G_node / SCALE, params.reg_alpha),
                                            H_node / SCALE, params.reg_lambda))
    min_gain = params.min_split_gain + GAIN_NOISE_REL_TOL * (1.0 + parent_term)
    per_feature = []
    best_gain = -math.inf
    for f in range(hist.g.shape[0]):
        ints = [np.cumsum(a[f])[:-1] for a in (hist.g, hist.h, hist.counts)]
        totals = [a[f].sum() for a in (hist.g, hist.h, hist.counts)]
        ints += [total - prefix for total, prefix in zip(totals, ints)]
        gl, hl, _, gr, hr, _ = (a / SCALE for a in ints)
        G, H = totals[0] / SCALE, totals[1] / SCALE
        lam = params.reg_lambda
        gains = 0.5 * (
            reference_gain_term(soft_threshold(gl, params.reg_alpha), hl, lam)
            + reference_gain_term(soft_threshold(gr, params.reg_alpha), hr, lam)
            - reference_gain_term(np.full_like(gl, soft_threshold(G, params.reg_alpha)),
                                  np.full_like(hl, H), lam)
        ) - params.gamma
        ok = (hl >= params.min_child_weight) & (hr >= params.min_child_weight)
        ok &= gains > min_gain
        per_feature.append((gains, ok, ints))
        if ok.any():
            best_gain = max(best_gain, float(gains[ok].max()))
    if not math.isfinite(best_gain):
        return None
    for f, (gains, ok, ints) in enumerate(per_feature):
        hit = np.flatnonzero(ok & (gains == best_gain))
        if hit.size:
            b = int(hit[0])
            left, right = (tuple(int(a[b]) for a in side) for side in (ints[:3], ints[3:]))
            return SplitCandidate(f, b, float(gains[b]), left, right)
    return None


def reference_leaf_weights(tree, rows, binned=False):
    """Leaf weight per row from a TreeNode walk on raw or binned rows."""
    out = []
    for row in rows:
        node = tree.nodes[0]
        while not node.is_leaf:
            cut = node.bin_index if binned else node.threshold
            node = tree.nodes[node.left if row[node.feature] <= cut else node.right]
        out.append(node.weight)
    return np.array(out)


def reference_margin(model, X, n_trees=None):
    margins = np.full(X.shape[0], model.base_score_logit, dtype=np.float64)
    for tree in model.trees[:n_trees]:
        margins += model.params.learning_rate * reference_leaf_weights(tree, X)
    return margins


# ---------------------------------------------------------------------------
# gradients


def test_logistic_gradients_at_zero_margin():
    gp = logistic_gradient_pair(1, 0.0)
    assert gp.g == pytest.approx(-0.5)
    assert gp.h == pytest.approx(0.25)
    gp0 = logistic_gradient_pair(0, 0.0)
    assert gp0.g == pytest.approx(0.5)
    assert gp0.h == pytest.approx(0.25)


def test_logistic_gradients_saturate():
    gp = logistic_gradient_pair(1, 40.0)
    assert abs(gp.g) < 1e-15
    assert gp.h < 1e-15


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 1), st.floats(-30, 30))
def test_logistic_gradient_ranges(y, margin):
    g, h = logistic_gradients(np.array([y]), np.array([margin]))
    assert -1 <= g[0] <= 1
    assert 0 < h[0] <= 0.25 + 1e-12


# ---------------------------------------------------------------------------
# fixed-point gradients


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_quantize_roundtrip_within_resolution(x):
    q = quantize(x)
    assert q.dtype == np.int64
    assert abs(int(q) / SCALE - x) <= 2**-(GRAD_SCALE_BITS + 1)


def test_quantize_exact_dyadic_negative():
    q = int(quantize(-0.5))
    assert q == -(2 ** (GRAD_SCALE_BITS - 1))
    assert q / SCALE == -0.5
    # a negative sits in the upper half of any residue ring it enters
    for n in (2**64, (1 << 511) + 1):
        assert q % n == n - 2 ** (GRAD_SCALE_BITS - 1)


def test_quantize_zero_and_overflow():
    assert int(quantize(0.0)) == 0
    assert quantize([0.0, -0.0]).tolist() == [0, 0]
    # the largest double below 2^(63 - S) lands just inside int64
    edge = 63 - GRAD_SCALE_BITS
    assert int(quantize(2.0**edge - 2.0 ** (edge - 53))) == 2**63 - 2**10
    for bad in (2.0**edge, -(2.0**edge), float(2**511), math.nan, math.inf):
        with pytest.raises(EncodingError):
            quantize([0.5, bad])


def test_float64_capacity_on_both_sides_of_its_boundary():
    # float64 sums of values of magnitude at most 2^S are exact while the
    # sum stays within 2^53: 2^(53 - S) terms reach it and fail, one fewer pass
    assert FLOAT64_MODULUS == 2 * 2**53
    most = 2 ** (53 - GRAD_SCALE_BITS)
    check_capacity(FLOAT64_MODULUS, most - 1)
    with pytest.raises(EncodingError, match=f"{most} terms"):
        check_capacity(FLOAT64_MODULUS, most)
    # the largest sum the bound admits is exact in float64, and one beyond it is not
    assert float((most - 1) << GRAD_SCALE_BITS) + 1 == ((most - 1) << GRAD_SCALE_BITS) + 1
    assert float(2**53) + 1 == 2**53


def test_check_capacity_on_both_sides_of_its_boundary():
    # 2 * terms * 2^S must stay below the modulus
    most = 2 ** (63 - GRAD_SCALE_BITS)  # terms that int64 sums cannot hold
    check_capacity(2**64, most - 1)
    with pytest.raises(EncodingError, match=f"{most} terms"):
        check_capacity(2**64, most)
    check_capacity((2 * 40 << GRAD_SCALE_BITS) + 1, 40)
    with pytest.raises(EncodingError, match="40 terms"):
        check_capacity(2 * 40 << GRAD_SCALE_BITS, 40)
    check_capacity(2**511, 10**6)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 20_000]) | st.integers(1, 60),
       st.booleans(), st.sampled_from(["cuts", "all", "single"]))
def test_build_histogram_exact_at_quantized_extremes(seed, n, one_sign, shape):
    # |g| <= 1 and h <= 1/4 quantize to at most 2^S and 2^(S-2); the sums
    # must be exact integers at these extremes, for every set of one call
    rng = np.random.default_rng(seed)
    F, B = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    binned = rng.integers(0, B, size=(n, F))
    extremes = rng.random(n) < 0.5
    g = np.where(extremes, SCALE, rng.integers(-SCALE, SCALE + 1, size=n))
    if not one_sign:
        g = np.where(rng.random(n) < 0.5, -g, g)
    h = np.where(extremes, SCALE >> 2, rng.integers(0, (SCALE >> 2) + 1, size=n))
    sets = row_partition(rng, n, shape)
    hists = build_histogram(cell_ids(np.ascontiguousarray(binned.T), B), g, h, sets, B)
    assert len(hists) == len(sets)
    for ours, idx in zip(hists, sets):
        refs = [add_at_histogram(binned, g, h, idx, B)]
        if n <= 60:  # the per-sample loop is slow at 20,000 rows
            refs.append(reference_histogram(binned, g, h, idx, B))
        for ref in refs:
            for name in ("g", "h", "counts"):
                assert getattr(ours, name).tolist() == getattr(ref, name).tolist()
        assert ours.totals() == (sum(int(g[i]) for i in idx), sum(int(h[i]) for i in idx),
                                 len(idx))


# ---------------------------------------------------------------------------
# binning


def test_compute_bins_midpoint():
    np.testing.assert_allclose(compute_binning(np.array([[0.0], [1], [2], [3]]), 2).boundaries[0],
                               [1.5])


def test_compute_bins_arithmetic():
    np.testing.assert_allclose(compute_binning(np.array([[0.0], [10.0]]), 5).boundaries[0],
                               [2, 4, 6, 8])


def test_constant_column_single_occupied_bin():
    binning = compute_binning(np.full((5, 1), 3.3), 8)
    assert (binning.bin_columns(np.full((5, 1), 3.3)) == 0).all()


def test_value_equal_to_threshold_goes_left():
    binning = Binning(boundaries=np.array([[1.5]]), n_bins=2)
    (bins,) = binning.bin_columns(np.array([[1.5], [1.50001]]))
    assert list(bins) == [0, 1]


# ---------------------------------------------------------------------------
# histograms


def test_histogram_empty_and_single_sample():
    cells = cell_ids(np.array([[3, 1]]), 4)
    g = quantize([-0.5, 0.1])
    h = quantize([0.25, 0.2])
    empty, one = build_histogram(cells, g, h, [np.array([], dtype=int), np.array([0])], 4)
    assert empty.counts.sum() == 0 and empty.g.sum() == 0
    assert one.counts[0, 3] == 1
    assert one.g[0, 3] == -(2 ** (GRAD_SCALE_BITS - 1))
    assert one.counts.sum() == 1


def test_level_calls_of_no_nodes_return_no_results():
    cells = cell_ids(np.array([[3, 1]]), 4)
    assert build_histogram(cells, quantize([0.5]), quantize([0.25]), [], 4) == []
    assert find_best_split([], GbtParams()) == []
    assert gbt.check_histogram([], [], []) == []


def test_histogram_matches_naive_accumulation():
    rng = np.random.default_rng(0)
    n, F, B = 40, 3, 6
    binned = rng.integers(0, B, size=(n, F))
    g, h = quantize(rng.normal(size=n)), quantize(rng.uniform(0.01, 0.25, size=n))
    idx = rng.choice(n, size=25, replace=False)
    hist = histogram_of(binned, g, h, idx, B)
    assert hist.g.dtype == hist.h.dtype == hist.counts.dtype == np.int64
    for f in range(F):
        for b in range(B):
            members = [i for i in idx if binned[i, f] == b]
            assert hist.g[f, b] == sum(int(g[i]) for i in members)
            assert hist.h[f, b] == sum(int(h[i]) for i in members)
            assert hist.counts[f, b] == len(members)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_histogram_additivity_and_subtraction_exact_on_dyadic(seed):
    # integer histograms add and subtract exactly, whatever the gradients
    rng = np.random.default_rng(seed)
    n, F, B = 30, 2, 5
    binned = rng.integers(0, B, size=(n, F))
    g = quantize(rng.integers(-2**20, 2**20, size=n) / 2**20)
    h = quantize(rng.integers(0, 2**20, size=n) / 2**22)
    split = rng.integers(1, n - 1)
    perm = rng.permutation(n)
    a_idx, b_idx = np.sort(perm[:split]), np.sort(perm[split:])
    hist_a, hist_b, parent = build_histogram(cell_ids(np.ascontiguousarray(binned.T), B), g, h,
                                             [a_idx, b_idx, np.arange(n)], B)
    for name in ("g", "h", "counts"):
        a, b, whole = (getattr(x, name) for x in (hist_a, hist_b, parent))
        assert (a + b == whole).all()
        assert (whole - a == b).all()
        assert (getattr(parent.subtract(hist_a), name) == b).all()


# ---------------------------------------------------------------------------
# gain and leaf weight


def test_split_gain_hand_value():
    assert split_gain(2, 3, -2, 3, reg_lambda=1, gamma=0) == pytest.approx(1.0)


def test_split_gain_zero_gradients_gives_minus_gamma():
    assert split_gain(0, 1, 0, 1, reg_lambda=0.5, gamma=0.7) == pytest.approx(-0.7)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(-5, 5), st.floats(0, 5), st.floats(-5, 5), st.floats(0, 5),
    st.floats(0.1, 2), st.floats(0, 1),
)
def test_split_gain_symmetric(gl, hl, gr, hr, lam, gamma):
    assert split_gain(gl, hl, gr, hr, lam, gamma) == pytest.approx(
        split_gain(gr, hr, gl, hl, lam, gamma)
    )


def test_leaf_weight_values():
    assert leaf_weight(2, 3, 1) == pytest.approx(-0.5)
    assert leaf_weight(0, 7, 0.3) == 0
    with pytest.raises(DegenerateNodeError):
        leaf_weight(1, 0, 0)


def test_leaf_weight_minimizes_node_objective():
    # grid-scan oracle: obj(w) = G*w + 0.5*(H+lam)*w^2
    G, H, lam = 1.7, 2.3, 0.9
    w_star = leaf_weight(G, H, lam)
    obj = lambda w: G * w + 0.5 * (H + lam) * w**2
    grid = np.linspace(w_star - 1, w_star + 1, 2001)
    assert obj(w_star) <= min(obj(w) for w in grid) + 1e-12


def test_gain_equals_objective_decomposition():
    rng = np.random.default_rng(1)
    for _ in range(50):
        gl, gr = rng.normal(size=2)
        hl, hr = rng.uniform(0.1, 2, size=2)
        lam, gamma = rng.uniform(0, 2), rng.uniform(0, 1)
        obj = lambda G, H: -0.5 * G**2 / (H + lam)
        decomposed = obj(gl + gr, hl + hr) - (obj(gl, hl) + obj(gr, hr))
        assert split_gain(gl, hl, gr, hr, lam, gamma) + gamma == pytest.approx(
            decomposed, abs=1e-9
        )


# ---------------------------------------------------------------------------
# split search vs exhaustive enumeration


def brute_force_best_split(hist: GradHistogram, params: GbtParams):
    """Independent oracle: enumerate every (feature, boundary) candidate.

    Prefix sums accumulate left to right in Python ints and become floats
    once, as in the trained code, so equal sums give bit-identical gains.
    The tie rule is the shared one: of the candidates with the maximum gain,
    the first (feature asc, bin asc) wins.
    """

    def shrink(v):
        if params.reg_alpha == 0:
            return v
        return math.copysign(max(abs(v) - params.reg_alpha, 0.0), v)

    def term(G, H):
        den = H + params.reg_lambda
        return (G * G / den) if den > 0 else 0.0

    candidates = []
    for f in range(hist.g.shape[0]):
        total_g, total_h = int(hist.g[f].sum()), int(hist.h[f].sum())
        gl_int = hl_int = 0
        for b in range(hist.g.shape[1] - 1):
            gl_int += int(hist.g[f, b])
            hl_int += int(hist.h[f, b])
            gl, hl, gr, hr, G, H = (v / SCALE for v in (
                gl_int, hl_int, total_g - gl_int, total_h - hl_int, total_g, total_h))
            if hl < params.min_child_weight or hr < params.min_child_weight:
                continue
            gain = 0.5 * (term(shrink(gl), hl) + term(shrink(gr), hr) - term(shrink(G), H)
                          ) - params.gamma
            if gain > params.min_split_gain:
                candidates.append((gain, f, b))
    if not candidates:
        return None
    best_gain = max(c[0] for c in candidates)
    return next(c for c in candidates if c[0] == best_gain)


def test_find_best_split_separable_toy():
    # one feature, 4 samples: two negatives below, two positives above
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    binning = compute_binning(X, 4)
    g, h = map(quantize, logistic_gradients(y, np.zeros(4)))
    (hist,) = build_histogram(cell_ids(binning.bin_columns(X), 4), g, h, [np.arange(4)], 4)
    params = GbtParams(min_child_weight=0.0, reg_lambda=1.0)
    (best,) = find_best_split([hist], params)
    assert best is not None
    assert best.feature == 0
    assert best.bin_index == 1  # boundary at 1.5 separates the classes
    expected = split_gain(1.0, 0.5, -1.0, 0.5, 1.0, 0.0)
    assert best.gain == pytest.approx(expected)


def test_find_best_split_pure_node_returns_none():
    hist = zero_histogram(2, 4)
    hist.h += quantize(0.01)
    hist.counts += 1
    assert find_best_split([hist], GbtParams(min_child_weight=0.0)) == [None]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_find_best_split_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    F = int(rng.integers(1, 3))
    B = int(rng.integers(2, 6))
    binned = rng.integers(0, B, size=(n, F))
    y = rng.integers(0, 2, size=n)
    margins = rng.normal(scale=0.5, size=n)
    g, h = map(quantize, logistic_gradients(y, margins))
    hist = histogram_of(binned, g, h, np.arange(n), B)
    params = GbtParams(
        min_child_weight=float(rng.choice([0.0, 0.1, 0.3])),
        reg_lambda=float(rng.choice([0.0, 0.5, 1.0])),
        reg_alpha=float(rng.choice([0.0, 0.05])),
        gamma=float(rng.choice([0.0, 0.1])),
    )
    (ours,) = find_best_split([hist], params)
    oracle = brute_force_best_split(hist, params)
    if oracle is None:
        assert ours is None
    else:
        assert ours is not None
        assert ours.gain == pytest.approx(oracle[0], abs=1e-9)
        assert (ours.feature, ours.bin_index) == (oracle[1], oracle[2])


# ---------------------------------------------------------------------------
# training and prediction


def test_single_leaf_training_forced_structure():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 0, 1])
    params = GbtParams(n_estimators=3, max_depth=0, reg_lambda=1.0, gamma=0.0)
    model = train_centralized(make_dataset(X, y), params, seed=0)
    margins = np.full(4, params.base_score_logit)
    for tree in model.trees:
        assert len(tree.nodes) == 1 and tree.nodes[0].is_leaf
        g, h = logistic_gradients(y, margins)
        assert tree.nodes[0].weight == pytest.approx(-g.sum() / (h.sum() + 1.0))
        margins += params.learning_rate * tree.nodes[0].weight


def _scripted_growth(root, hists, max_depth, monkeypatch=None, **params):
    """Grow a tree from root totals ``root`` whose built histograms come from
    ``hists`` (node id -> histogram); returns the tree, its params, the log
    of (depth, level, build) per ``finish_level`` call and the histograms
    ``find_best_split`` receives, in call order (recorded when
    ``monkeypatch`` is given).  Other keywords are :class:`GbtParams`."""
    params = GbtParams(max_depth=max_depth, **params)
    log, searched = [], []

    def finish_level(tree, depth, level, stats, build):
        # the level is decided: every split already has both children
        for node in (tree.nodes[i] for i in level):
            assert node.is_leaf or node.right < len(tree.nodes)
        log.append((depth, list(level), list(build)))
        return {n: hists[n] for n in build}

    if monkeypatch is not None:
        monkeypatch.setattr(gbt, "find_best_split",
                            lambda hists, p: searched.extend(hists) or find_best_split(hists, p))
    return grow_tree(params, 0, root, finish_level), params, log, searched


def _one_feature(g, h, counts):
    return GradHistogram(quantize([g]), quantize([h]), np.array([counts], dtype=np.int64))


# One feature, two bins.  The root (90 samples) splits 50 | 40: the right
# child is the smaller and is built; the left is derived.  Node 1 splits
# 30 | 20 and node 2 splits 20 | 20, so node 4 and, on the tie, node 5 are
# built.
_SCRIPT = {
    0: _one_feature([-2.0, 2.0], [4.0, 4.0], [50, 40]),
    2: _one_feature([3.0, -1.0], [2.0, 2.0], [20, 20]),
    4: _one_feature([2.0, 1.0], [1.0, 1.0], [10, 10]),
    5: _one_feature([1.5, 1.5], [1.0, 1.0], [10, 10]),  # zero gain: a leaf
}


def test_grow_tree_root_without_histogram_is_one_leaf():
    # a root of one sample, or any root at max_depth 0, cannot split: no
    # histogram is asked for
    for root, max_depth, weight in (((-5 * SCALE // 2, SCALE, 1), 3, 2.5),
                                    (_SCRIPT[0].totals(), 0, 0.0)):
        tree, params, log, _ = _scripted_growth(root, {}, max_depth=max_depth)
        (node,) = tree.nodes
        assert node.is_leaf and node.weight == leaf_value(*root[:2], params) == weight
        assert log == [(0, [0], [])]


def test_grow_tree_policy_with_stub_callbacks(monkeypatch):
    tree, params, log, searched = _scripted_growth(_SCRIPT[0].totals(), _SCRIPT, max_depth=3,
                                                   monkeypatch=monkeypatch)
    # level order: node 1's children come before node 2's
    assert [(n.node_id, n.left, n.right) for n in tree.nodes if not n.is_leaf] == [
        (0, 1, 2), (1, 3, 4), (2, 5, 6), (3, 7, 8), (4, 9, 10), (6, 11, 12)]
    assert [n.node_id for n in tree.nodes] == list(range(13))
    assert all((n.feature, n.bin_index) == (0, 0) for n in tree.nodes if not n.is_leaf)
    # the root only when it may split, then the smaller child of each split
    # (a tie builds the left), and nothing for the children at max_depth
    assert log == [(-1, [], [0]), (0, [0], [2]), (1, [1, 2], [4, 5]),
                   (2, [3, 4, 5, 6], []), (3, list(range(7, 13)), [])]
    # every node above max_depth is searched once, in level order; each
    # larger child is its parent minus the built one
    derived = {1: (0, 2), 3: (1, 4), 6: (2, 5)}
    hists = dict(_SCRIPT)
    for node_id, (parent, built) in derived.items():
        hists[node_id] = hists[parent].subtract(hists[built])
    assert len(searched) == 7
    for node_id, hist in enumerate(searched):
        for a in ("g", "h", "counts"):
            np.testing.assert_array_equal(getattr(hist, a), getattr(hists[node_id], a))
    # leaves take their weights from the split sums: node 7 holds G = -7, H = 1
    leaves = {n.node_id: n.weight for n in tree.nodes if n.is_leaf}
    assert leaves == {5: -1.5, 7: 7.0, 8: -2.0, 9: -2.0, 10: -1.0, 11: -1.5, 12: 2.5}
    # a best split whose left child holds no sample must become a leaf; a
    # negative gamma lets the empty split win
    empty_left = _one_feature([0.0, 2.0], [0.0, 1.0], [0, 4])
    loose = dict(gamma=-1.0, min_child_weight=0.0)
    assert find_best_split([empty_left], GbtParams(**loose))[0].left[2] == 0
    tree, params, log, _ = _scripted_growth(empty_left.totals(), {0: empty_left}, max_depth=3,
                                            **loose)
    assert len(tree.nodes) == 1 and tree.nodes[0].weight == -2.0
    assert log == [(-1, [], [0]), (0, [0], [])]


@pytest.mark.parametrize("node_id", [2, 5])
def test_grow_tree_rejects_a_built_child_that_disagrees_with_the_parent_split(node_id):
    script = dict(_SCRIPT)
    off = script[node_id]
    script[node_id] = GradHistogram(off.g.copy(), off.h.copy(), off.counts.copy())
    script[node_id].h[0, 1] += 1  # one unit of one bin
    # its row no longer sums to the parent split's prefix sums for the node
    with pytest.raises(ProtocolError, match=f"tree 0, node {node_id}: feature 0 sums to "):
        _scripted_growth(_SCRIPT[0].totals(), script, max_depth=3)


# check_histogram: a node of 4 samples, two features of four bins.  Each
# case changes feature 1 so that exactly one clause of the check fails.
_Q = SCALE // 4  # the largest quantized logistic h
_NODE = (SCALE, 2 * _Q, 4)
_FEATURE_0 = ([SCALE, -SCALE // 2, SCALE // 2, 0], [_Q, _Q // 2, _Q // 2, 0], [2, 1, 1, 0])
_FEATURE_1 = ([SCALE // 2, SCALE // 2, 0, 0], [_Q // 2, _Q // 2, _Q, 0], [1, 1, 2, 0])
_BROKEN = {
    "row G": ([SCALE // 2, SCALE // 2 - 1, 0, 0], None, None),
    "row H": (None, [_Q // 2, _Q // 2 - 1, _Q, 0], None),
    "row count": (None, None, [1, 1, 2, 1]),
    "G above count * 2^S": ([SCALE + 1, 0, -1, 0], None, None),
    "G below -count * 2^S": ([-SCALE - 1, SCALE // 2, 3 * SCALE // 2 + 1, 0], None, None),
    "H below 0": (None, [-1, _Q // 2, 3 * _Q // 2 + 1, 0], None),
    "H above count * 2^(S-2)": (None, [_Q + 1, _Q // 2, _Q // 2 - 1, 0], None),
    # the counts wrap int64 to the node's 4; every sum sits in the last bin
    "count above the node's": ([0, 0, 0, SCALE], [0, 0, 0, 2 * _Q], [2**62] * 3 + [2**62 + 4]),
    # caught by the bounds: count 0 admits no sum, a negative count no H
    "a sum in an empty bin": ([SCALE // 2, SCALE // 2 - 1, 0, 1], None, None),
    "a negative count": (None, None, [1, 1, 3, -1]),
}


def _two_features(feature_1):
    rows = [[a, b if b is not None else c] for a, b, c in zip(_FEATURE_0, feature_1, _FEATURE_1)]
    return GradHistogram(*(np.array(r, dtype=np.int64) for r in rows))


def test_check_histogram_accepts_a_histogram_at_its_bounds():
    hist = _two_features((None, None, None))
    (checked,) = gbt.check_histogram([hist], [_NODE], ["tree 3, node 7"])
    assert checked is hist


@pytest.mark.parametrize("clause", list(_BROKEN))
def test_check_histogram_rejects_each_broken_clause(clause):
    with pytest.raises(ProtocolError, match=r"^tree 3, node 7: feature 1[ ,]"):
        gbt.check_histogram([_two_features(_BROKEN[clause])], [_NODE], ["tree 3, node 7"])


def test_check_histogram_names_a_bin_before_a_row():
    # feature 0's row misses the node's G and feature 1 holds a sum in an
    # empty bin: the bin clause is reported, as in any single check
    hist = _two_features(_BROKEN["a sum in an empty bin"])
    hist.g[0, 0] += 1
    with pytest.raises(ProtocolError, match=r"^tree 3, node 7: feature 1, bin 3 holds "):
        gbt.check_histogram([hist], [_NODE], ["tree 3, node 7"])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.data())
def test_a_stacked_check_names_the_first_offender_as_its_own_check_would(n_nodes, data):
    # any node of a stack breaks one clause, and a later node perhaps
    # another: the stack raises what a check of the first broken node alone
    # raises
    broken = data.draw(st.integers(0, n_nodes - 1))
    clause = data.draw(st.sampled_from(list(_BROKEN)))
    later = data.draw(st.none() | st.tuples(st.integers(broken, n_nodes - 1),
                                            st.sampled_from(list(_BROKEN))))
    hists = [_two_features((None, None, None)) for _ in range(n_nodes)]
    hists[broken] = _two_features(_BROKEN[clause])
    if later is not None and later[0] > broken:
        hists[later[0]] = _two_features(_BROKEN[later[1]])
    where = [f"tree 3, node {i}" for i in range(n_nodes)]
    with pytest.raises(ProtocolError) as alone:
        gbt.check_histogram([hists[broken]], [_NODE], [where[broken]])
    with pytest.raises(ProtocolError) as stacked:
        gbt.check_histogram(hists, [_NODE] * n_nodes, where)
    assert str(stacked.value) == str(alone.value)
    assert str(alone.value).startswith(f"tree 3, node {broken}: feature 1")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_check_histogram_passes_every_logistic_histogram_and_sibling(seed):
    # quantized gradients at and inside their extremes, over a random node
    # and a random child of it
    rng = np.random.default_rng(seed)
    n, F, B = int(rng.integers(2, 50)), int(rng.integers(1, 4)), int(rng.integers(2, 9))
    binned = rng.integers(0, B, size=(n, F))
    g = np.where(rng.random(n) < 0.3, SCALE, rng.integers(0, SCALE + 1, size=n))
    g = np.where(rng.random(n) < 0.5, -g, g)
    h = np.where(rng.random(n) < 0.3, _Q, rng.integers(0, _Q + 1, size=n))
    node = rng.permutation(n)[: int(rng.integers(1, n + 1))]
    child = node[: int(rng.integers(0, node.size + 1))]
    parent, built = build_histogram(cell_ids(np.ascontiguousarray(binned.T), B), g, h,
                                    [node, child], B)

    def totals(rows):
        return int(g[rows].sum()), int(h[rows].sum()), rows.size

    gbt.check_histogram([parent, built, parent.subtract(built)],
                        [totals(node), totals(child), totals(np.setdiff1d(node, child))],
                        ["parent", "child", "sibling"])


def test_training_deterministic():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 3))
    y = rng.integers(0, 2, size=40)
    params = GbtParams(n_estimators=4, max_depth=3, subsample=0.8, reg_lambda=1.0)
    m1 = train_centralized(make_dataset(X, y), params, seed=9)
    m2 = train_centralized(make_dataset(X, y), params, seed=9)
    assert model_to_json(m1) == model_to_json(m2)


def test_training_loss_nonincreasing_on_separable_data():
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0, 1, size=30))
    X = x.reshape(-1, 1)
    y = (x > 0.5).astype(int)
    params = GbtParams(n_estimators=8, max_depth=2, learning_rate=0.5, reg_lambda=1.0,
                       min_child_weight=0.0)
    model = train_centralized(make_dataset(X, y), params, seed=0)
    losses = [
        logistic_loss(y, predict_margin(model, X, n_trees=t))
        for t in range(params.n_estimators + 1)
    ]
    for earlier, later in zip(losses, losses[1:]):
        assert later <= earlier + 1e-12


def test_predict_empty_ensemble_and_single_leaf():
    params = GbtParams(base_score_logit=0.4)
    empty = BoostedEnsemble(trees=[], params=params, base_score_logit=0.4)
    margin, prob, label = predict(empty, np.array([1.0, 2.0]))
    assert margin == pytest.approx(0.4)
    assert prob == pytest.approx(1 / (1 + math.exp(-0.4)))
    single = BoostedEnsemble(
        trees=[Tree(nodes=[TreeNode(node_id=0, is_leaf=True, weight=-2.0)])],
        params=params,
        base_score_logit=0.4,
    )
    margin, _, label = predict(single, np.array([0.0]))
    assert margin == pytest.approx(0.4 + params.learning_rate * -2.0)
    assert label == 0


def test_predict_matches_manual_trace_depth2():
    nodes = [
        TreeNode(node_id=0, is_leaf=False, feature=0, bin_index=0, threshold=1.0, left=1, right=2),
        TreeNode(node_id=1, is_leaf=False, feature=1, bin_index=0, threshold=5.0, left=3, right=4),
        TreeNode(node_id=2, is_leaf=True, weight=3.0),
        TreeNode(node_id=3, is_leaf=True, weight=1.0),
        TreeNode(node_id=4, is_leaf=True, weight=2.0),
    ]
    model = BoostedEnsemble(
        trees=[Tree(nodes=nodes)], params=GbtParams(learning_rate=1.0), base_score_logit=0.0
    )
    cases = [
        (np.array([0.5, 4.0]), 1.0),  # left, left
        (np.array([0.5, 6.0]), 2.0),  # left, right
        (np.array([1.5, 0.0]), 3.0),  # right
        (np.array([1.0, 5.0]), 1.0),  # equality goes left at both nodes
    ]
    for x, expected in cases:
        assert predict_margin(model, x)[0] == pytest.approx(expected)


def test_predict_missing_feature_errors():
    nodes = [
        TreeNode(node_id=0, is_leaf=False, feature=3, bin_index=0, threshold=1.0, left=1, right=2),
        TreeNode(node_id=1, is_leaf=True, weight=1.0),
        TreeNode(node_id=2, is_leaf=True, weight=2.0),
    ]
    model = BoostedEnsemble(trees=[Tree(nodes=nodes)], params=GbtParams(), base_score_logit=0.0)
    with pytest.raises(TrainingError):
        predict_margin(model, np.array([1.0, 2.0]))


def test_train_rejects_empty_and_unlabeled():
    with pytest.raises(TrainingError):
        train_centralized(make_dataset(np.zeros((3, 2))), GbtParams())


def test_zero_features_raise_training_error():
    with pytest.raises(TrainingError, match="no features to bin"):
        train_centralized(make_dataset(np.zeros((4, 0)), [0, 1, 0, 1]), GbtParams())
    with pytest.raises(TrainingError, match="no features to bin"):
        binning_from_ranges(np.array([]), np.array([]), 4)


def test_soft_threshold():
    assert soft_threshold(0.7, 0.2) == pytest.approx(0.5)
    assert soft_threshold(-0.7, 0.2) == pytest.approx(-0.5)
    assert soft_threshold(0.1, 0.2) == 0.0


def test_model_json_roundtrip():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 4))
    y = rng.integers(0, 2, size=30)
    model = train_centralized(
        make_dataset(X, y), GbtParams(n_estimators=3, max_depth=3, reg_lambda=1.0), seed=1
    )
    restored = model_from_json(model_to_json(model))
    assert model_to_json(restored) == model_to_json(model)
    np.testing.assert_allclose(predict_margin(restored, X), predict_margin(model, X))


# ---------------------------------------------------------------------------
# the vectorized core equals the per-feature and per-row references


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_build_histogram_equals_per_feature_bincount(seed):
    rng = np.random.default_rng(seed)
    n, F, B = int(rng.integers(1, 60)), int(rng.integers(1, 7)), int(rng.integers(2, 40))
    binned = rng.integers(0, B, size=(n, F))
    # magnitudes spread over many orders, where float sums would depend on
    # the summation order
    g = quantize(rng.normal(size=n) * 10.0 ** rng.uniform(-8, 6, size=n))
    h = quantize(rng.uniform(0, 1, size=n) * 10.0 ** rng.uniform(-8, 6, size=n))
    idx = rng.permutation(n)[: int(rng.integers(0, n + 1))]
    sets = row_partition(rng, n, str(rng.choice(["cuts", "all", "single"])))
    hists = build_histogram(cell_ids(np.ascontiguousarray(binned.T), B), g, h, sets, B)
    assert len(hists) == len(sets)
    for ours, idx in zip(hists, sets):
        for ref in (reference_histogram(binned, g, h, idx, B),
                    add_at_histogram(binned, g, h, idx, B)):
            assert np.array_equal(ours.g, ref.g)
            assert np.array_equal(ours.h, ref.h)
            assert np.array_equal(ours.counts, ref.counts)
        assert ours.counts.dtype == np.int64


def _scan_case(rng, F, B, twin, one_ratio):
    """A node's histogram over 2..39 random rows of ``F`` features and ``B``
    bins: ``twin`` makes a feature repeat feature 0's partitions, and
    ``one_ratio`` gives every sample one g/h ratio."""
    n = int(rng.integers(2, 40))
    binned = rng.integers(0, B, size=(n, F))
    k = int(rng.integers(1, F))
    if twin == "shifted":
        # feature k splits the samples as feature 0 does, one bin lower: an
        # exact gain tie that the lower feature must win over the lower bin
        binned[:, 0] = rng.integers(1, B, size=n)
        binned[:, k] = binned[:, 0] - 1
    elif twin == "coarse":
        # feature k repeats some of feature 0's partitions with sums formed
        # in another order: the integer sums agree, so the gains tie exactly
        # and the lower feature wins
        binned[:, k] = binned[:, 0] // 2
    if one_ratio:
        # every sample shares one g/h ratio: at lambda=0 every partition has
        # zero gain, and only rounding noise is left
        h = quantize(rng.uniform(0.01, 0.25, size=n))
        g = int(rng.integers(-4, 5)) * h
    else:
        g, h = map(quantize, logistic_gradients(rng.integers(0, 2, size=n), rng.normal(size=n)))
    return histogram_of(binned, g, h, np.arange(n), B)


def _scan_params(rng, one_ratio):
    params = GbtParams(
        reg_lambda=float(rng.choice([0.0, 0.5, 1.0])),
        reg_alpha=float(rng.choice([0.0, 0.05, 0.3])),
        gamma=float(rng.choice([0.0, 0.1])),
        min_split_gain=float(rng.choice([0.0, 0.01])),
        min_child_weight=float(rng.choice([0.0, 0.1, 0.3])),
    )
    if one_ratio:
        params = params.replace(reg_lambda=0.0, reg_alpha=0.0, gamma=0.0, min_split_gain=0.0)
    return params


def _at_edge_weight(rng, params, hist):
    """``params`` whose min_child_weight is a left hessian sum of ``hist``,
    which must still qualify."""
    prefix = np.cumsum(hist.h, axis=1)[:, :-1]
    return params.replace(min_child_weight=int(rng.choice(prefix.ravel())) / SCALE)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["none", "shifted", "coarse"]),
       st.booleans(), st.booleans())
def test_find_best_split_equals_per_feature_scan(seed, twin, one_ratio, edge_weight):
    rng = np.random.default_rng(seed)
    F, B = int(rng.integers(2, 6)), int(rng.integers(2, 10))
    hist = _scan_case(rng, F, B, twin, one_ratio)
    params = _scan_params(rng, one_ratio)
    if edge_weight:
        params = _at_edge_weight(rng, params, hist)
    assert find_best_split([hist], params) == [reference_best_split(hist, params)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.booleans(), st.booleans(),
       st.booleans())
def test_stacked_split_search_equals_the_per_node_scan(seed, n_nodes, one_ratio, edge_weight,
                                                       all_pure):
    # one call over a level's stack: every node's result is its own scan's,
    # with its ties, pure nodes and min_child_weight edges; a stack of pure
    # nodes finds no split anywhere
    rng = np.random.default_rng(seed)
    F, B = int(rng.integers(2, 6)), int(rng.integers(2, 10))
    hists = [_scan_case(rng, F, B, str(rng.choice(["none", "shifted", "coarse"])),
                        one_ratio or bool(rng.integers(2)))
             for _ in range(n_nodes)]
    if all_pure:
        for hist in hists:
            hist.g[:] = 0
    params = _scan_params(rng, one_ratio)
    if edge_weight:
        params = _at_edge_weight(rng, params, hists[int(rng.integers(n_nodes))])
    found = find_best_split(hists, params)
    assert found == [reference_best_split(hist, params) for hist in hists]
    if all_pure:
        assert found == [None] * n_nodes


def test_stacked_split_search_keeps_each_nodes_noise_margin():
    # GAIN_NOISE_REL_TOL scales with each node's own parent term: node B's
    # gain of 2^-28 clears its margin of about 1e-9, though it would not
    # clear node A's, whose parent term is 100
    a = _one_feature([10.0, 0.0], [0.5, 0.5], [4, 4])
    b = _one_feature([2.0**-14, -(2.0**-14)], [1.0, 1.0], [4, 4])
    params = GbtParams(reg_lambda=0.0, min_child_weight=1.0)
    found = find_best_split([a, b], params)
    assert found == [reference_best_split(a, params), reference_best_split(b, params)]
    assert found[1] is not None and found[1].gain == 2.0**-28


def _random_model(seed):
    rng = np.random.default_rng(seed)
    n, F = int(rng.integers(20, 80)), int(rng.integers(1, 5))
    X = rng.normal(size=(n, F))
    y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(int)
    params = GbtParams(
        n_estimators=int(rng.integers(1, 6)), max_depth=int(rng.integers(0, 5)),
        max_bin=int(rng.integers(2, 12)), reg_lambda=float(rng.choice([0.0, 1.0])),
        min_child_weight=float(rng.choice([0.0, 1.0])), subsample=float(rng.choice([0.7, 1.0])),
        base_score_logit=float(rng.normal()),
    )
    binning = compute_binning(X, params.max_bin)
    model = train_centralized(make_dataset(X, y), params, seed=seed % 1000, binning=binning)
    X_test = rng.normal(size=(30, F))
    # values exactly at a threshold must go left on every path
    X_test[:5] = binning.boundaries[:, int(rng.integers(0, params.max_bin - 1))]
    return model, binning, X, X_test


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_batch_predict_equals_row_walks_bit_for_bit(seed):
    model, binning, X, X_test = _random_model(seed)
    batch = predict_margin(model, X_test)
    assert np.array_equal(batch, reference_margin(model, X_test))
    assert [predict(model, row)[0] for row in X_test] == batch.tolist()
    for k in range(model.n_trees + 1):
        assert np.array_equal(predict_margin(model, X_test, n_trees=k),
                              reference_margin(model, X_test, n_trees=k))
    binned = binning.bin_columns(X).T
    for tree in model.trees:
        assert np.array_equal(tree_leaf_weights_binned(tree, binned),
                              reference_leaf_weights(tree, binned, binned=True))


def test_missing_feature_raises_on_both_entry_points():
    leaves = [TreeNode(node_id=1, is_leaf=True, weight=1.0),
              TreeNode(node_id=2, is_leaf=True, weight=2.0)]
    wide = TreeNode(node_id=0, is_leaf=False, feature=2, bin_index=0, threshold=1.0,
                    left=1, right=2)
    # a vertical model's foreign split: the threshold stays at its owner
    foreign = TreeNode(node_id=0, is_leaf=False, feature=0, bin_index=0, left=1, right=2)
    for root, ok_width in ((wide, 3), (foreign, None)):
        model = BoostedEnsemble(trees=[Tree(nodes=[root, *leaves])], params=GbtParams(),
                                base_score_logit=0.0)
        with pytest.raises(TrainingError, match="node 0"):
            predict_margin(model, np.zeros((4, 2)))
        with pytest.raises(TrainingError, match="node 0"):
            predict(model, np.zeros(2))
        if ok_width is not None:
            # the check is per row width, not a verdict cached on the model
            assert predict(model, np.zeros(ok_width))[0] == predict_margin(
                model, np.zeros((1, ok_width)))[0]


# ---------------------------------------------------------------------------
# the pooled trainer's sibling subtraction equals building every node directly


def direct_train(data, params, seed=0, build=build_histogram):
    """``train_centralized`` by a test-local level-wise grower that builds
    every node's histogram from its own rows with ``build`` (no sibling
    subtraction), weighs leaves from their rows' sums and routes every row
    through each finished tree."""
    X, y = data.features, data.labels
    binning = compute_binning(X, params.max_bin)
    columns = binning.bin_columns(X)
    cells = cell_ids(columns, binning.n_bins)
    margins = initial_margins(data.n_samples, params, seed)
    trees = []
    for t in range(params.n_estimators):
        g, h = map(quantize, logistic_gradients(y, margins))
        tree = Tree(nodes=[TreeNode(node_id=0, is_leaf=False)])
        level, depth = [(0, tree_row_sample(data.n_samples, params.subsample, seed, t))], 0
        while level:
            next_level = []
            for node_id, rows in level:
                node = tree.nodes[node_id]
                best = None
                if depth < params.max_depth and rows.size >= 2:
                    (best,) = find_best_split(build(cells, g, h, [rows], binning.n_bins),
                                              params)
                if best is None or best.left[2] == 0 or best.right[2] == 0:
                    node.is_leaf = True
                    node.weight = leaf_value(int(g[rows].sum()), int(h[rows].sum()), params)
                    continue
                node.feature, node.bin_index = best.feature, best.bin_index
                node.threshold = binning.threshold(node.feature, node.bin_index)
                node.left, node.right = len(tree.nodes), len(tree.nodes) + 1
                tree.nodes += [TreeNode(node_id=node.left, is_leaf=False),
                               TreeNode(node_id=node.right, is_leaf=False)]
                left = columns[node.feature][rows] <= node.bin_index
                next_level += [(node.left, rows[left]), (node.right, rows[~left])]
            level, depth = next_level, depth + 1
        trees.append(tree)
        margins += params.learning_rate * tree_leaf_weights_binned(tree, columns.T)
    return BoostedEnsemble(trees=trees, params=params, base_score_logit=params.base_score_logit,
                           feature_names=data.feature_names)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.sampled_from([1.0, 0.6]),
       st.sampled_from([0.0, 1.0, 6.0]), st.integers(0, 2), st.booleans())
def test_pooled_subtraction_equals_direct_builds(seed, max_depth, subsample, min_child_weight,
                                                 n_constant, balanced):
    rng = np.random.default_rng(seed)
    n = 4 * int(rng.integers(1, 31)) if balanced else int(rng.integers(2, 121))
    X = rng.normal(size=(n, 3 + n_constant))
    X[:, 3:] = rng.normal(size=n_constant)  # constant columns
    if balanced:
        # two binary columns whose splits halve a node at the first two
        # levels (at subsample 1), so siblings tie in size and the left one
        # is built
        X[:, 0], X[:, 1] = np.arange(n) % 2, np.arange(n) // 2 % 2
    y = (X[:, 0] + X[:, 1] + rng.normal(scale=0.7, size=n) > 1).astype(int)
    params = GbtParams(n_estimators=3, max_depth=max_depth, max_bin=int(rng.choice([2, 4, 8])),
                       subsample=subsample, min_child_weight=min_child_weight,
                       reg_lambda=float(rng.choice([0.0, 1.0])))
    data = make_dataset(X, y)
    assert model_to_json(train_centralized(data, params, seed=seed % 7)) == model_to_json(
        direct_train(data, params, seed=seed % 7))


def test_pooled_trainer_sums_at_most_root_plus_half_a_level_per_depth(monkeypatch):
    rng = np.random.default_rng(11)
    n, max_depth = 400, 5
    X = rng.normal(size=(n, 4))
    y = (X[:, 0] + X[:, 1] * X[:, 2] + rng.normal(scale=0.5, size=n) > 0).astype(int)
    data = make_dataset(X, y)
    params = GbtParams(n_estimators=3, max_depth=max_depth, min_child_weight=0.0, reg_lambda=1.0)
    summed = []  # rows summed per tree

    def counting_build(cells, g, h, row_sets, n_bins):
        summed[-1] += sum(len(rows) for rows in row_sets)
        return build_histogram(cells, g, h, row_sets, n_bins)

    def next_tree(*args):
        summed.append(0)
        return tree_row_sample(*args)

    monkeypatch.setattr(gbt, "build_histogram", counting_build)
    monkeypatch.setattr(gbt, "tree_row_sample", next_tree)
    train_centralized(data, params)
    # the root sums n rows, and each deeper level that may split sums only
    # its smaller children, at most n / 2
    bound = n * (1 + (max_depth - 1) / 2)
    assert len(summed) == params.n_estimators
    assert all(0 < rows <= bound for rows in summed), summed
    # building every node directly breaks the bound on these trees
    direct = []
    direct_train(data, params,
                 build=lambda *a: direct.append(sum(map(len, a[3]))) or build_histogram(*a))
    assert sum(direct) > params.n_estimators * bound
