import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedgbt.data import PartyDataset
from fedgbt.gbt import (
    Binning,
    BoostedEnsemble,
    GbtParams,
    GradHistogram,
    Tree,
    TreeNode,
    TrainingError,
    DegenerateNodeError,
    build_histogram,
    compute_binning,
    compute_bins,
    GAIN_TIE_REL_TOL,
    SplitCandidate,
    find_best_split,
    grow_tree,
    leaf_value,
    leaf_weight,
    logistic_gradients,
    model_from_json,
    model_to_json,
    predict,
    predict_margin,
    sigmoid,
    soft_threshold,
    train_centralized,
    tree_leaf_weights_binned,
)


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
    return GradHistogram(np.zeros(shape), np.zeros(shape), np.zeros(shape, dtype=np.int64))


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


def reference_histogram(binned, g, h, sample_idx, n_bins):
    F = binned.shape[1]
    hist = zero_histogram(F, n_bins)
    idx = np.asarray(sample_idx, dtype=np.int64)
    if idx.size == 0:
        return hist
    for f in range(F):
        bins = binned[idx, f]
        hist.g[f] = np.bincount(bins, weights=g[idx], minlength=n_bins)
        hist.h[f] = np.bincount(bins, weights=h[idx], minlength=n_bins)
        hist.counts[f] = np.bincount(bins, minlength=n_bins)
    return hist


def reference_best_split(hist, params):
    """The per-feature scan, with the same tie rule and noise cutoff."""
    G_node, H_node, _ = hist.totals()
    parent_term = float(reference_gain_term(soft_threshold(G_node, params.reg_alpha), H_node,
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
        lam = params.reg_lambda
        gains = 0.5 * (
            reference_gain_term(soft_threshold(gl, params.reg_alpha), hl, lam)
            + reference_gain_term(soft_threshold(gr, params.reg_alpha), hr, lam)
            - reference_gain_term(np.full_like(gl, soft_threshold(G, params.reg_alpha)),
                                  np.full_like(hl, H), lam)
        ) - params.gamma
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
            return SplitCandidate(f, b, float(gains[b]), (float(gl[b]), float(hl[b]), int(cl[b])),
                                  (float(gr[b]), float(hr[b]), int(cr[b])))
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
# binning


def test_compute_bins_midpoint():
    np.testing.assert_allclose(compute_bins(np.array([0.0, 1, 2, 3]), 2), [1.5])


def test_compute_bins_arithmetic():
    np.testing.assert_allclose(compute_bins(np.array([0.0, 10.0]), 5), [2, 4, 6, 8])


def test_constant_column_single_occupied_bin():
    binning = compute_binning(np.full((5, 1), 3.3), 8)
    assert (binning.bin_matrix(np.full((5, 1), 3.3)) == 0).all()


def test_value_equal_to_threshold_goes_left():
    binning = Binning(boundaries=np.array([[1.5]]), n_bins=2)
    bins = binning.bin_column(np.array([1.5, 1.50001]), 0)
    assert list(bins) == [0, 1]


# ---------------------------------------------------------------------------
# histograms


def test_histogram_empty_and_single_sample():
    binned = np.array([[3], [1]])
    g = np.array([-0.5, 0.1])
    h = np.array([0.25, 0.2])
    empty = build_histogram(binned, g, h, np.array([], dtype=int), 4)
    assert empty.counts.sum() == 0 and empty.g.sum() == 0
    one = build_histogram(binned, g, h, np.array([0]), 4)
    assert one.counts[0, 3] == 1
    assert one.g[0, 3] == pytest.approx(-0.5)
    assert one.counts.sum() == 1


def test_histogram_matches_naive_accumulation():
    rng = np.random.default_rng(0)
    n, F, B = 40, 3, 6
    binned = rng.integers(0, B, size=(n, F))
    g, h = rng.normal(size=n), rng.uniform(0.01, 0.25, size=n)
    idx = rng.choice(n, size=25, replace=False)
    hist = build_histogram(binned, g, h, idx, B)
    for f in range(F):
        for b in range(B):
            members = [i for i in idx if binned[i, f] == b]
            assert hist.g[f, b] == pytest.approx(sum(g[i] for i in members))
            assert hist.h[f, b] == pytest.approx(sum(h[i] for i in members))
            assert hist.counts[f, b] == len(members)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_histogram_additivity_and_subtraction_exact_on_dyadic(seed):
    # gradients on a dyadic grid make float sums exact, mirroring the
    # fixed-point integer arithmetic used on the wire
    rng = np.random.default_rng(seed)
    n, F, B = 30, 2, 5
    binned = rng.integers(0, B, size=(n, F))
    g = rng.integers(-2**20, 2**20, size=n) / 2**20
    h = rng.integers(0, 2**20, size=n) / 2**22
    split = rng.integers(1, n - 1)
    perm = rng.permutation(n)
    a_idx, b_idx = np.sort(perm[:split]), np.sort(perm[split:])
    hist_a = build_histogram(binned, g, h, a_idx, B)
    hist_b = build_histogram(binned, g, h, b_idx, B)
    parent = build_histogram(binned, g, h, np.arange(n), B)
    for name in ("g", "h", "counts"):
        a, b, whole = (getattr(x, name) for x in (hist_a, hist_b, parent))
        assert (a + b == whole).all()
        assert (whole - a == b).all()


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

    Prefix sums accumulate left-to-right and the right side is total minus
    left, matching the trained code's float association so that exact gain
    ties compare bit-identically.  The tie rule is the shared one: the
    first candidate (feature asc, bin asc) within the relative tolerance of
    the maximum wins.
    """
    from fedgbt.gbt import GAIN_TIE_REL_TOL

    def shrink(v):
        if params.reg_alpha == 0:
            return v
        return math.copysign(max(abs(v) - params.reg_alpha, 0.0), v)

    def term(G, H):
        den = H + params.reg_lambda
        return (G * G / den) if den > 0 else 0.0

    candidates = []
    for f in range(hist.n_features):
        total_g = float(hist.g[f].sum())
        total_h = float(hist.h[f].sum())
        gl = hl = 0.0
        for b in range(hist.n_bins - 1):
            gl += float(hist.g[f, b])
            hl += float(hist.h[f, b])
            gr, hr = total_g - gl, total_h - hl
            if hl < params.min_child_weight or hr < params.min_child_weight:
                continue
            gain = 0.5 * (
                term(shrink(gl), hl) + term(shrink(gr), hr)
                - term(shrink(total_g), total_h)
            ) - params.gamma
            if gain > params.min_split_gain:
                candidates.append((gain, f, b))
    if not candidates:
        return None
    best_gain = max(c[0] for c in candidates)
    cutoff = best_gain - GAIN_TIE_REL_TOL * (1.0 + abs(best_gain))
    return next(c for c in candidates if c[0] >= cutoff)


def test_find_best_split_separable_toy():
    # one feature, 4 samples: two negatives below, two positives above
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    binning = compute_binning(X, 4)
    binned = binning.bin_matrix(X)
    g, h = logistic_gradients(y, np.zeros(4))
    hist = build_histogram(binned, g, h, np.arange(4), 4)
    params = GbtParams(min_child_weight=0.0, reg_lambda=1.0)
    best = find_best_split(hist, params)
    assert best is not None
    assert best.feature == 0
    assert best.bin_index == 1  # boundary at 1.5 separates the classes
    expected = split_gain(1.0, 0.5, -1.0, 0.5, 1.0, 0.0)
    assert best.gain == pytest.approx(expected)


def test_find_best_split_pure_node_returns_none():
    hist = zero_histogram(2, 4)
    hist.h += 0.01
    hist.counts += 1
    assert find_best_split(hist, GbtParams(min_child_weight=0.0)) is None


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
    g, h = logistic_gradients(y, margins)
    hist = build_histogram(binned, g, h, np.arange(n), B)
    params = GbtParams(
        min_child_weight=float(rng.choice([0.0, 0.1, 0.3])),
        reg_lambda=float(rng.choice([0.0, 0.5, 1.0])),
        reg_alpha=float(rng.choice([0.0, 0.05])),
        gamma=float(rng.choice([0.0, 0.1])),
    )
    ours = find_best_split(hist, params)
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


def _scripted_growth(hists, max_depth):
    """Grow a tree whose node histograms come from ``hists`` (node id ->
    histogram or None); returns the tree and the callbacks' call log."""
    params = GbtParams(max_depth=max_depth)
    log = {"histogram": [], "levels": []}

    def histogram(node_id):
        log["histogram"].append(node_id)
        return hists[node_id]

    def totals(node_id):
        return float(node_id) - 2.5, 1.0 + node_id

    def finish_level(tree, depth, level):
        # the level is decided: every split already has both children
        for node in (tree.nodes[i] for i in level):
            assert node.is_leaf or node.right < len(tree.nodes)
        log["levels"].append((depth, list(level)))

    return grow_tree(params, histogram, totals, finish_level), params, log


def _one_feature(g, h, counts):
    return GradHistogram(np.array([g], dtype=float), np.array([h], dtype=float),
                         np.array([counts], dtype=np.int64))


def test_grow_tree_root_without_histogram_is_one_leaf():
    tree, params, log = _scripted_growth({0: None}, max_depth=3)
    (root,) = tree.nodes
    assert root.is_leaf and root.weight == leaf_value(-2.5, 1.0, params)
    assert log == {"histogram": [0], "levels": [(0, [0])]}


def test_grow_tree_policy_with_stub_callbacks():
    split = _one_feature([-2.0, 2.0], [2.0, 2.0], [2, 2])
    # a best split whose left child holds no sample must become a leaf
    empty_left = _one_feature([-2.0, 2.0], [2.0, 2.0], [0, 4])
    assert find_best_split(empty_left, GbtParams()).left[2] == 0
    hists = {0: split, 1: split, 2: empty_left, 3: None, 4: split}
    tree, params, log = _scripted_growth(hists, max_depth=3)
    # level order: node 1's children come before node 4's
    assert [(n.node_id, n.left, n.right) for n in tree.nodes if not n.is_leaf] == [
        (0, 1, 2), (1, 3, 4), (4, 5, 6)]
    assert [n.node_id for n in tree.nodes] == list(range(7))
    assert all((n.feature, n.bin_index) == (0, 0) for n in tree.nodes if not n.is_leaf)
    leaves = [n for n in tree.nodes if n.is_leaf]
    assert [n.node_id for n in leaves] == [2, 3, 5, 6]
    assert all(n.weight == leaf_value(n.node_id - 2.5, 1.0 + n.node_id, params) for n in leaves)
    # nodes 5 and 6 sit at max_depth: no histogram is asked for them
    assert log["histogram"] == [0, 1, 2, 3, 4]
    assert log["levels"] == [(0, [0]), (1, [1, 2]), (2, [3, 4]), (3, [5, 6])]


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
    # magnitudes spread over many orders, so a different summation order shows
    g = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, size=n)
    h = rng.uniform(0, 1, size=n) * 10.0 ** rng.uniform(-8, 8, size=n)
    idx = rng.permutation(n)[: int(rng.integers(0, n + 1))]
    ours = build_histogram(binned, g, h, idx, B)
    ref = reference_histogram(binned, g, h, idx, B)
    assert np.array_equal(ours.g, ref.g)
    assert np.array_equal(ours.h, ref.h)
    assert np.array_equal(ours.counts, ref.counts)
    assert ours.counts.dtype == np.int64


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["none", "shifted", "coarse"]),
       st.booleans(), st.booleans())
def test_find_best_split_equals_per_feature_scan(seed, twin, one_ratio, edge_weight):
    rng = np.random.default_rng(seed)
    n, F, B = int(rng.integers(2, 40)), int(rng.integers(2, 6)), int(rng.integers(2, 10))
    binned = rng.integers(0, B, size=(n, F))
    k = int(rng.integers(1, F))
    if twin == "shifted":
        # feature k splits the samples as feature 0 does, one bin lower: an
        # exact gain tie that the lower feature must win over the lower bin
        binned[:, 0] = rng.integers(1, B, size=n)
        binned[:, k] = binned[:, 0] - 1
    elif twin == "coarse":
        # feature k repeats some of feature 0's partitions with sums formed
        # in another order: ties up to rounding, which the lower feature wins
        binned[:, k] = binned[:, 0] // 2
    params = GbtParams(
        reg_lambda=float(rng.choice([0.0, 0.5, 1.0])),
        reg_alpha=float(rng.choice([0.0, 0.05, 0.3])),
        gamma=float(rng.choice([0.0, 0.1])),
        min_split_gain=float(rng.choice([0.0, 0.01])),
        min_child_weight=float(rng.choice([0.0, 0.1, 0.3])),
    )
    if one_ratio:
        # every sample shares one g/h ratio: at lambda=0 every partition has
        # zero gain, and only rounding noise is left
        h = rng.uniform(0.01, 0.25, size=n)
        g = float(rng.uniform(-4, 4)) * h
        params = params.replace(reg_lambda=0.0, reg_alpha=0.0, gamma=0.0, min_split_gain=0.0)
    else:
        g, h = logistic_gradients(rng.integers(0, 2, size=n), rng.normal(size=n))
    hist = build_histogram(binned, g, h, np.arange(n), B)
    if edge_weight:
        # a left hessian sum exactly at min_child_weight must still qualify
        prefix = np.cumsum(hist.h, axis=1)[:, :-1]
        params = params.replace(min_child_weight=float(rng.choice(prefix.ravel())))
    assert find_best_split(hist, params) == reference_best_split(hist, params)


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
    binned = binning.bin_matrix(X)
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
