import hashlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import beta as beta_dist

from fedgbt import data
from fedgbt.data import (
    ALL_FEATURES,
    DISTRICT_A_STATS,
    DISTRICT_B_STATS,
    DataError,
    GenerationError,
    PartyDataset,
    SynthConfig,
    _fit_unit_beta,
    _sample_feature,
    default_synth_config,
    join_datasets,
    load_csv,
    split_train_valid_test,
    synth_generate,
    vertical_partition,
    write_csv,
)


@pytest.fixture(scope="module")
def default_pair():
    return synth_generate(default_synth_config(seed=0))


def test_default_generation_sizes(default_pair):
    a, b = default_pair
    assert a.n_samples == 72
    assert b.n_samples == 212
    assert a.n_features == b.n_features == 32
    assert a.feature_names == b.feature_names == ALL_FEATURES


def test_generation_deterministic():
    a1, b1 = synth_generate(default_synth_config(seed=7))
    a2, b2 = synth_generate(default_synth_config(seed=7))
    np.testing.assert_array_equal(a1.features, a2.features)
    np.testing.assert_array_equal(b1.labels, b2.labels)
    a3, _ = synth_generate(default_synth_config(seed=8))
    assert not np.array_equal(a1.features, a3.features)


def test_generated_statistics_match_published_summaries(default_pair):
    for dataset, stats in zip(default_pair, (DISTRICT_A_STATS, DISTRICT_B_STATS)):
        for j, name in enumerate(ALL_FEATURES):
            col = dataset.features[:, j]
            s = stats[name]
            assert col.min() >= s.low - 1e-9
            assert col.max() <= s.high + 1e-9
            tolerance = 0.05 * max(abs(s.mean), 1e-9)
            assert abs(col.mean() - s.mean) <= tolerance, (dataset.party_id, name)


def _per_kappa_fit(mean_u, median_u):
    """The concentration search as one ``beta.ppf`` call per grid point,
    keeping the first kappa whose median misses least."""
    m = min(max(mean_u, 1e-4), 1 - 1e-4)
    best = None
    for kappa in np.geomspace(0.05, 500.0, 60):
        a, b = m * kappa, (1 - m) * kappa
        err = abs(beta_dist.ppf(0.5, a, b) - median_u)
        if best is None or err < best[0]:
            best = (err, a, b)
    return best[1], best[2]


@settings(max_examples=300, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1))
@example(0.0, 0.0)
@example(1.0, 1.0)
@example(0.0, 1.0)
@example(1.0, 0.0)
@example(1e-5, 1e-5)
@example(1 - 1e-5, 1 - 1e-5)
@example(1e-5, 1 - 1e-5)
@example(1 - 1e-5, 1e-5)
@example(0.5, 0.5)
def test_fit_unit_beta_equals_the_per_kappa_search(mean_u, median_u):
    assert _fit_unit_beta(mean_u, median_u) == _per_kappa_fit(mean_u, median_u)


# (stats, n): one Beta column and one zero-inflated column at each district size.
_BRANCH_CASES = [
    (DISTRICT_A_STATS["G1"], 72),
    (DISTRICT_B_STATS["G1"], 212),
    (DISTRICT_A_STATS["G2"], 72),
    (DISTRICT_B_STATS["G7"], 212),
]


@pytest.mark.parametrize("stats, n", _BRANCH_CASES)
def test_sample_feature_quantiles_equal_beta_ppf(monkeypatch, stats, n):
    """Both branches of ``_sample_feature`` (the fitted Beta and the
    zero-inflated tail) place the values ``beta.ppf`` gives on their
    quantile grid, so the calibrated column is the same to the bit."""
    grids = []

    def ppf(a, b, q):
        if np.ndim(q):
            grids.append(np.size(q))
        return beta_dist.ppf(q, a, b)

    fast = _sample_feature(stats, n, np.random.default_rng(3))
    monkeypatch.setattr(data, "betaincinv", ppf)
    slow = _sample_feature(stats, n, np.random.default_rng(3))
    assert fast.tobytes() == slow.tobytes()
    zero_inflated = stats.median == stats.low
    assert (grids[0] < n) if zero_inflated else grids == [n]


# sha256 of each district's features (float64) and labels (int64), in
# little-endian bytes, at seeds 0, 1 and 7 of the default config: the bytes
# the generator gave when it still called scipy.stats.beta.ppf.
_DISTRICT_SHA256 = {
    0: (("f79c12c77f39e20918f55baa8330b0befb5db3a4cd3241bd44ba08b13be7e076",
         "5bb92506aba8339a9be585cef40ec8143672210c374927cb9e049a9408863088"),
        ("4aca117553ac0598c869c962bf725abf962b4b73a7a7810fd50b5a5b95a8503f",
         "ae62ba7e77892fa95f9ef395f4a484ec3c35ccdf1bd51793b94349e1fecea474")),
    1: (("9059b380982c49d617cf7421bca19947eca9eaab6f89f70ecfde55379d7c9b01",
         "a624a4390d9b1e6ce9c1eae62dd5996a3584f25bad4f1be8bd4e72ecfd11a695"),
        ("5504d28e93b4fad23173864e6a0348bef9598f0977958dbf6c7ee328ef9f70e6",
         "ee178c305b6582dc222dffd083f13f59ee926b2f023f8a0897e37eb60cba2e67")),
    7: (("487ea74548cdcc025652870ac2ca6de0de8b2ee17579b2eefc69c03345187c28",
         "e938139bfd94748cfe37ac7f688c4ae85707f86dfc2275a3d4b37921196d63ac"),
        ("dddb7728114d3d5ce84cfdd498fc27ef15c47f9d257a5d94eb98d71329f12bd1",
         "5c871ea0131e5d1135c0341dba164a72278cf058d70d1c5ff509ed5d15c7b50d")),
}


@pytest.mark.parametrize("seed", sorted(_DISTRICT_SHA256))
def test_generated_districts_are_pinned_to_the_byte(seed):
    digests = tuple(
        (hashlib.sha256(d.features.astype("<f8").tobytes()).hexdigest(),
         hashlib.sha256(d.labels.astype("<i8").tobytes()).hexdigest())
        for d in synth_generate(default_synth_config(seed)))
    assert digests == _DISTRICT_SHA256[seed]


def test_headline_feature_range_and_mean(default_pair):
    a, _ = default_pair
    g1 = a.features[:, ALL_FEATURES.index("G1")]
    assert g1.min() >= 895.63 and g1.max() <= 2163.00
    assert abs(g1.mean() - 1570.38) <= 0.05 * 1570.38


def test_class_rates_close_to_targets(default_pair):
    a, b = default_pair
    assert abs(a.labels.mean() - 0.3472) <= 0.03
    assert abs(b.labels.mean() - 0.6887) <= 0.03


def test_degenerate_signal_raises():
    config = SynthConfig(signal_weights={}, noise_scale=0.0, seed=0)
    with pytest.raises(GenerationError):
        synth_generate(config)


def test_missing_values_rejected_at_construction():
    X = np.ones((3, 2))
    X[1, 1] = np.nan
    with pytest.raises(DataError):
        PartyDataset("p", np.arange(3), X, ("a", "b"))


def test_csv_roundtrip_bit_exact(tmp_path, default_pair):
    a, _ = default_pair
    path = tmp_path / "a.csv"
    write_csv(a, str(path))
    loaded = load_csv(str(path))
    np.testing.assert_array_equal(loaded.features, a.features)
    np.testing.assert_array_equal(loaded.labels, a.labels)
    np.testing.assert_array_equal(loaded.sample_ids, a.sample_ids)


def test_csv_blank_cell_names_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    header = "well_id," + ",".join(ALL_FEATURES) + ",label"
    good = "0," + ",".join(["1.0"] * 32) + ",1"
    bad = "1," + ",".join(["2.0"] * 31) + ",,0"
    path.write_text(header + "\n" + good + "\n" + bad + "\n")
    with pytest.raises(DataError, match=r"row 3.*O16"):
        load_csv(str(path))


def test_csv_unknown_column_and_empty(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text("well_id,X1\n0,1.0\n")
    with pytest.raises(DataError):
        load_csv(str(path))
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError):
        load_csv(str(empty))


def rejoin_vertical(parts, feature_order):
    """Oracle inverse of ``vertical_partition`` given the original column order."""
    ids = next(iter(parts.values())).sample_ids
    assert all(np.array_equal(p.sample_ids, ids) for p in parts.values())
    labels = next(p.labels for p in parts.values() if p.labels is not None)
    columns = {name: p.features[:, j] for p in parts.values()
               for j, name in enumerate(p.feature_names)}
    X = np.column_stack([columns[name] for name in feature_order])
    return PartyDataset("joined", ids, X, feature_order, labels)


def test_vertical_partition_default_split_and_rejoin(default_pair):
    joined = join_datasets(list(default_pair))
    parts = vertical_partition(joined)
    active = parts["oil_company"]
    passive = parts["exploration_institute"]
    assert active.n_features == 16 and active.labels is not None
    assert passive.n_features == 16 and passive.labels is None
    rebuilt = rejoin_vertical(parts, joined.feature_names)
    np.testing.assert_array_equal(rebuilt.features, joined.features)
    np.testing.assert_array_equal(rebuilt.labels, joined.labels)


def test_vertical_partition_rejects_overlap(default_pair):
    joined = join_datasets(list(default_pair))
    with pytest.raises(DataError):
        vertical_partition(
            joined,
            feature_split={"x": ALL_FEATURES[:17], "y": ALL_FEATURES[16:]},
            label_party="x",
        )


def test_fold_plan_shapes_and_disjointness(default_pair):
    joined = join_datasets(list(default_pair))
    plan = split_train_valid_test(joined, k=5, seed=0)
    assert len(plan.folds) == 5
    test_sets = [set(f.test_idx.tolist()) for f in plan.folds]
    assert all(56 <= len(t) <= 57 for t in test_sets)
    union = set().union(*test_sets)
    assert union == set(range(284))
    assert sum(len(t) for t in test_sets) == 284
    for fold in plan.folds:
        assert not set(fold.valid_idx) & set(fold.test_idx)
        assert not set(fold.train_idx) & set(fold.valid_idx)
        assert not set(fold.train_idx) & set(fold.test_idx)
        labels = joined.labels
        assert len(np.unique(labels[fold.test_idx])) == 2
        assert len(np.unique(labels[fold.train_idx])) == 2


def test_fold_plan_seed_stable(default_pair):
    joined = join_datasets(list(default_pair))
    p1 = split_train_valid_test(joined, k=5, seed=4)
    p2 = split_train_valid_test(joined, k=5, seed=4)
    for f1, f2 in zip(p1.folds, p2.folds):
        np.testing.assert_array_equal(f1.test_idx, f2.test_idx)
        np.testing.assert_array_equal(f1.valid_idx, f2.valid_idx)


def _plan_labels(n, rate):
    """0/1 labels with ``max(1, round(rate * n))`` ones at seeded positions."""
    labels = np.zeros(n, dtype=np.int64)
    labels[np.random.default_rng([n, 7]).permutation(n)[:max(1, round(rate * n))]] = 1
    return labels


def _labelled(labels):
    n = len(labels)
    return PartyDataset("p", np.arange(n), np.zeros((n, 1)), ("f0",), labels)


def _plan_digest(labels, ks=(2, 5, 7), seeds=range(5)):
    """sha256 over every plan of ``labels`` for each k and seed: each fold's
    train, valid and test indices, dtype, shape and bytes, or the message of
    the ``DataError`` raised in its place."""
    h = hashlib.sha256()
    dataset = _labelled(labels)
    for k in ks:
        for seed in seeds:
            h.update(f"k={k} seed={seed}:".encode())
            try:
                plan = split_train_valid_test(dataset, k=k, seed=seed)
            except DataError as exc:
                h.update(f"DataError({exc})".encode())
                continue
            for fold in plan.folds:
                for idx in (fold.train_idx, fold.valid_idx, fold.test_idx):
                    h.update(f"{idx.dtype.str}{idx.shape}".encode())
                    h.update(idx.tobytes())
    return h.hexdigest()


# each (n, positive rate) over k in {2, 5, 7} and seeds 0-4; at n = 5 every
# plan raises
_PLAN_SHA256 = {
    (5, 0.5): "de79b5eec340d93c6e2306214de2beb5ed9fc181e8d7d7a8c4123b94f5db85dd",
    (5, 0.1): "de79b5eec340d93c6e2306214de2beb5ed9fc181e8d7d7a8c4123b94f5db85dd",
    (57, 0.5): "b75714f8bb1d9afedc5121f5fc8af46a3c0072e37755b93c8c93bad77b70c524",
    (57, 0.1): "2bf67ca20880c2c19cbfa0af7cf8ff68855eecaa9b64d5fffac3295bbe0ddb8a",
    (250, 0.5): "21f93d55e1d94b7a6ac8e1b00c03b298dc4640aea838316b1edc0be532081db7",
    (250, 0.1): "3f352265da252ef5168e8ee3c443fabb79235bad4c6d4e5eb2c216578054d711",
    (284, 0.5): "05877b642ec87f41d8c6a917146bf6393bc63f32a1244ad62198f52593ef8e4c",
    (284, 0.1): "dc5eda1c6dd22d91c95c8e477e5986ba7c63311890af67a4721228f5bcbf4b14",
    (2000, 0.5): "13fa567fe90ce0f12053c5f7daf3eb32c1ac3cb1d6e8defde6fba05cb35b1c05",
    (2000, 0.1): "0d9d1514956cc177e7fa6b6e65de1fac2f5c271d5f1949a530dcccc618d09786",
}


@pytest.mark.parametrize("n, rate", sorted(_PLAN_SHA256))
def test_fold_plans_are_pinned_to_the_byte(n, rate):
    assert _plan_digest(_plan_labels(n, rate)) == _PLAN_SHA256[(n, rate)]


@pytest.mark.parametrize("n, minority, size", [(n, c, s) for n in (57, 250) for c in (0, 1)
                                                for s in (1, 2)])
def test_a_class_of_one_or_two_rows_fails_all_attempts(n, minority, size):
    labels = np.full(n, 1 - minority, dtype=np.int64)
    labels[np.random.default_rng([n, 8]).permutation(n)[:size]] = minority
    for k in (2, 5, 7):
        with pytest.raises(DataError, match="could not build stratified folds"):
            split_train_valid_test(_labelled(labels), k=k, seed=0)


def test_fold_plan_errors_are_pinned():
    with pytest.raises(DataError, match="could not build stratified folds"):
        split_train_valid_test(_labelled(np.ones(40, dtype=np.int64)), k=2)
    with pytest.raises(DataError, match="fewer samples than folds"):
        split_train_valid_test(_labelled(np.array([0, 1, 0, 1])), k=5)
    with pytest.raises(DataError, match="k must be at least 2"):
        split_train_valid_test(_labelled(np.array([0, 1, 0, 1])), k=1)
    with pytest.raises(DataError, match="needs labels"):
        split_train_valid_test(PartyDataset("p", np.arange(4), np.zeros((4, 1)), ("f0",)), k=2)


def test_an_empty_training_set_fails_all_attempts():
    # every group holds both classes, but each fold's validation rows take
    # its whole pool and leave its training set empty
    with pytest.raises(DataError, match="could not build stratified folds"):
        split_train_valid_test(_labelled(np.array([0, 1, 1, 0])), k=2)


def _plan_reference(labels, k, valid_fraction=0.10, seed=0):
    """Row by row and by set difference: the fold plan that
    ``split_train_valid_test`` computes in array operations, as
    ``(train_idx, valid_idx, test_idx)`` per fold."""
    if len(labels) < k:
        raise DataError("fewer samples than folds")
    for attempt in range(20):
        rng = np.random.default_rng([seed, 53, attempt])
        groups = [[] for _ in range(k)]
        for cls in (0, 1):
            idx = rng.permutation(np.flatnonzero(labels == cls))
            order = sorted(range(k), key=lambda g: (len(groups[g]), g))
            for j, sample in enumerate(idx):
                groups[order[j % k]].append(int(sample))
        groups = [np.sort(np.array(g, dtype=np.int64)) for g in groups]
        if any(len(g) == 0 or len(np.unique(labels[g])) < 2 for g in groups):
            continue
        folds = []
        for fold_id in range(k):
            train_pool = np.sort(np.concatenate([groups[j] for j in range(k) if j != fold_id]))
            n_valid = max(1, int(round(valid_fraction * len(train_pool))))
            valid_parts = []
            for cls in (0, 1):
                cls_idx = train_pool[labels[train_pool] == cls]
                share = int(round(n_valid * len(cls_idx) / len(train_pool)))
                share = min(max(share, 1), max(len(cls_idx) - 1, 1))
                valid_parts.append(rng.permutation(cls_idx)[:share])
            valid_idx = np.sort(np.concatenate(valid_parts))
            train_idx = np.setdiff1d(train_pool, valid_idx)
            if len(np.unique(labels[train_idx])) < 2:
                break
            folds.append((train_idx, valid_idx, groups[fold_id]))
        else:
            return folds
    raise DataError("could not build stratified folds with both classes everywhere")


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 60) | st.integers(2, 3000), k=st.integers(2, 8),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_fold_plan_equals_the_reference(n, k, seed, data):
    rate = data.draw(st.floats(0.05, 0.95) | st.floats(0, 1))
    labels = (np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random(n)
              < rate).astype(np.int64)
    # wide fractions reach the clamp that keeps a class in training
    valid_fraction = data.draw(st.sampled_from([0.10, 0.99]) | st.floats(0.01, 0.99))
    try:
        expect = _plan_reference(labels, k, valid_fraction, seed)
    except DataError as exc:
        with pytest.raises(DataError, match=re.escape(str(exc))):
            split_train_valid_test(_labelled(labels), k, valid_fraction, seed)
        return
    plan = split_train_valid_test(_labelled(labels), k, valid_fraction, seed)
    assert [f.fold_id for f in plan.folds] == list(range(k))
    for fold, arrays in zip(plan.folds, expect, strict=True):
        for got, want in zip((fold.train_idx, fold.valid_idx, fold.test_idx), arrays):
            assert got.dtype == want.dtype and np.array_equal(got, want)
