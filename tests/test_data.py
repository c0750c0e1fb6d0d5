import numpy as np
import pytest

from fedgbt.data import (
    ALL_FEATURES,
    DISTRICT_A_STATS,
    DISTRICT_B_STATS,
    DataError,
    GenerationError,
    PartyDataset,
    SynthConfig,
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
