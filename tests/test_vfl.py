import copy
import importlib.util
import math
import random
from collections import Counter
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fedgbt.data import PartyDataset
from fedgbt.gbt import (
    GRAD_SCALE_BITS,
    BoostedEnsemble,
    GbtParams,
    GradHistogram,
    ProtocolError,
    check_histogram,
    find_best_split,
    logistic_gradients,
    model_to_json,
    predict_proba,
    quantize,
    train_centralized,
)
from fedgbt.paillier import (
    Ciphertext,
    _is_probable_prime,
    aggregate,
    decrypt,
    encrypt,
    int_to_hex,
    keygen,
    keypair_from_primes,
)
from fedgbt.scanner import SensitiveCorpus, scan_sensitive, scan_structure
from fedgbt.transport import MessageBus
from fedgbt.vfl import (
    ActiveParty,
    PassiveParty,
    fold_slots,
    histogram_layout,
    joined_matrix,
    make_vfl_roster,
    vfl_predict,
    vfl_train,
)
from test_gbt import histogram_of


def vertical_fixture(n, f_active, f_passive, seed, n_passives=1):
    rng = np.random.default_rng(seed)
    total_f = f_active + f_passive * n_passives
    X = rng.normal(size=(n, total_f))
    w = rng.normal(size=total_f)
    logits = X @ w / math.sqrt(total_f) + 0.2 * rng.normal(size=n)
    y = (logits > 0).astype(int)
    if y.min() == y.max():
        y[: n // 3] = 1 - y[0]
    ids = np.arange(100, 100 + n)
    datasets = {
        "active": PartyDataset(
            "active", ids, X[:, :f_active],
            tuple(f"a{i}" for i in range(f_active)), y,
        )
    }
    for k in range(n_passives):
        start = f_active + k * f_passive
        datasets[f"passive{k}"] = PartyDataset(
            f"passive{k}", ids, X[:, start : start + f_passive],
            tuple(f"p{k}_{i}" for i in range(f_passive)),
        )
    return datasets, X, y


def small_params(**kw):
    base = dict(n_estimators=2, max_depth=3, max_bin=8, reg_lambda=1.0,
                min_child_weight=1.0, learning_rate=0.3)
    base.update(kw)
    return GbtParams(**base)


# ---------------------------------------------------------------------------
# roster


def test_roster_orders_features_and_validates():
    datasets, X, y = vertical_fixture(10, 2, 3, seed=1)
    roster = make_vfl_roster("active", datasets)
    assert roster.party_ids == ("active", "passive0")
    assert roster.feature_slices["active"] == (0, 2)
    assert roster.feature_slices["passive0"] == (2, 5)
    assert roster.owner_of(4) == "passive0"
    assert roster.to_local("passive0", 2) == 0
    np.testing.assert_array_equal(joined_matrix(roster, datasets), X)


def test_roster_rejects_misaligned_ids():
    datasets, _, _ = vertical_fixture(10, 2, 2, seed=2)
    bad = datasets["passive0"]
    datasets["passive0"] = PartyDataset(
        "passive0", bad.sample_ids[::-1], bad.features, bad.feature_names
    )
    with pytest.raises(ProtocolError):
        make_vfl_roster("active", datasets)


def test_roster_requires_labels_at_active():
    datasets, _, _ = vertical_fixture(8, 2, 2, seed=3)
    unlabeled = datasets["active"]
    datasets["active"] = PartyDataset(
        "active", unlabeled.sample_ids, unlabeled.features, unlabeled.feature_names
    )
    with pytest.raises(ProtocolError):
        make_vfl_roster("active", datasets)


# ---------------------------------------------------------------------------
# gradient broadcast and passive aggregation


def test_gradient_broadcast_roundtrip_known_values():
    n = 6
    y = np.array([1, 1, 1, 0, 0, 0])
    ids = np.arange(n)
    active = ActiveParty(
        "active",
        PartyDataset("active", ids, np.zeros((n, 1)), ("a0",), y),
        small_params(), seed=5, key_bits=256,
    )
    active.g, active.h = map(quantize, logistic_gradients(y, np.zeros(n)))
    sids, enc_g, enc_h = active.encrypt_gradients(np.arange(n))
    for sid, cg, ch in zip(sids, enc_g, enc_h):
        # the residue of a negative quantized g sits in the upper half of [0, n)
        g_val = decrypt(active.sk, active.pk, cg)
        half = 2 ** (GRAD_SCALE_BITS - 1)  # |g| = 1/2 at margin 0
        assert g_val == (-half if y[sid] else half) % active.pk.n
        assert (decrypt(active.sk, active.pk, ch, bound=2**GRAD_SCALE_BITS)
                == 2 ** (GRAD_SCALE_BITS - 2))


def test_passive_cannot_decrypt_without_private_key():
    datasets, _, _ = vertical_fixture(6, 1, 2, seed=4)
    trained, _ = vfl_train(make_vfl_roster("active", datasets), datasets,
                           small_params(n_estimators=1, max_depth=1), seed=1, key_bits=256)
    passive = trained.passives["passive0"]
    assert passive.pk is not None
    assert not hasattr(passive, "sk")
    # decrypting with an unrelated key yields garbage, not the plaintext
    _, other_sk = keygen(key_bits=256, rng_seed=999)
    some_cipher = next(iter(passive.enc_g.values()))
    value = decrypt(other_sk, passive.pk, some_cipher)
    # far from any quantized gradient's residue
    assert 2**GRAD_SCALE_BITS < value < passive.pk.n - 2**GRAD_SCALE_BITS


def test_passive_bin_aggregate_matches_plaintext_histogram():
    datasets, X, y = vertical_fixture(20, 1, 3, seed=6)
    roster = make_vfl_roster("active", datasets)
    params = small_params()
    active = ActiveParty("active", datasets["active"], params, seed=2, key_bits=256)
    passive = PassiveParty("passive0", datasets["passive0"], params.max_bin)
    passive.pk = active.pk
    active.g, active.h = map(quantize, logistic_gradients(y, np.zeros(20)))
    sids, enc_g, enc_h = active.encrypt_gradients(np.arange(20))
    passive.receive_gradients(sids, enc_g, enc_h)
    subset = sids[: 12]
    eg, eh, counts = passive.bin_aggregate(subset, fold_slots(12, active.sk.p))
    decoded = active.decrypt_histogram(eg, eh, counts, 12, "passive0")
    plain = histogram_of(passive.columns.T, active.g, active.h, np.arange(12), params.max_bin)
    np.testing.assert_array_equal(decoded.g, plain.g)
    np.testing.assert_array_equal(decoded.h, plain.h)
    np.testing.assert_array_equal(decoded.counts, plain.counts)
    # empty bins unpack to zero
    empty_bins = decoded.counts == 0
    assert (decoded.g[empty_bins] == 0).all()


def test_bin_aggregate_equals_the_per_sample_loop():
    datasets, X, y = vertical_fixture(30, 1, 4, seed=18)
    params = small_params()
    active = ActiveParty("active", datasets["active"], params, seed=4, key_bits=256)
    passive = PassiveParty("passive0", datasets["passive0"], params.max_bin)
    passive.pk = active.pk
    n_squared = passive.pk.n_squared
    active.g, active.h = map(quantize, logistic_gradients(y, np.zeros(30)))
    passive.receive_gradients(*active.encrypt_gradients(np.arange(30)))
    ids = [int(s) for s in datasets["passive0"].sample_ids]
    for space in (ids, ids[::-1][:17], ids[5:6], []):
        # reference: append each sample's ciphertexts to its bins in order
        F, B = passive.dataset.n_features, passive.n_bins
        buckets_g = [[] for _ in range(F * B)]
        buckets_h = [[] for _ in range(F * B)]
        for sid in space:
            for f in range(F):
                b = passive.columns[f, passive.pos_of_id[sid]]
                buckets_g[f * B + b].append(passive.enc_g[sid])
                buckets_h[f * B + b].append(passive.enc_h[sid])
        # one bin per ciphertext, a partial last run, and the key's widest fold
        widest = fold_slots(len(space), active.sk.p)
        assert widest > 3 and (F * B) % 3
        for slots in (1, 3, widest):
            width = histogram_layout(len(space), slots).width

            def folded(buckets):
                # run r's bin j is raised to 2^(width * j), then multiplied in
                return [math.prod(pow(aggregate(passive.pk, bucket).value, 1 << (width * j),
                                      n_squared)
                                  for j, bucket in enumerate(buckets[k:k + slots])) % n_squared
                        for k in range(0, F * B, slots)]

            eg, eh, counts = passive.bin_aggregate(space, slots)
            assert [c.value for c in eg] == folded(buckets_g)
            assert [c.value for c in eh] == folded(buckets_h)
            assert counts.flatten().tolist() == [len(b) for b in buckets_g]
        # a run of one bin is the bin's own product
        assert ([c.value for c in passive.bin_aggregate(space, 1)[0]]
                == [aggregate(passive.pk, b).value for b in buckets_g])


def test_passive_rejects_unknown_sample_ids():
    datasets, _, _ = vertical_fixture(8, 1, 2, seed=7)
    passive = PassiveParty("passive0", datasets["passive0"], 4)
    with pytest.raises(ProtocolError):
        passive.bin_aggregate([9999], 1)


def test_passive_rejects_ids_outside_the_gradient_broadcast():
    datasets, _, y = vertical_fixture(12, 1, 2, seed=23)
    active = ActiveParty("active", datasets["active"], small_params(), seed=3, key_bits=256)
    passive = PassiveParty("passive0", datasets["passive0"], 8)
    passive.pk = active.pk
    active.g, active.h = map(quantize, logistic_gradients(y, np.zeros(12)))
    passive.receive_gradients(*active.encrypt_gradients(np.arange(6)))
    ids = [int(s) for s in datasets["passive0"].sample_ids]
    passive.bin_aggregate(ids[:6], 1)
    with pytest.raises(ProtocolError, match=r"passive0 received sample ids \[106, 107, 108\]"):
        passive.bin_aggregate(ids, 1)


def test_partition_resolution_matches_plaintext_filter():
    datasets, _, _ = vertical_fixture(30, 1, 2, seed=8)
    passive = PassiveParty("passive0", datasets["passive0"], 8)
    record = passive.store_record(0, feature_local=1, bin_index=3)
    ids = [int(s) for s in datasets["passive0"].sample_ids]
    left = passive.resolve_partition(0, ids)
    col = datasets["passive0"].features[:, 1]
    expected = [int(s) for s, v in zip(ids, col) if v <= record.threshold]
    assert left == expected
    # extreme records: a cut below every bin routes nothing left, one at or
    # above the top bin routes everything left
    from fedgbt.vfl import SplitRecord

    passive.records[1] = SplitRecord(1, 1, -1, threshold=float("-inf"))
    assert passive.resolve_partition(1, ids) == []
    passive.records[2] = SplitRecord(2, 1, 7, threshold=float("inf"))
    assert passive.resolve_partition(2, ids) == ids
    with pytest.raises(ProtocolError):
        passive.resolve_partition(99, ids)
    with pytest.raises(ProtocolError):
        passive.store_record(3, feature_local=1, bin_index=7)


# ---------------------------------------------------------------------------
# training equivalence


def centralized_counterpart(datasets, params, seed):
    roster = make_vfl_roster("active", datasets)
    X = joined_matrix(roster, datasets)
    joined = PartyDataset(
        "joined", datasets["active"].sample_ids, X, roster.feature_names,
        datasets["active"].labels,
    )
    return roster, joined, train_centralized(joined, params, seed=seed)


def test_vfl_training_matches_centralized_structure_and_predictions():
    datasets, X, y = vertical_fixture(50, 2, 3, seed=10)
    params = small_params()
    roster, joined, central = centralized_counterpart(datasets, params, seed=3)
    trained, bus = vfl_train(roster, datasets, params, seed=3, key_bits=512)
    assert len(trained.ensemble.trees) == len(central.trees)
    for ft, ct in zip(trained.ensemble.trees, central.trees):
        assert len(ft.nodes) == len(ct.nodes)
        for fn, cn in zip(ft.nodes, ct.nodes):
            assert fn.is_leaf == cn.is_leaf
            if fn.is_leaf:
                assert fn.weight == cn.weight
            else:
                assert (fn.feature, fn.bin_index) == (cn.feature, cn.bin_index)
    parts = {p: datasets[p] for p in roster.party_ids}
    probs, _ = vfl_predict(trained, parts)
    central_probs = predict_proba(central, X)
    np.testing.assert_array_equal(probs, central_probs)


@pytest.mark.parametrize("change", [{"max_depth": 0}, {"min_child_weight": 1e6}])
def test_root_leaf_trees_equal_centralized(change):
    datasets, X, y = vertical_fixture(30, 2, 2, seed=24)
    params = small_params(**change)
    roster, joined, central = centralized_counterpart(datasets, params, seed=4)
    trained, bus = vfl_train(roster, datasets, params, seed=4, key_bits=256)
    trees = trained.ensemble.trees
    assert [len(t.nodes) for t in trees] == [len(t.nodes) for t in central.trees] == [1, 1]
    for ft, ct in zip(trees, central.trees):
        assert ft.nodes[0].weight == ct.nodes[0].weight
    # the root's histograms are exchanged only while it may split
    exchanged = sum(e.msg_type == "ENC_HISTOGRAM_SUBMIT" for e in bus.transcript)
    assert exchanged == (0 if params.max_depth == 0 else 2)
    assert not any(e.msg_type == "SPLIT_NOTICE" for e in bus.transcript)


def test_vfl_split_ownership_follows_the_informative_party():
    # labels depend only on the passive party's feature
    rng = np.random.default_rng(11)
    n = 60
    ids = np.arange(n)
    x_noise = rng.normal(size=(n, 2))
    x_signal = rng.normal(size=(n, 1))
    y = (x_signal[:, 0] > 0).astype(int)
    datasets = {
        "active": PartyDataset("active", ids, x_noise, ("a0", "a1"), y),
        "passive0": PartyDataset("passive0", ids, x_signal, ("p0",)),
    }
    roster = make_vfl_roster("active", datasets)
    trained, _ = vfl_train(roster, datasets, small_params(n_estimators=1, max_depth=2),
                           seed=5, key_bits=256)
    root = trained.ensemble.trees[0].nodes[0]
    assert not root.is_leaf
    assert root.owner == "passive0"
    assert math.isnan(root.threshold)  # the skeleton never stores foreign thresholds


def test_constant_passive_features_never_own_a_node():
    rng = np.random.default_rng(12)
    n = 40
    ids = np.arange(n)
    x_active = rng.normal(size=(n, 2))
    y = (x_active[:, 0] + 0.3 * rng.normal(size=n) > 0).astype(int)
    datasets = {
        "active": PartyDataset("active", ids, x_active, ("a0", "a1"), y),
        "passive0": PartyDataset("passive0", ids, np.full((n, 2), 3.0), ("p0", "p1")),
    }
    roster = make_vfl_roster("active", datasets)
    trained, _ = vfl_train(roster, datasets, small_params(), seed=6, key_bits=256)
    for tree in trained.ensemble.trees:
        for node in tree.nodes:
            if not node.is_leaf:
                assert node.owner == "active"


def test_single_party_roster_equals_centralized():
    datasets, X, y = vertical_fixture(40, 4, 0, seed=13, n_passives=0)
    params = small_params()
    roster = make_vfl_roster("active", datasets)
    trained, bus = vfl_train(roster, datasets, params, seed=7, key_bits=256)
    central = train_centralized(
        PartyDataset("joined", datasets["active"].sample_ids, X,
                     roster.feature_names, y),
        params, seed=7,
    )
    probs, _ = vfl_predict(trained, {"active": datasets["active"]})
    np.testing.assert_array_equal(probs, predict_proba(central, X))
    # no passive parties -> no protocol messages at all
    assert len(bus.transcript) == 0


def foreign_path_nodes(trained, parts, row, tree):
    """The foreign internal nodes on one row's path, walked with every
    owner's own split record."""
    node, foreign = tree.nodes[0], 0
    while not node.is_leaf:
        owner = trained.active if node.owner == "active" else trained.passives[node.owner]
        record = owner.records[node.record_id]
        foreign += node.owner != "active"
        go_left = parts[node.owner].features[row, record.feature_local] <= record.threshold
        node = tree.nodes[node.left if go_left else node.right]
    return foreign


def test_inference_message_count_bounded_by_foreign_path_nodes():
    datasets, X, y = vertical_fixture(40, 2, 2, seed=14)
    roster = make_vfl_roster("active", datasets)
    params = small_params(n_estimators=1)
    trained, _ = vfl_train(roster, datasets, params, seed=8, key_bits=256)
    tree = trained.ensemble.trees[0]
    asked = 0
    for row in range(10):
        one_row = {p: d.subset(np.array([row])) for p, d in datasets.items()}
        probs, bus = vfl_predict(trained, one_row)
        queries = [e for e in bus.transcript if e.msg_type == "INFER_QUERY"]
        # one passive party and one tree: a round per foreign node on the path
        assert len(queries) == foreign_path_nodes(trained, datasets, row, tree)
        assert all(e.payload["sample_ids"] == [[int(datasets["active"].sample_ids[row])]]
                   for e in queries)
        asked += len(queries)
    assert asked, "some row must pass a foreign split"


def test_subsampled_training_equals_centralized_and_routes_only_unsampled_rows():
    datasets, X, y = vertical_fixture(60, 2, 3, seed=25)
    params = small_params(n_estimators=3, subsample=0.6)
    roster, joined, central = centralized_counterpart(datasets, params, seed=5)
    trained, bus = vfl_train(roster, datasets, params, seed=5, key_bits=256)
    assert [[(n.is_leaf, n.feature, n.bin_index, n.weight) for n in t.nodes]
            for t in trained.ensemble.trees] == [
        [(n.is_leaf, n.feature, n.bin_index, n.weight) for n in t.nodes] for t in central.trees]
    probs, _ = vfl_predict(trained, datasets)
    np.testing.assert_array_equal(probs, predict_proba(central, X))
    # a routing query is a SAMPLE_SPACE answered by a PARTITION_REPLY; after
    # each tree, only the rows its sample left out are routed
    sample, routed = set(), 0
    for env, reply in zip(bus.transcript, bus.transcript[1:]):
        if env.msg_type == "GRADIENT_BROADCAST":
            sample = {int(s) for s in env.payload["enc_g"]}
        elif env.msg_type == "SAMPLE_SPACE" and reply.msg_type == "PARTITION_REPLY":
            routed += 1
            assert not sample & set(env.payload["sample_ids"])
    assert routed, "the run must route rows through a foreign split"


def test_subsample_training_still_runs_and_predicts():
    datasets, X, y = vertical_fixture(50, 2, 2, seed=15)
    roster = make_vfl_roster("active", datasets)
    trained, _ = vfl_train(roster, datasets, small_params(subsample=0.6), seed=9,
                           key_bits=256)
    probs, _ = vfl_predict(trained, datasets)
    assert probs.shape == (50,)
    assert np.isfinite(probs).all()


# ---------------------------------------------------------------------------
# privacy properties


def test_vfl_transcript_threshold_and_value_locality():
    datasets, X, y = vertical_fixture(40, 2, 3, seed=16)
    roster = make_vfl_roster("active", datasets)
    trained, bus = vfl_train(roster, datasets, small_params(), seed=10, key_bits=512)
    parts = {p: d.subset(np.arange(5)) for p, d in datasets.items()}
    _, bus2 = vfl_predict(trained, parts, bus=bus)
    assert scan_structure(bus.transcript).clean
    passive_thresholds = {
        float(t)
        for passive in trained.passives.values()
        for t in passive.binning.boundaries.flatten()
    }
    corpus = SensitiveCorpus(
        label_vectors={"active": datasets["active"].labels.tolist()},
        feature_cells={
            float(v)
            for p in roster.passive_ids
            for v in datasets[p].features.flatten()
        },
        owner_thresholds={"active": passive_thresholds},
    )
    report = scan_sensitive(bus.transcript, corpus)
    assert report.clean, report.findings


def test_fresh_keypair_randomizes_ciphertexts_across_runs():
    datasets, _, _ = vertical_fixture(10, 1, 1, seed=17)
    roster = make_vfl_roster("active", datasets)
    params = small_params(n_estimators=1, max_depth=1)
    _, bus1 = vfl_train(roster, datasets, params, seed=21, key_bits=256)
    _, bus2 = vfl_train(roster, datasets, params, seed=22, key_bits=256)
    g1 = next(e for e in bus1.transcript if e.msg_type == "GRADIENT_BROADCAST")
    g2 = next(e for e in bus2.transcript if e.msg_type == "GRADIENT_BROADCAST")
    assert g1.payload["enc_g"] != g2.payload["enc_g"]


def _prime_next_to(x, step):
    x += step
    while not _is_probable_prime(x):
        x += step
    return x


# a fold over 40 samples has slots of 20 + 6 + 1 bits: one slot holds a bin
# sum plus 2^(S + 6), which decrypts modulo p alone once p > 2^(S + 7), a
# little above 2 * 40 * 2^S, the bound on the sum itself
_ONE_SLOT = 1 << histogram_layout(40, 1).width
_WIDE = _prime_next_to(_ONE_SLOT * 4, 1)


@pytest.mark.parametrize("primes, fits", [
    # the first prime above the bound holds one slot of 40 summands
    ((_prime_next_to(_ONE_SLOT, 1), _WIDE), True),
    # a modulus of about a quarter of the bound does not hold 40
    ((_prime_next_to(math.isqrt(_ONE_SLOT) // 2, -1),
      _prime_next_to(math.isqrt(_ONE_SLOT) // 2, 1)), False),
    # the last prime below the bound: the modulus would hold the slot, but
    # folds are decrypted modulo p alone
    ((_prime_next_to(_ONE_SLOT, -1), _WIDE), False),
    # nor does the first prime above 2 * 40 * 2^S
    ((_prime_next_to(2 * 40 << GRAD_SCALE_BITS, 1), _WIDE), False),
])
def test_capacity_check_counts_the_actual_samples(monkeypatch, primes, fits):
    from fedgbt import vfl
    from fedgbt.paillier import EncodingError, keypair_from_primes

    datasets, X, y = vertical_fixture(40, 2, 2, seed=21)
    roster = make_vfl_roster("active", datasets)
    params = small_params(n_estimators=1, max_depth=2)
    reference, _ = vfl_train(roster, datasets, params, seed=3, key_bits=256)
    key = keypair_from_primes(*primes)
    monkeypatch.setattr(vfl, "keygen", lambda key_bits, rng_seed: key)
    bus = MessageBus()
    if fits:
        trained, _ = vfl_train(roster, datasets, params, seed=3, bus=bus)
        assert model_to_json(trained.ensemble) == model_to_json(reference.ensemble)
    else:
        with pytest.raises(EncodingError, match="40 terms"):
            vfl_train(roster, datasets, params, seed=3, bus=bus)
        assert bus.transcript == []


# ---------------------------------------------------------------------------
# sibling subtraction and tamper detection


def _route_training_rows(trained, tree):
    """(node id -> positions, node id -> depth) of every training row."""
    roster, active = trained.roster, trained.active
    positions = {0: np.arange(active.dataset.n_samples)}
    depth = {0: 0}
    for node in tree.nodes:  # parents come before their children
        if node.is_leaf:
            continue
        owner = node.owner
        party = active if owner == roster.active_id else trained.passives[owner]
        local = roster.to_local(owner, node.feature)
        rows = positions[node.node_id]
        go_left = party.columns[local][rows] <= node.bin_index
        positions[node.left], positions[node.right] = rows[go_left], rows[~go_left]
        depth[node.left] = depth[node.right] = depth[node.node_id] + 1
    return positions, depth


def _unfold(active, cts, counts):
    """Bin sums from folded ciphertexts by full two-prime decryption and
    plain shifts, apart from ``PackedLayout.unpack`` and the bounded
    decryption."""
    n = int(counts[0].sum())
    layout = histogram_layout(n, fold_slots(n, active.sk.p))
    width, offset, modulus = layout.width, layout.offset, active.pk.n
    values = []
    for k, c in enumerate(cts):
        used = min(layout.slots, counts.size - k * layout.slots)
        total = decrypt(active.sk, active.pk, c)
        total = (total - modulus if total > modulus // 2 else total) + sum(
            offset << (width * j) for j in range(used))
        values += [((total >> (width * j)) & ((1 << width) - 1)) - offset for j in range(used)]
    return np.array(values, dtype=np.int64).reshape(counts.shape)


def test_subtracted_histograms_equal_direct_aggregation_and_decryption(monkeypatch):
    from fedgbt import gbt

    searched = []
    monkeypatch.setattr(gbt, "find_best_split",
                        lambda hists, p: searched.extend(hists) or find_best_split(hists, p))
    datasets, X, y = vertical_fixture(80, 2, 3, seed=19, n_passives=2)
    roster = make_vfl_roster("active", datasets)
    params = small_params(n_estimators=2, max_depth=3)
    trained, bus = vfl_train(roster, datasets, params, seed=11, key_bits=256)
    active = trained.active

    # one exchange per root and per sibling pair that needs histograms; the
    # exchanged child is the smaller one
    n_searched = 0
    for t, tree in enumerate(trained.ensemble.trees):
        positions, depth = _route_training_rows(trained, tree)
        pairs = [n for n in tree.nodes if not n.is_leaf and depth[n.node_id] + 1 < params.max_depth
                 and max(positions[n.left].size, positions[n.right].size) >= 2]
        exchanged = sorted(
            n.left if positions[n.left].size <= positions[n.right].size else n.right
            for n in pairs)
        assert pairs, "the run must exercise subtraction"
        for pid in roster.passive_ids:
            submits = [e.payload["node"] for e in bus.transcript
                       if e.msg_type == "ENC_HISTOGRAM_SUBMIT" and e.sender == pid
                       and e.payload["tree"] == t]
            assert sorted(submits) == [0, *exchanged]
        # split search sees every node above max_depth with two samples, in
        # level order, which is node id order
        searchable = [n.node_id for n in tree.nodes
                      if depth[n.node_id] < params.max_depth and positions[n.node_id].size >= 2]
        n_searched += len(searchable)
    assert len(searched) == n_searched

    # every searched node of the last tree, every internal one among them:
    # the histogram split search received is, exactly, a direct build of the
    # active party's own features and a direct aggregation of the node's
    # sample space at each passive party, decrypted
    assert {n.node_id for n in tree.nodes if not n.is_leaf} <= set(searchable)
    for node_id, held in zip(searchable, searched[-len(searchable):]):
        parts = [histogram_of(active.columns.T, active.g, active.h, positions[node_id],
                              params.max_bin)]
        ids = [int(active.dataset.sample_ids[p]) for p in positions[node_id]]
        for pid in roster.passive_ids:
            eg, eh, counts = trained.passives[pid].bin_aggregate(
                ids, fold_slots(len(ids), active.sk.p))
            parts.append(GradHistogram(_unfold(active, eg, counts), _unfold(active, eh, counts),
                                       counts))
        for a in ("g", "h", "counts"):
            np.testing.assert_array_equal(getattr(held, a),
                                          np.vstack([getattr(part, a) for part in parts]))


class _FlipOneCiphertext(MessageBus):
    """Flips the low bit of the g fold of the first run that holds an empty,
    or a nonempty, bin, in the first ENC_HISTOGRAM_SUBMIT that has one."""

    def __init__(self, empty_bin: bool):
        super().__init__()
        self.empty_bin = empty_bin
        self.slots = {}  # passive party -> bins per fold it was last asked for
        self.tampered = None

    def send(self, sender, recipient, msg_type, round_id, payload):
        if msg_type == "SAMPLE_SPACE":
            self.slots[recipient] = payload.get("slots")
        if msg_type == "ENC_HISTOGRAM_SUBMIT" and self.tampered is None:
            bins = [i for i, c in enumerate(payload["counts"]) if (c == 0) == self.empty_bin]
            if bins:
                run = bins[0] // self.slots[sender]
                enc_g = list(payload["enc_g"])
                enc_g[run] = format(int(enc_g[run], 16) ^ 1, "x")
                payload = {**payload, "enc_g": enc_g}
                self.tampered = (sender, payload["tree"], payload["node"])
        return super().send(sender, recipient, msg_type, round_id, payload)


@pytest.mark.parametrize("empty_bin", [False, True])
def test_a_flipped_histogram_ciphertext_is_detected(empty_bin):
    # a flipped bit scrambles the whole fold, so its bounded decryption
    # fails, whether or not the run holds an empty bin
    datasets, X, y = vertical_fixture(80, 2, 3, seed=19, n_passives=2)
    roster = make_vfl_roster("active", datasets)
    bus = _FlipOneCiphertext(empty_bin)
    with pytest.raises(ProtocolError) as raised:
        vfl_train(roster, datasets, small_params(), seed=11, bus=bus, key_bits=256)
    sender, tree, node = bus.tampered
    assert f"{sender}'s histogram for tree {tree}, node {node}" in str(raised.value)
    assert "decrypted value outside" in str(raised.value)


def test_sibling_subtraction_rejects_impossible_children():
    scale = 2**GRAD_SCALE_BITS

    def hist(g, h, counts):
        return GradHistogram(np.array([g], dtype=np.int64), np.array([h], dtype=np.int64),
                             np.array([counts], dtype=np.int64))

    def sibling(parent, child, where):
        # the grower's derivation: parent minus child, checked against the
        # parent's totals minus the child's
        totals = tuple(p - c for p, c in zip(parent.totals(), child.totals()))
        return check_histogram([parent.subtract(child)], [totals], [where])[0]

    parent = hist([3 * scale, -scale], [scale, scale // 4], [4, 1])
    derived = sibling(parent, hist([scale, -scale], [scale // 4, scale // 4], [1, 1]),
                      "tree 2, node 5")
    assert derived.g.tolist() == [[2 * scale, 0]]
    assert derived.counts.tolist() == [[3, 0]]
    for child in (hist([0, 0], [0, 0], [0, 2]),  # a negative count
                  hist([-scale, 0], [0, 0], [1, 0]),  # 4 * scale over 3 samples
                  hist([0, -1], [0, 0], [1, 1])):  # a nonzero sum over no samples
        with pytest.raises(ProtocolError, match="tree 2, node 5: feature 0, bin "):
            sibling(parent, child, "tree 2, node 5")


class _DropOneLeftId(MessageBus):
    """Drops the last sample id of the first training PARTITION_REPLY."""

    def __init__(self):
        super().__init__()
        self.tampered = None

    def send(self, sender, recipient, msg_type, round_id, payload):
        if msg_type == "PARTITION_REPLY" and self.tampered is None:
            payload = {**payload, "sample_ids": payload["sample_ids"][:-1]}
            self.tampered = (sender, payload["tree"], payload["node"])
        return super().send(sender, recipient, msg_type, round_id, payload)


@pytest.mark.parametrize("max_depth", [1, 3])
def test_a_partition_reply_that_disagrees_with_the_split_is_rejected(max_depth):
    # at max_depth 1 no child histogram is built that could expose it
    datasets, X, y = vertical_fixture(40, 1, 3, seed=27)
    roster = make_vfl_roster("active", datasets)
    bus = _DropOneLeftId()
    with pytest.raises(ProtocolError, match="the left side disagrees") as raised:
        vfl_train(roster, datasets, small_params(max_depth=max_depth), seed=12, bus=bus,
                  key_bits=256)
    sender, tree, node = bus.tampered
    assert f"PARTITION_REPLY from {sender} for tree {tree}, node {node}" in str(raised.value)


class _ChangeCounts(MessageBus):
    """Rewrites the counts of the first ENC_HISTOGRAM_SUBMIT with ``change``."""

    def __init__(self, change):
        super().__init__()
        self.change = change
        self.tampered = None

    def send(self, sender, recipient, msg_type, round_id, payload):
        if msg_type == "ENC_HISTOGRAM_SUBMIT" and self.tampered is None:
            payload = {**payload, "counts": self.change(list(payload["counts"]))}
            self.tampered = (sender, payload["tree"], payload["node"])
        return super().send(sender, recipient, msg_type, round_id, payload)


@pytest.mark.parametrize("change, match", [
    (lambda c: c[:-1], "23 counts, expected 24"),
    (lambda c: c + [0], "25 counts, expected 24"),
], ids=["short", "extra"])
def test_histogram_counts_of_the_wrong_length_are_rejected(change, match):
    datasets, X, y = vertical_fixture(40, 2, 3, seed=19)
    roster = make_vfl_roster("active", datasets)
    bus = _ChangeCounts(change)
    with pytest.raises(ProtocolError, match=match) as raised:
        vfl_train(roster, datasets, small_params(), seed=11, bus=bus, key_bits=256)
    sender, tree, node = bus.tampered
    assert f"{sender}'s histogram for tree {tree}, node {node}" in str(raised.value)


def test_histogram_decryption_rejects_counts_that_miss_the_sample_space():
    datasets, X, y = vertical_fixture(12, 1, 2, seed=22)
    params = small_params()
    active = ActiveParty("active", datasets["active"], params, seed=2, key_bits=256)
    passive = PassiveParty("passive0", datasets["passive0"], params.max_bin)
    passive.pk = active.pk
    active.g, active.h = map(quantize, logistic_gradients(y, np.zeros(12)))
    passive.receive_gradients(*active.encrypt_gradients(np.arange(12)))
    eg, eh, counts = passive.bin_aggregate([int(s) for s in datasets["passive0"].sample_ids],
                                           fold_slots(12, active.sk.p))
    active.decrypt_histogram(eg, eh, counts, 12, "passive0")
    with pytest.raises(ProtocolError, match="do not add up"):
        active.decrypt_histogram(eg, eh, counts, 11, "passive0")
    with pytest.raises(ProtocolError, match="ciphertexts"):
        active.decrypt_histogram(eg[:-1], eh, counts, 12, "passive0")
    forged = counts.copy()
    forged[0, forged[0].argmax()] += 2**30  # the row still sums to 12
    forged[0, forged[0].argmin()] -= 2**30
    with pytest.raises(ProtocolError, match="negative"):
        active.decrypt_histogram(eg, eh, forged, 12, "passive0")


# ---------------------------------------------------------------------------
# inference rounds


@pytest.fixture(scope="module")
def two_passive_model():
    """Three trees whose splits belong to the active party and to both
    passive parties."""
    datasets, X, y = vertical_fixture(60, 1, 2, seed=16, n_passives=2)
    roster = make_vfl_roster("active", datasets)
    params = small_params(n_estimators=3)
    trained, _ = vfl_train(roster, datasets, params, seed=8, key_bits=256)
    owners = {n.owner for t in trained.ensemble.trees for n in t.nodes if not n.is_leaf}
    assert owners == {"active", "passive0", "passive1"}
    return trained, datasets, params


def first_rows(datasets, n_rows):
    return {p: d.subset(np.arange(n_rows)) for p, d in datasets.items()}


def test_one_answer_query_call_per_infer_query(monkeypatch, two_passive_model):
    trained, datasets, params = two_passive_model
    calls = []
    answer_query = PassiveParty.answer_query

    def counted(self, records, sample_ids):
        calls.append(self.party_id)
        return answer_query(self, records, sample_ids)

    monkeypatch.setattr(PassiveParty, "answer_query", counted)
    for n_rows in (1, 40):
        calls.clear()
        probs, bus = vfl_predict(trained, first_rows(datasets, n_rows))
        queries = [e for e in bus.transcript if e.msg_type == "INFER_QUERY"]
        assert [e.recipient for e in queries] == calls
        assert 1 <= len(queries) <= params.max_depth * len(trained.roster.passive_ids)
        assert [e.msg_type for e in bus.transcript] == ["INFER_QUERY", "INFER_REPLY"] * len(calls)
    # the batch scores every row as a request of its own would
    single = [vfl_predict(trained, {p: d.subset([i]) for p, d in datasets.items()})[0][0]
              for i in range(40)]
    np.testing.assert_array_equal(probs, single)


def test_scores_equal_the_joint_model_on_rows_at_split_thresholds(two_passive_model):
    # the joint model: the skeleton with every owner's threshold filled in
    trained, datasets, params = two_passive_model
    roster = trained.roster
    trees = copy.deepcopy(trained.ensemble.trees)
    splits = [n for t in trees for n in t.nodes if not n.is_leaf]
    for node in splits:
        owner = trained.active if node.owner == "active" else trained.passives[node.owner]
        node.threshold = owner.records[node.record_id].threshold
    joint = BoostedEnsemble(trees=trees, params=params,
                            base_score_logit=trained.ensemble.base_score_logit,
                            feature_names=roster.feature_names)
    # each split's threshold is some row's value, which goes left
    X = joined_matrix(roster, first_rows(datasets, 40))
    for k, node in enumerate(splits):
        X[k % 40, node.feature] = node.threshold
    parts = {}
    for p, (start, stop) in roster.feature_slices.items():
        d = datasets[p]
        parts[p] = PartyDataset(p, d.sample_ids[:40], X[:, start:stop], d.feature_names)
    probs, _ = vfl_predict(trained, parts)
    np.testing.assert_array_equal(probs, predict_proba(joint, X))


class _EditFirst(MessageBus):
    """Edits the payload of the first message of one type before delivery,
    and keeps (owner, query number) of the message it edited."""

    def __init__(self, msg_type, edit):
        super().__init__()
        self.msg_type, self.edit = msg_type, edit
        self.tampered = None

    def send(self, sender, recipient, msg_type, round_id, payload):
        if msg_type == self.msg_type and self.tampered is None:
            owner = sender if msg_type == "INFER_REPLY" else recipient
            self.tampered = (owner, payload["query"])
            payload = copy.deepcopy(payload)
            self.edit(payload)
        return super().send(sender, recipient, msg_type, round_id, payload)


def _drop_answer(p):
    p["go_left"][0].pop()


def _extra_answer_list(p):
    p["go_left"].append([True])


def _int_answer(p):
    p["go_left"][0][0] = int(p["go_left"][0][0])


def _other_query(p):
    p["query"] += 1


@pytest.mark.parametrize("edit, match", [
    (_drop_answer, "expected [0-9]+ answers for record"),
    (_extra_answer_list, "expected [0-9]+ answer lists"),
    (_int_answer, "answer [01] for record [0-9]+ is not a bool"),
    (_other_query, "names query"),
], ids=["missing-bool", "extra-list", "int-for-bool", "other-query"])
def test_a_tampered_infer_reply_is_rejected(two_passive_model, edit, match):
    trained, datasets, params = two_passive_model
    bus = _EditFirst("INFER_REPLY", edit)
    with pytest.raises(ProtocolError, match=match) as raised:
        vfl_predict(trained, first_rows(datasets, 40), bus=bus)
    owner, query = bus.tampered
    assert f"INFER_REPLY from {owner} to query {query}" in str(raised.value)


def _extra_record(p):
    p["records"].append(p["records"][0])


def _missing_id_list(p):
    p["sample_ids"].pop()


def _unknown_record(p):
    p["records"][0] = 10**6


def _unloaded_sample(p):
    p["sample_ids"][0][0] = -1


@pytest.mark.parametrize("edit, match", [
    (_extra_record, "got [0-9]+ records but [0-9]+ sample id lists"),
    (_missing_id_list, "got [0-9]+ records but [0-9]+ sample id lists"),
    (_unknown_record, "cannot resolve record 1000000"),
    (_unloaded_sample, "holds no feature slice for sample -1"),
], ids=["extra-record", "missing-id-list", "unknown-record", "unloaded-sample"])
def test_a_tampered_infer_query_is_rejected(two_passive_model, edit, match):
    trained, datasets, params = two_passive_model
    bus = _EditFirst("INFER_QUERY", edit)
    with pytest.raises(ProtocolError, match=match) as raised:
        vfl_predict(trained, first_rows(datasets, 40), bus=bus)
    owner, query = bus.tampered
    assert f"INFER_QUERY {query} to {owner}: {owner} " in str(raised.value)


def test_misaligned_inference_rows_are_rejected(two_passive_model):
    trained, datasets, params = two_passive_model
    parts = first_rows(datasets, 5)
    parts["passive1"] = datasets["passive1"].subset([0, 1, 2, 4, 3])
    with pytest.raises(ProtocolError, match="not aligned"):
        vfl_predict(trained, parts)


def test_a_passive_party_holds_only_the_last_calls_rows(two_passive_model):
    trained, datasets, params = two_passive_model
    vfl_predict(trained, first_rows(datasets, 40))
    later = {p: d.subset(np.arange(40, 45)) for p, d in datasets.items()}
    vfl_predict(trained, later)
    for passive in trained.passives.values():
        assert sorted(passive.inference_rows) == datasets["active"].sample_ids[40:45].tolist()
        first_id = int(datasets["active"].sample_ids[0])
        record = next(iter(passive.records))
        with pytest.raises(ProtocolError, match=f"holds no feature slice for sample {first_id}"):
            passive.answer_query([record], [[first_id]])


# ---------------------------------------------------------------------------
# folded histogram replies


def test_crypto_calls_match_what_the_transcript_implies(monkeypatch):
    # perfbench's traced run counts vfl.aggregate and vfl.decrypt calls,
    # and aggregate's len(cs), against these transcript sums
    from fedgbt import vfl

    seen = Counter()
    real_aggregate, real_decrypt = vfl.aggregate, vfl.decrypt

    def counting_aggregate(pk, cs, *args, **kwargs):
        seen["aggregate"] += 1
        seen["terms"] += len(cs)
        return real_aggregate(pk, cs, *args, **kwargs)

    def counting_decrypt(*args, **kwargs):
        seen["decrypt"] += 1
        return real_decrypt(*args, **kwargs)

    monkeypatch.setattr(vfl, "aggregate", counting_aggregate)
    monkeypatch.setattr(vfl, "decrypt", counting_decrypt)
    datasets, X, y = vertical_fixture(80, 2, 3, seed=19, n_passives=2)
    _, bus = vfl_train(make_vfl_roster("active", datasets), datasets, small_params(), seed=11,
                       key_bits=256)
    submits = [e.payload for e in bus.transcript if e.msg_type == "ENC_HISTOGRAM_SUBMIT"]
    folds = sum(len(p["enc_g"]) + len(p["enc_h"]) for p in submits)
    assert seen["aggregate"] == seen["decrypt"] == folds
    assert seen["terms"] == 2 * sum(sum(p["counts"]) for p in submits)
    # at least three bins fold into each ciphertext at this key
    assert 3 * folds <= 2 * sum(len(p["counts"]) for p in submits)


def test_every_name_perfbench_traces_exists():
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracing.PATCHES if not hasattr(owner, attr)]
    assert not missing


def test_a_passive_party_rejects_fewer_than_one_slot():
    datasets, _, y = vertical_fixture(12, 1, 2, seed=23)
    active = ActiveParty("active", datasets["active"], small_params(), seed=3, key_bits=256)
    passive = PassiveParty("passive0", datasets["passive0"], 8)
    passive.pk = active.pk
    active.g, active.h = map(quantize, logistic_gradients(y, np.zeros(12)))
    passive.receive_gradients(*active.encrypt_gradients(np.arange(12)))
    ids = [int(s) for s in datasets["passive0"].sample_ids]
    for slots in (0, -1, 2.0, True, None):
        with pytest.raises(ProtocolError, match="passive0 was asked to fold"):
            passive.bin_aggregate(ids, slots)


@cache
def _fold_key():
    """A key whose p has 128 bits, about four slots of a 64-sample node."""
    return keypair_from_primes(_prime_next_to(1 << 127, 1), _prime_next_to(1 << 128, 1))


def _fold_and_open(pk, sk, layout, values):
    """Encrypt each value, fold every run of ``layout.slots``, decrypt each
    fold against its offset constant and unpack."""
    rng = random.Random(0)
    folds = layout.pack(np.zeros(len(values), dtype=np.int64))
    totals = []
    for k, fold in enumerate(folds):
        run = values[k * layout.slots:(k + 1) * layout.slots]
        c = aggregate(pk, [encrypt(pk, v % pk.n, rng=rng) for v in run], [1] * len(run),
                      layout.width)
        totals.append(decrypt(sk, pk, c, bound=fold) + fold)
    return layout.unpack(totals, len(values))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 5000), data=st.data())
def test_folds_carry_slot_values_up_to_the_offset(n, data):
    pk, sk = _fold_key()
    layout = histogram_layout(n, fold_slots(n, sk.p))
    top = layout.offset - 1
    values = data.draw(st.lists(st.sampled_from([top, -top, 0]) | st.integers(-top, top),
                                min_size=1, max_size=3 * layout.slots + 1))
    values[0] = data.draw(st.sampled_from([top, -top]))
    assert _fold_and_open(pk, sk, layout, values) == values


@settings(max_examples=15, deadline=None)
@given(n=st.integers(0, 3000), data=st.data())
def test_the_smallest_prime_that_admits_one_slot(n, data):
    layout = histogram_layout(n, 1)
    bound = 1 << layout.width  # twice the offset
    p = _prime_next_to(bound, 1)
    assert fold_slots(n, _prime_next_to(bound, -1)) == 0
    assert fold_slots(n, p) == 1
    pk, sk = keypair_from_primes(p, _prime_next_to(4 * p + 1, 1))
    top = layout.offset - 1
    values = [top, -top, 0, data.draw(st.integers(-top, top))]
    assert _fold_and_open(pk, sk, layout, values) == values


def _packed_parties(n, n_bins):
    """An active party over 64 samples with the fold key, and a passive party
    whose feature 0 is constant, so one bin holds its whole sample space."""
    ids = np.arange(64)
    rng = np.random.default_rng(3)
    active = ActiveParty("active", PartyDataset("active", ids, rng.normal(size=(64, 1)), ("a0",),
                                                np.arange(64) % 2), small_params(), seed=1,
                         key_bits=256)
    active.pk, active.sk = _fold_key()
    features = np.column_stack([np.ones(64), rng.normal(size=64)])
    passive = PassiveParty("passive0", PartyDataset("passive0", ids, features, ("p0", "p1")),
                           n_bins)
    passive.pk = active.pk
    return active, passive


@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 64), sign=st.sampled_from([1, -1]))
def test_a_bin_holding_the_whole_sample_space_unpacks_at_its_bound(n, sign):
    active, passive = _packed_parties(n, 8)
    # every |g| = 1 and every h = 1/4, the largest logistic gradients
    active.g = np.full(64, sign << GRAD_SCALE_BITS, dtype=np.int64)
    active.h = np.full(64, 1 << (GRAD_SCALE_BITS - 2), dtype=np.int64)
    passive.receive_gradients(*active.encrypt_gradients(np.arange(64)))
    ids = list(range(n))
    eg, eh, counts = passive.bin_aggregate(ids, fold_slots(n, active.sk.p))
    hist = active.decrypt_histogram(eg, eh, counts, n, "passive0")
    full = int(np.argmax(counts[0]))
    assert counts[0, full] == n
    assert hist.g[0, full] == sign * n << GRAD_SCALE_BITS
    assert hist.h[0, full] == n << (GRAD_SCALE_BITS - 2)
    plain = histogram_of(passive.columns.T, active.g, active.h, np.arange(n), 8)
    np.testing.assert_array_equal(hist.g, plain.g)
    np.testing.assert_array_equal(hist.h, plain.h)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 64), n_bins=st.integers(2, 9), seed=st.integers(0, 2**16))
def test_a_partial_last_run_decrypts_like_the_full_ones(n, n_bins, seed):
    slots = fold_slots(n, _fold_key()[1].p)
    assume(2 * n_bins % slots)
    active, passive = _packed_parties(n, n_bins)
    rng = np.random.default_rng(seed)
    active.g = rng.integers(-(1 << GRAD_SCALE_BITS), 1 << GRAD_SCALE_BITS, size=64, endpoint=True)
    active.h = rng.integers(0, 1 << (GRAD_SCALE_BITS - 2), size=64, endpoint=True)
    passive.receive_gradients(*active.encrypt_gradients(np.arange(64)))
    ids = rng.permutation(64)[:n].tolist()
    eg, eh, counts = passive.bin_aggregate(ids, slots)
    assert len(eg) == len(eh) == -(-2 * n_bins // slots)
    hist = active.decrypt_histogram(eg, eh, counts, n, "passive0")
    plain = histogram_of(passive.columns.T, active.g, active.h, np.array(ids), n_bins)
    for a in ("g", "h", "counts"):
        np.testing.assert_array_equal(getattr(hist, a), getattr(plain, a))


def _slot(total, layout, j):
    return (total >> (layout.width * j)) & ((1 << layout.width) - 1)


def _with_slot(total, layout, j, value):
    return total - (_slot(total, layout, j) << (layout.width * j)) + (value << (layout.width * j))


def _bits_above(packed, counts, layout):
    used = min(layout.slots, len(counts))
    below = packed[0] & ((1 << (layout.width * (used - 1))) - 1)
    # the next bit up, with the lower slots kept, stays within the fold's bound
    return [(1 << (layout.width * used)) + below, *packed[1:]]


def _edit_bin(empty):
    def edit(packed, counts, layout):
        bins = [i for i, c in enumerate(counts) if (c == 0) == empty]
        if not bins:
            return None
        k, j = divmod(bins[0], layout.slots)
        # one past the bin's bound, or any nonzero sum in an empty bin
        value = layout.offset + (counts[bins[0]] << GRAD_SCALE_BITS) + 1
        return [*packed[:k], _with_slot(packed[k], layout, j, value), *packed[k + 1:]]
    return edit


class _RewriteFolds(MessageBus):
    """Decrypts the g folds of the first ENC_HISTOGRAM_SUBMIT that ``edit``
    applies to with the active party's key, and re-encrypts what ``edit``
    returns: a tamperer that knows the key."""

    def __init__(self, key, edit):
        super().__init__()
        self.key, self.edit = key, edit
        self.asked = {}  # passive party -> (sample count, slots) last asked for
        self.tampered = None

    def send(self, sender, recipient, msg_type, round_id, payload):
        if msg_type == "SAMPLE_SPACE" and "slots" in payload:
            self.asked[recipient] = len(payload["sample_ids"]), payload["slots"]
        if msg_type == "ENC_HISTOGRAM_SUBMIT" and self.tampered is None:
            pk, sk = self.key
            layout = histogram_layout(*self.asked[sender])
            folds = layout.pack(np.zeros(len(payload["counts"]), dtype=np.int64))
            packed = [decrypt(sk, pk, Ciphertext(int(c, 16)), bound=m) + m
                      for c, m in zip(payload["enc_g"], folds)]
            edited = self.edit(packed, payload["counts"], layout)
            if edited is not None:
                rng = random.Random(0)
                enc_g = [int_to_hex(encrypt(pk, (t - folds[min(i, len(folds) - 1)]) % pk.n,
                                            rng=rng).value) for i, t in enumerate(edited)]
                payload = {**payload, "enc_g": enc_g}
                self.tampered = (sender, payload["tree"], payload["node"])
        return super().send(sender, recipient, msg_type, round_id, payload)


@pytest.mark.parametrize("edit, match", [
    (_bits_above, "has bits above its [0-9]+ slots"),
    (_edit_bin(empty=False), r"feature [0-9]+, bin [0-9]+ has a g sum of [0-9]+, beyond"),
    (_edit_bin(empty=True), r"feature [0-9]+, bin [0-9]+ is empty but its g sum unpacks to 1$"),
    (lambda packed, counts, layout: packed[:-1], "ciphertexts for"),
    (lambda packed, counts, layout: packed + packed[-1:], "ciphertexts for"),
], ids=["bits-above", "slot-beyond-bound", "nonzero-empty-bin", "short-list", "long-list"])
def test_a_tampered_fold_is_rejected(monkeypatch, edit, match):
    from fedgbt import vfl

    key = keygen(key_bits=256, rng_seed=5)
    monkeypatch.setattr(vfl, "keygen", lambda key_bits, rng_seed: key)
    datasets, X, y = vertical_fixture(80, 2, 3, seed=19, n_passives=2)
    bus = _RewriteFolds(key, edit)
    with pytest.raises(ProtocolError, match=match) as raised:
        vfl_train(make_vfl_roster("active", datasets), datasets, small_params(), seed=11,
                  bus=bus, key_bits=256)
    sender, tree, node = bus.tampered
    assert f"{sender}'s histogram for tree {tree}, node {node}: " in str(raised.value)
