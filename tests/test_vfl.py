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
    level_layouts,
    logistic_gradients,
    model_to_json,
    predict_proba,
    quantize,
    train_centralized,
)
from fedgbt.paillier import (
    EncodingError,
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
    joined_matrix,
    make_vfl_roster,
    vfl_predict,
    vfl_train,
)
from test_gbt import histogram_of
from test_paillier import powmod_backend  # a fixture, which pytest finds by name


def named_slots(active, n_samples):
    """The (g, h) slot counts the active party names for a node of
    ``n_samples``."""
    return tuple(layout.slots for layout in active.fold_layouts(n_samples))


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
    enc_g, enc_h = active.encrypt_gradients(np.arange(n))
    assert list(enc_g) == list(enc_h) == ids.tolist()
    for sid, cg, ch in zip(ids.tolist(), enc_g.values(), enc_h.values()):
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
    enc_g, enc_h = active.encrypt_gradients(np.arange(20))
    passive.receive_gradients(enc_g, enc_h)
    subset = list(enc_g)[: 12]
    eg, eh, counts = passive.bin_aggregate(subset, *named_slots(active, 12))
    decoded = active.decrypt_histogram(eg, eh, counts, np.arange(12), "passive0")
    plain = histogram_of(passive.columns.T, active.g, active.h, np.arange(12), params.max_bin)
    np.testing.assert_array_equal(decoded.g, plain.g)
    np.testing.assert_array_equal(decoded.h, plain.h)
    np.testing.assert_array_equal(decoded.counts, plain.counts)
    # empty bins unpack to zero
    empty_bins = decoded.counts == 0
    assert (decoded.g[empty_bins] == 0).all()


def test_passive_rejects_unknown_sample_ids():
    datasets, _, _ = vertical_fixture(8, 1, 2, seed=7)
    passive = PassiveParty("passive0", datasets["passive0"], 4)
    with pytest.raises(ProtocolError):
        passive.bin_aggregate([9999], 1, 1)


def test_passive_rejects_ids_outside_the_gradient_broadcast():
    datasets, _, y = vertical_fixture(12, 1, 2, seed=23)
    active = ActiveParty("active", datasets["active"], small_params(), seed=3, key_bits=256)
    passive = PassiveParty("passive0", datasets["passive0"], 8)
    passive.pk = active.pk
    active.g, active.h = map(quantize, logistic_gradients(y, np.zeros(12)))
    passive.receive_gradients(*active.encrypt_gradients(np.arange(6)))
    ids = [int(s) for s in datasets["passive0"].sample_ids]
    passive.bin_aggregate(ids[:6], 1, 1)
    with pytest.raises(ProtocolError, match=r"passive0 received sample ids \[106, 107, 108\]"):
        passive.bin_aggregate(ids, 1, 1)


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
    """The foreign internal nodes on one row's path, walked with the active
    party's thresholds on the tree nodes and each passive owner's own split
    record."""
    node, foreign = tree.nodes[0], 0
    while not node.is_leaf:
        if node.owner == "active":
            feature = trained.roster.to_local("active", node.feature)
            threshold = node.threshold
        else:
            record = trained.passives[node.owner].records[node.record_id]
            feature, threshold = record.feature_local, record.threshold
            foreign += 1
        go_left = parts[node.owner].features[row, feature] <= threshold
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


def test_a_split_notice_missing_a_left_going_id_is_rejected():
    datasets, X, y = vertical_fixture(40, 2, 2, seed=14)
    roster = make_vfl_roster("active", datasets)
    params = small_params(n_estimators=1)
    _, clean = vfl_train(roster, datasets, params, seed=8, key_bits=256)
    reply = next(e for e in clean.transcript if e.msg_type == "PARTITION_REPLY")
    tree, node = reply.payload["tree"], reply.payload["node"]
    dropped = reply.payload["sample_ids"][0]

    class _DropOneId(MessageBus):
        def send(self, sender, recipient, msg_type, round_id, payload):
            if msg_type == "SPLIT_NOTICE" and (payload["tree"], payload["node"]) == (tree, node):
                payload = {**payload, "sample_ids": [s for s in payload["sample_ids"]
                                                     if s != dropped]}
            return super().send(sender, recipient, msg_type, round_id, payload)

    with pytest.raises(ProtocolError, match=f"PARTITION_REPLY from {reply.sender} for tree "
                                            f"{tree}, node {node}: the left side disagrees"):
        vfl_train(roster, datasets, params, seed=8, bus=_DropOneId(), key_bits=256)


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
    # training routes rows with INFER_QUERY rounds; after each tree, only
    # the rows its sample left out are routed
    sample, routed = set(), 0
    for env in bus.transcript:
        if env.msg_type == "GRADIENT_BROADCAST":
            sample = {int(s) for s in env.payload["enc_g"]}
        elif env.msg_type == "INFER_QUERY":
            routed += 1
            assert not sample & {s for ids in env.payload["sample_ids"] for s in ids}
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


# a fold over 40 samples has g slots of 20 + 6 + 1 bits: one slot holds a
# bin sum plus 2^(S + 6), and a fold stays below p/2, so that it decrypts
# modulo p alone, once p > 2^(S + 8), 3.2 times 2 * 40 * 2^S, the bound on
# the sum itself
_ONE_SLOT = 2 << level_layouts((40).bit_length(), 1 << 64)[0].width
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

    datasets, X, y = vertical_fixture(40, 2, 2, seed=21)
    roster = make_vfl_roster("active", datasets)
    params = small_params(n_estimators=1, max_depth=2)
    reference, _ = vfl_train(roster, datasets, params, seed=3, key_bits=256)
    key = keypair_from_primes(*primes)
    monkeypatch.setattr(vfl, "keygen", lambda key_bits, rng_seed: key)
    bus = MessageBus()
    # the KEY_BROADCAST names the size the stand-in key has
    bits = key[0].key_bits
    if fits:
        trained, _ = vfl_train(roster, datasets, params, seed=3, bus=bus, key_bits=bits)
        assert model_to_json(trained.ensemble) == model_to_json(reference.ensemble)
    else:
        with pytest.raises(EncodingError, match="fits no 27-bit slot for nodes of 6-bit counts"):
            vfl_train(roster, datasets, params, seed=3, bus=bus, key_bits=bits)
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


def _unfold(active, cts, counts, stream):
    """One stream's bin sums from folded ciphertexts by full two-prime
    decryption and plain shifts, apart from ``PackedLayout.unpack`` and the
    bounded decryption: the folds hold the non-empty bins in flat order."""
    layout = active.fold_layouts(int(counts[0].sum()))[stream]
    width, offset, modulus = layout.width, layout.offset, active.pk.n
    occupied = np.flatnonzero(counts)
    values = np.zeros(counts.size, dtype=np.int64)
    for k, c in enumerate(cts):
        run = occupied[k * layout.slots:(k + 1) * layout.slots]
        total = decrypt(active.sk, active.pk, c)
        total = (total - modulus if total > modulus // 2 else total) + sum(
            offset << (width * j) for j in range(run.size))
        for j, b in enumerate(run):
            values[b] = ((total >> (width * j)) & ((1 << width) - 1)) - offset
    assert len(cts) == -(-occupied.size // layout.slots)
    return values.reshape(counts.shape)


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
                ids, *named_slots(active, len(ids)))
            parts.append(GradHistogram(_unfold(active, eg, counts, 0),
                                       _unfold(active, eh, counts, 1), counts))
        for a in ("g", "h", "counts"):
            np.testing.assert_array_equal(getattr(held, a),
                                          np.vstack([getattr(part, a) for part in parts]))


class _FlipOneCiphertext(MessageBus):
    """Flips the low bit of the last g or h fold, the one a partial run
    would fill, in the first ENC_HISTOGRAM_SUBMIT."""

    def __init__(self, h_stream: bool):
        super().__init__()
        self.stream = "enc_h" if h_stream else "enc_g"
        self.tampered = None

    def send(self, sender, recipient, msg_type, round_id, payload):
        if msg_type == "ENC_HISTOGRAM_SUBMIT" and self.tampered is None:
            folds = list(payload[self.stream])
            folds[-1] ^= 1
            payload = {**payload, self.stream: folds}
            self.tampered = (sender, payload["tree"], payload["node"])
        return super().send(sender, recipient, msg_type, round_id, payload)


@pytest.mark.parametrize("h_stream", [False, True])
def test_a_flipped_histogram_ciphertext_is_detected(h_stream):
    # a flipped bit scrambles the whole fold, so its bounded decryption
    # fails, in either stream
    datasets, X, y = vertical_fixture(80, 2, 3, seed=19, n_passives=2)
    roster = make_vfl_roster("active", datasets)
    bus = _FlipOneCiphertext(h_stream)
    with pytest.raises(ProtocolError) as raised:
        vfl_train(roster, datasets, small_params(), seed=11, bus=bus, key_bits=256)
    sender, tree, node = bus.tampered
    assert f"{sender}'s histogram for tree {tree}, node {node}" in str(raised.value)
    assert "decrypted value outside" in str(raised.value)


class _EditFirstTo(MessageBus):
    """Applies ``change(payload)`` to a copy of the first ``msg_type``
    message to ``recipient``."""

    def __init__(self, msg_type, recipient, change):
        super().__init__()
        self.msg_type, self.recipient, self.change = msg_type, recipient, change
        self.tampered = False

    def send(self, sender, recipient, msg_type, round_id, payload):
        if (msg_type, recipient) == (self.msg_type, self.recipient) and not self.tampered:
            payload = copy.deepcopy(payload)
            self.change(payload)
            self.tampered = True
        return super().send(sender, recipient, msg_type, round_id, payload)


@pytest.mark.parametrize("stream", ["g", "h"])
@pytest.mark.parametrize("value", [2**1024, 2**1024 + 1], ids=["2^1024", "2^1024+1"])
def test_a_gradient_ciphertext_outside_the_range_is_rejected(powmod_backend, stream, value):
    # at a 256-bit key both lie above n^2; reduced modulo n^2, as a Python
    # product would, they would pass unseen
    datasets, _, _ = vertical_fixture(30, 1, 2, seed=29)
    first = int(datasets["active"].sample_ids[4])
    bus = _EditFirstTo("GRADIENT_BROADCAST", "passive0",
                       lambda p: p[f"enc_{stream}"].update({first: value}))
    with pytest.raises(ProtocolError, match=rf"^passive0 cannot aggregate the {stream} "
                                            r"ciphertexts of this tree's GRADIENT_BROADCAST: "
                                            r"ciphertext \d+ is not an int in \[0, n\^2\)$"):
        vfl_train(make_vfl_roster("active", datasets), datasets, small_params(), seed=3,
                  bus=bus, key_bits=256)
    assert bus.tampered
    assert not any(e.msg_type == "ENC_HISTOGRAM_SUBMIT" for e in bus.transcript)


def test_each_passive_party_builds_its_key_from_the_key_broadcast():
    datasets, _, _ = vertical_fixture(30, 1, 2, seed=29, n_passives=2)
    trained, bus = vfl_train(make_vfl_roster("active", datasets), datasets,
                             small_params(n_estimators=1), seed=3, key_bits=256)
    keys = [e for e in bus.transcript if e.msg_type == "KEY_BROADCAST"]
    assert [(e.sender, e.recipient, e.round_id) for e in keys] == [
        ("active", "passive0", 1), ("active", "passive1", 1)]
    assert bus.transcript[:2] == keys
    pk = trained.active.pk
    assert all(e.payload == {"n": int_to_hex(pk.n), "g": int_to_hex(pk.g), "key_bits": 256}
               for e in keys)
    for passive in trained.passives.values():
        assert passive.pk == pk and passive.pk is not pk


@pytest.mark.parametrize("change, match", [
    (lambda p: p.update(g=p["n"] + 2), r"the public key's g is not n \+ 1"),
    (lambda p: p.update(key_bits=258), r"key_bits 258 for an n of 25[56] bits"),
    (lambda p: p.update(key_bits="256"), r"key_bits '256' for an n of 25[56] bits"),
    (lambda p: p.update(key_bits=True), r"key_bits True for an n of 25[56] bits"),
    (lambda p: p.update(n=4, g=5, key_bits=3), "key_bits 3 below 16"),
    (lambda p: p.update(n=p["n"] + 1, g=p["n"] + 2), "n is even"),
], ids=["generator", "key-bits-above", "key-bits-str", "key-bits-bool", "tiny-n", "even-n"])
def test_a_tampered_key_broadcast_is_rejected(change, match):
    datasets, _, _ = vertical_fixture(30, 1, 2, seed=29, n_passives=2)
    bus = _EditFirstTo("KEY_BROADCAST", "passive1", change)
    with pytest.raises(ProtocolError, match=rf"^KEY_BROADCAST to passive1: {match}$"):
        vfl_train(make_vfl_roster("active", datasets), datasets, small_params(), seed=3,
                  bus=bus, key_bits=256)
    assert bus.tampered
    assert not any(e.msg_type == "GRADIENT_BROADCAST" for e in bus.transcript)


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


class _RewriteReply(MessageBus):
    """Rewrites the first training PARTITION_REPLY to a notice that leaves some
    held id out with ``change(reply ids, notice ids)``."""

    def __init__(self, held, change):
        super().__init__()
        self.held, self.change = held, change
        self.notice = None
        self.tampered = None

    def send(self, sender, recipient, msg_type, round_id, payload):
        if msg_type == "SPLIT_NOTICE":
            self.notice = payload["sample_ids"]
        if (msg_type == "PARTITION_REPLY" and self.tampered is None and payload["sample_ids"]
                and len(self.notice) < len(self.held)):
            payload = {**payload, "sample_ids": self.change(payload["sample_ids"], self.notice)}
            self.tampered = (sender, payload["tree"], payload["node"])
        return super().send(sender, recipient, msg_type, round_id, payload)


@pytest.mark.parametrize("change", ["unknown id", "duplicated id", "held id outside the notice"])
def test_a_partition_reply_that_is_not_a_subset_of_its_notice_is_rejected(change):
    datasets, X, y = vertical_fixture(40, 1, 3, seed=27)
    roster = make_vfl_roster("active", datasets)
    held = datasets["active"].sample_ids.tolist()
    bus = _RewriteReply(held, {
        "unknown id": lambda ids, notice: ids + [987654],
        "duplicated id": lambda ids, notice: ids + ids[:1],
        "held id outside the notice": lambda ids, notice: ids + [min(set(held) - set(notice))],
    }[change])
    with pytest.raises(ProtocolError, match="the ids are not a duplicate-free subset") as raised:
        vfl_train(roster, datasets, small_params(), seed=12, bus=bus, key_bits=256)
    sender, tree, node = bus.tampered
    assert node != 0
    assert f"PARTITION_REPLY from {sender} for tree {tree}, node {node}" in str(raised.value)


class _RewriteNotice(MessageBus):
    """Rewrites the ``which``-th SPLIT_NOTICE with ``change(payload, records
    of the notices before it)``, on a copy, and records its recipient and
    record."""

    def __init__(self, change, which):
        super().__init__()
        self.change, self.which = change, which
        self.records = []
        self.tampered = None

    def send(self, sender, recipient, msg_type, round_id, payload):
        if msg_type == "SPLIT_NOTICE" and len(self.records) == self.which:
            payload = copy.deepcopy(payload)
            self.change(payload, self.records)
            self.tampered = (recipient, payload["record"])
        if msg_type == "SPLIT_NOTICE":
            self.records.append(payload["record"])
        return super().send(sender, recipient, msg_type, round_id, payload)


@pytest.mark.parametrize("change, which, match", [
    (lambda p, _: p.update(feature_local=-1), 0, r"feature -1 is not an int in \[0, 3\)"),
    (lambda p, _: p.update(feature_local=3), 0, r"feature 3 is not an int in \[0, 3\)"),
    (lambda p, _: p.update(feature_local=True), 0, r"feature True is not an int"),
    (lambda p, _: p.update(bin=-1), 0, r"split bin -1 is not an int in \[0, 7\)"),
    (lambda p, _: p.update(bin=7), 0, r"split bin 7 is not an int in \[0, 7\)"),
    (lambda p, _: p.update(bin=2.0), 0, r"split bin 2.0 is not an int"),
    (lambda p, _: p["sample_ids"].append(99), 0,
     r"cannot partition record \d+: it holds no sample ids \[99\]"),
    # the second notice names the first one's record, which would overwrite it
    (lambda p, earlier: p.update(record=earlier[0]), 1,
     r"cannot store record \d+: it holds one by that id already"),
], ids=["feature-below", "feature-above", "feature-bool", "bin-below", "bin-above", "bin-float",
        "unheld-id", "reused-record"])
def test_a_tampered_split_notice_is_rejected(change, which, match):
    # the passive party holds 3 features of 8 bins, and sample ids 100-139
    datasets, X, y = vertical_fixture(40, 1, 3, seed=27)
    roster = make_vfl_roster("active", datasets)
    bus = _RewriteNotice(change, which)
    with pytest.raises(ProtocolError, match=match) as raised:
        vfl_train(roster, datasets, small_params(), seed=12, bus=bus, key_bits=256)
    owner, record = bus.tampered
    assert str(raised.value).startswith(f"{owner} cannot ")
    assert f" record {record}: " in str(raised.value)


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
                                           *named_slots(active, 12))
    active.decrypt_histogram(eg, eh, counts, np.arange(12), "passive0")
    with pytest.raises(ProtocolError, match="do not add up"):
        active.decrypt_histogram(eg, eh, counts, np.arange(11), "passive0")
    with pytest.raises(ProtocolError, match="ciphertexts"):
        active.decrypt_histogram(eg[:-1], eh, counts, np.arange(12), "passive0")
    forged = counts.copy()
    forged[0, forged[0].argmax()] += 2**30  # the row still sums to 12
    forged[0, forged[0].argmin()] -= 2**30
    with pytest.raises(ProtocolError, match="negative"):
        active.decrypt_histogram(eg, eh, forged, np.arange(12), "passive0")


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
    for node in (n for n in splits if n.owner != "active"):
        node.threshold = trained.passives[node.owner].records[node.record_id].threshold
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
    # each stream folds only the non-empty bins, in runs of the slots its
    # SAMPLE_SPACE named, at least three of them at this key
    asked = {(e.recipient, e.payload["tree"], e.payload["node"]): e.payload
             for e in bus.transcript if e.msg_type == "SAMPLE_SPACE"}
    for e in (e for e in bus.transcript if e.msg_type == "ENC_HISTOGRAM_SUBMIT"):
        named = asked[e.sender, e.payload["tree"], e.payload["node"]]
        occupied = np.count_nonzero(e.payload["counts"])
        assert min(named["slots"], named["h_slots"]) >= 3
        assert [len(e.payload["enc_g"]), len(e.payload["enc_h"])] == [
            -(-occupied // named["slots"]), -(-occupied // named["h_slots"])]


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
        for named in ((slots, 1), (1, slots)):
            with pytest.raises(ProtocolError, match=f"passive0 was asked to fold {slots!r} bins"):
                passive.bin_aggregate(ids, *named)


@cache
def _fold_key():
    """A key whose p has 128 bits, about four slots of a 64-sample node."""
    return keypair_from_primes(_prime_next_to(1 << 127, 1), _prime_next_to(1 << 128, 1))


def _fold_and_open(pk, sk, layout, values):
    """Encrypt each value, fold every run of ``layout.slots``, decrypt each
    fold as the active party does, against its offset constant (g) or
    against ``2**(width * slots) - 1`` (h, unsigned), and unpack."""
    rng = random.Random(0)
    folds = layout.pack(np.zeros(len(values), dtype=np.int64))
    unsigned = (1 << (layout.width * layout.slots)) - 1
    totals = []
    for k, fold in enumerate(folds):
        run = values[k * layout.slots:(k + 1) * layout.slots]
        c = aggregate(pk, [encrypt(pk, v % pk.n, rng=rng) for v in run], [1] * len(run),
                      layout.width)
        totals.append(decrypt(sk, pk, c, bound=fold or unsigned) + fold)
    return layout.unpack(totals, len(values)).tolist()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 5000), data=st.data())
def test_folds_carry_slot_values_up_to_the_offset(n, data):
    # g slots carry |v| < offset; h slots, unsigned, every value they hold
    pk, sk = _fold_key()
    g_layout, h_layout = level_layouts(n.bit_length(), sk.p >> 1)
    for layout, low, top in ((g_layout, 1 - g_layout.offset, g_layout.offset - 1),
                             (h_layout, 0, (1 << h_layout.width) - 1)):
        values = data.draw(st.lists(st.sampled_from([low, top, 0]) | st.integers(low, top),
                                    min_size=1, max_size=3 * layout.slots + 1))
        values[0] = data.draw(st.sampled_from([low, top]))
        assert _fold_and_open(pk, sk, layout, values) == values


@settings(max_examples=15, deadline=None)
@given(n=st.integers(0, 3000), data=st.data())
def test_the_smallest_prime_that_admits_one_slot(n, data):
    bits = n.bit_length()
    bound = 2 << level_layouts(bits, 1 << 64)[0].width  # p/2 above any one-slot g fold
    p = _prime_next_to(bound, 1)
    with pytest.raises(EncodingError, match=f"fits no {GRAD_SCALE_BITS + bits + 1}-bit slot"):
        level_layouts(bits, _prime_next_to(bound, -1) >> 1)
    g_layout, h_layout = level_layouts(bits, p >> 1)
    assert g_layout.slots == h_layout.slots == 1
    pk, sk = keypair_from_primes(p, _prime_next_to(4 * p + 1, 1))
    top = g_layout.offset - 1
    values = [top, -top, 0, data.draw(st.integers(-top, top))]
    assert _fold_and_open(pk, sk, g_layout, values) == values
    top = (1 << h_layout.width) - 1
    values = [top, 0, data.draw(st.integers(0, top))]
    assert _fold_and_open(pk, sk, h_layout, values) == values


def _packed_parties(features, n_bins):
    """An active party over 64 samples with the fold key, and a passive party
    holding the 64 rows of ``features``."""
    ids = np.arange(64)
    rng = np.random.default_rng(3)
    active = ActiveParty("active", PartyDataset("active", ids, rng.normal(size=(64, 1)), ("a0",),
                                                np.arange(64) % 2), small_params(), seed=1,
                         key_bits=256)
    active.pk, active.sk = _fold_key()
    names = tuple(f"p{f}" for f in range(features.shape[1]))
    passive = PassiveParty("passive0", PartyDataset("passive0", ids, features, names), n_bins)
    passive.pk = active.pk
    return active, passive


@st.composite
def _sparse_space(draw):
    """64 rows of one to four features, the first constant and each other
    one constant, two-valued or spread, so some have one or two occupied
    bins; quantized g at +1, at -1 or anywhere in [-1, 1] and h at 0, at 1/4
    or anywhere between, so a bin's sums reach ``+-c * 2**20`` and
    ``c * 2**18``; and a sample space of up to 64 of the rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kinds = ["one", *draw(st.lists(st.sampled_from(["one", "two", "spread"]), max_size=3))]
    columns = {"one": np.ones(64), "two": rng.integers(0, 2, 64) * 1.0,
               "spread": rng.normal(size=64)}
    top = 1 << GRAD_SCALE_BITS
    g = {"+1": np.full(64, top), "-1": np.full(64, -top),
         "any": rng.integers(-top, top, 64, endpoint=True)}
    h = {"0": np.zeros(64), "1/4": np.full(64, top >> 2),
         "any": rng.integers(0, top >> 2, 64, endpoint=True)}
    g, h = g[draw(st.sampled_from(sorted(g)))], h[draw(st.sampled_from(sorted(h)))]
    ids = rng.permutation(64)[:draw(st.integers(0, 64))].tolist()
    return (np.column_stack([columns[k] for k in kinds]), g.astype(np.int64), h.astype(np.int64),
            ids)


@settings(max_examples=20, deadline=None)
@given(space=_sparse_space(), n_bins=st.integers(2, 9), data=st.data())
def test_bin_aggregate_equals_the_per_sample_loop(space, n_bins, data):
    features, g, h, ids = space
    active, passive = _packed_parties(features, n_bins)
    active.g, active.h = g, h
    passive.receive_gradients(*active.encrypt_gradients(np.arange(64)))
    n_squared = passive.pk.n_squared
    # reference: append each sample's ciphertexts to its bins in order
    F, B = features.shape[1], n_bins
    buckets_g = [[] for _ in range(F * B)]
    buckets_h = [[] for _ in range(F * B)]
    for sid in ids:
        for f in range(F):
            b = passive.columns[f, passive.pos_of_id[sid]]
            buckets_g[f * B + b].append(passive.enc_g[sid])
            buckets_h[f * B + b].append(passive.enc_h[sid])
    occupied = [k for k in range(F * B) if buckets_g[k]]
    # slots of 21 + b bits for g and 18 + b for h, b the sample count's bits
    bits = len(ids).bit_length()
    widths = GRAD_SCALE_BITS + bits + 1, GRAD_SCALE_BITS + bits - 2
    # per stream, one bin per ciphertext, the key's widest fold or between
    slots = [data.draw(st.sampled_from([1, most]) | st.integers(1, most))
             for most in named_slots(active, len(ids))]

    def folded(buckets, per_run, width):
        # only the non-empty bins fold: run r's j-th is raised to
        # 2^(width * j), then multiplied in
        bins = [math.prod(buckets[k]) % n_squared for k in occupied]
        return [math.prod(pow(b, 1 << (width * j), n_squared)
                          for j, b in enumerate(bins[k:k + per_run])) % n_squared
                for k in range(0, len(bins), per_run)]

    eg, eh, counts = passive.bin_aggregate(ids, *slots)
    assert eg == folded(buckets_g, slots[0], widths[0])
    assert eh == folded(buckets_h, slots[1], widths[1])
    assert counts.ravel().tolist() == [len(b) for b in buckets_g]


@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 64), sign=st.sampled_from([1, -1]))
def test_a_bin_holding_the_whole_sample_space_unpacks_at_its_bound(n, sign):
    # feature 0 is constant, so one bin holds the whole sample space
    features = np.column_stack([np.ones(64), np.random.default_rng(3).normal(size=64)])
    active, passive = _packed_parties(features, 8)
    # every |g| = 1 and every h = 1/4, the largest logistic gradients
    active.g = np.full(64, sign << GRAD_SCALE_BITS, dtype=np.int64)
    active.h = np.full(64, 1 << (GRAD_SCALE_BITS - 2), dtype=np.int64)
    passive.receive_gradients(*active.encrypt_gradients(np.arange(64)))
    ids = list(range(n))
    eg, eh, counts = passive.bin_aggregate(ids, *named_slots(active, n))
    hist = active.decrypt_histogram(eg, eh, counts, np.arange(n), "passive0")
    full = int(np.argmax(counts[0]))
    assert counts[0, full] == n
    assert hist.g[0, full] == sign * n << GRAD_SCALE_BITS
    assert hist.h[0, full] == n << (GRAD_SCALE_BITS - 2)
    plain = histogram_of(passive.columns.T, active.g, active.h, np.arange(n), 8)
    np.testing.assert_array_equal(hist.g, plain.g)
    np.testing.assert_array_equal(hist.h, plain.h)


@settings(max_examples=25, deadline=None)
@given(space=_sparse_space(), n_bins=st.integers(2, 9))
def test_a_partial_last_run_decrypts_like_the_full_ones(space, n_bins):
    features, g, h, ids = space
    active, passive = _packed_parties(features, n_bins)
    positions = np.array(ids, dtype=np.int64)
    plain = histogram_of(passive.columns.T, g, h, positions, n_bins)
    occupied = np.count_nonzero(plain.counts)
    slots = named_slots(active, len(ids))
    # both streams end in a partly filled run
    assume(occupied % slots[0] and occupied % slots[1])
    active.g, active.h = g, h
    passive.receive_gradients(*active.encrypt_gradients(np.arange(64)))
    eg, eh, counts = passive.bin_aggregate(ids, *slots)
    assert [len(eg), len(eh)] == [-(-occupied // k) for k in slots]
    hist = active.decrypt_histogram(eg, eh, counts, positions, "passive0")
    for a in ("g", "h", "counts"):
        np.testing.assert_array_equal(getattr(hist, a), getattr(plain, a))


def _slot(total, layout, j):
    return (total >> (layout.width * j)) & ((1 << layout.width) - 1)


def _with_slot(total, layout, j, value):
    return total - (_slot(total, layout, j) << (layout.width * j)) + (value << (layout.width * j))


def _bits_above(stream):
    def edit(folds, counts, layouts):
        layout, packed = layouts[stream], folds[stream]
        used = int(np.count_nonzero(counts)) - (len(packed) - 1) * layout.slots
        if stream and used == layout.slots:
            return None  # a full h run has no room above its slots within its bound
        below = packed[-1] & ((1 << (layout.width * (used - 1))) - 1)
        # the next bit up, with the lower slots kept, stays within the fold's bound
        edited = [*packed[:-1], (1 << (layout.width * used)) + below]
        return [edited, folds[1]] if stream == 0 else [folds[0], edited], counts
    return edit


def _beyond_bound(folds, counts, layouts):
    # one past the bound of the first non-empty bin, which the first g
    # fold's slot 0 holds
    layout = layouts[0]
    value = layout.offset + (int(counts[counts > 0][0]) << GRAD_SCALE_BITS) + 1
    return [[_with_slot(folds[0][0], layout, 0, value), *folds[0][1:]], folds[1]], counts


def _negative_h(folds, counts, layouts):
    return [folds[0], [-1, *folds[1][1:]]], counts


def _g_list(change):
    def edit(folds, counts, layouts):
        return [change(folds[0]), folds[1]], counts
    return edit


def _move_count(into_empty):
    """Within feature 0, moves one count from a bin of two or more into an
    empty bin, or empties a bin of one into another non-empty bin, where
    that leaves the number of folds of both streams as it is."""
    def edit(folds, counts, layouts):
        row = counts[0]
        source = np.flatnonzero(row >= 2 if into_empty else row == 1)
        target = np.flatnonzero(row == 0 if into_empty else row > 0)
        target = target[target != source[0]] if source.size else target
        occupied = int(np.count_nonzero(counts)) + (1 if into_empty else -1)
        if not (source.size and target.size) or [len(f) for f in folds] != [
                -(-occupied // layout.slots) for layout in layouts]:
            return None
        counts = counts.copy()
        counts[0, source[0]] -= 1
        counts[0, target[0]] += 1
        return folds, counts
    return edit


class _RewriteFolds(MessageBus):
    """Decrypts both streams' folds of the first ENC_HISTOGRAM_SUBMIT that
    ``edit`` applies to with the active party's key, and re-encrypts the
    folds and sends the counts that ``edit`` returns: a tamperer that knows
    the key."""

    def __init__(self, key, edit):
        super().__init__()
        self.key, self.edit = key, edit
        self.asked = {}  # passive party -> the SAMPLE_SPACE it was last sent
        self.tampered = None

    def send(self, sender, recipient, msg_type, round_id, payload):
        if msg_type == "SAMPLE_SPACE":
            self.asked[recipient] = payload
        if msg_type == "ENC_HISTOGRAM_SUBMIT" and self.tampered is None:
            pk, sk = self.key
            asked = self.asked[sender]
            layouts = level_layouts(len(asked["sample_ids"]).bit_length(), sk.p >> 1)
            assert [x.slots for x in layouts] == [asked["slots"], asked["h_slots"]]
            counts = np.array(payload["counts"]).reshape(-1, small_params().max_bin)
            # each stream's folds hold the non-empty bins, in flat order
            zeros = [x.pack(np.zeros(np.count_nonzero(counts), dtype=np.int64)) for x in layouts]
            unsigned = [(1 << (x.width * x.slots)) - 1 for x in layouts]
            folds = [[decrypt(sk, pk, c, bound=m or top) + m
                      for c, m in zip(payload[name], offsets)]
                     for name, offsets, top in zip(("enc_g", "enc_h"), zeros, unsigned)]
            edited = self.edit(folds, counts, layouts)
            if edited is not None:
                rng = random.Random(0)
                folds, counts = edited
                payload = {**payload, "counts": counts.ravel().tolist(), **{
                    name: [encrypt(pk, (t - offsets[min(i, len(offsets) - 1)]) % pk.n,
                                   rng=rng) for i, t in enumerate(stream)]
                    for name, stream, offsets in zip(("enc_g", "enc_h"), folds, zeros)}}
                self.tampered = (sender, payload["tree"], payload["node"])
        return super().send(sender, recipient, msg_type, round_id, payload)


@pytest.mark.parametrize("edit, match", [
    (_bits_above(0), "has bits above its [0-9]+ slots"),
    (_beyond_bound, r"feature [0-9]+, bin [0-9]+ has a g sum of [0-9]+, beyond"),
    # every later slot lands one bin on, across features
    (_move_count(into_empty=True), "feature 0's g sums add up to -?[0-9]+, not the node's"),
    # the last g fold holds one slot more than the counts leave it
    (_move_count(into_empty=False), "decrypted value outside"),
    (_negative_h, "h fold 0 is negative$"),
    (_bits_above(1), "has bits above its [0-9]+ slots"),
    (_g_list(lambda packed: packed[:-1]), "ciphertexts for"),
    (_g_list(lambda packed: packed + packed[-1:]), "ciphertexts for"),
], ids=["bits-above", "slot-beyond-bound", "count-into-empty-bin", "emptied-bin", "h-negative",
        "h-bits-above", "short-list", "long-list"])
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
