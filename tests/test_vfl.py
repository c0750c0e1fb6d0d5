import math
import random

import numpy as np
import pytest

from fedgbt.data import PartyDataset
from fedgbt.gbt import (
    GRAD_SCALE_BITS,
    GbtParams,
    GradHistogram,
    build_histogram,
    logistic_gradients,
    model_to_json,
    predict_proba,
    quantize,
    train_centralized,
)
from fedgbt.hfl import ProtocolError
from fedgbt.paillier import Ciphertext, aggregate, decrypt, keygen
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
        assert g_val == (-(2**39) if y[sid] else 2**39) % active.pk.n
        assert decrypt(active.sk, active.pk, ch, bound=2**40) == 2**38


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
    eg, eh, counts = passive.bin_aggregate(subset)
    decoded = active.decrypt_histogram(eg, eh, counts, 12, "passive0")
    plain = build_histogram(
        passive.binned, active.g, active.h, np.arange(12), params.max_bin
    )
    np.testing.assert_array_equal(decoded.g, plain.g)
    np.testing.assert_array_equal(decoded.h, plain.h)
    np.testing.assert_array_equal(decoded.counts, plain.counts)
    # empty bins decrypt to zero through the identity ciphertext
    empty_bins = decoded.counts == 0
    assert (decoded.g[empty_bins] == 0).all()


def test_bin_aggregate_equals_the_per_sample_loop():
    datasets, X, y = vertical_fixture(30, 1, 4, seed=18)
    params = small_params()
    active = ActiveParty("active", datasets["active"], params, seed=4, key_bits=256)
    passive = PassiveParty("passive0", datasets["passive0"], params.max_bin)
    passive.pk = active.pk
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
                b = passive.binned[passive.pos_of_id[sid], f]
                buckets_g[f * B + b].append(passive.enc_g[sid])
                buckets_h[f * B + b].append(passive.enc_h[sid])
        eg, eh, counts = passive.bin_aggregate(space)
        assert [c.value for c in eg] == [aggregate(passive.pk, b).value for b in buckets_g]
        assert [c.value for c in eh] == [aggregate(passive.pk, b).value for b in buckets_h]
        assert counts.flatten().tolist() == [len(b) for b in buckets_g]


def test_passive_rejects_unknown_sample_ids():
    datasets, _, _ = vertical_fixture(8, 1, 2, seed=7)
    passive = PassiveParty("passive0", datasets["passive0"], 4)
    with pytest.raises(ProtocolError):
        passive.bin_aggregate([9999])


def test_passive_rejects_ids_outside_the_gradient_broadcast():
    datasets, _, y = vertical_fixture(12, 1, 2, seed=23)
    active = ActiveParty("active", datasets["active"], small_params(), seed=3, key_bits=256)
    passive = PassiveParty("passive0", datasets["passive0"], 8)
    passive.pk = active.pk
    active.g, active.h = map(quantize, logistic_gradients(y, np.zeros(12)))
    passive.receive_gradients(*active.encrypt_gradients(np.arange(6)))
    ids = [int(s) for s in datasets["passive0"].sample_ids]
    passive.bin_aggregate(ids[:6])
    with pytest.raises(ProtocolError, match=r"passive0 received sample ids \[106, 107, 108\]"):
        passive.bin_aggregate(ids)


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


def test_inference_message_count_bounded_by_foreign_path_nodes():
    datasets, X, y = vertical_fixture(40, 2, 2, seed=14)
    roster = make_vfl_roster("active", datasets)
    params = small_params(n_estimators=1)
    trained, _ = vfl_train(roster, datasets, params, seed=8, key_bits=256)
    one_row = {p: d.subset(np.array([0])) for p, d in datasets.items()}
    probs, bus = vfl_predict(trained, one_row)
    queries = [e for e in bus.transcript if e.msg_type == "INFER_QUERY"]
    tree = trained.ensemble.trees[0]
    foreign_internal = sum(
        1 for n in tree.nodes if not n.is_leaf and n.owner != "active"
    )
    max_depth_foreign = min(foreign_internal, params.max_depth)
    assert len(queries) <= max(max_depth_foreign, 0) * len(trained.ensemble.trees) or len(queries) <= foreign_internal


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


@pytest.mark.parametrize("primes, fits", [
    # 48-bit primes hold 40 summands of 2^40-scaled |g| < 1, not 10^6 of them
    ((141836999983123, 175921860444259), True),
    ((4194319, 4718617), False),  # a 45-bit modulus does not hold 40
    # a 61-bit modulus would, but histograms are decrypted modulo p alone
    ((1073741827, 1342177283), False),
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
        binned = active.binned if owner == roster.active_id else trained.passives[owner].binned
        local = roster.to_local(owner, node.feature)
        rows = positions[node.node_id]
        go_left = binned[rows, local] <= node.bin_index
        positions[node.left], positions[node.right] = rows[go_left], rows[~go_left]
        depth[node.left] = depth[node.right] = depth[node.node_id] + 1
    return positions, depth


def test_subtracted_histograms_equal_direct_aggregation_and_decryption():
    datasets, X, y = vertical_fixture(80, 2, 3, seed=19, n_passives=2)
    roster = make_vfl_roster("active", datasets)
    params = small_params(n_estimators=2, max_depth=3)
    trained, bus = vfl_train(roster, datasets, params, seed=11, key_bits=256)
    active = trained.active

    # one exchange per root and per sibling pair that needs histograms; the
    # exchanged child is the smaller one
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

    # every internal node of the last tree: what the active party holds is,
    # exactly, a direct aggregation of the node's sample space, decrypted,
    # and a direct build of its own features' histogram
    positions, _ = _route_training_rows(trained, trained.ensemble.trees[-1])
    internal = [n.node_id for n in trained.ensemble.trees[-1].nodes if not n.is_leaf]
    for node_id in internal:
        own = build_histogram(active.binned, active.g, active.h, positions[node_id],
                              params.max_bin)
        for a in ("g", "h", "counts"):
            np.testing.assert_array_equal(getattr(active.own_hists[node_id], a), getattr(own, a))
        ids = [int(active.dataset.sample_ids[p]) for p in positions[node_id]]
        for pid, passive in trained.passives.items():
            eg, eh, counts = passive.bin_aggregate(ids)
            bounds = [int(c) << GRAD_SCALE_BITS for c in counts.flat]
            held = active.passive_hists[node_id][pid]
            for cts, ints in ((eg, held.g), (eh, held.h)):
                direct = [decrypt(active.sk, active.pk, c, bound=b) for c, b in zip(cts, bounds)]
                assert ints.flatten().tolist() == direct
            np.testing.assert_array_equal(held.counts, counts)


class _FlipOneCiphertext(MessageBus):
    """Flips the low bit of one g ciphertext, in an empty or a nonempty
    bin, in the first ENC_HISTOGRAM_SUBMIT that has such a bin."""

    def __init__(self, empty_bin: bool):
        super().__init__()
        self.empty_bin = empty_bin
        self.tampered = None

    def send(self, sender, recipient, msg_type, round_id, payload):
        if msg_type == "ENC_HISTOGRAM_SUBMIT" and self.tampered is None:
            bins = [i for i, c in enumerate(payload["counts"]) if (c == 0) == self.empty_bin]
            if bins:
                enc_g = list(payload["enc_g"])
                enc_g[bins[0]] = format(int(enc_g[bins[0]], 16) ^ 1, "x")
                payload = {**payload, "enc_g": enc_g}
                self.tampered = (sender, payload["tree"], payload["node"])
        return super().send(sender, recipient, msg_type, round_id, payload)


@pytest.mark.parametrize("empty_bin", [False, True])
def test_a_flipped_histogram_ciphertext_is_detected(empty_bin):
    datasets, X, y = vertical_fixture(80, 2, 3, seed=19, n_passives=2)
    roster = make_vfl_roster("active", datasets)
    bus = _FlipOneCiphertext(empty_bin)
    with pytest.raises(ProtocolError) as raised:
        vfl_train(roster, datasets, small_params(), seed=11, bus=bus, key_bits=256)
    sender, tree, node = bus.tampered
    assert f"{sender}'s histogram for tree {tree}, node {node}" in str(raised.value)
    assert ("identity" in str(raised.value)) == empty_bin


def test_sibling_subtraction_rejects_impossible_children():
    datasets, _, _ = vertical_fixture(10, 1, 1, seed=20)
    active = ActiveParty("active", datasets["active"], small_params(), seed=1, key_bits=256)
    scale = 2**GRAD_SCALE_BITS

    def hist(g, h, counts):
        return GradHistogram(np.array([g], dtype=np.int64), np.array([h], dtype=np.int64),
                             np.array([counts], dtype=np.int64))

    parent = hist([3 * scale, -scale], [scale, scale // 4], [4, 1])
    sibling = active.sibling_histogram(parent, hist([scale, -scale], [0, scale // 4], [1, 1]),
                                       "p's histogram for tree 2, node 5")
    assert sibling.g.tolist() == [[2 * scale, 0]]
    assert sibling.counts.tolist() == [[3, 0]]
    for child in (hist([0, 0], [0, 0], [0, 2]),  # a negative count
                  hist([-scale, 0], [0, 0], [1, 0]),  # 4 * scale over 3 samples
                  hist([0, -1], [0, 0], [1, 1])):  # a nonzero sum over no samples
        with pytest.raises(ProtocolError, match="p's histogram for tree 2, node 5"):
            active.sibling_histogram(parent, child, "p's histogram for tree 2, node 5")


def test_histogram_decryption_rejects_counts_that_miss_the_sample_space():
    datasets, X, y = vertical_fixture(12, 1, 2, seed=22)
    params = small_params()
    active = ActiveParty("active", datasets["active"], params, seed=2, key_bits=256)
    passive = PassiveParty("passive0", datasets["passive0"], params.max_bin)
    passive.pk = active.pk
    active.g, active.h = map(quantize, logistic_gradients(y, np.zeros(12)))
    passive.receive_gradients(*active.encrypt_gradients(np.arange(12)))
    eg, eh, counts = passive.bin_aggregate([int(s) for s in datasets["passive0"].sample_ids])
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
