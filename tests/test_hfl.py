import copy
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedgbt.data import PartyDataset, join_datasets
from fedgbt.gbt import (
    GbtParams,
    GradHistogram,
    build_histogram,
    compute_binning,
    logistic_gradients,
    model_to_json,
    train_centralized,
)
from fedgbt.hfl import (
    SECAGG_MASK_ONLY,
    SECAGG_PAILLIER,
    IntHistogram,
    MaskedEncHistogram,
    ProtocolError,
    establish_global_binning,
    hfl_train,
    make_roster,
    mask_histogram,
    packed_layout,
    server_aggregate,
)
from fedgbt.paillier import Ciphertext, EncodingError, FixedPointCodec, decrypt, keygen
from fedgbt.scanner import SensitiveCorpus, scan_sensitive, scan_structure
from fedgbt.transport import MessageBus


def zero_histogram(n_features, n_bins):
    shape = (n_features, n_bins)
    return GradHistogram(np.zeros(shape), np.zeros(shape), np.zeros(shape, dtype=np.int64))


def make_party(X, y, party="p"):
    X = np.asarray(X, dtype=np.float64)
    return PartyDataset(
        party_id=party,
        sample_ids=np.arange(X.shape[0]),
        features=X,
        feature_names=tuple(f"f{i}" for i in range(X.shape[1])),
        labels=np.asarray(y),
    )


def random_split_parties(X, y, n_parties, seed):
    rng = np.random.default_rng(seed)
    order = rng.permutation(X.shape[0])
    chunks = np.array_split(order, n_parties)
    parties = {}
    offset = 0
    for i, chunk in enumerate(chunks):
        chunk = np.sort(chunk)
        ds = PartyDataset(
            party_id=f"c{i}",
            sample_ids=np.arange(offset, offset + len(chunk)),
            features=X[chunk],
            feature_names=tuple(f"f{j}" for j in range(X.shape[1])),
            labels=y[chunk],
        )
        offset += len(chunk)
        parties[f"c{i}"] = ds
    return parties


def synth_classification(n, F, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, F))
    w = rng.normal(size=F)
    logits = X @ w / math.sqrt(F) + 0.3 * rng.normal(size=n)
    y = (logits > np.median(logits) * 0.2).astype(int)
    if y.min() == y.max():
        y[: n // 3] = 1 - y[0]
    return X, y


# ---------------------------------------------------------------------------
# binning establishment


def test_global_binning_merges_ranges():
    a = make_party(np.array([[0.0], [4.0]]), [0, 1], "a")
    b = make_party(np.array([[2.0], [10.0]]), [0, 1], "b")
    binning = establish_global_binning([a, b], n_bins=2)
    np.testing.assert_allclose(binning.boundaries, [[5.0]])


def test_global_binning_single_client_matches_local():
    X = np.array([[0.0, 3.0], [1.0, -2.0], [2.5, 0.5]])
    a = make_party(X, [0, 1, 0], "a")
    fed = establish_global_binning([a], n_bins=4)
    local = compute_binning(X, 4)
    np.testing.assert_array_equal(fed.boundaries, local.boundaries)


def test_global_binning_schema_mismatch_aborts():
    a = make_party(np.zeros((2, 2)), [0, 1], "a")
    b = PartyDataset("b", np.arange(2), np.zeros((2, 2)), ("x", "y"), np.array([0, 1]))
    with pytest.raises(ProtocolError):
        establish_global_binning([a, b], n_bins=2)


# ---------------------------------------------------------------------------
# masking and aggregation


@pytest.fixture(scope="module")
def mask_fixture():
    roster = make_roster(["c0", "c1"], [4, 4], master_seed=5)
    pk, sk = keygen(key_bits=512, rng_seed=50)
    codec = FixedPointCodec()
    return roster, pk, sk, codec


def _hist_from_values(values):
    hist = zero_histogram(1, len(values))
    hist.g[0] = values
    hist.h[0] = np.abs(values) / 4
    hist.counts[0] = 1
    return hist


def test_masks_cancel_for_zero_histograms(mask_fixture):
    roster, pk, sk, codec = mask_fixture
    subs = {}
    for cid in roster.client_ids:
        hist = zero_histogram(2, 3)
        subs[cid] = mask_histogram(hist, cid, roster, "n0", 0, codec, pk, random.Random(1))
    total = server_aggregate(subs, roster, codec, pk, sk)
    assert all(v == 0 for v in total.g.flatten())
    assert all(v == 0 for v in total.h.flatten())


def test_masked_aggregate_recovers_signed_slot_totals(mask_fixture):
    roster, pk, sk, codec = mask_fixture
    h0 = _hist_from_values([0.25, 0.0])
    h1 = _hist_from_values([-0.75, 0.125])
    subs = {
        "c0": mask_histogram(h0, "c0", roster, "n1", 0, codec, pk, random.Random(2)),
        "c1": mask_histogram(h1, "c1", roster, "n1", 0, codec, pk, random.Random(3)),
    }
    total = server_aggregate(subs, roster, codec, pk, sk).decode(codec)
    assert total.g[0, 0] == pytest.approx(-0.5, abs=2 * 2**-40)
    assert total.g[0, 1] == pytest.approx(0.125, abs=2 * 2**-40)
    assert total.counts[0, 0] == 2


def test_single_submission_is_blinded(mask_fixture):
    roster, pk, sk, codec = mask_fixture
    values = np.linspace(-0.4, 0.4, 100)
    hist = zero_histogram(1, 100)
    hist.g[0] = values
    sub = mask_histogram(hist, "c0", roster, "n2", 0, codec, pk, random.Random(4))
    layout = packed_layout(roster, codec, pk.n)
    true_slots = [codec.quantize(float(v)) + layout.offset for v in values]
    packed = layout.pack([codec.quantize(float(v)) for v in values])
    assert len(sub.enc_g) == len(packed) == -(-100 // layout.slots)
    # decrypting a single client's plaintexts must NOT reveal its true values
    differing = 0
    for i, cipher in enumerate(sub.enc_g):
        plain = decrypt(sk, pk, cipher)
        assert plain != packed[i]
        for j, true in enumerate(true_slots[i * layout.slots:(i + 1) * layout.slots]):
            slot = (plain >> (layout.width * j)) & ((1 << layout.width) - 1)
            differing += slot != true
    assert differing >= 99


def test_mask_only_mode_roundtrip():
    roster = make_roster(["c0", "c1", "c2"], [2, 2, 2], master_seed=9, secagg_mode=SECAGG_MASK_ONLY)
    codec = FixedPointCodec()
    hists = {
        "c0": _hist_from_values([0.5, -0.25]),
        "c1": _hist_from_values([0.125, -0.125]),
        "c2": _hist_from_values([-1.0, 1.0]),
    }
    subs = {
        cid: mask_histogram(h, cid, roster, "r", 3, codec, None, None)
        for cid, h in hists.items()
    }
    total = server_aggregate(subs, roster, codec, None, None).decode(codec)
    assert total.g[0, 0] == pytest.approx(-0.375, abs=3 * 2**-40)
    assert total.g[0, 1] == pytest.approx(0.625, abs=3 * 2**-40)


def test_aggregate_order_invariant(mask_fixture):
    roster, pk, sk, codec = mask_fixture
    h0, h1 = _hist_from_values([0.3, -0.2]), _hist_from_values([0.1, 0.9])
    s0 = mask_histogram(h0, "c0", roster, "n3", 0, codec, pk, random.Random(5))
    s1 = mask_histogram(h1, "c1", roster, "n3", 0, codec, pk, random.Random(6))
    a = server_aggregate({"c0": s0, "c1": s1}, roster, codec, pk, sk)
    b = server_aggregate({"c1": s1, "c0": s0}, roster, codec, pk, sk)
    assert (a.g == b.g).all() and (a.h == b.h).all()


def test_aggregate_missing_client_aborts(mask_fixture):
    roster, pk, sk, codec = mask_fixture
    s0 = mask_histogram(_hist_from_values([0.1]), "c0", roster, "n4", 0, codec, pk, random.Random(7))
    with pytest.raises(ProtocolError, match="timeout"):
        server_aggregate({"c0": s0}, roster, codec, pk, sk)


# ---------------------------------------------------------------------------
# packed plaintexts (paillier+mask)


def test_packed_layout_at_hfl_paillier_shape():
    # 200 training rows over 3 clients under a 512-bit key
    roster = make_roster(["c0", "c1", "c2"], [67, 67, 66])
    layout = packed_layout(roster, FixedPointCodec(), (1 << 511) + 1)
    assert (layout.offset, layout.width, layout.slots) == (2**47, 50, 10)


@pytest.fixture(scope="module")
def key_256():
    return keygen(key_bits=256, rng_seed=60)


@settings(max_examples=25, deadline=None)
@given(n_clients=st.integers(2, 8), data=st.data())
def test_packed_totals_exact_at_layout_extremes(key_256, n_clients, data):
    pk, sk = key_256
    codec = FixedPointCodec()
    # the largest sample count for which one slot still fits the key
    top_bits = pk.n.bit_length() - 1 - codec.scale_bits - 1 - (n_clients - 1).bit_length()
    count_bits = data.draw(st.sampled_from([1, 24, top_bits]) | st.integers(1, top_bits))
    counts = [(1 << count_bits) - 1] * n_clients
    ids = [f"c{i}" for i in range(n_clients)]
    roster = make_roster(ids, counts, master_seed=count_bits)
    near_one = st.sampled_from([-0.999, 0.999]) | st.floats(-0.999, 0.999)
    expect_g, expect_h, subs = [0, 0, 0], [0, 0, 0], {}
    for cid, count in zip(ids, counts):
        hist = zero_histogram(1, 3)
        hist.g[0] = [count * data.draw(near_one) for _ in range(3)]
        hist.h[0] = [count * data.draw(st.floats(0.0, 0.25)) for _ in range(3)]
        expect_g = [e + codec.quantize(float(v)) for e, v in zip(expect_g, hist.g[0])]
        expect_h = [e + codec.quantize(float(v)) for e, v in zip(expect_h, hist.h[0])]
        subs[cid] = mask_histogram(hist, cid, roster, "x", 0, codec, pk, random.Random(cid))
    total = server_aggregate(subs, roster, codec, pk, sk)
    assert list(total.g[0]) == expect_g
    assert list(total.h[0]) == expect_h


def test_slot_value_reaching_the_offset_raises(mask_fixture):
    roster, pk, sk, codec = mask_fixture
    layout = packed_layout(roster, codec, pk.n)
    edge = layout.offset / codec.scale
    for value in (edge, -edge):
        with pytest.raises(EncodingError, match="offset"):
            mask_histogram(_hist_from_values([0.0, value]), "c0", roster, "n5", 0, codec, pk,
                           random.Random(8))
    assert len(layout.pack([layout.offset - 1, 1 - layout.offset])) == 1


def test_tampered_or_duplicated_submission_fails_the_high_bits_check(mask_fixture):
    roster, pk, sk, codec = mask_fixture
    s0 = mask_histogram(_hist_from_values([0.1, -0.2]), "c0", roster, "n6", 0, codec, pk,
                        random.Random(9))
    s1 = mask_histogram(_hist_from_values([0.3, 0.4]), "c1", roster, "n6", 0, codec, pk,
                        random.Random(10))
    twin = MaskedEncHistogram(**{**vars(s0), "client_id": "c1"})
    with pytest.raises(ProtocolError, match="bits above"):
        server_aggregate({"c0": s0, "c1": twin}, roster, codec, pk, sk)
    flipped = MaskedEncHistogram(**{**vars(s1), "enc_h": [Ciphertext(s1.enc_h[0].value ^ 4)]})
    with pytest.raises(ProtocolError, match="bits above"):
        server_aggregate({"c0": s0, "c1": flipped}, roster, codec, pk, sk)


@pytest.mark.parametrize("secagg, counts, key_bits, match", [
    (SECAGG_PAILLIER, [10, 10], 40, "fits no"),  # 46-bit slots under a 40-bit key
    (SECAGG_PAILLIER, [2**250, 1], 256, "fits no"),
    (SECAGG_MASK_ONLY, [2**22, 2**22], 512, "8388608 terms"),  # 2^23 samples wrap 2^64
])
def test_capacity_checks_abort_before_any_message(secagg, counts, key_bits, match):
    X, y = synth_classification(20, 2, seed=3)
    parties = random_split_parties(X, y, 2, seed=4)
    roster = make_roster(list(parties), counts, secagg_mode=secagg)
    bus = MessageBus()
    with pytest.raises(EncodingError, match=match):
        hfl_train(roster, parties, GbtParams(n_estimators=1), seed=0, bus=bus,
                  key_bits=key_bits)
    assert bus.transcript == []


def test_sibling_subtraction_on_integer_histograms():
    rng = np.random.default_rng(0)
    parent = IntHistogram.zeros(2, 4)
    child = IntHistogram.zeros(2, 4)
    for f in range(2):
        for b in range(4):
            c = int(rng.integers(0, 2**50))
            p = c + int(rng.integers(0, 2**50))
            parent.g[f, b], child.g[f, b] = p, c
            parent.h[f, b], child.h[f, b] = p + 1, c
            parent.counts[f, b], child.counts[f, b] = 5, 2
    sib = parent.subtract(child)
    assert (sib.g == parent.g - child.g).all()
    assert (sib.counts == 3).all()
    # child == parent -> zero histogram; empty child -> parent unchanged
    zero = parent.subtract(parent)
    assert all(v == 0 for v in zero.g.flatten()) and (zero.counts == 0).all()
    empty = IntHistogram.zeros(2, 4)
    same = parent.subtract(empty)
    assert (same.g == parent.g).all()
    with pytest.raises(ProtocolError):
        child.subtract(parent)


def test_sibling_subtraction_matches_direct_build():
    rng = np.random.default_rng(3)
    n, F, B = 10, 2, 4
    binned = rng.integers(0, B, size=(n, F))
    g = rng.integers(-2**20, 2**20, size=n) / 2**20
    h = rng.integers(1, 2**20, size=n) / 2**22
    subset = np.sort(rng.choice(n, size=4, replace=False))
    complement = np.setdiff1d(np.arange(n), subset)
    codec = FixedPointCodec()

    def fixed_point(rows):
        hist = build_histogram(binned, g, h, rows, B)
        ints = [np.array([codec.quantize(float(v)) for v in a.flat], dtype=object).reshape(F, B)
                for a in (hist.g, hist.h)]
        return IntHistogram(*ints, hist.counts)

    derived = fixed_point(np.arange(n)).subtract(fixed_point(subset))
    direct = fixed_point(complement)
    for name in ("g", "h", "counts"):
        assert (getattr(derived, name) == getattr(direct, name)).all()


# ---------------------------------------------------------------------------
# end-to-end training


def _equivalence_check(n, F, n_clients, seed, secagg, key_bits=512, params=None):
    X, y = synth_classification(n, F, seed)
    params = params or GbtParams(
        n_estimators=2, max_depth=3, max_bin=8, reg_lambda=1.0, learning_rate=0.3,
        min_child_weight=1.0,
    )
    parties = random_split_parties(X, y, n_clients, seed + 1)
    roster = make_roster(
        list(parties), [p.n_samples for p in parties.values()],
        master_seed=seed, secagg_mode=secagg,
    )
    model, bus = hfl_train(roster, parties, params, seed=seed, key_bits=key_bits)
    union = join_datasets(list(parties.values()), "union")
    binning = establish_global_binning(list(parties.values()), params.max_bin)
    central = train_centralized(union, params, seed=seed, binning=binning)
    assert len(model.trees) == len(central.trees)
    for ft, ct in zip(model.trees, central.trees):
        assert len(ft.nodes) == len(ct.nodes)
        for fn, cn in zip(ft.nodes, ct.nodes):
            assert fn.is_leaf == cn.is_leaf
            if fn.is_leaf:
                assert fn.weight == pytest.approx(cn.weight, abs=1e-6)
            else:
                assert (fn.feature, fn.bin_index) == (cn.feature, cn.bin_index)
                assert fn.threshold == pytest.approx(cn.threshold, abs=1e-12)
    return model, central, bus, parties, union


def test_federated_equals_centralized_mask_only():
    _equivalence_check(n=80, F=4, n_clients=3, seed=11, secagg=SECAGG_MASK_ONLY)


def test_federated_equals_centralized_paillier():
    _equivalence_check(n=50, F=3, n_clients=2, seed=23, secagg=SECAGG_PAILLIER)


@pytest.mark.parametrize("secagg", [SECAGG_MASK_ONLY, SECAGG_PAILLIER])
@pytest.mark.parametrize("change", [{"max_depth": 0}, {"min_child_weight": 1e6}])
def test_root_leaf_trees_equal_centralized(secagg, change):
    params = GbtParams(n_estimators=2, max_depth=3, max_bin=8, reg_lambda=1.0).replace(**change)
    model, central, bus, _, _ = _equivalence_check(n=40, F=3, n_clients=2, seed=29,
                                                   secagg=secagg, key_bits=256, params=params)
    assert [len(t.nodes) for t in model.trees] == [len(t.nodes) for t in central.trees] == [1, 1]
    # only the root histograms go up, and no client ever partitions
    assert sum(e.msg_type == "HISTOGRAM_SUBMIT" for e in bus.transcript) == 2 * 2
    assert not any(e.msg_type == "PARTITION_REPORT" for e in bus.transcript)


def test_single_client_roster_matches_centralized():
    X, y = synth_classification(40, 3, seed=2)
    party = make_party(X, y, "solo")
    roster = make_roster(["solo"], [40], master_seed=3, secagg_mode=SECAGG_MASK_ONLY)
    params = GbtParams(n_estimators=2, max_depth=2, max_bin=8, reg_lambda=1.0)
    model, _ = hfl_train(roster, {"solo": party}, params, seed=4)
    central = train_centralized(party, params, seed=4)
    for ft, ct in zip(model.trees, central.trees):
        for fn, cn in zip(ft.nodes, ct.nodes):
            assert fn.is_leaf == cn.is_leaf
            if fn.is_leaf:
                assert fn.weight == pytest.approx(cn.weight, abs=1e-6)


def test_swapping_party_data_leaves_model_unchanged():
    X, y = synth_classification(60, 3, seed=7)
    parties = random_split_parties(X, y, 2, seed=8)
    params = GbtParams(n_estimators=2, max_depth=2, max_bin=8, reg_lambda=1.0)
    roster = make_roster(["c0", "c1"], [parties["c0"].n_samples, parties["c1"].n_samples],
                         master_seed=5, secagg_mode=SECAGG_MASK_ONLY)
    m1, _ = hfl_train(roster, parties, params, seed=5)
    swapped_roster = make_roster(
        ["c0", "c1"], [parties["c1"].n_samples, parties["c0"].n_samples],
        master_seed=5, secagg_mode=SECAGG_MASK_ONLY,
    )
    swapped = {
        "c0": PartyDataset("c0", parties["c1"].sample_ids, parties["c1"].features,
                           parties["c1"].feature_names, parties["c1"].labels),
        "c1": PartyDataset("c1", parties["c0"].sample_ids, parties["c0"].features,
                           parties["c0"].feature_names, parties["c0"].labels),
    }
    m2, _ = hfl_train(swapped_roster, swapped, params, seed=5)
    assert model_to_json(m1) == model_to_json(m2)


def test_transcript_has_no_sensitive_values():
    model, central, bus, parties, union = _equivalence_check(
        n=40, F=3, n_clients=2, seed=31, secagg=SECAGG_PAILLIER,
    )
    assert scan_structure(bus.transcript).clean
    codec = FixedPointCodec()
    # true (unmasked) per-client slot sums must never appear on the wire;
    # tree-1 margins are continuous, so those sums are generic reals that
    # cannot collide with legitimate payload values (weights, thresholds)
    from fedgbt.gbt import predict_margin
    from fedgbt.paillier import hex_to_int, int_to_hex

    binning = establish_global_binning(list(parties.values()), 8)
    roster = make_roster(list(parties), [p.n_samples for p in parties.values()])
    key = next(e for e in bus.transcript if e.msg_type == "KEY_BROADCAST")
    layout = packed_layout(roster, codec, hex_to_int(key.payload["n"]))
    forbidden_hex = set()
    forbidden_floats = set()
    for party in parties.values():
        for n_trees in (0, 1):
            margins = predict_margin(model, party.features, n_trees=n_trees)
            g, h = logistic_gradients(party.labels, margins)
            hist = build_histogram(binning.bin_matrix(party.features), g, h,
                                   np.arange(party.n_samples), 8)
            for f in range(hist.n_features):
                for b in range(hist.n_bins):
                    if not hist.counts[f, b]:
                        continue
                    value = float(hist.g[f, b])
                    if value != round(value * 4) / 4:  # skip the ±0.25 grid of tree 0
                        forbidden_floats.add(value)
                    encoded = codec.encode(value, 2**64)
                    if encoded and len(int_to_hex(encoded)) >= 10:
                        forbidden_hex.add(int_to_hex(encoded))
            # the unmasked packed plaintexts this client would encrypt
            for values in (hist.g, hist.h):
                for plain in layout.pack([codec.quantize(float(v)) for v in values.flat]):
                    forbidden_hex.add(int_to_hex(plain))
    assert forbidden_floats, "corpus should contain generic per-client sums"
    corpus = SensitiveCorpus(
        label_vectors={p.party_id: p.labels.tolist() for p in parties.values()},
        feature_cells=set(map(float, union.features.flatten())),
        forbidden_hex=forbidden_hex,
        forbidden_floats=forbidden_floats,
    )
    report = scan_sensitive(bus.transcript, corpus)
    assert report.clean, report.findings


def test_subsample_below_one_still_trains():
    X, y = synth_classification(60, 3, seed=13)
    parties = random_split_parties(X, y, 2, seed=14)
    params = GbtParams(n_estimators=2, max_depth=2, max_bin=8, reg_lambda=1.0, subsample=0.7)
    roster = make_roster(list(parties), [p.n_samples for p in parties.values()],
                         master_seed=1, secagg_mode=SECAGG_MASK_ONLY)
    model, _ = hfl_train(roster, parties, params, seed=1)
    assert len(model.trees) == 2


def test_rerun_reproduces_transcript_and_model_hash():
    import hashlib

    X, y = synth_classification(40, 3, seed=40)
    parties = random_split_parties(X, y, 2, seed=41)
    params = GbtParams(n_estimators=2, max_depth=2, max_bin=8, reg_lambda=1.0)
    roster = make_roster(list(parties), [p.n_samples for p in parties.values()],
                         master_seed=6, secagg_mode=SECAGG_PAILLIER)
    m1, bus1 = hfl_train(roster, parties, params, seed=6, key_bits=256)
    m2, bus2 = hfl_train(roster, parties, params, seed=6, key_bits=256)
    assert [e.payload_bytes for e in bus1.transcript] == [
        e.payload_bytes for e in bus2.transcript
    ]
    h1 = hashlib.sha256(model_to_json(m1).encode()).hexdigest()
    h2 = hashlib.sha256(model_to_json(m2).encode()).hexdigest()
    assert h1 == h2


def test_hfl_missing_dataset_aborts():
    roster = make_roster(["c0", "c1"], [5, 5], secagg_mode=SECAGG_MASK_ONLY)
    X, y = synth_classification(10, 2, seed=1)
    with pytest.raises(ProtocolError):
        hfl_train(roster, {"c0": make_party(X, y, "c0")}, GbtParams(n_estimators=1), seed=0)


@pytest.mark.parametrize("secagg", [SECAGG_MASK_ONLY, SECAGG_PAILLIER])
def test_one_ratio_node_is_a_leaf_at_lambda_zero(secagg):
    # every sample has label 1 and the same margin, so all share one g/h
    # ratio and every partition gains exactly zero: only rounding noise
    # is left to choose from, and it must not pick a split
    X, _ = synth_classification(40, 3, seed=5)
    y = np.ones(40, dtype=int)
    params = GbtParams(n_estimators=1, max_depth=2, max_bin=8, reg_lambda=0.0,
                       min_child_weight=0.0, base_score_logit=0.3)
    parties = random_split_parties(X, y, 2, seed=6)
    roster = make_roster(list(parties), [p.n_samples for p in parties.values()],
                         secagg_mode=secagg)
    fed, _ = hfl_train(roster, parties, params, key_bits=256)
    binning = establish_global_binning(list(parties.values()), params.max_bin)
    pooled = train_centralized(join_datasets(list(parties.values()), "union"), params,
                               binning=binning)
    assert [len(t.nodes) for t in fed.trees] == [len(t.nodes) for t in pooled.trees] == [1]


class _TamperOnce(MessageBus):
    """Rewrites the first ``msg_type`` message that ``pick(recipient,
    payload)`` selects with ``change(payload)``, on a copy, and records the
    sender and the payload as sent."""

    def __init__(self, msg_type, pick, change):
        super().__init__()
        self.msg_type, self.pick, self.change = msg_type, pick, change
        self.tampered = None

    def send(self, sender, recipient, msg_type, round_id, payload):
        if self.tampered is None and msg_type == self.msg_type and self.pick(recipient, payload):
            payload = copy.deepcopy(payload)
            self.change(payload)
            self.tampered = (sender, payload)
        return super().send(sender, recipient, msg_type, round_id, payload)


def _train_with(bus):
    X, y = synth_classification(60, 3, seed=17)
    parties = random_split_parties(X, y, 2, seed=18)
    roster = make_roster(list(parties), [p.n_samples for p in parties.values()],
                         master_seed=2, secagg_mode=SECAGG_MASK_ONLY)
    params = GbtParams(n_estimators=2, max_depth=3, max_bin=8, reg_lambda=1.0)
    return hfl_train(roster, parties, params, seed=2, bus=bus)


def test_clients_partition_by_the_broadcast_they_receive():
    def move_first_split(payload):
        split = next(d for d in payload["decisions"] if d["action"] == "split")
        split["bin"] = 7  # every sample of this client goes left

    bus = _TamperOnce("SPLIT_BROADCAST",
                      lambda to, p: to == "c1" and any(d["action"] == "split"
                                                       for d in p["decisions"]),
                      move_first_split)
    with pytest.raises(ProtocolError, match="partition mismatch"):
        _train_with(bus)
    assert bus.tampered is not None


@pytest.mark.parametrize("field, value", [("tree", 1), ("node", 101)])
def test_a_submission_the_server_did_not_ask_for_is_rejected(field, value):
    # a child submission of tree 0 names another tree, or a node never requested
    bus = _TamperOnce("HISTOGRAM_SUBMIT", lambda to, p: p["tree"] == 0 and p["node"] != 0,
                      lambda p: p.update({field: value}))
    with pytest.raises(ProtocolError) as raised:
        _train_with(bus)
    sender, payload = bus.tampered
    assert (f"HISTOGRAM_SUBMIT from {sender} for tree {payload['tree']}, "
            f"node {payload['node']}") in str(raised.value)


def _reachable(obj, seen=None):
    """Every object reachable from obj through attributes and containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    yield obj
    if isinstance(obj, dict):
        children = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = list(obj)
    elif isinstance(obj, np.ndarray):
        children = obj.ravel().tolist()
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        children = list(vars(obj).values())
    else:
        children = []
    for child in children:
        yield from _reachable(child, seen)


@pytest.mark.parametrize("secagg", [SECAGG_PAILLIER, SECAGG_MASK_ONLY])
def test_server_holds_no_pairwise_mask_seed(monkeypatch, secagg):
    from fedgbt import hfl

    servers = []

    class Recording(hfl.HflServer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            servers.append(self)

    monkeypatch.setattr(hfl, "HflServer", Recording)
    X, y = synth_classification(30, 2, seed=8)
    parties = random_split_parties(X, y, 3, seed=9)
    roster = make_roster(list(parties), [p.n_samples for p in parties.values()],
                         master_seed=7, secagg_mode=secagg)
    hfl_train(roster, parties, GbtParams(n_estimators=1, max_depth=2, max_bin=4),
              seed=7, key_bits=256)
    (server,) = servers
    seeds = set(roster.pair_seeds.values())
    assert len(seeds) == 3
    reachable = list(_reachable(server))
    assert not any(isinstance(v, hfl.HflRoster) for v in reachable)
    assert not seeds & {v for v in reachable if isinstance(v, int)}
