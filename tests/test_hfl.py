import copy
import re
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedgbt.data import (
    PartyDataset,
    default_synth_config,
    join_datasets,
    split_train_valid_test,
    synth_generate,
)
from fedgbt.gbt import (
    GRAD_SCALE_BITS,
    INT64_MODULUS,
    GbtParams,
    GradHistogram,
    build_histogram,
    cell_ids,
    check_capacity,
    compute_binning,
    level_layouts,
    logistic_gradients,
    model_to_json,
    node_to_dict,
    quantize,
    train_centralized,
)
from fedgbt.hfl import (
    SECAGG_MASK_ONLY,
    SECAGG_PAILLIER,
    HflClient,
    ProtocolError,
    _add_pairwise_masks,
    establish_global_binning,
    hfl_train,
    level_streams,
    make_roster,
    mask_histogram,
    server_aggregate,
)
from fedgbt.paillier import EncodingError, PublicKey, decrypt, hex_to_int, keygen
from fedgbt.scanner import SensitiveCorpus, scan_sensitive, scan_structure
from fedgbt.seeding import derive_seed, derive_uniform_int, expand_mask_words, mask_word_bytes
from fedgbt.transport import MessageBus


def zero_histogram(n_features, n_bins):
    shape = (n_features, n_bins)
    return GradHistogram(*(np.zeros(shape, dtype=np.int64) for _ in range(3)))


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
    return roster, pk, sk


def _hist_from_values(values):
    hist = zero_histogram(1, len(values))
    hist.g[0] = quantize(values)
    hist.h[0] = quantize(np.abs(values) / 4)
    hist.counts[0] = 1
    return hist


def _mask(hists, cid, roster, seed, tree, depth, pk, rng, bits=None):
    """One client's level submission payload of ``hists`` (one or a list),
    as nodes 0, 1, ..., in the layouts of ``bits`` (the roster's root bits
    if None)."""
    hists = hists if isinstance(hists, list) else [hists]
    bits = roster.root_bits() if bits is None else bits
    return mask_histogram(hists, list(range(len(hists))), bits, cid, roster, seed, tree, depth,
                          pk, rng)


def _decoded(subs):
    """Submission payloads as the server reads them off the wire: the
    counts as one flat int64 array."""
    return {c: {**s, "counts": np.array(s["counts"], dtype=np.int64)} for c, s in subs.items()}


def _aggregate(subs, roster, pk, sk, bits=None, features=1):
    """The first node's global histogram of a level's submissions, for the
    tree and nodes the first of them names, at ``features`` rows a node."""
    bits = roster.root_bits() if bits is None else bits
    first = next(iter(subs.values()))
    shape = features, len(first["counts"]) // (len(first["nodes"]) * features)
    return server_aggregate(_decoded(subs), roster, first["tree"], first["nodes"], shape, bits,
                            pk, sk)[0]


def test_masks_cancel_for_zero_histograms(mask_fixture):
    roster, pk, sk = mask_fixture
    subs = {}
    for cid in roster.client_ids:
        hist = zero_histogram(2, 3)
        subs[cid] = _mask(hist, cid, roster, 5, 0, 0, pk, random.Random(1))
    total = _aggregate(subs, roster, pk, sk, features=2)
    assert all(v == 0 for v in total.g.flatten())
    assert all(v == 0 for v in total.h.flatten())


def test_masked_aggregate_recovers_signed_slot_totals(mask_fixture):
    roster, pk, sk = mask_fixture
    h0 = _hist_from_values([0.25, 0.0])
    h1 = _hist_from_values([-0.75, 0.125])
    subs = {
        "c0": _mask(h0, "c0", roster, 5, 1, 0, pk, random.Random(2)),
        "c1": _mask(h1, "c1", roster, 5, 1, 0, pk, random.Random(3)),
    }
    total = _aggregate(subs, roster, pk, sk)
    assert total.g.dtype == np.int64
    assert total.g[0, 0] == quantize(-0.5) and total.g[0, 0] / 2**GRAD_SCALE_BITS == -0.5
    assert total.g[0, 1] == quantize(0.125) and total.g[0, 1] / 2**GRAD_SCALE_BITS == 0.125
    assert total.counts[0, 0] == 2


def test_single_submission_is_blinded(mask_fixture):
    roster, pk, sk = mask_fixture
    values = np.linspace(-0.4, 0.4, 100)
    hist = zero_histogram(1, 100)
    hist.g[0] = quantize(values)
    sub = _mask(hist, "c0", roster, 5, 2, 0, pk, random.Random(4))
    layout, _ = level_layouts(roster.root_bits(), pk.n)
    true_slots = [v + layout.offset for v in hist.g[0].tolist()]
    packed = layout.pack(hist.g[0].tolist())
    assert len(sub["enc_g"]) == len(packed) == -(-100 // layout.slots)
    # decrypting a single client's plaintexts must NOT reveal its true values
    differing = 0
    for i, cipher in enumerate(sub["enc_g"]):
        plain = decrypt(sk, pk, cipher)
        assert plain != packed[i]
        for j, true in enumerate(true_slots[i * layout.slots:(i + 1) * layout.slots]):
            slot = (plain >> (layout.width * j)) & ((1 << layout.width) - 1)
            differing += slot != true
    assert differing >= 99


def test_mask_only_mode_roundtrip():
    roster = make_roster(["c0", "c1", "c2"], [2, 2, 2], master_seed=9, secagg_mode=SECAGG_MASK_ONLY)
    hists = {
        "c0": _hist_from_values([0.5, -0.25]),
        "c1": _hist_from_values([0.125, -0.125]),
        "c2": _hist_from_values([-1.0, 1.0]),
    }
    subs = {
        cid: _mask(h, cid, roster, 9, 0, 3, None, None)
        for cid, h in hists.items()
    }
    total = _aggregate(subs, roster, None, None)
    assert total.g[0].tolist() == quantize([-0.375, 0.625]).tolist()
    assert total.h[0].tolist() == quantize([0.40625, 0.34375]).tolist()


_PAIR_G = quantize(np.linspace(-0.9, 0.9, 48).reshape(2, 24))


def _mask_only_pair(change_c1):
    """Two 2x24 mask-only submissions for tree 4, node 0 at depth 3, c1's
    enc_g rewritten by ``change_c1``."""
    roster = make_roster(["c0", "c1"], [3, 3], master_seed=9, secagg_mode=SECAGG_MASK_ONLY)
    subs = {}
    for cid in roster.client_ids:
        hist = zero_histogram(2, 24)
        hist.g[:] = _PAIR_G
        subs[cid] = _mask(hist, cid, roster, 9, 4, 3, None, None)
    subs["c1"]["enc_g"] = change_c1(list(subs["c1"]["enc_g"]))
    return roster, subs


# 48 24-bit g slots: one g residue of the ring 2^(24 * 48 + 64)
@pytest.mark.parametrize("change, match", [
    (lambda v: v[:-1], "0 enc_g values, expected 1"),
    (lambda v: v + [0], "2 enc_g values, expected 1"),
    (lambda v: [v[0] + (1 << 1216), *v[1:]], r"enc_g residue outside \[0, 2\^1216\)"),
    (lambda v: [-1, *v[1:]], r"enc_g residue outside \[0, 2\^1216\)"),
], ids=["short", "extra", "above-the-ring", "negative"])
def test_mask_only_submission_values_are_checked(change, match):
    roster, subs = _mask_only_pair(lambda v: v)
    (g_layout, g_ring), _ = level_streams(roster.root_bits(), 48, None)
    assert (g_layout.width, g_layout.slots, g_ring) == (24, 48, 1 << 1216)
    assert [len(subs[c]["enc_g"]) for c in roster.client_ids] == [1, 1]
    assert _aggregate(subs, roster, None, None, features=2).g.tolist() == (2 * _PAIR_G).tolist()
    roster, subs = _mask_only_pair(change)
    with pytest.raises(ProtocolError, match=match) as raised:
        _aggregate(subs, roster, None, None, features=2)
    assert "HISTOGRAM_SUBMIT from c1 for tree 4, nodes [0]" in str(raised.value)


@settings(max_examples=25, deadline=None)
@given(n_clients=st.integers(2, 4), paillier=st.booleans(), data=st.data())
def test_mask_streams_cancel_and_change_with_every_label_part(mask_fixture, n_clients,
                                                              paillier, data):
    _, pk, sk = mask_fixture if paillier else (None, None, None)
    ids = [f"c{i}" for i in range(n_clients)]

    def roster(master_seed):
        return make_roster(ids, [50] * n_clients, master_seed=master_seed,
                           secagg_mode=SECAGG_PAILLIER if paillier else SECAGG_MASK_ONLY)

    bits = roster(0).root_bits()
    if paillier:  # a partly filled last residue
        slots = level_layouts(bits, pk.n)[0].slots
        n_values = data.draw(st.integers(1, 5 * slots).filter(lambda v: v % slots))
    else:
        n_values = data.draw(st.integers(1, 200))
    streams = level_streams(bits, n_values, pk)
    (layout, ring), (_, h_ring) = streams
    n = -(-n_values // layout.slots)
    # mask-only, one residue per stream, of a ring 64 bits wider than its packing
    assert n == 1 or paillier
    assert paillier or (ring, h_ring) == (1 << (layout.width * n_values + 64),
                                          1 << (streams[1][0].width * n_values + 64))
    depth = data.draw(st.integers(0, 62))
    # the clients' shares of each residue's mask sum to 0 mod the ring
    shares = [_add_pairwise_masks(roster(0), cid, ring, [0] * n, "s3:t1", depth, "g")
              for cid in ids]
    assert [sum(column) % ring for column in zip(*shares)] == [0] * n
    # each word has 128 bits more than the ring: 80 bytes for 512 bits
    size = mask_word_bytes(ring)
    assert size == (80 if paillier else (layout.width * n_values + 65 + 128 + 7) // 8)
    assert 8 * size - 8 < ring.bit_length() + 128 <= 8 * size
    words = expand_mask_words(ring, n, "packmask", 7, "s3:t1", depth, "g")
    assert len(words) == n * size
    assert [derive_uniform_int(ring, words, i, size) for i in range(n)] == [
        int.from_bytes(words[i * size:(i + 1) * size], "big") % ring for i in range(n)]

    # a zero histogram packs the same residues in every submission: the
    # offsets in g and zeros in h, so a residue minus its packing is its mask
    def masks(master_seed=0, seed=3, tree=1, level=depth, stream=0):
        sub = _mask(zero_histogram(1, n_values), "c0", roster(master_seed), seed, tree, level,
                    pk, random.Random(0))
        values = (sub["enc_g"], sub["enc_h"])[stream]
        values = [decrypt(sk, pk, v) for v in values] if paillier else values
        stream_layout, stream_ring = streams[stream]
        packed = stream_layout.pack(np.zeros(n_values, dtype=np.int64))
        return [(v - p) % stream_ring for v, p in zip(values, packed)]

    base = masks()
    for changed in ({"stream": 1}, {"level": depth + 1}, {"tree": 2}, {"seed": 4},
                    {"master_seed": 1}):
        assert all(a != b for a, b in zip(base, masks(**changed))), changed


def test_a_ciphertext_outside_n_squared_is_rejected(mask_fixture):
    # aggregate() would reduce c + n^2 to c without a word
    roster, pk, sk = mask_fixture
    subs = {cid: _mask(_hist_from_values([0.1, -0.2]), cid, roster, 5, 7, 2, pk,
                       random.Random(cid)) for cid in roster.client_ids}
    for change in (pk.n_squared, -subs["c1"]["enc_h"][0] - 1):
        tampered = {**subs, "c1": {**subs["c1"], "enc_h": [subs["c1"]["enc_h"][0] + change]}}
        with pytest.raises(ProtocolError, match=r"HISTOGRAM_SUBMIT from c1 for tree 7, "
                                                r"nodes \[0\]: an enc_h ciphertext outside "
                                                r"\[0, n\^2\)"):
            _aggregate(tampered, roster, pk, sk)
    assert (_aggregate(subs, roster, pk, sk).g[0] == 2 * quantize([0.1, -0.2])).all()


def test_aggregate_order_invariant(mask_fixture):
    roster, pk, sk = mask_fixture
    h0, h1 = _hist_from_values([0.3, -0.2]), _hist_from_values([0.1, 0.9])
    s0 = _mask(h0, "c0", roster, 5, 3, 0, pk, random.Random(5))
    s1 = _mask(h1, "c1", roster, 5, 3, 0, pk, random.Random(6))
    a = _aggregate({"c0": s0, "c1": s1}, roster, pk, sk)
    b = _aggregate({"c1": s1, "c0": s0}, roster, pk, sk)
    assert (a.g == b.g).all() and (a.h == b.h).all()


def test_aggregate_missing_client_aborts(mask_fixture):
    roster, pk, sk = mask_fixture
    s0 = _mask(_hist_from_values([0.1]), "c0", roster, 5, 4, 0, pk, random.Random(7))
    with pytest.raises(ProtocolError, match="timeout"):
        _aggregate({"c0": s0}, roster, pk, sk)


def test_a_submission_from_outside_the_roster_is_rejected(mask_fixture):
    roster, pk, sk = mask_fixture
    subs = {cid: _mask(_hist_from_values([0.1]), cid, roster, 5, 4, 0, pk, random.Random(7))
            for cid in roster.client_ids}
    with pytest.raises(ProtocolError, match=r"^HISTOGRAM_SUBMIT from c9 for tree 4, nodes \[0\]: "
                                            r"the server asked each client once for tree 4, "
                                            r"nodes \[0\]$"):
        _aggregate({**subs, "c9": subs["c0"]}, roster, pk, sk)


# ---------------------------------------------------------------------------
# packed residues


def test_packed_layout_at_hfl_paillier_shape():
    # 200 training rows over 3 clients under a 512-bit key: the root's counts
    # take 8 bits, so g slots of S + 9 bits at an offset of 2^(S + 8) and h
    # slots of S + 6 bits with none, however many clients there are
    roster = make_roster(["c0", "c1", "c2"], [67, 67, 66])
    g, h = level_layouts(roster.root_bits(), (1 << 511) + 1)
    assert roster.root_bits() == 8
    assert (g.offset, g.width, g.slots) == (2 ** (GRAD_SCALE_BITS + 8), GRAD_SCALE_BITS + 9,
                                            511 // (GRAD_SCALE_BITS + 9))
    assert (g.offset, g.width, g.slots) == (2**28, 29, 17)
    assert (h.offset, h.width, h.slots) == (0, 26, 19)
    # a child of 100 samples takes 7 bits: one bit less in both streams
    g, h = level_layouts(100 .bit_length(), (1 << 511) + 1)
    assert (g.offset, g.width, g.slots, h.width, h.slots) == (2**27, 28, 18, 25, 20)
    # hfl-mask-paper's two districts, 57 and 170 samples, mask-only: a
    # 32 x 32 root packs its 1,024 g slots of 29 bits into one residue of
    # 2^(29 * 1024 + 64), and its h slots of 26 bits into one of 2^(26 * 1024 + 64)
    roster = make_roster(["a", "b"], [57, 170], secagg_mode=SECAGG_MASK_ONLY)
    (g, g_ring), (h, h_ring) = level_streams(roster.root_bits(), 32 * 32, None)
    assert (g.offset, g.width, g.slots, h.offset, h.width, h.slots) == (
        2**28, 29, 1024, 0, 26, 1024)
    assert (g_ring, h_ring) == (1 << 29760, 1 << 26688)
    assert (len(g.pack([0] * 32 * 32)), len(h.pack([0] * 32 * 32))) == (1, 1)


def _hfl_paillier_shape_run():
    # fold 0 of 250 rows of 16 Gaussian features, split over 3 clients; 2
    # trees of depth 3 over 8 bins under a 512-bit key
    rng = np.random.default_rng(0)
    X = rng.normal(size=(250, 16))
    w = rng.normal(size=16)
    y = (X @ w / 4 + 0.3 * rng.normal(size=250) > 0).astype(int)
    joined = make_party(X, y)
    train = joined.subset(split_train_valid_test(joined, k=5, seed=0).folds[0].full_train_idx)
    chunks = np.array_split(np.random.default_rng([0, 1]).permutation(train.n_samples), 3)
    parties = {f"c{i}": make_party(train.features[np.sort(c)], train.labels[np.sort(c)],
                                   f"c{i}") for i, c in enumerate(chunks)}
    roster = make_roster(list(parties), [p.n_samples for p in parties.values()], master_seed=0)
    params = GbtParams(n_estimators=2, max_depth=3, max_bin=8, reg_lambda=1.0)
    return roster, hfl_train(roster, parties, params, seed=0, key_bits=512)[1]


def _level_bits(roster, transcript):
    """The bits of each client's level submission, by (sender, tree, nodes):
    the roster's at the root, else the last ``SPLIT_BROADCAST`` to it."""
    bits, last = {}, {}
    for env in transcript:
        if env.msg_type == "SPLIT_BROADCAST":
            last[env.recipient] = env.payload["bits"]
        elif env.msg_type == "HISTOGRAM_SUBMIT":
            nodes = env.payload["nodes"]
            bits[env.sender, env.payload["tree"], tuple(nodes)] = (
                roster.root_bits() if nodes == [0] else last[env.sender])
    return bits


def _assert_level_residues(roster, transcript, pk, n_slots):
    """Every submission packs its ``n_slots`` per node back to back in the
    streams of its level's bits, each value below its bound (``n^2`` under
    Paillier, else its stream's ring); returns the submissions."""
    submits = [e for e in transcript if e.msg_type == "HISTOGRAM_SUBMIT"]
    bits = _level_bits(roster, transcript)
    for e in submits:
        n = len(e.payload["nodes"]) * n_slots
        streams = level_streams(bits[e.sender, e.payload["tree"], tuple(e.payload["nodes"])],
                                n, pk)
        for name, (layout, ring) in zip(("enc_g", "enc_h"), streams):
            values = list(map(hex_to_int, e.payload[name]))
            assert len(values) == -(-n // layout.slots)
            assert all(0 <= v < (pk.n_squared if pk else ring) for v in values)
    return [e.payload for e in submits]


def test_hfl_paillier_shape_encrypts_348_plaintexts():
    # each client sends one submission per level that builds a histogram:
    # the root and the children of depths 1 and 2, in each of 2 trees.  At
    # the root, 200 rows' 128 slots pack 17 g and 19 h to a plaintext: 8 + 7
    # encryptions, where one roster-wide layout took 8 + 8
    roster, bus = _hfl_paillier_shape_run()
    key = next(e for e in bus.transcript if e.msg_type == "KEY_BROADCAST")
    n = hex_to_int(key.payload["n"])
    submits = _assert_level_residues(roster, bus.transcript, PublicKey(n, n + 1), 16 * 8)
    assert len(submits) == 3 * 6
    assert [(len(p["enc_g"]), len(p["enc_h"])) for p in submits if p["nodes"] == [0]] == [
        (8, 7)] * 6
    assert sum(len(p["enc_g"]) + len(p["enc_h"]) for p in submits) == 348


@pytest.fixture(scope="module")
def mask_paper_run():
    # fold 0 of the seed-0 districts (57 and 170 training rows of 32
    # features) at the paper's 20 trees of depth 5 over 32 bins, mask-only
    districts = synth_generate(default_synth_config(0))
    joined = join_datasets(list(districts), "joined")
    train = joined.subset(split_train_valid_test(joined, k=5, seed=0).folds[0].full_train_idx)
    parties = {d.party_id: train.subset(np.flatnonzero(np.isin(train.sample_ids, d.sample_ids)),
                                        d.party_id) for d in districts}
    roster = make_roster(list(parties), [p.n_samples for p in parties.values()],
                         master_seed=0, secagg_mode=SECAGG_MASK_ONLY)
    params = GbtParams(n_estimators=20, max_depth=5, max_bin=32, learning_rate=0.3,
                       reg_lambda=0.0, min_child_weight=1.0)
    model, bus = hfl_train(roster, parties, params, seed=0)
    return roster, parties, params, model, bus


def test_hfl_mask_paper_shape_submits_400_residues(mask_paper_run):
    # 100 level submissions per client, each of the level's 1,024-slot nodes
    # back to back in one g and one h residue: 400 residues where 2^1024
    # residues took 17,430 and one submission per node 20,832
    roster, parties, params, model, bus = mask_paper_run
    assert [p.n_samples for p in parties.values()] == [57, 170]
    assert {p.n_features for p in parties.values()} == {32}
    submits = _assert_level_residues(roster, bus.transcript, None, 32 * 32)
    assert len(submits) == 200
    assert sum(len(p["enc_g"]) + len(p["enc_h"]) for p in submits) == 400
    binning = establish_global_binning(list(parties.values()), params.max_bin)
    _assert_same_trees(model, train_centralized(join_datasets(list(parties.values()), "union"),
                                                params, seed=0, binning=binning))


def test_each_levels_bits_are_those_of_its_largest_built_child(mask_paper_run):
    roster, _, _, _, bus = mask_paper_run
    sizes = {}  # (tree, child) -> global count, from the clients' partition reports
    for env in bus.transcript:
        if env.msg_type == "PARTITION_REPORT":
            for c in env.payload["counts"]:
                for side in ("left", "right"):
                    key = env.payload["tree"], c["node"], side
                    sizes[key] = sizes.get(key, 0) + c[side]
    levels = 0
    for env in bus.transcript:
        if env.msg_type == "SPLIT_BROADCAST":
            tree, built = env.payload["tree"], [0]
            for d in env.payload["decisions"]:
                if not d["leaf"] and d["submit"] is not None:
                    built.append(sizes[tree, d["id"], "left" if d["submit"] == d["left"]
                                       else "right"])
            assert env.payload["bits"] == max(built).bit_length()
            levels += len(built) > 1
    # every submission below the roots of 20 trees, from each of 2 clients
    assert levels == 200 - 2 * 20


@pytest.fixture(scope="module")
def key_256():
    return keygen(key_bits=256, rng_seed=60)


def _client_shares(total, n_clients):
    return [total // n_clients + (i < total % n_clients) for i in range(n_clients)]


@settings(max_examples=25, deadline=None)
@given(n_clients=st.integers(1, 8), mode=st.sampled_from([SECAGG_PAILLIER, SECAGG_MASK_ONLY]),
       tight_key=st.booleans(), data=st.data())
def test_packed_totals_exact_at_layout_extremes(key_256, n_clients, mode, tight_key, data):
    # a level whose nodes hold fewer than 2^bits samples, up to the most the
    # int64 capacity check admits, split among the clients
    top_bits = 63 - GRAD_SCALE_BITS
    bits = data.draw(st.sampled_from([1, 12, top_bits]) | st.integers(1, top_bits))
    total = data.draw(st.sampled_from([(1 << bits) - 1])
                      | st.integers(1 << (bits - 1), (1 << bits) - 1))
    ids = [f"c{i}" for i in range(n_clients)]
    roster = make_roster(ids, [1] * n_clients, master_seed=bits, secagg_mode=mode)
    pk, sk = key_256 if mode == SECAGG_PAILLIER else (None, None)
    if tight_key and pk is not None:
        # the smallest key that fits one g slot: each g plaintext fills it
        width = level_layouts(bits, 1 << 1023)[0].width
        pk, sk = keygen(key_bits=width + 2, rng_seed=width)
        assert level_layouts(bits, pk.n)[0].slots == 1
    # two nodes of one feature: under Paillier, as many bins as pack in one
    # h residue below n and more than half as many, so streams of two or
    # more residues, the last of them partly filled unless the slots are
    # few; mask-only, up to 64 bins, one residue per stream
    if pk:
        h_slots = level_layouts(bits, pk.n)[1].slots
        B = data.draw(st.integers(h_slots // 2 + 1, h_slots))
    else:
        B = data.draw(st.integers(1, 64))
    expect_g, expect_h, subs = [0] * 2 * B, [0] * 2 * B, {}
    for cid, count in zip(ids, _client_shares(total, n_clients)):
        # a client's slot sums count quantized |g| <= 2^S and h <= 2^(S-2)
        top_g, top_h = count << GRAD_SCALE_BITS, count << (GRAD_SCALE_BITS - 2)
        g, h = (data.draw(st.lists(st.sampled_from([lo, hi]) | st.integers(lo, hi),
                                   min_size=2 * B, max_size=2 * B))
                for lo, hi in ((-top_g, top_g), (0, top_h)))
        expect_g = [e + v for e, v in zip(expect_g, g)]
        expect_h = [e + v for e, v in zip(expect_h, h)]
        hists = [zero_histogram(1, B), zero_histogram(1, B)]
        for k, hist in enumerate(hists):
            hist.g[0], hist.h[0] = g[k * B:(k + 1) * B], h[k * B:(k + 1) * B]
        subs[cid] = _mask(hists, cid, roster, 0, 0, 0, pk, random.Random(cid), bits=bits)
    totals = server_aggregate(_decoded(subs), roster, 0, [0, 1], (1, B), bits, pk, sk)
    assert [v for t in totals for v in t.g[0].tolist()] == expect_g
    assert [v for t in totals for v in t.h[0].tolist()] == expect_h


@settings(max_examples=25, deadline=None)
@given(n_clients=st.integers(1, 8), data=st.data())
def test_mask_only_totals_exact_at_int64_extremes(n_clients, data):
    # a root of the most samples the int64 capacity check admits, split
    # among the clients: 43-bit counts, so 64-bit g slots at an offset of
    # 2^63 and 61-bit h slots
    total = (1 << (63 - GRAD_SCALE_BITS)) - 1
    check_capacity(INT64_MODULUS, total)
    ids = [f"c{i}" for i in range(n_clients)]
    counts = _client_shares(total, n_clients)
    roster = make_roster(ids, counts, master_seed=n_clients, secagg_mode=SECAGG_MASK_ONLY)
    # up to 48 slots per stream, each stream one residue
    F = data.draw(st.integers(1, 3))
    B = data.draw(st.sampled_from([15, 16]) | st.integers(1, 16))
    (g_layout, g_ring), (h_layout, h_ring) = level_streams(roster.root_bits(), F * B, None)
    assert (g_layout.offset, g_layout.width, g_layout.slots) == (1 << 63, 64, F * B)
    assert (h_layout.offset, h_layout.width, h_layout.slots) == (0, 61, F * B)
    assert (g_ring, h_ring) == (1 << (64 * F * B + 64), 1 << (61 * F * B + 64))
    expect_g, expect_h, subs = np.zeros((F, B), dtype=object), np.zeros((F, B), dtype=object), {}
    for cid, count in zip(ids, counts):
        top_g, top_h = count << GRAD_SCALE_BITS, count << (GRAD_SCALE_BITS - 2)
        hist = zero_histogram(F, B)
        hist.g[:], hist.h[:] = (
            np.array(data.draw(st.lists(st.sampled_from([lo, hi]) | st.integers(lo, hi),
                                        min_size=F * B, max_size=F * B))).reshape(F, B)
            for lo, hi in ((-top_g, top_g), (0, top_h)))
        expect_g, expect_h = expect_g + hist.g.astype(object), expect_h + hist.h.astype(object)
        subs[cid] = _mask(hist, cid, roster, 0, 0, 0, None, None)
    total = _aggregate(subs, roster, None, None, features=F)
    assert total.g.tolist() == expect_g.tolist()
    assert total.h.tolist() == expect_h.tolist()


# (bits, ring) of hfl-paillier's root, the same root below 2^1024 (35 g
# slots per residue), a 3-bit level, a 1-bit one, and the widest layouts the int64 capacity check admits: 43-bit
# counts, so a g slot at an offset of 2^63 reaches 2^64 - 1
_LAYOUT_SHAPES = [(8, (1 << 511) + 1), (8, 1 << 1024), (3, 1 << 200), (1, 1 << 200),
                  (63 - GRAD_SCALE_BITS, 1 << 1023)]


@settings(max_examples=25, deadline=None)
@given(shape=st.sampled_from(_LAYOUT_SHAPES), stream=st.sampled_from([0, 1]), data=st.data())
def test_pack_lays_out_the_slot_formula(shape, stream, data):
    layout = level_layouts(*shape)[stream]
    # g values lie strictly within the offset, h values in [0, 2^width)
    lo, hi = min(0, 1 - layout.offset), (1 << layout.width) - layout.offset - 1
    values = data.draw(st.lists(st.sampled_from([lo, hi, 0]) | st.integers(lo, hi),
                                min_size=1, max_size=4 * layout.slots + 1))
    values[0] = data.draw(st.sampled_from([lo, hi]))
    expect = [sum((v + layout.offset) << (layout.width * j)
                  for j, v in enumerate(values[k:k + layout.slots]))
              for k in range(0, len(values), layout.slots)]
    assert layout.pack(np.array(values, dtype=np.int64)) == expect
    assert layout.pack(values) == expect
    unpacked = layout.unpack(expect, len(values))
    assert unpacked.dtype == np.int64 and unpacked.tolist() == values
    # one past either end, where int64 holds it: -2^63 itself at the widest
    for edge in (lo - 1, hi + 1):
        if -(1 << 63) <= edge < 1 << 63:
            with pytest.raises(EncodingError, match=f"slot value {edge} does not fit"):
                layout.pack(values + [edge])


def _unpack_per_slot(layout, totals, n_values):
    """Slot by slot, in Python integers: what ``PackedLayout.unpack`` reads
    in numpy."""
    mask = (1 << layout.width) - 1
    out = []
    for i, total in enumerate(totals):
        used = min(layout.slots, n_values - i * layout.slots)
        if total >> (layout.width * used):
            raise ProtocolError(f"packed aggregate {i} has bits above its {used} slots: "
                                "a submission was tampered with or counted twice")
        out += [((total >> (layout.width * j)) & mask) - layout.offset for j in range(used)]
    return out


# every level layout above, the widest included
_UNPACK_LAYOUTS = [level_layouts(*shape)[stream] for shape in _LAYOUT_SHAPES for stream in (0, 1)]


@settings(max_examples=40, deadline=None)
@given(layout=st.sampled_from(_UNPACK_LAYOUTS), data=st.data())
def test_unpack_equals_the_per_slot_loop(layout, data):
    # any slot contents, not only sums of in-range packings: a level
    # layout's slot minus its offset always lies in int64
    n_values = data.draw(st.integers(0, 3 * layout.slots + 1))
    used = [min(layout.slots, n_values - k) for k in range(0, n_values, layout.slots)]
    slot = st.sampled_from([0, (1 << layout.width) - 1]) | st.integers(0, (1 << layout.width) - 1)
    totals = [sum(data.draw(slot) << (layout.width * j) for j in range(u)) for u in used]
    expect = _unpack_per_slot(layout, totals, n_values)
    assert all(-(1 << 63) <= v < 1 << 63 for v in expect)
    unpacked = layout.unpack(totals, n_values)
    assert unpacked.dtype == np.int64 and unpacked.tolist() == expect
    if totals:
        i = data.draw(st.integers(0, len(totals) - 1))
        totals[i] |= 1 << (layout.width * used[i] + data.draw(st.integers(0, 8)))
        with pytest.raises(ProtocolError) as raised:
            _unpack_per_slot(layout, totals, n_values)
        with pytest.raises(ProtocolError, match=re.escape(str(raised.value))):
            layout.unpack(totals, n_values)


def test_slot_value_reaching_the_offset_raises(mask_fixture):
    roster, pk, sk = mask_fixture
    layout, h_layout = level_layouts(roster.root_bits(), pk.n)
    edge = layout.offset / 2**GRAD_SCALE_BITS
    for value in (edge, -edge):
        with pytest.raises(EncodingError, match="offset"):
            _mask(_hist_from_values([0.0, value]), "c0", roster, 5, 5, 0, pk, random.Random(8))
    assert len(layout.pack([layout.offset - 1, 1 - layout.offset])) == 1
    # an h slot holds [0, 2^width), with no offset
    assert len(h_layout.pack([0, (1 << h_layout.width) - 1])) == 1
    for value in (-1, 1 << h_layout.width):
        with pytest.raises(EncodingError, match=f"slot value {value} does not fit"):
            h_layout.pack([value])


def test_tampered_or_duplicated_submission_fails_the_high_bits_check(mask_fixture):
    # any flipped ciphertext bit scrambles its plaintext; a mask-only residue
    # shows a flip only above its slots (one below them is a wrong bin sum),
    # in the 64 spare bits of its ring: 2 h slots of 22 bits, so bits 44 to
    # 107; a duplicate shows under every roster seed
    cases = [(*mask_fixture, [4])]
    for master_seed in range(10):
        mask_only = make_roster(["c0", "c1"], [4, 4], master_seed=master_seed,
                                secagg_mode=SECAGG_MASK_ONLY)
        cases.append((mask_only, None, None, [1 << 44, 1 << 107]))
    _, (h_layout, h_ring) = level_streams(cases[-1][0].root_bits(), 2, None)
    assert (h_layout.width, h_ring) == (22, 1 << 108)
    for roster, pk, sk, flips in cases:
        s0 = _mask(_hist_from_values([0.1, -0.2]), "c0", roster, 5, 6, 0, pk, random.Random(9))
        s1 = _mask(_hist_from_values([0.3, 0.4]), "c1", roster, 5, 6, 0, pk, random.Random(10))
        with pytest.raises(ProtocolError, match="bits above"):
            _aggregate({"c0": s0, "c1": s0}, roster, pk, sk)  # c0's submission sent twice
        for flip in flips:
            flipped = {**s1, "enc_h": [s1["enc_h"][0] ^ flip]}
            with pytest.raises(ProtocolError, match="bits above"):
                _aggregate({"c0": s0, "c1": flipped}, roster, pk, sk)


@pytest.mark.parametrize("secagg, counts, key_bits, match", [
    # (S + 6)-bit slots; an (S + 6)-bit key holds at most S + 5 bits below n
    (SECAGG_PAILLIER, [10, 10], GRAD_SCALE_BITS + 6, "fits no"),
    (SECAGG_PAILLIER, [2**250, 1], 256, "fits no"),
    # 2^(63 - S) samples wrap 2^64
    (SECAGG_MASK_ONLY, [2 ** (62 - GRAD_SCALE_BITS)] * 2, 512,
     f"{2 ** (63 - GRAD_SCALE_BITS)} terms"),
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
    parent = zero_histogram(2, 4)
    child = zero_histogram(2, 4)
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
    empty = zero_histogram(2, 4)
    same = parent.subtract(empty)
    assert (same.g == parent.g).all()
    # the arithmetic shows an impossible child as negative counts, which
    # the server rejects (test_a_child_with_impossible_counts_is_rejected)
    assert (child.subtract(parent).counts == -3).all()


def test_sibling_subtraction_matches_direct_build():
    rng = np.random.default_rng(3)
    n, F, B = 10, 2, 4
    binned = rng.integers(0, B, size=(n, F))
    # arbitrary reals: quantized once per sample, the sums are exact
    g, h = quantize(rng.normal(size=n)), quantize(rng.uniform(0, 0.25, size=n))
    subset = np.sort(rng.choice(n, size=4, replace=False))
    complement = np.setdiff1d(np.arange(n), subset)
    whole, built, direct = build_histogram(cell_ids(np.ascontiguousarray(binned.T), B), g, h,
                                           [np.arange(n), subset, complement], B)
    derived = whole.subtract(built)
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
    _assert_same_trees(model, central)
    return model, central, bus, parties, union


def _assert_same_trees(model, central):
    """The same splits node for node, and equal leaf weights."""
    assert len(model.trees) == len(central.trees)
    for ft, ct in zip(model.trees, central.trees):
        assert len(ft.nodes) == len(ct.nodes)
        for fn, cn in zip(ft.nodes, ct.nodes):
            assert fn.is_leaf == cn.is_leaf
            if fn.is_leaf:
                assert fn.weight == cn.weight
            else:
                assert (fn.feature, fn.bin_index) == (cn.feature, cn.bin_index)
                assert fn.threshold == cn.threshold


def test_federated_equals_centralized_mask_only():
    _equivalence_check(n=80, F=4, n_clients=3, seed=11, secagg=SECAGG_MASK_ONLY)


def test_federated_equals_centralized_paillier():
    _equivalence_check(n=50, F=3, n_clients=2, seed=23, secagg=SECAGG_PAILLIER)


@pytest.mark.parametrize("secagg", [SECAGG_MASK_ONLY, SECAGG_PAILLIER])
@pytest.mark.parametrize("change", [{"max_depth": 0}, {"min_child_weight": 1e6}])
def test_root_leaf_trees_equal_centralized(secagg, change):
    params = replace(GbtParams(n_estimators=2, max_depth=3, max_bin=8, reg_lambda=1.0), **change)
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
                assert fn.weight == cn.weight


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
    # true (unmasked) per-client slot sums must never appear on the wire;
    # tree-1 margins are continuous, so those sums are generic reals that
    # cannot collide with legitimate payload values (weights, thresholds)
    from fedgbt.gbt import predict_margin
    from fedgbt.paillier import int_to_hex

    binning = establish_global_binning(list(parties.values()), 8)
    roster = make_roster(list(parties), [p.n_samples for p in parties.values()])
    key = next(e for e in bus.transcript if e.msg_type == "KEY_BROADCAST")
    layouts = level_layouts(roster.root_bits(), hex_to_int(key.payload["n"]))
    forbidden_hex = set()
    forbidden_floats = set()
    for party in parties.values():
        for n_trees in (0, 1):
            margins = predict_margin(model, party.features, n_trees=n_trees)
            g, h = map(quantize, logistic_gradients(party.labels, margins))
            (hist,) = build_histogram(cell_ids(binning.bin_columns(party.features), 8), g, h,
                                      [np.arange(party.n_samples)], 8)
            for f in range(hist.g.shape[0]):
                for b in range(hist.g.shape[1]):
                    if not hist.counts[f, b]:
                        continue
                    value = int(hist.g[f, b]) / 2**GRAD_SCALE_BITS
                    if value != round(value * 4) / 4:  # skip the ±0.25 grid of tree 0
                        forbidden_floats.add(value)
                    residue = int(hist.g[f, b]) % 2**64
                    if residue and len(int_to_hex(residue)) >= 10:
                        forbidden_hex.add(int_to_hex(residue))
            # the unmasked packed plaintexts this client would encrypt
            for values, layout in zip((hist.g, hist.h), layouts):
                for plain in layout.pack(values.ravel().tolist()):
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


@pytest.mark.parametrize("secagg", [SECAGG_PAILLIER, SECAGG_MASK_ONLY])
def test_rerun_reproduces_transcript_and_model_hash(secagg):
    import hashlib

    X, y = synth_classification(40, 3, seed=40)
    parties = random_split_parties(X, y, 2, seed=41)
    params = GbtParams(n_estimators=2, max_depth=2, max_bin=8, reg_lambda=1.0)
    roster = make_roster(list(parties), [p.n_samples for p in parties.values()],
                         master_seed=6, secagg_mode=secagg)
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


def _tamper_roster():
    X, y = synth_classification(60, 3, seed=17)
    parties = random_split_parties(X, y, 2, seed=18)
    roster = make_roster(list(parties), [p.n_samples for p in parties.values()],
                         master_seed=2, secagg_mode=SECAGG_MASK_ONLY)
    return roster, parties


def _train_with(bus):
    roster, parties = _tamper_roster()
    params = GbtParams(n_estimators=2, max_depth=3, max_bin=8, reg_lambda=1.0)
    return hfl_train(roster, parties, params, seed=2, bus=bus)


def test_clients_partition_by_the_broadcast_they_receive():
    def move_first_split(payload):
        split = next(d for d in payload["decisions"] if not d["leaf"])
        split["bin"] = 7  # every sample of this client goes left

    bus = _TamperOnce("SPLIT_BROADCAST",
                      lambda to, p: to == "c1" and any(not d["leaf"]
                                                       for d in p["decisions"]),
                      move_first_split)
    with pytest.raises(ProtocolError, match="partition mismatch"):
        _train_with(bus)
    assert bus.tampered is not None


def _first_child_submission(to, payload):
    return payload["tree"] == 0 and payload["nodes"] != [0]


def _first_level_of_two(to, payload):
    return len(payload["nodes"]) >= 2


def _wide_parties():
    X, y = synth_classification(200, 4, seed=17)
    parties = random_split_parties(X, y, 2, seed=18)
    roster = make_roster(list(parties), [p.n_samples for p in parties.values()],
                         master_seed=2, secagg_mode=SECAGG_MASK_ONLY)
    return roster, parties


def _train_wide(bus):
    """One tree of depth 4 whose levels build up to 3 nodes each."""
    roster, parties = _wide_parties()
    params = GbtParams(n_estimators=1, max_depth=4, max_bin=8, reg_lambda=1.0,
                       min_child_weight=0.0)
    return hfl_train(roster, parties, params, seed=2, bus=bus)


def _assert_names_the_tampered_submission(bus, raised):
    sender, payload = bus.tampered
    assert (f"HISTOGRAM_SUBMIT from {sender} for tree {payload['tree']}, "
            f"nodes {payload['nodes']}") in str(raised.value)


@pytest.mark.parametrize("field, value", [("tree", 1), ("node", 101)])
def test_a_submission_the_server_did_not_ask_for_is_rejected(field, value):
    # a child submission of tree 0 names another tree, or a node never requested
    def change(payload):
        if field == "tree":
            payload["tree"] = value
        else:
            payload["nodes"][0] = value

    bus = _TamperOnce("HISTOGRAM_SUBMIT", _first_child_submission, change)
    with pytest.raises(ProtocolError) as raised:
        _train_with(bus)
    _assert_names_the_tampered_submission(bus, raised)


@pytest.mark.parametrize("change", [
    lambda nodes: nodes.reverse(),
    lambda nodes: nodes.pop(),
    lambda nodes: nodes.append(nodes[0]),
], ids=["reordered", "dropped", "duplicated"])
def test_a_level_submission_that_misnames_its_nodes_is_rejected(change):
    bus = _TamperOnce("HISTOGRAM_SUBMIT", _first_level_of_two, lambda p: change(p["nodes"]))
    with pytest.raises(ProtocolError, match="the server asked each client once") as raised:
        _train_wide(bus)
    _assert_names_the_tampered_submission(bus, raised)


def test_a_level_submission_one_residue_short_is_rejected():
    bus = _TamperOnce("HISTOGRAM_SUBMIT", _first_level_of_two, lambda p: p["enc_h"].pop())
    with pytest.raises(ProtocolError, match=r"enc_h values, expected") as raised:
        _train_wide(bus)
    _assert_names_the_tampered_submission(bus, raised)


class _SendTwice(MessageBus):
    """Sends the first ``HISTOGRAM_SUBMIT`` of a level of two nodes twice."""

    def __init__(self):
        super().__init__()
        self.tampered = None

    def send(self, sender, recipient, msg_type, round_id, payload):
        if (self.tampered is None and msg_type == "HISTOGRAM_SUBMIT"
                and _first_level_of_two(recipient, payload)):
            self.tampered = (sender, payload)
            super().send(sender, recipient, msg_type, round_id, payload)
        return super().send(sender, recipient, msg_type, round_id, payload)


def test_a_second_submission_from_one_client_is_rejected():
    bus = _SendTwice()
    with pytest.raises(ProtocolError, match="the server asked each client once") as raised:
        _train_wide(bus)
    _assert_names_the_tampered_submission(bus, raised)


def test_a_split_broadcast_whose_bits_a_client_outgrows_is_rejected(monkeypatch):
    # c1 alone holds more samples at a node it is asked for than the
    # broadcast's bits admit: it raises before it draws any mask of that level
    from fedgbt import hfl

    masked = []

    def recording(roster, client_id, modulus, plains, nonce, depth, tag):
        masked.append((client_id, nonce, depth))
        return add_masks(roster, client_id, modulus, plains, nonce, depth, tag)

    add_masks = hfl._add_pairwise_masks
    monkeypatch.setattr(hfl, "_add_pairwise_masks", recording)
    bus = _TamperOnce("SPLIT_BROADCAST",
                      lambda to, p: to == "c1" and p["bits"] > 0, lambda p: p.update(bits=0))
    with pytest.raises(ProtocolError, match=r"SPLIT_BROADCAST to c1 for tree 0 sizes node \d+ "
                                            r"for 0-bit counts, but the client holds \d+ "
                                            r"samples there"):
        _train_with(bus)
    depth = bus.tampered[1]["depth"]
    assert ("c0", "s2:t0", depth + 1) in masked
    assert ("c1", "s2:t0", depth + 1) not in masked


@pytest.mark.parametrize("bits", [7, 43, 44, -1])
def test_a_split_broadcast_with_bits_beyond_the_roster_is_rejected(monkeypatch, bits):
    # the roster's 60 samples take 6 bits, and no node holds more; 44 bits
    # would take 65-bit g slots.  c1 raises before it draws a mask of the level
    from fedgbt import hfl

    masked = []

    def recording(roster, client_id, modulus, plains, nonce, depth, tag):
        masked.append((client_id, depth))
        return add_masks(roster, client_id, modulus, plains, nonce, depth, tag)

    add_masks = hfl._add_pairwise_masks
    monkeypatch.setattr(hfl, "_add_pairwise_masks", recording)
    assert _tamper_roster()[0].root_bits() == 6
    bus = _TamperOnce("SPLIT_BROADCAST",
                      lambda to, p: to == "c1" and p["bits"] > 0, lambda p: p.update(bits=bits))
    with pytest.raises(ProtocolError, match=rf"^SPLIT_BROADCAST to c1 for tree 0 sizes nodes for "
                                            rf"{bits}-bit counts; the roster's total takes 6 "
                                            rf"bits$"):
        _train_with(bus)
    depth = bus.tampered[1]["depth"]
    assert ("c0", depth + 1) in masked
    assert ("c1", depth + 1) not in masked


def test_slots_are_at_most_64_bits():
    # the int64 capacity check admits fewer than 2^(63 - S) samples
    top = 63 - GRAD_SCALE_BITS
    check_capacity(INT64_MODULUS, (1 << top) - 1)
    with pytest.raises(EncodingError):
        check_capacity(INT64_MODULUS, 1 << top)
    g, h = level_layouts(top, 1 << 1023)
    assert (g.offset, g.width, h.width) == (1 << 63, 64, 61)
    with pytest.raises(EncodingError, match=f"nodes of {top + 1}-bit counts need 65-bit slots, "
                                            "above 64"):
        level_layouts(top + 1, 1 << 1023)


def test_a_key_broadcast_with_another_generator_is_rejected():
    X, y = synth_classification(40, 3, seed=40)
    parties = random_split_parties(X, y, 2, seed=41)
    roster = make_roster(list(parties), [p.n_samples for p in parties.values()],
                         master_seed=6, secagg_mode=SECAGG_PAILLIER)
    bus = _TamperOnce("KEY_BROADCAST", lambda to, p: to == "c1",
                      lambda p: p.update(g=p["n"] + 2))
    with pytest.raises(ProtocolError, match=r"^KEY_BROADCAST to c1: the public key's g is not "
                                            r"n \+ 1$"):
        hfl_train(roster, parties, GbtParams(n_estimators=1), seed=6, bus=bus, key_bits=256)
    assert not any(e.msg_type == "HISTOGRAM_SUBMIT" for e in bus.transcript)


@pytest.mark.parametrize("key_bits, shown", [
    (4096, "4096"), (258, "258"), (254, "254"), ("256", "'256'"), (256.0, "256.0"),
    (True, "True"), (None, "None")])
def test_a_key_broadcast_whose_key_bits_n_does_not_have_is_rejected(key_bits, shown):
    X, y = synth_classification(40, 3, seed=40)
    parties = random_split_parties(X, y, 2, seed=41)
    roster = make_roster(list(parties), [p.n_samples for p in parties.values()],
                         master_seed=6, secagg_mode=SECAGG_PAILLIER)
    bus = _TamperOnce("KEY_BROADCAST", lambda to, p: to == "c1",
                      lambda p: p.update(key_bits=key_bits))
    n_bits = keygen(key_bits=256, rng_seed=derive_seed("hfl-key", 6))[0].key_bits
    with pytest.raises(ProtocolError, match=rf"^KEY_BROADCAST to c1: key_bits {shown} for an n "
                                            rf"of {n_bits} bits$"):
        hfl_train(roster, parties, GbtParams(n_estimators=1), seed=6, bus=bus, key_bits=256)
    assert bus.tampered[1]["key_bits"] == key_bits
    assert not any(e.msg_type == "HISTOGRAM_SUBMIT" for e in bus.transcript)


@pytest.mark.parametrize("change, match", [
    (lambda p: p.update(n=4, g=5, key_bits=3), "key_bits 3 below 16"),
    (lambda p: p.update(n=p["n"] + 1, g=p["n"] + 2), "n is even"),
], ids=["tiny-n", "even-n"])
def test_a_key_broadcast_of_an_n_no_keygen_makes_is_rejected(change, match):
    # under an n of 4 the first encryption would never find its obfuscator base
    X, y = synth_classification(40, 3, seed=40)
    parties = random_split_parties(X, y, 2, seed=41)
    roster = make_roster(list(parties), [p.n_samples for p in parties.values()],
                         master_seed=6, secagg_mode=SECAGG_PAILLIER)
    bus = _TamperOnce("KEY_BROADCAST", lambda to, p: to == "c1", change)
    with pytest.raises(ProtocolError, match=rf"^KEY_BROADCAST to c1: {match}$"):
        hfl_train(roster, parties, GbtParams(n_estimators=1), seed=6, bus=bus, key_bits=256)
    assert not any(e.msg_type == "HISTOGRAM_SUBMIT" for e in bus.transcript)


def test_a_key_broadcast_of_key_bits_one_above_n_is_accepted():
    # keygen's n may have one bit fewer than asked for; c0 gets the broadcast as sent
    n_bits = {seed: keygen(key_bits=256, rng_seed=derive_seed("hfl-key", seed))[0].key_bits
              for seed in range(6, 30)}
    seed = next(s for s, bits in n_bits.items() if bits == 255)
    X, y = synth_classification(40, 3, seed=40)
    parties = random_split_parties(X, y, 2, seed=41)
    roster = make_roster(list(parties), [p.n_samples for p in parties.values()],
                         master_seed=6, secagg_mode=SECAGG_PAILLIER)
    model, bus = hfl_train(roster, parties, GbtParams(n_estimators=1), seed=seed, key_bits=256)
    assert {e.payload["key_bits"] for e in bus.transcript if e.msg_type == "KEY_BROADCAST"} == {
        256}
    assert len(model.trees) == 1


def _move_out_of_an_empty_bin(counts):
    # feature 1's row keeps its sum; one of its empty bins goes to -1
    row = counts[8:16]
    counts[8 + row.index(0)] -= 1
    counts[8 + row.index(max(row))] += 1


@pytest.mark.parametrize("change, match", [
    (lambda c: c.pop(), "23 counts, expected 24"),
    (lambda c: c.append(0), "25 counts, expected 24"),
    (_move_out_of_an_empty_bin, "a negative count"),
    (lambda c: c.__setitem__(17, c[17] + 1), "feature rows whose counts differ in sum"),
], ids=["short", "extra", "negative", "uneven-rows"])
def test_a_submission_with_malformed_counts_is_rejected(change, match):
    # the first root submission; feature 2 sums one sample more in "uneven-rows"
    bus = _TamperOnce("HISTOGRAM_SUBMIT", lambda to, p: p["tree"] == 0 and p["nodes"] == [0],
                      lambda p: change(p["counts"]))
    with pytest.raises(ProtocolError, match=match) as raised:
        _train_with(bus)
    sender, payload = bus.tampered
    assert f"HISTOGRAM_SUBMIT from {sender} for tree 0, nodes [0]" in str(raised.value)


def test_clients_submit_the_smaller_child():
    _, bus = _train_with(MessageBus())
    sizes = {}  # (tree, split node) -> global (left, right) counts
    for env in bus.transcript:
        if env.msg_type == "PARTITION_REPORT":
            for c in env.payload["counts"]:
                left, right = sizes.get((env.payload["tree"], c["node"]), (0, 0))
                sizes[env.payload["tree"], c["node"]] = left + c["left"], right + c["right"]
    asked = {}  # tree -> children asked for
    for env in bus.transcript:
        if env.msg_type == "SPLIT_BROADCAST" and env.recipient == "c0":
            depth, tree = env.payload["depth"], env.payload["tree"]
            for d in (d for d in env.payload["decisions"] if not d["leaf"]):
                left, right = sizes[tree, d["id"]]
                if depth + 1 < 3 and max(left, right) >= 2:  # max_depth 3
                    assert d["submit"] == (d["left"] if left <= right else d["right"])
                    asked.setdefault(tree, []).append(d["submit"])
                else:
                    assert d["submit"] is None
    submitted = {}
    for env in bus.transcript:
        if env.msg_type == "HISTOGRAM_SUBMIT" and env.sender == "c0":
            submitted.setdefault(env.payload["tree"], []).extend(env.payload["nodes"])
    assert submitted == {t: [0, *nodes] for t, nodes in asked.items()}
    # both sides are asked for somewhere
    assert {n % 2 for nodes in asked.values() for n in nodes} == {0, 1}


def test_each_client_submits_a_levels_nodes_in_broadcast_order():
    # a client builds a level's histograms in one call, then sends one
    # HISTOGRAM_SUBMIT that names the nodes the SPLIT_BROADCAST asks for, in
    # its order
    roster, _ = _wide_parties()
    _, bus = _train_wide(MessageBus())
    asked, submitted = {}, {}
    for env in bus.transcript:
        if env.msg_type == "SPLIT_BROADCAST":
            asked.setdefault(env.recipient, []).append(
                [d["submit"] for d in env.payload["decisions"]
                 if not d["leaf"] and d["submit"] is not None])
        if env.msg_type == "HISTOGRAM_SUBMIT":
            submitted.setdefault((env.sender, env.round_id), []).append(env.payload["nodes"])
    for cid in roster.client_ids:
        rounds = [nodes for (sender, _), nodes in sorted(submitted.items()) if sender == cid]
        assert rounds == [[[0]]] + [[nodes] for nodes in asked[cid] if nodes]
        assert max(len(level[0]) for level in rounds) >= 3


def test_a_split_broadcast_asking_for_a_non_child_is_rejected():
    def ask_for_the_parent(payload):
        split = next(d for d in payload["decisions"] if d.get("submit") is not None)
        split["submit"] = split["id"]

    bus = _TamperOnce("SPLIT_BROADCAST",
                      lambda to, p: to == "c1" and any(d.get("submit") is not None
                                                       for d in p["decisions"]),
                      ask_for_the_parent)
    with pytest.raises(ProtocolError,
                       match="SPLIT_BROADCAST to c1 asks for node 0, not a child of node 0"):
        _train_with(bus)


def test_a_partition_report_naming_another_node_is_rejected():
    bus = _TamperOnce("PARTITION_REPORT", lambda to, p: True,
                      lambda p: p["counts"][0].update(node=77))
    with pytest.raises(ProtocolError) as raised:
        _train_with(bus)
    sender, _ = bus.tampered
    assert f"PARTITION_REPORT from {sender} reports nodes [77]" in str(raised.value)


def test_a_split_broadcast_naming_a_node_without_samples_is_rejected():
    def rename_first_split(payload):
        next(d for d in payload["decisions"] if not d["leaf"])["id"] = 99

    bus = _TamperOnce("SPLIT_BROADCAST",
                      lambda to, p: to == "c1" and any(not d["leaf"]
                                                       for d in p["decisions"]),
                      rename_first_split)
    with pytest.raises(ProtocolError, match="SPLIT_BROADCAST to c1 splits node 99"):
        _train_with(bus)


@pytest.mark.parametrize("change", ["drop", "duplicate"])
def test_a_split_broadcast_with_a_leaf_dropped_or_duplicated_is_rejected(change):
    def edit(payload):
        decisions = payload["decisions"]
        k = next(i for i, d in enumerate(decisions) if d["leaf"])
        decisions[k:k + 1] = [] if change == "drop" else [decisions[k]] * 2

    bus = _TamperOnce("SPLIT_BROADCAST",
                      lambda to, p: to == "c1" and any(d["leaf"] for d in p["decisions"]), edit)
    with pytest.raises(ProtocolError) as raised:
        _train_with(bus)
    tree = bus.tampered[1]["tree"]
    assert f"the SPLIT_BROADCASTs to c1 for tree {tree} do not form a tree: tree node ids" in str(
        raised.value)


@pytest.mark.parametrize("change", [{"subsample": 0.7}, {"max_depth": 0}])
def test_every_client_assembles_the_servers_tree(monkeypatch, change):
    assembled = {}  # (client, tree) -> the tree its broadcasts built
    finish_tree = HflClient.finish_tree

    def kept(self, tree_index):
        assembled[self.client_id, tree_index] = finish_tree(self, tree_index)
        return assembled[self.client_id, tree_index]

    monkeypatch.setattr(HflClient, "finish_tree", kept)
    roster, parties = _tamper_roster()
    params = replace(GbtParams(n_estimators=3, max_depth=3, max_bin=8, reg_lambda=1.0), **change)
    ensemble, _ = hfl_train(roster, parties, params, seed=2)
    assert len(assembled) == len(roster.client_ids) * 3
    for (_, t), tree in assembled.items():
        # the broadcast documents name no owner: every split is the server's
        assert [node_to_dict(n) for n in tree.nodes] == [
            node_to_dict(replace(n, owner="")) for n in ensemble.trees[t].nodes]
    sizes = {len(t.nodes) for t in ensemble.trees}
    assert (sizes == {1}) if change.get("max_depth") == 0 else (min(sizes) > 1)


def _g_stream(bits, payload):
    """The g stream's layout and ring of a mask-only submission packed for
    ``bits``."""
    return level_streams(bits, len(payload["counts"]), None)[0]


def test_a_child_whose_sums_miss_the_parent_prefix_is_rejected():
    # one unit more in one g slot: the count alone would still agree
    _, clean = _train_with(MessageBus())
    bits = _level_bits(_tamper_roster()[0], clean.transcript)

    def bump(payload):
        _, ring = _g_stream(bits[sender, payload["tree"], tuple(payload["nodes"])], payload)
        payload["enc_g"][0] = (payload["enc_g"][0] + 1) % ring

    sender = _tamper_roster()[0].client_ids[0]

    bus = _TamperOnce("HISTOGRAM_SUBMIT", _first_child_submission, bump)
    with pytest.raises(ProtocolError) as raised:
        _train_with(bus)
    node = bus.tampered[1]["nodes"][0]
    # feature 0's row no longer sums to the parent split's prefix sums, or
    # bin 0 holds a sum its count cannot reach
    assert re.match(rf"tree 0, node {node}: feature 0[ ,]", str(raised.value))


SCALE = 2**GRAD_SCALE_BITS


def _raise_one_g_slot(bits, tree, node, feature, bin_):
    """A bus that raises one g slot of ``node`` in the first client's level
    submission of ``tree`` that holds it by 2^S, one logistic gradient's
    worth (3 features of 8 bins); ``bits`` maps each submission to its
    level's bits, as :func:`_level_bits` reads them."""

    def bump(payload):
        layout, ring = _g_stream(bits[sender, tree, tuple(payload["nodes"])], payload)
        j = payload["nodes"].index(node) * 3 * 8 + feature * 8 + bin_
        payload["enc_g"][0] = (payload["enc_g"][0] + (SCALE << (layout.width * j))) % ring

    sender = _tamper_roster()[0].client_ids[0]
    return _TamperOnce("HISTOGRAM_SUBMIT",
                       lambda to, p: p["tree"] == tree and node in p["nodes"], bump)


def test_a_raised_g_slot_of_any_feature_is_rejected_at_every_submitted_node():
    # one g slot of feature 1 or 2, in every submission of nodes 0-6 of both
    # trees: that row no longer sums to the node's totals.  Checked through
    # feature 0 alone, 6 of the 48 cases at tree 0's nodes 0, 1 and 4
    # trained a different model without an error.
    _, clean = _train_with(MessageBus())
    bits = _level_bits(_tamper_roster()[0], clean.transcript)
    submitted = sorted({(e.payload["tree"], n) for e in clean.transcript
                        if e.msg_type == "HISTOGRAM_SUBMIT" for n in e.payload["nodes"] if n <= 6})
    assert {(0, 0), (0, 1), (0, 4), (1, 0)} <= set(submitted)
    for tree, node in submitted:
        for feature in (1, 2):
            for bin_ in range(8):
                bus = _raise_one_g_slot(bits, tree, node, feature, bin_)
                with pytest.raises(ProtocolError,
                                   match=rf"^tree {tree}, node {node}: feature {feature}[ ,]"):
                    _train_with(bus)
                assert bus.tampered is not None


def test_a_child_with_impossible_counts_is_rejected():
    # feature 1's bins trade 1000 samples; feature 0 fixes the totals
    def shift(payload):
        payload["counts"][8] += 1000
        payload["counts"][9] -= 1000

    bus = _TamperOnce("HISTOGRAM_SUBMIT", _first_child_submission, shift)
    with pytest.raises(ProtocolError, match="negative count"):
        _train_with(bus)


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


def test_mask_only_masks_one_residue_per_stream_and_the_masks_cancel(monkeypatch):
    # every stream of every level submission is one residue below its ring,
    # 2^(width * V + 1) for V = len(nodes) * F * B; the 3 clients' masks of
    # each (tree, depth, stream) sum to 0 mod that ring
    from fedgbt import hfl

    masks = {}  # (nonce, depth, stream) -> {client: (ring, mask)}

    def recording(roster, client_id, modulus, plains, nonce, depth, tag):
        masked = add_masks(roster, client_id, modulus, plains, nonce, depth, tag)
        assert len(plains) == len(masked) == 1 and 0 <= plains[0] < modulus
        masks.setdefault((nonce, depth, tag), {})[client_id] = (
            modulus, (masked[0] - plains[0]) % modulus)
        return masked

    add_masks = hfl._add_pairwise_masks
    monkeypatch.setattr(hfl, "_add_pairwise_masks", recording)
    X, y = synth_classification(60, 3, seed=8)
    parties = random_split_parties(X, y, 3, seed=9)
    roster = make_roster(list(parties), [p.n_samples for p in parties.values()],
                         master_seed=7, secagg_mode=SECAGG_MASK_ONLY)
    _, bus = hfl_train(roster, parties, GbtParams(n_estimators=2, max_depth=3, max_bin=4),
                       seed=7)
    submits = _assert_level_residues(roster, bus.transcript, None, 3 * 4)
    assert {(len(p["enc_g"]), len(p["enc_h"])) for p in submits} == {(1, 1)}
    assert len(masks) == 2 * len(submits) // 3
    for shares in masks.values():
        assert sorted(shares) == sorted(roster.client_ids)
        (ring,) = {r for r, _ in shares.values()}
        assert sum(m for _, m in shares.values()) % ring == 0
        assert all(m for _, m in shares.values())


@pytest.mark.parametrize("secagg", [SECAGG_PAILLIER, SECAGG_MASK_ONLY])
def test_one_mask_draw_per_residue_per_other_client(monkeypatch, secagg):
    # perfbench's traced run counts hfl.derive_uniform_int calls against this sum
    from fedgbt import hfl

    draws = []

    def counting(*args):
        draws.append(args)
        return derive_uniform_int(*args)

    monkeypatch.setattr(hfl, "derive_uniform_int", counting)
    X, y = synth_classification(30, 2, seed=8)
    parties = random_split_parties(X, y, 3, seed=9)
    roster = make_roster(list(parties), [p.n_samples for p in parties.values()],
                         master_seed=7, secagg_mode=secagg)
    _, bus = hfl_train(roster, parties, GbtParams(n_estimators=2, max_depth=2, max_bin=4),
                       seed=7, key_bits=256)
    submits = [e.payload for e in bus.transcript if e.msg_type == "HISTOGRAM_SUBMIT"]
    assert len(submits) > 3
    assert len(draws) == sum(len(p["enc_g"]) + len(p["enc_h"]) for p in submits) * (3 - 1)
