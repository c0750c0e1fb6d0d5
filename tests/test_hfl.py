import copy
import re
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedgbt.data import PartyDataset, join_datasets, split_train_valid_test
from fedgbt.gbt import (
    GRAD_SCALE_BITS,
    INT64_MODULUS,
    GbtParams,
    GradHistogram,
    build_histogram,
    cell_ids,
    check_capacity,
    compute_binning,
    logistic_gradients,
    model_to_json,
    quantize,
    train_centralized,
)
from fedgbt.hfl import (
    MASK_ONLY_MODULUS,
    SECAGG_MASK_ONLY,
    SECAGG_PAILLIER,
    MaskedEncHistogram,
    ProtocolError,
    _add_pairwise_masks,
    establish_global_binning,
    hfl_train,
    make_roster,
    mask_histogram,
    packed_layout,
    server_aggregate,
)
from fedgbt.paillier import Ciphertext, EncodingError, decrypt, keygen
from fedgbt.scanner import SensitiveCorpus, scan_sensitive, scan_structure
from fedgbt.seeding import derive_uniform_int, expand_mask_words, mask_word_bytes
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


def test_masks_cancel_for_zero_histograms(mask_fixture):
    roster, pk, sk = mask_fixture
    subs = {}
    for cid in roster.client_ids:
        hist = zero_histogram(2, 3)
        subs[cid] = mask_histogram(hist, cid, roster, 5, 0, 0, pk, random.Random(1))
    total = server_aggregate(subs, roster, pk, sk)
    assert all(v == 0 for v in total.g.flatten())
    assert all(v == 0 for v in total.h.flatten())


def test_masked_aggregate_recovers_signed_slot_totals(mask_fixture):
    roster, pk, sk = mask_fixture
    h0 = _hist_from_values([0.25, 0.0])
    h1 = _hist_from_values([-0.75, 0.125])
    subs = {
        "c0": mask_histogram(h0, "c0", roster, 5, 1, 0, pk, random.Random(2)),
        "c1": mask_histogram(h1, "c1", roster, 5, 1, 0, pk, random.Random(3)),
    }
    total = server_aggregate(subs, roster, pk, sk)
    assert total.g.dtype == np.int64
    assert total.g[0, 0] == quantize(-0.5) and total.g[0, 0] / 2**GRAD_SCALE_BITS == -0.5
    assert total.g[0, 1] == quantize(0.125) and total.g[0, 1] / 2**GRAD_SCALE_BITS == 0.125
    assert total.counts[0, 0] == 2


def test_single_submission_is_blinded(mask_fixture):
    roster, pk, sk = mask_fixture
    values = np.linspace(-0.4, 0.4, 100)
    hist = zero_histogram(1, 100)
    hist.g[0] = quantize(values)
    sub = mask_histogram(hist, "c0", roster, 5, 2, 0, pk, random.Random(4))
    layout = packed_layout(roster, pk.n)
    true_slots = [v + layout.offset for v in hist.g[0].tolist()]
    packed = layout.pack(hist.g[0].tolist())
    assert len(sub.enc_g) == len(packed) == -(-100 // layout.slots)
    # decrypting a single client's plaintexts must NOT reveal its true values
    differing = 0
    for i, cipher in enumerate(sub.enc_g):
        plain = decrypt(sk, pk, Ciphertext(cipher))
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
        cid: mask_histogram(h, cid, roster, 9, 0, 3, None, None)
        for cid, h in hists.items()
    }
    total = server_aggregate(subs, roster, None, None)
    assert total.g[0].tolist() == quantize([-0.375, 0.625]).tolist()
    assert total.h[0].tolist() == quantize([0.40625, 0.34375]).tolist()


def _mask_only_pair(change_c1):
    """Two 2x3 mask-only submissions for tree 4, node 3, c1's enc_g
    rewritten by ``change_c1``."""
    roster = make_roster(["c0", "c1"], [3, 3], master_seed=9, secagg_mode=SECAGG_MASK_ONLY)
    subs = {}
    for cid in roster.client_ids:
        hist = zero_histogram(2, 3)
        hist.g[:] = quantize(np.linspace(-0.9, 0.9, 6).reshape(2, 3))
        subs[cid] = mask_histogram(hist, cid, roster, 9, 4, 3, None, None)
    subs["c1"].enc_g = change_c1(list(subs["c1"].enc_g))
    return roster, subs


# six 24-bit slots pack five to a 128-bit residue: two residues per stream
@pytest.mark.parametrize("change, match", [
    (lambda v: v[:-1], "1 enc_g values, expected 2"),
    (lambda v: v + [0], "3 enc_g values, expected 2"),
    (lambda v: [v[0] + MASK_ONLY_MODULUS, *v[1:]], r"enc_g residue outside \[0, 2\^128\)"),
    (lambda v: [-1, *v[1:]], r"enc_g residue outside \[0, 2\^128\)"),
], ids=["short", "extra", "above-2^128", "negative"])
def test_mask_only_submission_values_are_checked(change, match):
    roster, subs = _mask_only_pair(lambda v: v)
    assert server_aggregate(subs, roster, None, None).g.tolist() == [
        [2 * v for v in row] for row in quantize(np.linspace(-0.9, 0.9, 6).reshape(2, 3)).tolist()]
    roster, subs = _mask_only_pair(change)
    with pytest.raises(ProtocolError, match=match) as raised:
        server_aggregate(subs, roster, None, None)
    assert "HISTOGRAM_SUBMIT from c1 for tree 4, node 3" in str(raised.value)


@settings(max_examples=25, deadline=None)
@given(n_clients=st.integers(2, 4), paillier=st.booleans(), data=st.data())
def test_mask_streams_cancel_and_change_with_every_label_part(mask_fixture, n_clients,
                                                              paillier, data):
    _, pk, sk = mask_fixture if paillier else (None, None, None)
    ring = pk.n if paillier else MASK_ONLY_MODULUS
    ids = [f"c{i}" for i in range(n_clients)]

    def roster(master_seed):
        return make_roster(ids, [50] * n_clients, master_seed=master_seed,
                           secagg_mode=SECAGG_PAILLIER if paillier else SECAGG_MASK_ONLY)

    slots = packed_layout(roster(0), ring).slots
    n_values = data.draw(st.integers(1, 5 * slots).filter(lambda v: v % slots))
    n = -(-n_values // slots)
    node = data.draw(st.integers(0, 62))
    # the clients' shares of each residue's mask sum to 0 mod the ring
    shares = [_add_pairwise_masks(roster(0), cid, ring, [0] * n, "s3:t1", node, "g")
              for cid in ids]
    assert [sum(column) % ring for column in zip(*shares)] == [0] * n
    # each word has 128 bits more than the ring: 33 bytes for 2^128, 80 for 512 bits
    size = mask_word_bytes(ring)
    assert size == (80 if paillier else 33)
    assert 8 * size - 8 < ring.bit_length() + 128 <= 8 * size
    words = expand_mask_words(ring, n, "packmask", 7, "s3:t1", node, "g")
    assert len(words) == n * size
    assert [derive_uniform_int(ring, words, i) for i in range(n)] == [
        int.from_bytes(words[i * size:(i + 1) * size], "big") % ring for i in range(n)]

    # a zero histogram packs the same residues in both streams and every
    # submission, so a changed residue is a changed mask
    def residues(master_seed=0, seed=3, tree=1, node_id=node, stream="enc_g"):
        sub = mask_histogram(zero_histogram(1, n_values), "c0", roster(master_seed), seed,
                             tree, node_id, pk, random.Random(0))
        values = getattr(sub, stream)
        return [decrypt(sk, pk, Ciphertext(v)) for v in values] if paillier else values

    base = residues()
    for changed in ({"stream": "enc_h"}, {"node_id": node + 1}, {"tree": 2}, {"seed": 4},
                    {"master_seed": 1}):
        assert all(a != b for a, b in zip(base, residues(**changed))), changed


def test_a_ciphertext_outside_n_squared_is_rejected(mask_fixture):
    # aggregate() would reduce c + n^2 to c without a word
    roster, pk, sk = mask_fixture
    subs = {cid: mask_histogram(_hist_from_values([0.1, -0.2]), cid, roster, 5, 7, 2, pk,
                                random.Random(cid)) for cid in roster.client_ids}
    for change in (pk.n_squared, -subs["c1"].enc_h[0] - 1):
        tampered = {**subs, "c1": MaskedEncHistogram(
            **{**vars(subs["c1"]), "enc_h": [subs["c1"].enc_h[0] + change]})}
        with pytest.raises(ProtocolError, match=r"HISTOGRAM_SUBMIT from c1 for tree 7, node 2: "
                                                r"an enc_h ciphertext outside \[0, n\^2\)"):
            server_aggregate(tampered, roster, pk, sk)
    assert (server_aggregate(subs, roster, pk, sk).g[0] == 2 * quantize([0.1, -0.2])).all()


def test_aggregate_order_invariant(mask_fixture):
    roster, pk, sk = mask_fixture
    h0, h1 = _hist_from_values([0.3, -0.2]), _hist_from_values([0.1, 0.9])
    s0 = mask_histogram(h0, "c0", roster, 5, 3, 0, pk, random.Random(5))
    s1 = mask_histogram(h1, "c1", roster, 5, 3, 0, pk, random.Random(6))
    a = server_aggregate({"c0": s0, "c1": s1}, roster, pk, sk)
    b = server_aggregate({"c1": s1, "c0": s0}, roster, pk, sk)
    assert (a.g == b.g).all() and (a.h == b.h).all()


def test_aggregate_missing_client_aborts(mask_fixture):
    roster, pk, sk = mask_fixture
    s0 = mask_histogram(_hist_from_values([0.1]), "c0", roster, 5, 4, 0, pk, random.Random(7))
    with pytest.raises(ProtocolError, match="timeout"):
        server_aggregate({"c0": s0}, roster, pk, sk)


# ---------------------------------------------------------------------------
# packed residues


def test_packed_layout_at_hfl_paillier_shape():
    # 200 training rows over 3 clients under a 512-bit key: an offset of
    # 2^(S + 7) for 67 samples, and 2 bits more for the sum of 3 clients
    roster = make_roster(["c0", "c1", "c2"], [67, 67, 66])
    layout = packed_layout(roster, (1 << 511) + 1)
    width = GRAD_SCALE_BITS + 10
    assert (layout.offset, layout.width, layout.slots) == (2 ** (width - 3), width, 511 // width)
    assert (layout.offset, layout.width, layout.slots) == (2**27, 30, 17)
    # hfl-mask-paper's two districts in the 128-bit mask-only ring: 2^(S + 8)
    # for 170 samples and 1 bit for 2 clients; a 32 x 32 stream packs 4 to a residue
    roster = make_roster(["a", "b"], [57, 170], secagg_mode=SECAGG_MASK_ONLY)
    layout = packed_layout(roster, MASK_ONLY_MODULUS)
    assert (layout.offset, layout.width, layout.slots) == (2**28, 30, 4)
    assert len(layout.pack([0] * 32 * 32)) == 256


def test_hfl_paillier_shape_encrypts_384_plaintexts():
    # fold 0 of 250 rows of 16 Gaussian features, split over 3 clients; 2
    # trees of depth 3 over 8 bins under a 512-bit key.  Each client submits
    # 8 histograms, and each of their two 128-slot streams packs into
    # ceil(128 / 17) = 8 plaintexts, one encryption each.
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
    _, bus = hfl_train(roster, parties, params, seed=0, key_bits=512)
    submits = [e.payload for e in bus.transcript if e.msg_type == "HISTOGRAM_SUBMIT"]
    assert len(submits) == 3 * 8
    assert {(len(p["enc_g"]), len(p["enc_h"])) for p in submits} == {(8, 8)}
    assert sum(len(p["enc_g"]) + len(p["enc_h"]) for p in submits) == 384


@pytest.fixture(scope="module")
def key_256():
    return keygen(key_bits=256, rng_seed=60)


@settings(max_examples=25, deadline=None)
@given(n_clients=st.integers(2, 8), mode=st.sampled_from([SECAGG_PAILLIER, SECAGG_MASK_ONLY]),
       tight_key=st.booleans(), data=st.data())
def test_packed_totals_exact_at_layout_extremes(key_256, n_clients, mode, tight_key, data):
    # the largest sample count for which the clients' sums still fit int64
    top_bits = 63 - GRAD_SCALE_BITS - (n_clients - 1).bit_length()
    count_bits = data.draw(st.sampled_from([1, 12, top_bits]) | st.integers(1, top_bits))
    count = (1 << count_bits) - 1
    ids = [f"c{i}" for i in range(n_clients)]
    roster = make_roster(ids, [count] * n_clients, master_seed=count_bits, secagg_mode=mode)
    pk, sk = key_256 if mode == SECAGG_PAILLIER else (None, None)
    if tight_key and pk is not None:
        # the smallest key that fits one slot: each plaintext fills it
        width = packed_layout(roster, 1 << 1023).width
        pk, sk = keygen(key_bits=width + 2, rng_seed=width)
        assert packed_layout(roster, pk.n).slots == 1
    # a client's slot sums count quantized |g| <= 2^S and h <= 2^(S-2)
    top_g, top_h = count << GRAD_SCALE_BITS, count << (GRAD_SCALE_BITS - 2)
    g_sums = st.sampled_from([-top_g, top_g]) | st.integers(-top_g, top_g)
    h_sums = st.sampled_from([0, top_h]) | st.integers(0, top_h)
    expect_g, expect_h, subs = [0, 0, 0], [0, 0, 0], {}
    for cid in ids:
        hist = zero_histogram(1, 3)
        hist.g[0] = [data.draw(g_sums) for _ in range(3)]
        hist.h[0] = [data.draw(h_sums) for _ in range(3)]
        expect_g = [e + v for e, v in zip(expect_g, hist.g[0].tolist())]
        expect_h = [e + v for e, v in zip(expect_h, hist.h[0].tolist())]
        subs[cid] = mask_histogram(hist, cid, roster, 0, 0, 0, pk, random.Random(cid))
    total = server_aggregate(subs, roster, pk, sk)
    assert total.g[0].tolist() == expect_g
    assert total.h[0].tolist() == expect_h


@settings(max_examples=25, deadline=None)
@given(n_clients=st.integers(1, 8), data=st.data())
def test_mask_only_totals_exact_at_int64_extremes(n_clients, data):
    # every client at the largest count the int64 capacity check admits
    count = ((1 << (63 - GRAD_SCALE_BITS)) - 1) // n_clients
    ids = [f"c{i}" for i in range(n_clients)]
    roster = make_roster(ids, [count] * n_clients, master_seed=n_clients,
                         secagg_mode=SECAGG_MASK_ONLY)
    top = count << GRAD_SCALE_BITS
    sums = st.sampled_from([-top, top]) | st.integers(-top, top)
    F, B = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    expect_g, expect_h, subs = np.zeros((F, B), dtype=object), np.zeros((F, B), dtype=object), {}
    for cid in ids:
        hist = zero_histogram(F, B)
        hist.g[:] = np.array([data.draw(sums) for _ in range(F * B)]).reshape(F, B)
        hist.h[:] = np.abs(hist.g) >> 2
        expect_g, expect_h = expect_g + hist.g.astype(object), expect_h + hist.h.astype(object)
        subs[cid] = mask_histogram(hist, cid, roster, 0, 0, 0, None, None)
    total = server_aggregate(subs, roster, None, None)
    assert total.g.tolist() == expect_g.tolist()
    assert total.h.tolist() == expect_h.tolist()


# hfl-paillier's and hfl-mask-paper's rosters, five clients (3 bits for their
# sum), and the widest layouts the int64 capacity check admits: offset 2^63, so
# a slot value reaches 2^64 - 1, with 1 and with 2 clients
_LAYOUT_SHAPES = [
    ([67, 67, 66], (1 << 511) + 1), ([57, 170], MASK_ONLY_MODULUS), ([3] * 5, 1 << 200),
    ([(1 << 43) - 1], 1 << 1023), ([1 << 42, (1 << 42) - 1], 1 << 1023),
]


@settings(max_examples=25, deadline=None)
@given(shape=st.sampled_from(_LAYOUT_SHAPES), data=st.data())
def test_pack_lays_out_the_slot_formula(shape, data):
    counts, ring = shape
    check_capacity(INT64_MODULUS, sum(counts))
    roster = make_roster([f"c{i}" for i in range(len(counts))], counts)
    layout = packed_layout(roster, ring)
    top = layout.offset - 1
    values = data.draw(st.lists(st.sampled_from([top, -top, 0]) | st.integers(-top, top),
                                min_size=1, max_size=4 * layout.slots + 1))
    values[0] = data.draw(st.sampled_from([top, -top]))
    expect = [sum((v + layout.offset) << (layout.width * j)
                  for j, v in enumerate(values[k:k + layout.slots]))
              for k in range(0, len(values), layout.slots)]
    assert layout.pack(np.array(values, dtype=np.int64)) == expect
    assert layout.pack(values) == expect
    assert layout.unpack([layout.n_clients * r for r in expect], len(values)) == [
        layout.n_clients * v for v in values]
    # -2^63 itself at the widest layouts
    with pytest.raises(EncodingError, match=f"slot value {-layout.offset} reaches"):
        layout.pack(values + [-layout.offset])


def _unpack_per_slot(layout, totals, n_values):
    """Slot by slot, in Python integers: what ``PackedLayout.unpack`` reads
    in numpy."""
    bias, mask = layout.n_clients * layout.offset, (1 << layout.width) - 1
    out = []
    for i, total in enumerate(totals):
        used = min(layout.slots, n_values - i * layout.slots)
        if total >> (layout.width * used):
            raise ProtocolError(f"packed aggregate {i} has bits above its {used} slots: "
                                "a submission was tampered with or counted twice")
        out += [((total >> (layout.width * j)) & mask) - bias for j in range(used)]
    return out


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(_LAYOUT_SHAPES), data=st.data())
def test_unpack_equals_the_per_slot_loop(shape, data):
    # any slot contents, not only sums of in-range packings
    counts, ring = shape
    layout = packed_layout(make_roster([f"c{i}" for i in range(len(counts))], counts), ring)
    n_values = data.draw(st.integers(0, 3 * layout.slots + 1))
    used = [min(layout.slots, n_values - k) for k in range(0, n_values, layout.slots)]
    totals = [data.draw(st.integers(0, (1 << (layout.width * u)) - 1)) for u in used]
    assert layout.unpack(totals, n_values) == _unpack_per_slot(layout, totals, n_values)
    if totals:
        i = data.draw(st.integers(0, len(totals) - 1))
        totals[i] |= 1 << (layout.width * used[i] + data.draw(st.integers(0, 8)))
        with pytest.raises(ProtocolError) as raised:
            _unpack_per_slot(layout, totals, n_values)
        with pytest.raises(ProtocolError, match=re.escape(str(raised.value))):
            layout.unpack(totals, n_values)


def test_slot_value_reaching_the_offset_raises(mask_fixture):
    roster, pk, sk = mask_fixture
    layout = packed_layout(roster, pk.n)
    edge = layout.offset / 2**GRAD_SCALE_BITS
    for value in (edge, -edge):
        with pytest.raises(EncodingError, match="offset"):
            mask_histogram(_hist_from_values([0.0, value]), "c0", roster, 5, 5, 0, pk,
                           random.Random(8))
    assert len(layout.pack([layout.offset - 1, 1 - layout.offset])) == 1


def test_tampered_or_duplicated_submission_fails_the_high_bits_check(mask_fixture):
    # any flipped ciphertext bit scrambles its plaintext; a mask-only residue
    # shows a flip only above its slots (one below them is a wrong bin sum)
    mask_only = make_roster(["c0", "c1"], [4, 4], master_seed=5, secagg_mode=SECAGG_MASK_ONLY)
    for roster, pk, sk, flip in ((*mask_fixture, 4), (mask_only, None, None, 1 << 127)):
        s0 = mask_histogram(_hist_from_values([0.1, -0.2]), "c0", roster, 5, 6, 0, pk,
                            random.Random(9))
        s1 = mask_histogram(_hist_from_values([0.3, 0.4]), "c1", roster, 5, 6, 0, pk,
                            random.Random(10))
        twin = MaskedEncHistogram(**{**vars(s0), "client_id": "c1"})
        with pytest.raises(ProtocolError, match="bits above"):
            server_aggregate({"c0": s0, "c1": twin}, roster, pk, sk)
        flipped = MaskedEncHistogram(**{**vars(s1), "enc_h": [s1.enc_h[0] ^ flip]})
        with pytest.raises(ProtocolError, match="bits above"):
            server_aggregate({"c0": s0, "c1": flipped}, roster, pk, sk)


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
    from fedgbt.paillier import hex_to_int, int_to_hex

    binning = establish_global_binning(list(parties.values()), 8)
    roster = make_roster(list(parties), [p.n_samples for p in parties.values()])
    key = next(e for e in bus.transcript if e.msg_type == "KEY_BROADCAST")
    layout = packed_layout(roster, hex_to_int(key.payload["n"]))
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
            for values in (hist.g, hist.h):
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
    bus = _TamperOnce("HISTOGRAM_SUBMIT", lambda to, p: p["tree"] == 0 and p["node"] == 0,
                      lambda p: change(p["counts"]))
    with pytest.raises(ProtocolError, match=match) as raised:
        _train_with(bus)
    sender, payload = bus.tampered
    assert f"HISTOGRAM_SUBMIT from {sender} for tree 0, node 0" in str(raised.value)


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
            for d in (d for d in env.payload["decisions"] if d["action"] == "split"):
                left, right = sizes[tree, d["node"]]
                if depth + 1 < 3 and max(left, right) >= 2:  # max_depth 3
                    assert d["submit"] == (d["left"] if left <= right else d["right"])
                    asked.setdefault(tree, []).append(d["submit"])
                else:
                    assert d["submit"] is None
    submitted = {}
    for env in bus.transcript:
        if env.msg_type == "HISTOGRAM_SUBMIT" and env.sender == "c0":
            submitted.setdefault(env.payload["tree"], []).append(env.payload["node"])
    assert submitted == {t: [0, *nodes] for t, nodes in asked.items()}
    # both sides are asked for somewhere
    assert {n % 2 for nodes in asked.values() for n in nodes} == {0, 1}


def test_each_client_submits_a_levels_nodes_in_broadcast_order():
    # a client builds a level's histograms in one call, then sends one
    # HISTOGRAM_SUBMIT per node the SPLIT_BROADCAST asks for, in its order
    X, y = synth_classification(200, 4, seed=17)
    parties = random_split_parties(X, y, 2, seed=18)
    roster = make_roster(list(parties), [p.n_samples for p in parties.values()],
                         master_seed=2, secagg_mode=SECAGG_MASK_ONLY)
    params = GbtParams(n_estimators=1, max_depth=4, max_bin=8, reg_lambda=1.0,
                       min_child_weight=0.0)
    _, bus = hfl_train(roster, parties, params, seed=2)
    asked, submitted = {}, {}
    for env in bus.transcript:
        if env.msg_type == "SPLIT_BROADCAST":
            asked.setdefault(env.recipient, []).append(
                [d["submit"] for d in env.payload["decisions"]
                 if d["action"] == "split" and d["submit"] is not None])
        if env.msg_type == "HISTOGRAM_SUBMIT":
            submitted.setdefault((env.sender, env.round_id), []).append(env.payload["node"])
    for cid in roster.client_ids:
        rounds = [nodes for (sender, _), nodes in sorted(submitted.items()) if sender == cid]
        assert rounds == [[0]] + [nodes for nodes in asked[cid] if nodes]
        assert max(map(len, rounds)) >= 3


def test_a_split_broadcast_asking_for_a_non_child_is_rejected():
    def ask_for_the_parent(payload):
        split = next(d for d in payload["decisions"] if d.get("submit") is not None)
        split["submit"] = split["node"]

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
        next(d for d in payload["decisions"] if d["action"] == "split")["node"] = 99

    bus = _TamperOnce("SPLIT_BROADCAST",
                      lambda to, p: to == "c1" and any(d["action"] == "split"
                                                       for d in p["decisions"]),
                      rename_first_split)
    with pytest.raises(ProtocolError, match="SPLIT_BROADCAST to c1 splits node 99"):
        _train_with(bus)


def _first_child_submission(to, payload):
    return payload["tree"] == 0 and payload["node"] != 0


def test_a_child_whose_sums_miss_the_parent_prefix_is_rejected():
    # one unit more in one g slot: the count alone would still agree
    def bump(payload):
        payload["enc_g"][0] = format((int(payload["enc_g"][0], 16) + 1) % MASK_ONLY_MODULUS, "x")

    bus = _TamperOnce("HISTOGRAM_SUBMIT", _first_child_submission, bump)
    with pytest.raises(ProtocolError) as raised:
        _train_with(bus)
    node = bus.tampered[1]["node"]
    # feature 0's row no longer sums to the parent split's prefix sums, or
    # bin 0 holds a sum its count cannot reach
    assert re.match(rf"tree 0, node {node}: feature 0[ ,]", str(raised.value))


SCALE = 2**GRAD_SCALE_BITS


def _raise_one_g_slot(tree, node, feature, bin_):
    """A bus that raises one g slot of the first client's submission of
    ``node`` in ``tree`` by 2^S, one logistic gradient's worth (8 bins)."""
    layout = packed_layout(_tamper_roster()[0], MASK_ONLY_MODULUS)

    def bump(payload):
        i = feature * 8 + bin_
        r, j = divmod(i, layout.slots)
        raised = int(payload["enc_g"][r], 16) + (SCALE << (layout.width * j))
        payload["enc_g"][r] = format(raised % MASK_ONLY_MODULUS, "x")

    return _TamperOnce("HISTOGRAM_SUBMIT",
                       lambda to, p: (p["tree"], p["node"]) == (tree, node), bump)


def test_a_raised_g_slot_of_any_feature_is_rejected_at_every_submitted_node():
    # one g slot of feature 1 or 2, in every submission of nodes 0-6 of both
    # trees: that row no longer sums to the node's totals.  Checked through
    # feature 0 alone, 6 of the 48 cases at tree 0's nodes 0, 1 and 4
    # trained a different model without an error.
    _, clean = _train_with(MessageBus())
    submitted = sorted({(e.payload["tree"], e.payload["node"]) for e in clean.transcript
                        if e.msg_type == "HISTOGRAM_SUBMIT" and e.payload["node"] <= 6})
    assert {(0, 0), (0, 1), (0, 4), (1, 0)} <= set(submitted)
    for tree, node in submitted:
        for feature in (1, 2):
            for bin_ in range(8):
                bus = _raise_one_g_slot(tree, node, feature, bin_)
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
