"""Sample-partitioned (horizontal) federated boosted-tree training.

Clients hold identically-featured datasets; a server aggregates their
per-node gradient histograms and drives the split decisions.  Labels, raw
feature values, and per-client gradient sums never leave a client: each
histogram slot is fixed-point encoded and blinded with pairwise-cancelling
masks, so the server learns only the masked per-client values and, after
summing, the exact global aggregate once the masks cancel.  In
``mask-only`` mode every slot is its own residue mod 2^64.  In
``paillier+mask`` mode the slots are packed side by side into plaintexts
just below the server's Paillier modulus (:class:`PackedLayout`, after
SecureBoost+), and each plaintext is masked once and encrypted once.

The server grows each tree with the shared :func:`fedgbt.gbt.grow_tree`.
Wire protocol per boosting round (tree t, depth d):

* ``SPLIT_BROADCAST``    server -> clients: leaf/split decision per node,
  plus which children must submit a histogram next;
* ``PARTITION_REPORT``   clients -> server: local left/right counts for each
  split node (consistency check against histogram-derived counts);
* ``HISTOGRAM_SUBMIT``   clients -> server: masked, encrypted left-child
  histograms (the sibling is derived by exact integer subtraction); the
  server accepts exactly one per client for each node it asked for;
* ``MODEL_DELIVERY``     server -> clients: the finished tree, then the full
  ensemble at the end.

Setup uses ``KEY_BROADCAST`` (Paillier public key), ``BINNING_REPORT``
(per-feature ranges, sanctioned metadata) and ``BINNING_BROADCAST``.

Clients act only on the messages they receive: each partitions its samples
by the splits in its own copy of ``SPLIT_BROADCAST`` and submits exactly the
children that copy asks for, so a tampered broadcast shows up as a partition
mismatch or an unrequested submission.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

import numpy as np

from .data import PartyDataset
from .gbt import (
    Binning,
    BoostedEnsemble,
    GbtParams,
    GradHistogram,
    Tree,
    binning_from_ranges,
    build_histogram,
    find_best_split,  # not called here; perfbench/tracing.py patches it by this name
    grow_tree,
    initial_margins,
    logistic_gradients,
    model_to_dict,
    node_to_dict,
    tree_from_dicts,
    tree_leaf_weights_binned,
    tree_row_sample,
)
from .paillier import (
    Ciphertext,
    EncodingError,
    FixedPointCodec,
    PrivateKey,
    PublicKey,
    aggregate,
    decrypt,
    encrypt,
    hex_to_int,
    int_to_hex,
    keygen,
)
from .seeding import derive_seed, derive_uniform_int
from .transport import MessageBus

SECAGG_PAILLIER = "paillier+mask"
SECAGG_MASK_ONLY = "mask-only"
MASK_ONLY_MODULUS = 1 << 64
SERVER_ID = "server"


class ProtocolError(RuntimeError):
    """A round produced inconsistent or missing protocol data."""


@dataclass(frozen=True)
class HflMembership:
    """What the server knows of a federation: the clients, their sample
    counts and the secure-aggregation mode, and no pairwise mask seed."""

    client_ids: tuple[str, ...]
    sample_counts: tuple[int, ...]
    secagg_mode: str = SECAGG_PAILLIER

    def __post_init__(self):
        if len(self.client_ids) < 1:
            raise ProtocolError("roster needs at least one client")
        if len(set(self.client_ids)) != len(self.client_ids):
            raise ProtocolError("duplicate client ids")
        if any(n < 1 for n in self.sample_counts):
            raise ProtocolError("sample counts must be positive")
        if self.secagg_mode not in (SECAGG_PAILLIER, SECAGG_MASK_ONLY):
            raise ProtocolError(f"unknown secure-aggregation mode {self.secagg_mode!r}")


@dataclass(frozen=True)
class HflRoster(HflMembership):
    """Participants of one sample-partitioned federation, with the pairwise
    mask seeds that only the clients may hold."""

    pair_seeds: dict = field(default_factory=dict)  # {(id_i, id_j) sorted: seed}

    def __post_init__(self):
        super().__post_init__()
        for i, a in enumerate(self.client_ids):
            for b in self.client_ids[i + 1 :]:
                if tuple(sorted((a, b))) not in self.pair_seeds:
                    raise ProtocolError(f"missing pairwise mask seed for ({a}, {b})")

    def pair_seed(self, a: str, b: str) -> int:
        return self.pair_seeds[tuple(sorted((a, b)))]

    def membership(self) -> HflMembership:
        """The roster without its mask seeds: all the server is given."""
        return HflMembership(self.client_ids, self.sample_counts, self.secagg_mode)


def make_roster(
    client_ids: list[str],
    sample_counts: list[int],
    master_seed: int = 0,
    secagg_mode: str = SECAGG_PAILLIER,
) -> HflRoster:
    pair_seeds = {}
    ordered = list(client_ids)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            key = tuple(sorted((a, b)))
            pair_seeds[key] = derive_seed("pair-mask", master_seed, *key)
    return HflRoster(
        client_ids=tuple(ordered),
        sample_counts=tuple(sample_counts),
        secagg_mode=secagg_mode,
        pair_seeds=pair_seeds,
    )


# ---------------------------------------------------------------------------
# Shared binning


def merge_feature_ranges(
    lows_per_client: list[np.ndarray], highs_per_client: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    lows = np.min(np.vstack(lows_per_client), axis=0)
    highs = np.max(np.vstack(highs_per_client), axis=0)
    return lows, highs


def establish_global_binning(datasets: list[PartyDataset], n_bins: int) -> Binning:
    """Equal-width boundaries over the merged per-feature ranges.

    This is the message-free form of the setup exchange: each client would
    report (min, max) per feature and the server broadcasts the merged
    boundaries.  All parties bin identically afterwards.
    """
    schemas = {d.feature_names for d in datasets}
    if len(schemas) != 1:
        raise ProtocolError("clients expose mismatched feature schemas")
    lows, highs = merge_feature_ranges(
        [d.features.min(axis=0) for d in datasets],
        [d.features.max(axis=0) for d in datasets],
    )
    return binning_from_ranges(lows, highs, n_bins)


# ---------------------------------------------------------------------------
# Integer-domain histograms (exact aggregation and subtraction)


@dataclass
class IntHistogram:
    """Fixed-point-scaled integer sums; arithmetic on these is exact."""

    g: np.ndarray  # object dtype, python ints (HFL); int64 (VFL, |sum| < 2^63)
    h: np.ndarray
    counts: np.ndarray  # int64

    @staticmethod
    def zeros(n_features: int, n_bins: int) -> "IntHistogram":
        return IntHistogram(
            g=np.full((n_features, n_bins), 0, dtype=object),
            h=np.full((n_features, n_bins), 0, dtype=object),
            counts=np.zeros((n_features, n_bins), dtype=np.int64),
        )

    def subtract(self, other: "IntHistogram") -> "IntHistogram":
        counts = self.counts - other.counts
        if (counts < 0).any():
            raise ProtocolError("sibling subtraction produced a negative count")
        return IntHistogram(self.g - other.g, self.h - other.h, counts)

    def totals(self) -> tuple[int, int, int]:
        return int(self.g[0].sum()), int(self.h[0].sum()), int(self.counts[0].sum())

    def prefix_totals(self, feature: int, bin_index: int) -> tuple[int, int, int]:
        """(G, H, count) of samples in bins 0..bin_index of one feature."""
        sl = slice(0, bin_index + 1)
        return tuple(int(a[feature, sl].sum()) for a in (self.g, self.h, self.counts))

    def decode(self, codec: FixedPointCodec) -> GradHistogram:
        # object arrays divide element by element as exact Python ints
        return GradHistogram(g=(self.g / codec.scale).astype(np.float64),
                             h=(self.h / codec.scale).astype(np.float64),
                             counts=self.counts.copy())


# ---------------------------------------------------------------------------
# Packed plaintexts (paillier+mask)


@dataclass(frozen=True)
class PackedLayout:
    """Fixed-width slots side by side in one Paillier plaintext.

    A client puts ``quantize(x) + offset`` in each slot, which is positive
    and below ``2 * offset`` while ``|quantize(x)| < offset``.  ``offset`` is
    sized by the largest client's sample count, which bounds any per-client
    sum of logistic gradients (``|g| < 1``, ``h <= 1/4``), and ``width``
    leaves room for the sum of ``n_clients`` such slots.  ``slots`` of them
    fit below ``2**(n.bit_length() - 1) <= n``, so the aggregate of packed
    plaintexts never wraps mod ``n`` and no slot carries into the next.
    """

    offset: int
    width: int
    slots: int
    n_clients: int

    def pack(self, values: list[int]) -> list[int]:
        """Quantized values -> plaintexts of up to ``slots`` slots each."""
        for v in values:
            if not -self.offset < v < self.offset:
                raise EncodingError(
                    f"slot value {v} reaches the packing offset 2^{self.offset.bit_length() - 1}"
                )
        out = []
        for start in range(0, len(values), self.slots):
            plain = 0
            for v in reversed(values[start:start + self.slots]):
                plain = (plain << self.width) | (v + self.offset)
            out.append(plain)
        return out

    def unpack(self, totals: list[int], n_values: int) -> list[int]:
        """Decrypted aggregates of ``n_clients`` packings -> the summed values."""
        bias, mask = self.n_clients * self.offset, (1 << self.width) - 1
        out = []
        for i, total in enumerate(totals):
            used = min(self.slots, n_values - i * self.slots)
            if total >> (self.width * used):
                raise ProtocolError(
                    f"packed aggregate {i} has bits above its {used} slots: "
                    "a submission was tampered with or counted twice"
                )
            out += [((total >> (self.width * j)) & mask) - bias for j in range(used)]
        return out


def packed_layout(members: HflMembership, codec: FixedPointCodec, n: int) -> PackedLayout:
    """The slot layout every party derives from the membership and the key."""
    offset_bits = codec.scale_bits + max(members.sample_counts).bit_length()
    n_clients = len(members.client_ids)
    width = offset_bits + 1 + (n_clients - 1).bit_length()  # + ceil(log2(n_clients))
    slots = (n.bit_length() - 1) // width
    if slots < 1:
        raise EncodingError(
            f"a {n.bit_length()}-bit key fits no {width}-bit slot for this roster"
        )
    return PackedLayout(offset=1 << offset_bits, width=width, slots=slots, n_clients=n_clients)


# ---------------------------------------------------------------------------
# Masking and encryption of one histogram


def _pairwise_mask(roster: HflRoster, client_id: str, modulus: int, domain: str, *label) -> int:
    """Sum of this client's pairwise mask shares for one labelled value.

    The (i, j) pair draws one value from their shared seed; the
    lexicographically smaller id adds it and the larger subtracts it, so the
    shares cancel exactly in the aggregate while blinding every individual
    submission.
    """
    total = 0
    for other in roster.client_ids:
        if other == client_id:
            continue
        seed = roster.pair_seed(client_id, other)
        r = derive_uniform_int(modulus, domain, seed, *label)
        if client_id < other:
            total = (total + r) % modulus
        else:
            total = (total - r) % modulus
    return total


@dataclass
class MaskedEncHistogram:
    client_id: str
    node_id: int
    mode: str
    # paillier+mask: one Ciphertext per packed plaintext of the flat F*B
    # values; mask-only: one int residue per slot
    enc_g: list
    enc_h: list
    counts: np.ndarray  # int64 (n_features, n_bins), in clear
    n_features: int
    n_bins: int


def mask_histogram(
    hist: GradHistogram,
    client_id: str,
    roster: HflRoster,
    nonce: str,
    node_id: int,
    codec: FixedPointCodec,
    pk: PublicKey | None,
    enc_rng: random.Random | None,
) -> MaskedEncHistogram:
    """Fixed-point encode and blind with pairwise masks; under Paillier,
    pack the slots, then mask and encrypt each packed plaintext."""
    paillier = roster.secagg_mode == SECAGG_PAILLIER
    if paillier and pk is None:
        raise ProtocolError("paillier+mask mode needs the server public key")
    F, B = hist.n_features, hist.n_bins
    enc_g, enc_h = [], []
    if paillier:
        layout = packed_layout(roster, codec, pk.n)
        for tag, values, out in (("g", hist.g, enc_g), ("h", hist.h, enc_h)):
            plains = layout.pack([codec.quantize(float(v)) for v in values.flat])
            for i, plain in enumerate(plains):
                mask = _pairwise_mask(roster, client_id, pk.n, "packmask", nonce, node_id, tag, i)
                out.append(encrypt(pk, (plain + mask) % pk.n, rng=enc_rng))
    else:
        modulus = MASK_ONLY_MODULUS
        for f in range(F):
            for b in range(B):
                for tag, value, out in (("g", hist.g[f, b], enc_g), ("h", hist.h[f, b], enc_h)):
                    m = codec.encode(float(value), modulus)
                    mask = _pairwise_mask(roster, client_id, modulus, "slotmask",
                                          nonce, node_id, f, b, tag)
                    out.append((m + mask) % modulus)
    return MaskedEncHistogram(
        client_id=client_id,
        node_id=node_id,
        mode=roster.secagg_mode,
        enc_g=enc_g,
        enc_h=enc_h,
        counts=hist.counts.copy(),
        n_features=F,
        n_bins=B,
    )


def server_aggregate(
    submissions: dict[str, MaskedEncHistogram],
    members: HflMembership,
    codec: FixedPointCodec,
    pk: PublicKey | None,
    sk: PrivateKey | None,
) -> IntHistogram:
    """Combine per-client submissions into the exact global integer histogram."""
    missing = set(members.client_ids) - set(submissions)
    if missing:
        raise ProtocolError(f"round timeout: no histogram from {sorted(missing)}")
    nodes = {s.node_id for s in submissions.values()}
    if len(nodes) != 1:
        raise ProtocolError(f"submissions mix node ids {sorted(nodes)}")
    any_sub = next(iter(submissions.values()))
    F, B = any_sub.n_features, any_sub.n_bins
    out = IntHistogram.zeros(F, B)
    ordered = [submissions[c] for c in sorted(submissions)]
    if members.secagg_mode == SECAGG_PAILLIER:
        layout = packed_layout(members, codec, pk.n)
        n_plain = -(-F * B // layout.slots)
        for enc_attr, target in (("enc_g", out.g), ("enc_h", out.h)):
            columns = [getattr(s, enc_attr) for s in ordered]
            if any(len(c) != n_plain for c in columns):
                raise ProtocolError(f"{enc_attr}: expected {n_plain} packed plaintexts per client")
            totals = [decrypt(sk, pk, aggregate(pk, list(cts))) for cts in zip(*columns)]
            target[:] = np.array(layout.unpack(totals, F * B), dtype=object).reshape(F, B)
    else:
        modulus = MASK_ONLY_MODULUS
        for f in range(F):
            for b in range(B):
                flat = f * B + b
                for enc_attr, target in (("enc_g", out.g), ("enc_h", out.h)):
                    total = sum(getattr(s, enc_attr)[flat] for s in ordered) % modulus
                    target[f, b] = codec.decode_int(total, modulus)
    out.counts[:] = sum(s.counts for s in ordered)
    return out


# ---------------------------------------------------------------------------
# Party actors


class HflClient:
    def __init__(self, client_id: str, dataset: PartyDataset, roster: HflRoster,
                 params: GbtParams, codec: FixedPointCodec, seed: int):
        if dataset.labels is None:
            raise ProtocolError(f"client {client_id} has no labels")
        self.client_id = client_id
        self.dataset = dataset
        self.roster = roster
        self.params = params
        self.codec = codec
        self.seed = seed
        self.client_index = roster.client_ids.index(client_id)
        # Obfuscator exponents from a seeded Mersenne Twister make transcripts
        # repeat byte for byte, and let whoever knows the run seed recompute
        # every obfuscator and strip the encryption without the key.  A
        # deployment must encrypt with ``rng=None`` (the system CSPRNG).
        self.enc_rng = random.Random(derive_seed("enc", seed, client_id))
        self.pk: PublicKey | None = None
        self.binning: Binning | None = None
        self.binned: np.ndarray | None = None
        self.margins = initial_margins(dataset.n_samples, params, seed,
                                       stream=(self.client_index,))
        self.g = np.zeros(dataset.n_samples)
        self.h = np.zeros(dataset.n_samples)
        self.node_samples: dict[int, np.ndarray] = {}

    def feature_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        return self.dataset.features.min(axis=0), self.dataset.features.max(axis=0)

    def install_binning(self, binning: Binning) -> None:
        self.binning = binning
        self.binned = binning.bin_matrix(self.dataset.features)

    def start_tree(self, tree_index: int) -> None:
        rows = tree_row_sample(
            self.dataset.n_samples, self.params.subsample, self.seed, tree_index,
            stream=(self.client_index,),
        )
        self.g, self.h = logistic_gradients(self.dataset.labels, self.margins)
        self.node_samples = {0: rows}

    def masked_submission(self, tree_index: int, node_id: int) -> dict:
        """The ``HISTOGRAM_SUBMIT`` payload of one node: its histogram over
        this client's samples, masked and, under Paillier, encrypted."""
        # the run seed enters the nonce so two protocol instances never
        # reuse a pad value even under the same roster
        nonce = f"s{self.seed}:t{tree_index}"
        hist = build_histogram(self.binned, self.g, self.h, self.node_samples[node_id],
                               self.binning.n_bins)
        sub = mask_histogram(hist, self.client_id, self.roster, nonce, node_id, self.codec,
                             self.pk, self.enc_rng)
        return _submission_payload(sub, tree_index)

    def apply_decisions(self, decisions: list[dict]) -> tuple[list[dict], list[int]]:
        """Partition this client's samples as a ``SPLIT_BROADCAST`` says;
        returns the ``PARTITION_REPORT`` counts and the children whose
        histograms the broadcast asks for."""
        counts, wanted = [], []
        for d in decisions:
            if d["action"] != "split":
                continue
            samples = self.node_samples.pop(d["node"])
            left = self.binned[samples, d["feature"]] <= d["bin"]
            self.node_samples.update({d["left"]: samples[left], d["right"]: samples[~left]})
            counts.append({"node": d["node"], "left": int(left.sum()), "right": int((~left).sum())})
            if d["submit_left"]:
                wanted.append(d["left"])
        return counts, wanted

    def finish_tree(self, tree: Tree) -> None:
        self.margins += self.params.learning_rate * tree_leaf_weights_binned(tree, self.binned)
        self.node_samples = {}


class HflServer:
    def __init__(self, members: HflMembership, params: GbtParams, codec: FixedPointCodec,
                 seed: int, key_bits: int = 512):
        self.members = members
        self.params = params
        self.codec = codec
        self.pk: PublicKey | None = None
        self.sk: PrivateKey | None = None
        # every check runs before the first message is sent
        if members.secagg_mode == SECAGG_PAILLIER:
            self.pk, self.sk = keygen(key_bits=key_bits, rng_seed=derive_seed("hfl-key", seed))
            # the layout bounds each slot by the clients' sample counts
            packed_layout(members, codec, self.pk.n)
        else:
            codec.check_capacity(MASK_ONLY_MODULUS, max_magnitude=1.0,
                                 terms=sum(members.sample_counts))
        self.binning: Binning | None = None
        # the tree in progress: each node's aggregate histogram and its
        # (G, H, count) as fixed-point integers
        self.node_hist: dict[int, IntHistogram] = {}
        self.node_totals: dict[int, tuple[int, int, int]] = {}

    def merge_binning(self, ranges: list[tuple[np.ndarray, np.ndarray]]) -> Binning:
        lows, highs = merge_feature_ranges([r[0] for r in ranges], [r[1] for r in ranges])
        self.binning = binning_from_ranges(lows, highs, self.params.max_bin)
        return self.binning

    def receive_histograms(self, tree_index: int, nodes: list[int],
                           envelopes: list) -> dict[int, IntHistogram]:
        """Aggregate one ``HISTOGRAM_SUBMIT`` per client for each requested
        node.  Any other submission raises :class:`ProtocolError` naming its
        sender, tree and node."""
        subs: dict[int, dict[str, MaskedEncHistogram]] = {node_id: {} for node_id in nodes}
        for env in envelopes:
            tree, node = env.payload["tree"], env.payload["node"]
            if (env.sender not in self.members.client_ids or tree != tree_index
                    or node not in subs or env.sender in subs[node]):
                raise ProtocolError(
                    f"HISTOGRAM_SUBMIT from {env.sender} for tree {tree}, node {node}: the "
                    f"server asked each client once for tree {tree_index}, nodes {nodes}")
            subs[node][env.sender] = _submission_from_payload(
                env.payload, env.sender, len(self.binning.boundaries), self.binning.n_bins)
        return {node_id: server_aggregate(s, self.members, self.codec, self.pk, self.sk)
                for node_id, s in subs.items()}

    def start_tree(self, tree_index: int, envelopes: list) -> None:
        self.node_hist = self.receive_histograms(tree_index, [0], envelopes)
        self.node_totals = {0: self.node_hist[0].totals()}

    def histogram(self, node_id: int) -> GradHistogram | None:
        """The node's aggregate histogram, or None below two samples."""
        splittable = self.node_totals[node_id][2] >= 2
        return self.node_hist[node_id].decode(self.codec) if splittable else None

    def totals(self, node_id: int) -> tuple[float, float]:
        g_int, h_int, _ = self.node_totals[node_id]
        return g_int / self.codec.scale, h_int / self.codec.scale

    def decisions(self, tree: Tree, depth: int, level: list[int]) -> list[dict]:
        """The ``SPLIT_BROADCAST`` of a grown level.  A split's children take
        their totals from the parent's prefix sums; the left one is asked for
        a histogram while either may still split."""
        out = []
        for node in (tree.nodes[i] for i in level):
            if node.is_leaf:
                out.append({"node": node.node_id, "action": "leaf", "weight": node.weight})
                continue
            node.threshold = self.binning.threshold(node.feature, node.bin_index)
            node.owner = SERVER_ID
            left = self.node_hist[node.node_id].prefix_totals(node.feature, node.bin_index)
            right = tuple(a - b for a, b in zip(self.node_totals[node.node_id], left))
            self.node_totals[node.left], self.node_totals[node.right] = left, right
            out.append({
                "node": node.node_id,
                "action": "split",
                "feature": node.feature,
                "bin": node.bin_index,
                "threshold": node.threshold,
                "left": node.left,
                "right": node.right,
                "submit_left": depth + 1 < self.params.max_depth and max(left[2], right[2]) >= 2,
            })
        return out

    def check_partition(self, reports: dict, splits: list[dict]) -> None:
        """The clients' left counts must add up to each split's left child."""
        for s in splits:
            left_sum = sum({c["node"]: c["left"] for c in env.payload["counts"]}[s["node"]]
                           for env in reports.values())
            if left_sum != self.node_totals[s["left"]][2]:
                raise ProtocolError(
                    f"partition mismatch at node {s['node']}: clients report "
                    f"{left_sum} left samples, histogram says {self.node_totals[s['left']][2]}"
                )

    def add_children(self, tree_index: int, splits: list[dict], envelopes: list) -> None:
        """Aggregate the requested left children; each right child is its
        parent minus its sibling, exactly."""
        wanted = [s for s in splits if s["submit_left"]]
        got = self.receive_histograms(tree_index, [s["left"] for s in wanted], envelopes)
        for s in wanted:
            left = got[s["left"]]
            # counts are rounding-free, so they must agree exactly;
            # g/h re-encode per node and may differ by codec units
            if left.totals()[2] != self.node_totals[s["left"]][2]:
                raise ProtocolError(
                    f"child histogram for node {s['left']} disagrees with the parent prefix counts"
                )
            right = self.node_hist[s["node"]].subtract(left)
            for node_id, hist in ((s["left"], left), (s["right"], right)):
                self.node_hist[node_id], self.node_totals[node_id] = hist, hist.totals()


# ---------------------------------------------------------------------------
# Wire encoding of submissions


def _submission_payload(sub: MaskedEncHistogram, tree_index: int) -> dict:
    if sub.mode == SECAGG_PAILLIER:
        enc_g = [int_to_hex(c.value) for c in sub.enc_g]
        enc_h = [int_to_hex(c.value) for c in sub.enc_h]
    else:
        enc_g = [int_to_hex(v) for v in sub.enc_g]
        enc_h = [int_to_hex(v) for v in sub.enc_h]
    return {
        "tree": tree_index,
        "node": sub.node_id,
        "mode": sub.mode,
        "enc_g": enc_g,
        "enc_h": enc_h,
        "counts": sub.counts.flatten().tolist(),
    }


def _submission_from_payload(payload: dict, sender: str, n_features: int, n_bins: int) -> MaskedEncHistogram:
    mode = payload["mode"]
    if mode == SECAGG_PAILLIER:
        enc_g = [Ciphertext(hex_to_int(t)) for t in payload["enc_g"]]
        enc_h = [Ciphertext(hex_to_int(t)) for t in payload["enc_h"]]
    else:
        enc_g = [hex_to_int(t) for t in payload["enc_g"]]
        enc_h = [hex_to_int(t) for t in payload["enc_h"]]
    counts = np.array(payload["counts"], dtype=np.int64).reshape(n_features, n_bins)
    return MaskedEncHistogram(
        client_id=sender,
        node_id=payload["node"],
        mode=mode,
        enc_g=enc_g,
        enc_h=enc_h,
        counts=counts,
        n_features=n_features,
        n_bins=n_bins,
    )


# ---------------------------------------------------------------------------
# Training protocol


def hfl_train(
    roster: HflRoster,
    datasets: dict[str, PartyDataset],
    params: GbtParams,
    seed: int = 0,
    bus: MessageBus | None = None,
    key_bits: int = 512,
) -> tuple[BoostedEnsemble, MessageBus]:
    """Run the full multi-round protocol in process; returns the global model.

    With ``subsample=1`` the result is structurally identical to centralized
    training on the union of the client datasets under the same binning;
    leaf weights agree to fixed-point resolution.
    """
    bus = bus or MessageBus()
    codec = FixedPointCodec()
    missing = set(roster.client_ids) - set(datasets)
    if missing:
        raise ProtocolError(f"datasets missing for {sorted(missing)}")
    schemas = {datasets[c].feature_names for c in roster.client_ids}
    if len(schemas) != 1:
        raise ProtocolError("protocol abort: clients expose mismatched schemas")

    server = HflServer(roster.membership(), params, codec, seed, key_bits)
    clients = {
        cid: HflClient(cid, datasets[cid], roster, params, codec, seed)
        for cid in roster.client_ids
    }
    sid = SERVER_ID
    round_id = 0

    # --- setup: key distribution
    round_id += 1
    if roster.secagg_mode == SECAGG_PAILLIER:
        for cid in roster.client_ids:
            bus.send(sid, cid, "KEY_BROADCAST", round_id, {
                "n": int_to_hex(server.pk.n),
                "g": int_to_hex(server.pk.g),
                "key_bits": key_bits,
            })
        for cid, client in clients.items():
            env = bus.recv(cid, "KEY_BROADCAST")
            n = hex_to_int(env.payload["n"])
            client.pk = PublicKey(n=n, g=hex_to_int(env.payload["g"]), n_squared=n * n)

    # --- setup: shared binning from merged ranges
    round_id += 1
    for cid, client in clients.items():
        lows, highs = client.feature_ranges()
        bus.send(cid, sid, "BINNING_REPORT", round_id, {
            "lows": lows.tolist(),
            "highs": highs.tolist(),
            "n_features": int(client.dataset.n_features),
        })
    reports = bus.recv_from_each(sid, list(roster.client_ids), "BINNING_REPORT")
    widths = {r.payload["n_features"] for r in reports.values()}
    if len(widths) != 1:
        raise ProtocolError("protocol abort: feature-count mismatch across clients")
    ranges = [
        (np.array(reports[c].payload["lows"]), np.array(reports[c].payload["highs"]))
        for c in roster.client_ids
    ]
    binning = server.merge_binning(ranges)
    round_id += 1
    boundaries = binning.boundaries.tolist()
    for cid in roster.client_ids:
        bus.send(sid, cid, "BINNING_BROADCAST", round_id, {
            "boundaries": boundaries,
            "n_bins": binning.n_bins,
        })
    for cid, client in clients.items():
        env = bus.recv(cid, "BINNING_BROADCAST")
        client.install_binning(
            Binning(np.array(env.payload["boundaries"]), env.payload["n_bins"])
        )

    trees: list[Tree] = []

    for t in range(params.n_estimators):
        round_id += 1
        for cid, client in clients.items():
            client.start_tree(t)
            bus.send(cid, sid, "HISTOGRAM_SUBMIT", round_id, client.masked_submission(t, 0))
        server.start_tree(t, [bus.recv(sid, "HISTOGRAM_SUBMIT") for _ in clients])

        def finish_level(tree: Tree, depth: int, level: list[int]) -> None:
            nonlocal round_id
            decisions = server.decisions(tree, depth, level)
            splits = [d for d in decisions if d["action"] == "split"]
            round_id += 1
            for cid in roster.client_ids:
                bus.send(sid, cid, "SPLIT_BROADCAST", round_id, {
                    "tree": t, "depth": depth, "decisions": decisions,
                })
            if splits:
                round_id += 1
            wanted = {}
            for cid, client in clients.items():
                env = bus.recv(cid, "SPLIT_BROADCAST")
                counts, wanted[cid] = client.apply_decisions(env.payload["decisions"])
                if counts:
                    bus.send(cid, sid, "PARTITION_REPORT", round_id, {
                        "tree": t, "depth": depth, "counts": counts,
                    })
            if not splits:
                return
            reports = bus.recv_from_each(sid, list(roster.client_ids), "PARTITION_REPORT")
            server.check_partition(reports, splits)
            n_wanted = sum(s["submit_left"] for s in splits)
            if n_wanted:
                round_id += 1
                for cid, client in clients.items():
                    for node_id in wanted[cid]:
                        bus.send(cid, sid, "HISTOGRAM_SUBMIT", round_id,
                                 client.masked_submission(t, node_id))
                envs = [bus.recv(sid, "HISTOGRAM_SUBMIT") for _ in range(n_wanted * len(clients))]
                server.add_children(t, splits, envs)

        tree = grow_tree(params, server.histogram, server.totals, finish_level)

        # deliver the finished tree so clients can update their margins
        round_id += 1
        # the per-tree document names no owner: every split is the server's
        tree_doc = [node_to_dict(replace(n, owner="")) for n in tree.nodes]
        for cid in roster.client_ids:
            bus.send(sid, cid, "MODEL_DELIVERY", round_id, {"tree_index": t, "tree": tree_doc})
        for cid, client in clients.items():
            env = bus.recv(cid, "MODEL_DELIVERY")
            client.finish_tree(tree_from_dicts(env.payload["tree"]))
        trees.append(tree)

    ensemble = BoostedEnsemble(
        trees=trees,
        params=params,
        base_score_logit=params.base_score_logit,
        feature_names=datasets[roster.client_ids[0]].feature_names,
    )
    round_id += 1
    model_doc = model_to_dict(ensemble)
    for cid in roster.client_ids:
        bus.send(sid, cid, "MODEL_DELIVERY", round_id, {"model": model_doc})
    for cid in roster.client_ids:
        bus.recv(cid, "MODEL_DELIVERY")
    return ensemble, bus
