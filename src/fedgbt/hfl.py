"""Sample-partitioned (horizontal) federated boosted-tree training.

Clients hold identically-featured datasets; a server aggregates their
per-node gradient histograms and drives the split decisions.  Labels, raw
feature values, and per-client gradient sums never leave a client: each
client sums its quantized gradients into int64 histograms
(:mod:`fedgbt.gbt`), packs the slots side by side into residues of a ring
(:class:`fedgbt.gbt.PackedLayout`, after SecureBoost+) and blinds each
residue with pairwise-cancelling masks, so the server learns only the
masked per-client values and, after summing, the exact global aggregate
once the masks cancel.
Each client sends one submission per level: the histograms of the nodes
the server asked for, back to back, in one g and one h layout sized for the
level (:func:`fedgbt.gbt.level_layouts`).  Each pair of clients expands its
shared seed once per stream (run nonce, tree, depth, g or h) into one mask
word per residue (:func:`fedgbt.seeding.expand_mask_words`), and the
packing runs in numpy.
Both modes share that path (:func:`level_streams`).  In ``paillier+mask``
mode the ring is the server's Paillier modulus, a stream takes as many
residues as its slots need, and each masked residue is also encrypted.  In
``mask-only`` mode each stream is one residue of its own ring, a power of
two 64 bits wider than the stream's packing, so a client draws one mask
word per stream and other client and sends its masked residues as they
are; the server derives each ring from the level's ``bits`` and slot count.

The server grows each tree with the shared :func:`fedgbt.gbt.grow_tree`.
Wire protocol per boosting round (tree t, depth d):

* ``SPLIT_BROADCAST``    server -> clients: each node of the level as its
  model document (:func:`fedgbt.gbt.node_to_dict`), on each split the child
  (``submit``) whose histogram comes next, if any, and ``bits``, the bit
  length of the largest global count among those children, which sizes the
  next level's slots;
* ``PARTITION_REPORT``   clients -> server: local left/right counts for each
  split node (consistency check against histogram-derived counts);
* ``HISTOGRAM_SUBMIT``   clients -> server: one per client per level, the
  masked, encrypted histograms of the root, or of each split's smaller child
  (the sibling is derived by exact integer subtraction), in broadcast order
  under ``nodes``; the server accepts one per client that names exactly the
  nodes it asked for, in the roster's ``mode``.

A client keeps the node documents of a tree's broadcasts and, once the tree
is grown, builds it from them (:func:`fedgbt.gbt.tree_from_dicts`) to update
its margins; no tree, and no finished model, is sent again.  Every payload's
fields and wire form are those of :data:`fedgbt.transport.MESSAGES`: the
parties hand the bus ints and lists, and read them back decoded.  A
submission has no other form: :func:`mask_histogram` returns the
``HISTOGRAM_SUBMIT`` payload, ciphertexts as plain ints, and
:func:`server_aggregate` makes every check of the decoded payloads.

Setup uses ``KEY_BROADCAST`` (Paillier public key, whose ``key_bits``
each client checks against ``n``), ``BINNING_REPORT``
(per-feature ranges, sanctioned metadata) and ``BINNING_BROADCAST``.

Clients act only on the messages they receive: each partitions its samples
by the splits in its own copy of ``SPLIT_BROADCAST`` and submits exactly the
children that copy asks for, so a tampered broadcast shows up as a partition
mismatch, a ``submit`` that names no child of its split, an unrequested
submission, a ``bits`` above the roster's or below the client's own count
at a requested node, or node documents that do not form a tree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

import numpy as np

from .data import PartyDataset
from .gbt import (
    FLOAT64_MODULUS,
    INT64_MODULUS,
    Binning,
    BoostedEnsemble,
    GbtParams,
    GradHistogram,
    PackedLayout,
    ProtocolError,
    Tree,
    TrainingError,
    binning_from_ranges,
    build_histogram,
    cell_ids,
    check_capacity,
    find_best_split,  # not called here; perfbench/tracing.py patches it by this name
    grow_tree,
    grown_leaf_weights,
    initial_margins,
    level_layouts,
    logistic_gradients,
    node_to_dict,
    quantize,
    tree_from_dicts,
    tree_leaf_weights_binned,  # likewise
    tree_row_sample,
)
from .paillier import (PrivateKey, PublicKey, aggregate, decrypt, encrypt, keygen,
                       received_public_key)
from .seeding import derive_seed, derive_uniform_int, expand_mask_words, mask_word_bytes
from .transport import MessageBus

SECAGG_PAILLIER = "paillier+mask"
SECAGG_MASK_ONLY = "mask-only"
# the bits of a mask-only ring above its slots: a random change to a
# residue leaves them all clear, and passes the aggregate's bits-above
# check, with probability 2^-64
MASK_SPARE_BITS = 64
SERVER_ID = "server"


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

    def root_bits(self) -> int:
        """The bit length of the roster's total sample count, which sizes
        the root's slots: no node holds more."""
        return sum(self.sample_counts).bit_length()


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
# Masking and encryption of one histogram


def _add_pairwise_masks(roster: HflRoster, client_id: str, modulus: int, plains: list[int],
                        *label) -> list[int]:
    """One labelled stream of residues, each plus this client's pairwise
    mask shares, mod ``modulus``.

    The (i, j) pair expands its shared seed once into one word per residue;
    the lexicographically smaller id adds each word and the larger subtracts
    it, so the shares cancel exactly in the aggregate while blinding every
    individual submission.
    """
    total = plains
    size = mask_word_bytes(modulus)
    for other in roster.client_ids:
        if other == client_id:
            continue
        seed = roster.pair_seed(client_id, other)
        words = expand_mask_words(modulus, len(plains), "packmask", seed, *label)
        sign = 1 if client_id < other else -1
        total = [t + sign * derive_uniform_int(modulus, words, i, size)
                 for i, t in enumerate(total)]
    return [t % modulus for t in total]


def level_streams(bits: int, n_values: int,
                  pk: PublicKey | None) -> list[tuple[PackedLayout, int]]:
    """The g and h streams of a level of ``n_values`` slots each, for nodes
    of fewer than ``2**bits`` samples: each stream's layout and ring.

    Under Paillier (``pk`` given) both streams pack residues of ``n``.
    Mask-only, each stream is one residue of its own ring, a power of two
    ``MASK_SPARE_BITS`` wider than its packing, in the slot widths of
    :func:`fedgbt.gbt.level_layouts` (read at the int64 ring, which every
    admitted roster's sums fit).  The server derives both from the level's
    ``bits`` and the slot count it expects.
    """
    if pk is not None:
        return [(layout, pk.n) for layout in level_layouts(bits, pk.n)]
    return [(replace(layout, slots=n_values), 1 << (layout.width * n_values + MASK_SPARE_BITS))
            for layout in level_layouts(bits, INT64_MODULUS)]


def mask_histogram(
    hists: list[GradHistogram],
    nodes: list[int],
    bits: int,
    client_id: str,
    roster: HflRoster,
    seed: int,
    tree_index: int,
    depth: int,
    pk: PublicKey | None,
    enc_rng: random.Random | None,
) -> dict:
    """One client's ``HISTOGRAM_SUBMIT`` payload of a level: its histograms
    of ``nodes``, packed back to back in the streams of ``bits``
    (:func:`level_streams`), each packed residue masked and, under
    Paillier, encrypted, one value per residue in ``enc_g`` and ``enc_h``;
    the counts go in clear, flat."""
    paillier = roster.secagg_mode == SECAGG_PAILLIER
    if paillier and pk is None:
        raise ProtocolError("paillier+mask mode needs the server public key")
    # the run seed enters the nonce so two protocol instances never reuse a
    # pad value even under the same roster
    nonce = f"s{seed}:t{tree_index}"
    streams = []
    for tag, (layout, ring), values in zip(
            "gh", level_streams(bits, sum(x.g.size for x in hists), pk if paillier else None),
            ([x.g for x in hists], [x.h for x in hists])):
        masked = _add_pairwise_masks(roster, client_id, ring, layout.pack(values),
                                     nonce, depth, tag)
        streams.append([encrypt(pk, m, rng=enc_rng) for m in masked] if paillier else masked)
    return {"tree": tree_index, "nodes": list(nodes), "mode": roster.secagg_mode,
            "enc_g": streams[0], "enc_h": streams[1],
            "counts": np.array([x.counts for x in hists]).ravel().tolist()}


def _asked_once(sender: str, submission: dict, tree_index: int, nodes: list[int]) -> str:
    return (f"HISTOGRAM_SUBMIT from {sender} for tree {submission['tree']}, nodes "
            f"{submission['nodes']}: the server asked each client once for tree {tree_index}, "
            f"nodes {nodes}")


def server_aggregate(
    submissions: dict[str, dict],
    members: HflMembership,
    tree_index: int,
    nodes: list[int],
    shape: tuple[int, int],
    bits: int,
    pk: PublicKey | None,
    sk: PrivateKey | None,
) -> list[GradHistogram]:
    """Combine the clients' decoded ``HISTOGRAM_SUBMIT`` payloads of a
    level, by sender, into the exact global histograms of its ``nodes``,
    each of ``shape`` = (features, bins).

    Each submission must come from a roster client, name ``tree_index``
    and ``nodes`` in order, be in the roster's mode, carry ``len(nodes)``
    times ``shape`` non-negative counts whose feature rows of a node add
    up alike, and carry, per stream, one value for each packed residue of
    the streams of ``bits`` (:func:`level_streams`), each a residue of the
    stream's ring (mask-only) or a ciphertext below ``n^2`` (Paillier); any
    other raises :class:`ProtocolError` naming its sender, tree and nodes,
    as does a client that sent none.  Every client packs each slot at the
    layout's offset; the aggregate keeps one.
    """
    n_values = len(nodes) * shape[0] * shape[1]
    paillier = members.secagg_mode == SECAGG_PAILLIER
    streams = level_streams(bits, n_values, pk if paillier else None)
    for sender, s in sorted(submissions.items()):
        if sender not in members.client_ids or (s["tree"], s["nodes"]) != (tree_index, nodes):
            raise ProtocolError(_asked_once(sender, s, tree_index, nodes))
        where = f"HISTOGRAM_SUBMIT from {sender} for tree {tree_index}, nodes {nodes}"
        if s["mode"] != members.secagg_mode:
            raise ProtocolError(f"{where}: mode {s['mode']!r}, not the roster's "
                                f"{members.secagg_mode!r}")
        counts = s["counts"]
        if counts.size != n_values:
            raise ProtocolError(f"{where}: {counts.size} counts, expected {n_values}")
        counts = counts.reshape(len(nodes), *shape)
        if (counts < 0).any() or (counts.sum(axis=2) != counts[:, :1].sum(axis=2)).any():
            raise ProtocolError(f"{where}: a negative count, or feature rows whose counts "
                                "differ in sum")
        for name, (layout, ring) in zip(("enc_g", "enc_h"), streams):
            values, per_stream = s[name], -(-n_values // layout.slots)
            if len(values) != per_stream:
                raise ProtocolError(f"{where}: {len(values)} {name} values, "
                                    f"expected {per_stream}")
            kind, bound, shown = (("ciphertext", pk.n_squared, "n^2") if paillier
                                  else ("residue", ring, f"2^{ring.bit_length() - 1}"))
            if not 0 <= min(values) <= max(values) < bound:
                raise ProtocolError(f"{where}: an {name} {kind} outside [0, {shown})")
    missing = set(members.client_ids) - set(submissions)
    if missing:
        raise ProtocolError(f"round timeout: no histogram from {sorted(missing)}")
    ordered = [submissions[c] for c in sorted(submissions)]
    counts = sum(s["counts"] for s in ordered).reshape(len(nodes), *shape)
    sums = []
    for name, (layout, ring) in zip(("enc_g", "enc_h"), streams):
        columns = zip(*(s[name] for s in ordered))
        if paillier:
            totals = [decrypt(sk, pk, aggregate(pk, cts)) for cts in columns]
        else:
            totals = [sum(cts) % ring for cts in columns]  # the masks cancel mod the ring
        if layout.offset:  # all but one offset per slot, one constant per residue
            surplus = layout.pack(np.zeros(n_values, dtype=np.int64))
            totals = [(t - (len(ordered) - 1) * z) % ring for t, z in zip(totals, surplus)]
        sums.append(layout.unpack(totals, n_values).reshape(counts.shape))
    return [GradHistogram(g, h, c) for g, h, c in zip(*sums, counts)]


# ---------------------------------------------------------------------------
# Party actors


class HflClient:
    def __init__(self, client_id: str, dataset: PartyDataset, roster: HflRoster,
                 params: GbtParams, seed: int):
        if dataset.labels is None:
            raise ProtocolError(f"client {client_id} has no labels")
        self.client_id = client_id
        self.dataset = dataset
        self.roster = roster
        self.params = params
        self.seed = seed
        self.client_index = roster.client_ids.index(client_id)
        # Obfuscator exponents from a seeded Mersenne Twister make transcripts
        # repeat byte for byte, and let whoever knows the run seed recompute
        # every obfuscator and strip the encryption without the key.  A
        # deployment must encrypt with ``rng=None`` (the system CSPRNG).
        self.enc_rng = random.Random(derive_seed("enc", seed, client_id))
        # this client's histograms sum in float64
        check_capacity(FLOAT64_MODULUS, dataset.n_samples)
        self.pk: PublicKey | None = None
        self.binning: Binning | None = None
        # this client's bins: one row per feature, and each row's cell ids
        self.columns: np.ndarray | None = None
        self.cells: np.ndarray | None = None
        self.margins = initial_margins(dataset.n_samples, params, seed,
                                       stream=(self.client_index,))
        # this tree's quantized gradients
        self.g = np.zeros(dataset.n_samples, dtype=np.int64)
        self.h = np.zeros(dataset.n_samples, dtype=np.int64)
        self.node_samples: dict[int, np.ndarray] = {}
        # this tree's node documents, as its SPLIT_BROADCASTs carried them
        self.tree_docs: list[dict] = []

    def feature_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        return self.dataset.features.min(axis=0), self.dataset.features.max(axis=0)

    def install_binning(self, binning: Binning) -> None:
        self.binning = binning
        self.columns = binning.bin_columns(self.dataset.features)
        self.cells = cell_ids(self.columns, binning.n_bins)

    def start_tree(self, tree_index: int) -> None:
        rows = tree_row_sample(
            self.dataset.n_samples, self.params.subsample, self.seed, tree_index,
            stream=(self.client_index,),
        )
        self.g, self.h = map(quantize, logistic_gradients(self.dataset.labels, self.margins))
        self.node_samples = {0: rows}

    def level_submission(self, tree_index: int, depth: int, nodes: list[int],
                         bits: int) -> dict:
        """The ``HISTOGRAM_SUBMIT`` payload of the given nodes at ``depth``:
        their histograms over this client's samples, built in one call,
        packed back to back in the layouts of ``bits``, masked and, under
        Paillier, encrypted.  A node where this client alone holds
        ``2**bits`` samples or more raises :class:`ProtocolError` before any
        mask is drawn, and so do ``bits`` outside ``[0, roster.root_bits()]``:
        no node holds more samples than the roster."""
        if type(bits) is not int or not 0 <= bits <= self.roster.root_bits():
            raise ProtocolError(f"SPLIT_BROADCAST to {self.client_id} for tree {tree_index} "
                                f"sizes nodes for {bits!r}-bit counts; the roster's total "
                                f"takes {self.roster.root_bits()} bits")
        for node_id in nodes:
            held = self.node_samples[node_id].size
            if held >> bits:
                raise ProtocolError(f"SPLIT_BROADCAST to {self.client_id} for tree {tree_index} "
                                    f"sizes node {node_id} for {bits}-bit counts, but the "
                                    f"client holds {held} samples there")
        hists = build_histogram(self.cells, self.g, self.h,
                                [self.node_samples[n] for n in nodes], self.binning.n_bins)
        return mask_histogram(hists, nodes, bits, self.client_id, self.roster, self.seed,
                              tree_index, depth, self.pk, self.enc_rng)

    def apply_decisions(self, decisions: list[dict]) -> tuple[list[dict], list[int]]:
        """Partition this client's samples as a ``SPLIT_BROADCAST`` says, and
        keep its node documents for :meth:`finish_tree`; returns the
        ``PARTITION_REPORT`` counts and the children whose histograms the
        broadcast asks for."""
        self.tree_docs += decisions
        counts, wanted = [], []
        for d in (d for d in decisions if not d["leaf"]):
            if d["id"] not in self.node_samples:
                raise ProtocolError(f"SPLIT_BROADCAST to {self.client_id} splits node "
                                    f"{d['id']}, for which it holds no samples")
            samples = self.node_samples.pop(d["id"])
            left = self.columns[d["feature"]][samples] <= d["bin"]
            self.node_samples.update({d["left"]: samples[left], d["right"]: samples[~left]})
            counts.append({"node": d["id"], "left": int(left.sum()), "right": int((~left).sum())})
            if d["submit"] is not None:
                if d["submit"] not in (d["left"], d["right"]):
                    raise ProtocolError(f"SPLIT_BROADCAST to {self.client_id} asks for node "
                                        f"{d['submit']}, not a child of node {d['id']}")
                wanted.append(d["submit"])
        return counts, wanted

    def finish_tree(self, tree_index: int) -> Tree:
        """Build the tree from this tree's broadcasts, update the margins by
        it, and return it."""
        try:
            tree = tree_from_dicts(self.tree_docs)
        except TrainingError as exc:
            raise ProtocolError(f"the SPLIT_BROADCASTs to {self.client_id} for tree "
                                f"{tree_index} do not form a tree: {exc}") from None
        self.margins += self.params.learning_rate * grown_leaf_weights(
            tree, self.node_samples, self.columns)
        self.node_samples, self.tree_docs = {}, []
        return tree


class HflServer:
    def __init__(self, members: HflMembership, params: GbtParams, seed: int,
                 key_bits: int = 512):
        self.members = members
        self.params = params
        self.pk: PublicKey | None = None
        self.sk: PrivateKey | None = None
        # every check runs before the first message is sent
        if members.secagg_mode == SECAGG_PAILLIER:
            self.pk, self.sk = keygen(key_bits=key_bits, rng_seed=derive_seed("hfl-key", seed))
        if self.pk:  # the root's layouts, the widest, fit a slot below n
            level_layouts(members.root_bits(), self.pk.n)
        # every client's and the aggregate's sums fit int64
        check_capacity(INT64_MODULUS, sum(members.sample_counts))
        self.binning: Binning | None = None

    def merge_binning(self, ranges: list[tuple[np.ndarray, np.ndarray]]) -> Binning:
        lows, highs = merge_feature_ranges([r[0] for r in ranges], [r[1] for r in ranges])
        self.binning = binning_from_ranges(lows, highs, self.params.max_bin)
        return self.binning

    def receive_histograms(self, tree_index: int, nodes: list[int], bits: int,
                           envelopes: list) -> dict[int, GradHistogram]:
        """Aggregate a level's ``HISTOGRAM_SUBMIT``s, one per client naming
        ``nodes`` in order, packed in the layouts of ``bits``
        (:func:`server_aggregate`).  A second submission from a client
        raises :class:`ProtocolError` naming its sender, tree and nodes."""
        subs: dict[str, dict] = {}
        for env in envelopes:
            if env.sender in subs:
                raise ProtocolError(_asked_once(env.sender, env.payload, tree_index, nodes))
            subs[env.sender] = env.payload
        shape = len(self.binning.boundaries), self.binning.n_bins
        return dict(zip(nodes, server_aggregate(subs, self.members, tree_index, nodes, shape,
                                                bits, self.pk, self.sk)))

    def decisions(self, tree: Tree, level: list[int], build: list[int]) -> list[dict]:
        """The ``SPLIT_BROADCAST`` of a grown level: each node's document,
        which names no owner, since every split is the server's; each
        split's ``submit`` is its child in ``build``, the one the grower asks
        histograms for."""
        out = []
        for node in (tree.nodes[i] for i in level):
            if node.is_leaf:
                out.append(node_to_dict(node))
                continue
            node.threshold = self.binning.threshold(node.feature, node.bin_index)
            out.append({**node_to_dict(node),
                        "submit": next((c for c in (node.left, node.right) if c in build), None)})
            node.owner = SERVER_ID
        return out

    def check_partition(self, reports: dict, splits: list[dict], stats: dict) -> None:
        """Each client reports every split node, and the clients' left counts
        add up to each split's left child's count in the grower's ``stats``."""
        nodes = sorted(s["id"] for s in splits)
        for sender, env in reports.items():
            reported = sorted(c["node"] for c in env.payload["counts"])
            if reported != nodes:
                raise ProtocolError(f"PARTITION_REPORT from {sender} reports nodes {reported}, "
                                    f"not the split nodes {nodes}")
        for s in splits:
            left_sum = sum({c["node"]: c["left"] for c in env.payload["counts"]}[s["id"]]
                           for env in reports.values())
            if left_sum != stats[s["left"]][2]:
                raise ProtocolError(
                    f"partition mismatch at node {s['id']}: clients report "
                    f"{left_sum} left samples, histogram says {stats[s['left']][2]}"
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

    With ``subsample=1`` the result is the model that centralized training
    on the union of the client datasets builds under the same binning: the
    same splits, and leaf weights equal.
    """
    bus = bus or MessageBus()
    missing = set(roster.client_ids) - set(datasets)
    if missing:
        raise ProtocolError(f"datasets missing for {sorted(missing)}")
    schemas = {datasets[c].feature_names for c in roster.client_ids}
    if len(schemas) != 1:
        raise ProtocolError("protocol abort: clients expose mismatched schemas")

    server = HflServer(roster.membership(), params, seed, key_bits)
    clients = {
        cid: HflClient(cid, datasets[cid], roster, params, seed)
        for cid in roster.client_ids
    }
    sid = SERVER_ID
    round_id = 0

    # --- setup: key distribution
    round_id += 1
    if roster.secagg_mode == SECAGG_PAILLIER:
        for cid in roster.client_ids:
            bus.send(sid, cid, "KEY_BROADCAST", round_id,
                     {"n": server.pk.n, "g": server.pk.g, "key_bits": key_bits})
        for cid, client in clients.items():
            try:
                client.pk = received_public_key(bus.recv(cid, "KEY_BROADCAST").payload)
            except ValueError as exc:
                raise ProtocolError(f"KEY_BROADCAST to {cid}: {exc}") from None

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
            bus.send(cid, sid, "HISTOGRAM_SUBMIT", round_id,
                     client.level_submission(t, 0, [0], roster.root_bits()))
        root = server.receive_histograms(t, [0], server.members.root_bits(),
                                         [bus.recv(sid, "HISTOGRAM_SUBMIT") for _ in clients])

        def finish_level(tree: Tree, depth: int, level: list[int], stats: dict,
                         build: list[int]) -> dict[int, GradHistogram]:
            nonlocal round_id
            if depth < 0:
                return root  # every tree starts from the root's histogram
            decisions = server.decisions(tree, level, build)
            splits = [d for d in decisions if not d["leaf"]]
            bits = max((stats[n][2] for n in build), default=0).bit_length()
            round_id += 1
            for cid in roster.client_ids:
                bus.send(sid, cid, "SPLIT_BROADCAST", round_id, {
                    "tree": t, "depth": depth, "decisions": decisions, "bits": bits,
                })
            if splits:
                round_id += 1
            wanted, received = {}, {}
            for cid, client in clients.items():
                received[cid] = bus.recv(cid, "SPLIT_BROADCAST").payload
                counts, wanted[cid] = client.apply_decisions(received[cid]["decisions"])
                if counts:
                    bus.send(cid, sid, "PARTITION_REPORT", round_id, {
                        "tree": t, "depth": depth, "counts": counts,
                    })
            if not splits:
                return {}
            reports = bus.recv_from_each(sid, list(roster.client_ids), "PARTITION_REPORT")
            server.check_partition(reports, splits, stats)
            if not build:
                return {}
            round_id += 1
            for cid, client in clients.items():
                bus.send(cid, sid, "HISTOGRAM_SUBMIT", round_id, client.level_submission(
                    t, received[cid]["depth"] + 1, wanted[cid], received[cid]["bits"]))
            envs = [bus.recv(sid, "HISTOGRAM_SUBMIT") for _ in clients]
            return server.receive_histograms(t, build, bits, envs)

        trees.append(grow_tree(params, t, root[0].totals(), finish_level))
        for client in clients.values():
            client.finish_tree(t)

    ensemble = BoostedEnsemble(
        trees=trees,
        params=params,
        base_score_logit=params.base_score_logit,
        feature_names=datasets[roster.client_ids[0]].feature_names,
    )
    return ensemble, bus
