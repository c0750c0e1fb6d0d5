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
Each pair of clients expands its shared seed once per stream (run nonce,
tree, node, g or h) into one mask word per residue
(:func:`fedgbt.seeding.expand_mask_words`), and the packing runs in numpy.
Both modes share that path.  In ``paillier+mask`` mode the ring is the
server's Paillier modulus and each masked residue is also encrypted; in
``mask-only`` mode the ring is ``MASK_ONLY_MODULUS`` and the masked residues
travel as they are.

The server grows each tree with the shared :func:`fedgbt.gbt.grow_tree`.
Wire protocol per boosting round (tree t, depth d):

* ``SPLIT_BROADCAST``    server -> clients: leaf/split decision per node,
  and per split the child (``submit``) whose histogram comes next, if any;
* ``PARTITION_REPORT``   clients -> server: local left/right counts for each
  split node (consistency check against histogram-derived counts);
* ``HISTOGRAM_SUBMIT``   clients -> server: masked, encrypted histograms of
  the root and of each split's smaller child (the sibling is derived by exact
  integer subtraction); the server accepts one per client per node it asked for;
* ``MODEL_DELIVERY``     server -> clients: the finished tree, then the full
  ensemble at the end.

Setup uses ``KEY_BROADCAST`` (Paillier public key), ``BINNING_REPORT``
(per-feature ranges, sanctioned metadata) and ``BINNING_BROADCAST``.

Clients act only on the messages they receive: each partitions its samples
by the splits in its own copy of ``SPLIT_BROADCAST`` and submits exactly the
children that copy asks for, so a tampered broadcast shows up as a partition
mismatch, a ``submit`` that names no child of its split, or an unrequested
submission.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

import numpy as np

from .data import PartyDataset
from .gbt import (
    FLOAT64_MODULUS,
    GRAD_SCALE_BITS,
    INT64_MODULUS,
    Binning,
    BoostedEnsemble,
    GbtParams,
    GradHistogram,
    PackedLayout,
    ProtocolError,
    Tree,
    binning_from_ranges,
    build_histogram,
    cell_ids,
    check_capacity,
    find_best_split,  # not called here; perfbench/tracing.py patches it by this name
    grow_tree,
    grown_leaf_weights,
    initial_margins,
    logistic_gradients,
    model_to_dict,
    node_to_dict,
    quantize,
    tree_from_dicts,
    tree_leaf_weights_binned,  # likewise
    tree_row_sample,
)
from .paillier import (
    Ciphertext,
    EncodingError,
    PrivateKey,
    PublicKey,
    aggregate,
    decrypt,
    encrypt,
    hex_to_int,
    int_to_hex,
    keygen,
)
from .seeding import derive_seed, derive_uniform_int, expand_mask_words
from .transport import MessageBus

SECAGG_PAILLIER = "paillier+mask"
SECAGG_MASK_ONLY = "mask-only"
# the mask-only ring: one slot of it holds every roster whose sums fit int64,
# and each mask is one 33-byte word of a SHAKE-256 expansion
MASK_ONLY_MODULUS = 1 << 128
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
# Packed residues


def packed_layout(members: HflMembership, n: int) -> PackedLayout:
    """The slot layout every party derives from the membership and the ring."""
    offset_bits = GRAD_SCALE_BITS + max(members.sample_counts).bit_length()
    n_clients = len(members.client_ids)
    width = offset_bits + 1 + (n_clients - 1).bit_length()  # + ceil(log2(n_clients))
    slots = (n.bit_length() - 1) // width
    if slots < 1:
        raise EncodingError(
            f"a {n.bit_length()}-bit modulus fits no {width}-bit slot for this roster"
        )
    return PackedLayout(offset=1 << offset_bits, width=width, slots=slots, n_clients=n_clients)


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
    for other in roster.client_ids:
        if other == client_id:
            continue
        seed = roster.pair_seed(client_id, other)
        words = expand_mask_words(modulus, len(plains), "packmask", seed, *label)
        sign = 1 if client_id < other else -1
        total = [t + sign * derive_uniform_int(modulus, words, i) for i, t in enumerate(total)]
    return [t % modulus for t in total]


@dataclass
class MaskedEncHistogram:
    client_id: str
    tree: int
    node_id: int
    mode: str
    # one masked residue per packed residue of the flat F*B slots, encrypted
    # under paillier+mask
    enc_g: list[int]
    enc_h: list[int]
    counts: np.ndarray  # int64 (n_features, n_bins), in clear


def mask_histogram(
    hist: GradHistogram,
    client_id: str,
    roster: HflRoster,
    seed: int,
    tree_index: int,
    node_id: int,
    pk: PublicKey | None,
    enc_rng: random.Random | None,
) -> MaskedEncHistogram:
    """Pack a histogram's slots, then mask each packed residue and, under
    Paillier, encrypt it."""
    paillier = roster.secagg_mode == SECAGG_PAILLIER
    if paillier and pk is None:
        raise ProtocolError("paillier+mask mode needs the server public key")
    # the run seed enters the nonce so two protocol instances never reuse a
    # pad value even under the same roster
    nonce = f"s{seed}:t{tree_index}"
    ring = pk.n if paillier else MASK_ONLY_MODULUS
    layout = packed_layout(roster, ring)
    streams = []
    for tag, values in (("g", hist.g), ("h", hist.h)):
        masked = _add_pairwise_masks(roster, client_id, ring, layout.pack(values),
                                     nonce, node_id, tag)
        streams.append([encrypt(pk, m, rng=enc_rng).value for m in masked] if paillier
                       else masked)
    enc_g, enc_h = streams
    return MaskedEncHistogram(
        client_id=client_id,
        tree=tree_index,
        node_id=node_id,
        mode=roster.secagg_mode,
        enc_g=enc_g,
        enc_h=enc_h,
        counts=hist.counts.copy(),
    )


def server_aggregate(
    submissions: dict[str, MaskedEncHistogram],
    members: HflMembership,
    pk: PublicKey | None,
    sk: PrivateKey | None,
) -> GradHistogram:
    """Combine per-client submissions into the exact global histogram.

    Each submission must carry, per stream, one value for each packed
    residue, and each value must be a residue of the ring (mask-only) or a
    ciphertext below ``n^2`` (Paillier); any other raises
    :class:`ProtocolError` naming its sender, tree and node.
    """
    missing = set(members.client_ids) - set(submissions)
    if missing:
        raise ProtocolError(f"round timeout: no histogram from {sorted(missing)}")
    nodes = {s.node_id for s in submissions.values()}
    if len(nodes) != 1:
        raise ProtocolError(f"submissions mix node ids {sorted(nodes)}")
    any_sub = next(iter(submissions.values()))
    F, B = any_sub.counts.shape
    ordered = [submissions[c] for c in sorted(submissions)]
    paillier = members.secagg_mode == SECAGG_PAILLIER
    ring = pk.n if paillier else MASK_ONLY_MODULUS
    layout = packed_layout(members, ring)
    per_stream = -(-F * B // layout.slots)
    kind, bound, shown = (("ciphertext", pk.n_squared, "n^2") if paillier
                          else ("residue", ring, f"2^{ring.bit_length() - 1}"))
    for s in ordered:
        where = f"HISTOGRAM_SUBMIT from {s.client_id} for tree {s.tree}, node {s.node_id}"
        for enc_attr in ("enc_g", "enc_h"):
            values = getattr(s, enc_attr)
            if len(values) != per_stream:
                raise ProtocolError(f"{where}: {len(values)} {enc_attr} values, "
                                    f"expected {per_stream}")
            if not 0 <= min(values) <= max(values) < bound:
                raise ProtocolError(f"{where}: an {enc_attr} {kind} outside [0, {shown})")
    sums = []
    for enc_attr in ("enc_g", "enc_h"):
        columns = zip(*(getattr(s, enc_attr) for s in ordered))
        if paillier:
            totals = [decrypt(sk, pk, aggregate(pk, [Ciphertext(c) for c in cts]))
                      for cts in columns]
        else:
            totals = [sum(cts) % ring for cts in columns]  # the masks cancel mod the ring
        sums.append(np.array(layout.unpack(totals, F * B), dtype=np.int64).reshape(F, B))
    return GradHistogram(*sums, counts=sum(s.counts for s in ordered))


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

    def masked_submissions(self, tree_index: int, node_ids: list[int]) -> list[dict]:
        """The ``HISTOGRAM_SUBMIT`` payloads of the given nodes, in order:
        their histograms over this client's samples, built in one call, each
        masked and, under Paillier, encrypted."""
        hists = build_histogram(self.cells, self.g, self.h,
                                [self.node_samples[n] for n in node_ids], self.binning.n_bins)
        return [_submission_payload(mask_histogram(hist, self.client_id, self.roster, self.seed,
                                                   tree_index, node_id, self.pk, self.enc_rng))
                for node_id, hist in zip(node_ids, hists)]

    def apply_decisions(self, decisions: list[dict]) -> tuple[list[dict], list[int]]:
        """Partition this client's samples as a ``SPLIT_BROADCAST`` says;
        returns the ``PARTITION_REPORT`` counts and the children whose
        histograms the broadcast asks for."""
        counts, wanted = [], []
        for d in decisions:
            if d["action"] != "split":
                continue
            if d["node"] not in self.node_samples:
                raise ProtocolError(f"SPLIT_BROADCAST to {self.client_id} splits node "
                                    f"{d['node']}, for which it holds no samples")
            samples = self.node_samples.pop(d["node"])
            left = self.columns[d["feature"]][samples] <= d["bin"]
            self.node_samples.update({d["left"]: samples[left], d["right"]: samples[~left]})
            counts.append({"node": d["node"], "left": int(left.sum()), "right": int((~left).sum())})
            if d["submit"] is not None:
                if d["submit"] not in (d["left"], d["right"]):
                    raise ProtocolError(f"SPLIT_BROADCAST to {self.client_id} asks for node "
                                        f"{d['submit']}, not a child of node {d['node']}")
                wanted.append(d["submit"])
        return counts, wanted

    def finish_tree(self, tree: Tree) -> None:
        self.margins += self.params.learning_rate * grown_leaf_weights(
            tree, self.node_samples, self.columns)
        self.node_samples = {}


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
        # the layout bounds each slot by the clients' sample counts
        packed_layout(members, self.pk.n if self.pk else MASK_ONLY_MODULUS)
        # every client's and the aggregate's sums fit int64
        check_capacity(INT64_MODULUS, sum(members.sample_counts))
        self.binning: Binning | None = None

    def merge_binning(self, ranges: list[tuple[np.ndarray, np.ndarray]]) -> Binning:
        lows, highs = merge_feature_ranges([r[0] for r in ranges], [r[1] for r in ranges])
        self.binning = binning_from_ranges(lows, highs, self.params.max_bin)
        return self.binning

    def receive_histograms(self, tree_index: int, nodes: list[int],
                           envelopes: list) -> dict[int, GradHistogram]:
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
        return {node_id: server_aggregate(s, self.members, self.pk, self.sk)
                for node_id, s in subs.items()}

    def decisions(self, tree: Tree, level: list[int], build: list[int]) -> list[dict]:
        """The ``SPLIT_BROADCAST`` of a grown level; each split's ``submit``
        is its child in ``build``, the one the grower asks histograms for."""
        out = []
        for node in (tree.nodes[i] for i in level):
            if node.is_leaf:
                out.append({"node": node.node_id, "action": "leaf", "weight": node.weight})
                continue
            node.threshold = self.binning.threshold(node.feature, node.bin_index)
            node.owner = SERVER_ID
            out.append({
                "node": node.node_id,
                "action": "split",
                "feature": node.feature,
                "bin": node.bin_index,
                "threshold": node.threshold,
                "left": node.left,
                "right": node.right,
                "submit": next((c for c in (node.left, node.right) if c in build), None),
            })
        return out

    def check_partition(self, reports: dict, splits: list[dict], stats: dict) -> None:
        """Each client reports every split node, and the clients' left counts
        add up to each split's left child's count in the grower's ``stats``."""
        nodes = sorted(s["node"] for s in splits)
        for sender, env in reports.items():
            reported = sorted(c["node"] for c in env.payload["counts"])
            if reported != nodes:
                raise ProtocolError(f"PARTITION_REPORT from {sender} reports nodes {reported}, "
                                    f"not the split nodes {nodes}")
        for s in splits:
            left_sum = sum({c["node"]: c["left"] for c in env.payload["counts"]}[s["node"]]
                           for env in reports.values())
            if left_sum != stats[s["left"]][2]:
                raise ProtocolError(
                    f"partition mismatch at node {s['node']}: clients report "
                    f"{left_sum} left samples, histogram says {stats[s['left']][2]}"
                )


# ---------------------------------------------------------------------------
# Wire encoding of submissions


def _submission_payload(sub: MaskedEncHistogram) -> dict:
    return {
        "tree": sub.tree,
        "node": sub.node_id,
        "mode": sub.mode,
        "enc_g": [int_to_hex(v) for v in sub.enc_g],
        "enc_h": [int_to_hex(v) for v in sub.enc_h],
        "counts": sub.counts.flatten().tolist(),
    }


def _submission_from_payload(payload: dict, sender: str, n_features: int,
                             n_bins: int) -> MaskedEncHistogram:
    """A submission off the wire; counts that are not ``n_features`` rows of
    ``n_bins`` non-negative counts with one sum raise :class:`ProtocolError`
    naming the sender, tree and node."""
    where = f"HISTOGRAM_SUBMIT from {sender} for tree {payload['tree']}, node {payload['node']}"
    counts = np.array(payload["counts"], dtype=np.int64)
    if counts.size != n_features * n_bins:
        raise ProtocolError(f"{where}: {counts.size} counts, expected {n_features * n_bins}")
    counts = counts.reshape(n_features, n_bins)
    if (counts < 0).any() or (counts.sum(axis=1) != counts[0].sum()).any():
        raise ProtocolError(f"{where}: a negative count, or feature rows whose counts "
                            "differ in sum")
    return MaskedEncHistogram(
        client_id=sender,
        tree=payload["tree"],
        node_id=payload["node"],
        mode=payload["mode"],
        enc_g=[hex_to_int(t) for t in payload["enc_g"]],
        enc_h=[hex_to_int(t) for t in payload["enc_h"]],
        counts=counts,
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
            (root_payload,) = client.masked_submissions(t, [0])
            bus.send(cid, sid, "HISTOGRAM_SUBMIT", round_id, root_payload)
        root = server.receive_histograms(t, [0], [bus.recv(sid, "HISTOGRAM_SUBMIT")
                                                  for _ in clients])

        def finish_level(tree: Tree, depth: int, level: list[int], stats: dict,
                         build: list[int]) -> dict[int, GradHistogram]:
            nonlocal round_id
            if depth < 0:
                return root  # every tree starts from the root's histogram
            decisions = server.decisions(tree, level, build)
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
                return {}
            reports = bus.recv_from_each(sid, list(roster.client_ids), "PARTITION_REPORT")
            server.check_partition(reports, splits, stats)
            if not build:
                return {}
            round_id += 1
            for cid, client in clients.items():
                for payload in client.masked_submissions(t, wanted[cid]):
                    bus.send(cid, sid, "HISTOGRAM_SUBMIT", round_id, payload)
            envs = [bus.recv(sid, "HISTOGRAM_SUBMIT") for _ in range(len(build) * len(clients))]
            return server.receive_histograms(t, build, envs)

        tree = grow_tree(params, t, root[0].totals(), finish_level)

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
