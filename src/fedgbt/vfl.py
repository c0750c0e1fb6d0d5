"""Feature-partitioned (vertical) federated boosted-tree training.

One active party holds the labels (and possibly a feature block); passive
parties hold disjoint feature blocks over the same, pre-aligned sample ids.
Per tree, the active party encrypts every sample's gradient pair under its
own Paillier key and broadcasts the ciphertexts; passive parties sum them
homomorphically per (feature, bin) and return encrypted histograms.  The
active party decrypts the aggregates, picks the best split across all
parties, and records only (owning party, record id) for foreign nodes — the
winning threshold value stays at its owner, which also resolves sample
partitions and answers left/right queries at inference time.

Inference walks every (tree, row) pair in level-synchronous rounds.  A walk
descends through the active party's own splits locally; at a foreign split
it waits, and each round every passive party that owns a waiting split
answers one ``INFER_QUERY`` for all of them, with one list of bools per
record in its ``INFER_REPLY``.  The passive party learns which of its own
records each queried sample id reaches, and no more; the active party
learns no answer for a split off a row's path.  A call sends at most
``2 * max_depth`` messages per passive party, whatever the number of rows
or trees.

The active party holds the primes and works in them.  It encrypts each
sample's quantized gradients (:func:`fedgbt.gbt.quantize`) with its private
key's per-prime tables.  A passive party folds each run of ``slots`` bin
sums into one ciphertext by Horner's rule, ``c <- c**(2**w) * c_next``
(cipher compression, after SecureBoost+), with the shared
:class:`fedgbt.gbt.PackedLayout` (:func:`histogram_layout`): a bin of a node
of ``n`` samples sums at most ``n`` values of magnitude ``2**GRAD_SCALE_BITS``,
so its slot of ``w`` bits holds that sum plus an offset.  Only the active
party knows ``p``, so it names ``slots`` in each ``SAMPLE_SPACE``: the most
slots whose fold stays below ``p / 2`` (:func:`fold_slots`).  It then
decrypts each fold modulo ``p`` alone, against the fold's offset constant
as bound, and unpacks it; a fold outside that bound, bits above its slots,
a bin sum beyond its count's bound or a nonzero empty bin is rejected as
tampered.  The decrypted sums are int64 histograms, the
pooled trainer's integers.  The active party grows each tree with the shared
:func:`fedgbt.gbt.grow_tree`: every party aggregates the root and then only
the smaller child of each split whose children may still split, and the
grower derives the larger child as parent minus smaller, exactly, on every
party's features at once.

Wire protocol: ``GRADIENT_BROADCAST``, ``SAMPLE_SPACE``,
``ENC_HISTOGRAM_SUBMIT``, ``SPLIT_NOTICE``, ``PARTITION_REPLY`` during
training; ``INFER_QUERY`` / ``INFER_REPLY`` during prediction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .data import PartyDataset
from .gbt import (
    FLOAT64_MODULUS,
    GRAD_SCALE_BITS,
    Binning,
    BoostedEnsemble,
    GbtParams,
    GradHistogram,
    PackedLayout,
    ProtocolError,
    Tree,
    cell_ids,
    check_capacity,
    compute_binning,
    find_best_split,  # not called here; perfbench/tracing.py patches it by this name
    grow_tree,
    initial_margins,
    logistic_gradients,
    quantize,
    sigmoid,
    tree_row_sample,
)
from .paillier import (
    Ciphertext,
    EncodingError,
    PublicKey,
    aggregate,
    decrypt,
    encrypt,
    hex_to_int,
    int_to_hex,
    keygen,
)
from .seeding import derive_seed
from .transport import MessageBus

# inference rounds count on from here, past any training round, so a bus
# shared with training keeps its round ids increasing
INFER_ROUND_START = 10_000


@dataclass(frozen=True)
class VflRoster:
    """Feature ownership map over one aligned sample universe."""

    active_id: str
    passive_ids: tuple[str, ...]
    feature_slices: dict  # party id -> (start, stop) in the global feature order
    feature_names: tuple[str, ...]

    def __post_init__(self):
        if self.active_id in self.passive_ids:
            raise ProtocolError("active party cannot also be passive")
        covered = np.zeros(len(self.feature_names), dtype=bool)
        for party, (start, stop) in self.feature_slices.items():
            if covered[start:stop].any():
                raise ProtocolError("overlapping feature ranges")
            covered[start:stop] = True
        if not covered.all():
            raise ProtocolError("feature ranges must cover the whole space")

    @property
    def party_ids(self) -> tuple[str, ...]:
        return (self.active_id, *self.passive_ids)

    def owner_of(self, global_feature: int) -> str:
        for party, (start, stop) in self.feature_slices.items():
            if start <= global_feature < stop:
                return party
        raise ProtocolError(f"feature {global_feature} has no owner")

    def to_local(self, party: str, global_feature: int) -> int:
        start, stop = self.feature_slices[party]
        if not start <= global_feature < stop:
            raise ProtocolError(f"feature {global_feature} is not owned by {party}")
        return global_feature - start


def make_vfl_roster(active_id: str, datasets: dict[str, PartyDataset]) -> VflRoster:
    """Build the roster with the active party's features first, then each
    passive block in sorted party order (this defines the global feature
    order used for centralized comparisons)."""
    if active_id not in datasets:
        raise ProtocolError(f"active party {active_id!r} missing a dataset")
    if datasets[active_id].labels is None:
        raise ProtocolError("active party must hold the labels")
    ids0 = datasets[active_id].sample_ids
    passive_ids = tuple(sorted(p for p in datasets if p != active_id))
    for p in passive_ids:
        if not np.array_equal(datasets[p].sample_ids, ids0):
            raise ProtocolError(f"sample ids of {p} are not aligned with the active party")
    slices = {}
    names: list[str] = []
    cursor = 0
    for party in (active_id, *passive_ids):
        width = datasets[party].n_features
        slices[party] = (cursor, cursor + width)
        names.extend(datasets[party].feature_names)
        cursor += width
    return VflRoster(
        active_id=active_id,
        passive_ids=passive_ids,
        feature_slices=slices,
        feature_names=tuple(names),
    )


def joined_matrix(roster: VflRoster, datasets: dict[str, PartyDataset]) -> np.ndarray:
    """The plaintext join in roster feature order (oracle/test helper)."""
    blocks = [datasets[p].features for p in roster.party_ids]
    return np.hstack(blocks)


@dataclass
class SplitRecord:
    record_id: int
    feature_local: int
    bin_index: int
    threshold: float

    @staticmethod
    def at(binning: Binning, record_id: int, feature_local: int, bin_index: int) -> "SplitRecord":
        """The record of a split at an interior boundary of the owner's binning."""
        if not 0 <= bin_index < binning.n_bins - 1:
            raise ProtocolError(f"split bin {bin_index} outside the boundary range")
        return SplitRecord(record_id, feature_local, bin_index,
                           binning.threshold(feature_local, bin_index))


def histogram_layout(n_samples: int, slots: int) -> PackedLayout:
    """How a passive party packs its bin sums over a node of ``n_samples``.

    A bin sums at most ``n_samples`` quantized values of magnitude at most
    ``2**GRAD_SCALE_BITS``, which stays below ``offset``; a slot holds the
    sum plus ``offset``, in ``[0, 2 * offset)``.  Both sides know the node's
    sample count, so only ``slots`` travels.
    """
    offset_bits = GRAD_SCALE_BITS + n_samples.bit_length()
    return PackedLayout(offset=1 << offset_bits, width=offset_bits + 1, slots=slots,
                        n_clients=1)


def fold_slots(n_samples: int, p: int) -> int:
    """The most slots of :func:`histogram_layout` whose fold, offsets
    included, stays below ``p / 2``, so it decrypts modulo ``p`` alone; 0
    if not even one fits."""
    layout = histogram_layout(n_samples, 1)
    slots, fold = 0, layout.offset
    while 2 * fold < p:
        slots, fold = slots + 1, (fold << layout.width) + layout.offset
    return slots


class PassiveParty:
    """Feature owner without labels; sees only gradient ciphertexts."""

    def __init__(self, party_id: str, dataset: PartyDataset, n_bins: int):
        self.party_id = party_id
        self.dataset = dataset
        self.n_bins = n_bins
        self.binning: Binning = compute_binning(dataset.features, n_bins)
        self.columns: np.ndarray = self.binning.bin_columns(dataset.features)
        self.pk: PublicKey | None = None
        self.enc_g: dict[int, Ciphertext] = {}
        self.enc_h: dict[int, Ciphertext] = {}
        self.records: dict[int, SplitRecord] = {}
        self.pos_of_id = {int(s): i for i, s in enumerate(dataset.sample_ids)}
        self.inference_rows: dict[int, list[float]] = {}

    def receive_gradients(self, sample_ids: list[int], enc_g: list[Ciphertext],
                          enc_h: list[Ciphertext]) -> None:
        self.enc_g = dict(zip(sample_ids, enc_g))
        self.enc_h = dict(zip(sample_ids, enc_h))

    def bin_aggregate(self, sample_ids: list[int], slots: int) -> tuple[list, list, np.ndarray]:
        """Homomorphic per-(feature, bin) sums over the given sample space,
        folded ``slots`` bins to a ciphertext.

        Per feature, one stable argsort of the samples' cells groups each
        bin's samples in sample-space order.  The flat ``F * B`` bins are cut
        into runs of ``slots``, and one ``aggregate`` call folds a run's
        ciphertexts into one, its bin ``j`` in slot ``j``
        (:func:`histogram_layout`).  The counts stay one per bin.
        """
        if type(slots) is not int or slots < 1:
            raise ProtocolError(f"{self.party_id} was asked to fold {slots!r} bins "
                                "per ciphertext")
        unknown = [s for s in sample_ids if s not in self.pos_of_id]
        if unknown:
            raise ProtocolError(f"{self.party_id} received unknown sample ids {unknown[:3]}")
        unsent = [s for s in sample_ids if s not in self.enc_g]
        if unsent:
            raise ProtocolError(f"{self.party_id} received sample ids {unsent[:3]} that this "
                                "tree's GRADIENT_BROADCAST did not carry")
        F, B = self.dataset.n_features, self.n_bins
        cg = [self.enc_g[s] for s in sample_ids]
        ch = [self.enc_h[s] for s in sample_ids]
        positions = np.array([self.pos_of_id[s] for s in sample_ids], dtype=np.int64)
        counts = np.zeros((F, B), dtype=np.int64)
        order: list[int] = []  # sample-space indices, feature by feature, bin by bin
        for f, column in enumerate(self.columns):
            bins = column[positions]
            order += np.argsort(bins, kind="stable").tolist()
            counts[f] = np.bincount(bins, minlength=B)
        width = histogram_layout(len(sample_ids), slots).width
        sizes = counts.ravel().tolist()
        enc_g: list[Ciphertext] = []
        enc_h: list[Ciphertext] = []
        start = 0
        for first in range(0, F * B, slots):
            run = sizes[first:first + slots]
            members = order[start:start + sum(run)]
            start += len(members)
            enc_g.append(aggregate(self.pk, [cg[i] for i in members], run, width))
            enc_h.append(aggregate(self.pk, [ch[i] for i in members], run, width))
        return enc_g, enc_h, counts

    def store_record(self, record_id: int, feature_local: int, bin_index: int) -> SplitRecord:
        self.records[record_id] = SplitRecord.at(self.binning, record_id, feature_local,
                                                 bin_index)
        return self.records[record_id]

    def resolve_partition(self, record_id: int, sample_ids: list[int]) -> list[int]:
        """Sample ids from the given space that fall left of the stored split."""
        if record_id not in self.records:
            raise ProtocolError(f"{self.party_id} has no record {record_id}")
        rec = self.records[record_id]
        positions = np.array([self.pos_of_id[s] for s in sample_ids], dtype=np.int64)
        left = self.columns[rec.feature_local][positions] <= rec.bin_index
        return np.asarray(sample_ids, dtype=np.int64)[left].tolist()

    def load_inference_rows(self, sample_ids: np.ndarray, rows: np.ndarray) -> None:
        """Hold this call's feature rows, and only them."""
        self.inference_rows = dict(zip(sample_ids.tolist(), rows.tolist()))

    def answer_query(self, records: list[int], sample_ids: list[list[int]]) -> list[list[bool]]:
        """Per record, whether each of its listed sample ids goes left of the
        stored split."""
        if len(records) != len(sample_ids):
            raise ProtocolError(f"{self.party_id} got {len(records)} records but "
                                f"{len(sample_ids)} sample id lists")
        answers = []
        for record_id, ids in zip(records, sample_ids):
            rec = self.records.get(record_id)
            if rec is None:
                raise ProtocolError(f"{self.party_id} cannot resolve record {record_id}")
            feature, threshold = rec.feature_local, rec.threshold
            column = []
            for sample_id in ids:
                row = self.inference_rows.get(sample_id)
                if row is None:
                    raise ProtocolError(f"{self.party_id} holds no feature slice for sample "
                                        f"{sample_id}")
                column.append(row[feature] <= threshold)
            answers.append(column)
        return answers


class ActiveParty:
    """Label owner, Paillier key holder, and training driver."""

    def __init__(self, party_id: str, dataset: PartyDataset, params: GbtParams, seed: int,
                 key_bits: int = 512):
        if dataset.labels is None:
            raise ProtocolError("active party needs labels")
        self.party_id = party_id
        self.dataset = dataset
        self.params = params
        self.seed = seed
        self.pk, self.sk = keygen(key_bits=key_bits, rng_seed=derive_seed("vfl-key", seed))
        # a bin sums at most every sample's |g| <= 1, exactly in float64 and
        # so in int64, and its slot, folded and decrypted modulo p alone, must
        # fit at the root
        check_capacity(FLOAT64_MODULUS, dataset.n_samples)
        if fold_slots(dataset.n_samples, self.sk.p) < 1:
            raise EncodingError(f"prime p too small for one "
                                f"{histogram_layout(dataset.n_samples, 1).width}-bit slot of "
                                f"{dataset.n_samples} terms of magnitude 1")
        # seeded, so every obfuscator is predictable from the run seed: see
        # HflClient.enc_rng; a deployment must encrypt with ``rng=None``
        self.enc_rng = random.Random(derive_seed("vfl-enc", seed))
        self.binning: Binning = compute_binning(dataset.features, params.max_bin)
        self.columns: np.ndarray = self.binning.bin_columns(dataset.features)
        self.cells: np.ndarray = cell_ids(self.columns, params.max_bin)
        self.margins = initial_margins(dataset.n_samples, params, seed)
        # this tree's quantized gradients
        self.g = np.zeros(dataset.n_samples, dtype=np.int64)
        self.h = np.zeros(dataset.n_samples, dtype=np.int64)
        self.records: dict[int, SplitRecord] = {}
        self.pos_of_id = {int(s): i for i, s in enumerate(dataset.sample_ids)}

    def encrypt_gradients(self, positions: np.ndarray) -> tuple[list[int], list[Ciphertext], list[Ciphertext]]:
        ids, enc_g, enc_h = [], [], []
        n = self.pk.n
        for pos in positions:
            ids.append(int(self.dataset.sample_ids[pos]))
            enc_g.append(encrypt(self.pk, int(self.g[pos]) % n, rng=self.enc_rng, sk=self.sk))
            enc_h.append(encrypt(self.pk, int(self.h[pos]) % n, rng=self.enc_rng, sk=self.sk))
        return ids, enc_g, enc_h

    def decrypt_histogram(self, enc_g: list[Ciphertext], enc_h: list[Ciphertext],
                          counts: np.ndarray, n_samples: int, where: str) -> GradHistogram:
        """One passive party's bin sums over a sample space of ``n_samples``,
        as exact quantized integers.

        Each ciphertext folds a run of bins (:meth:`PassiveParty.bin_aggregate`).
        It is decrypted modulo ``p`` alone, bounded by the run's offset
        constant ``M``, the packing of all-zero sums; adding ``M`` back gives
        the packed slots.  A ciphertext list of the wrong length, counts that
        are negative or do not add up to the sample space, a fold outside its
        bound, bits above its slots, a bin of ``c`` samples whose sum leaves
        ``[-c * 2**GRAD_SCALE_BITS, c * 2**GRAD_SCALE_BITS]``, or a nonzero
        empty bin raise :class:`ProtocolError` naming ``where`` (sender,
        tree, node).
        """
        layout = histogram_layout(n_samples, fold_slots(n_samples, self.sk.p))
        runs = -(-counts.size // layout.slots)
        if len(enc_g) != runs or len(enc_h) != runs:
            raise ProtocolError(f"{where}: {len(enc_g)} and {len(enc_h)} ciphertexts for "
                                f"{counts.size} bins in runs of {layout.slots}")
        if (counts < 0).any() or (counts.sum(axis=1) != n_samples).any():
            raise ProtocolError(f"{where}: bin counts are negative or do not add up to "
                                f"{n_samples} samples")
        folds = layout.pack(np.zeros(counts.size, dtype=np.int64))
        top = counts.astype(np.int64) << GRAD_SCALE_BITS

        def plain(cts, name):
            try:
                totals = [decrypt(self.sk, self.pk, c, bound=m) + m for c, m in zip(cts, folds)]
                values = np.array(layout.unpack(totals, counts.size), dtype=np.int64)
            except (EncodingError, ProtocolError) as exc:
                raise ProtocolError(f"{where}: {exc}") from None
            values = values.reshape(counts.shape)
            bad = (values > top) | (values < -top)
            if np.count_nonzero(bad):
                f, b = (int(i) for i in np.argwhere(bad)[0])
                if counts[f, b] == 0:
                    raise ProtocolError(f"{where}: feature {f}, bin {b} is empty but its "
                                        f"{name} sum unpacks to {values[f, b]}")
                raise ProtocolError(f"{where}: feature {f}, bin {b} has a {name} sum of "
                                    f"{values[f, b]}, beyond {counts[f, b]} samples' bound")
            return values

        return GradHistogram(g=plain(enc_g, "g"), h=plain(enc_h, "h"),
                             counts=counts.astype(np.int64))

    def own_histogram(self, positions: np.ndarray) -> GradHistogram:
        from .gbt import build_histogram

        return build_histogram(self.cells, self.g, self.h, [positions], self.params.max_bin)[0]


@dataclass
class VflTrained:
    """The distributed model: skeleton at the active party, thresholds at owners."""

    roster: VflRoster
    ensemble: BoostedEnsemble
    active: ActiveParty
    passives: dict[str, PassiveParty]


def vfl_train(
    roster: VflRoster,
    datasets: dict[str, PartyDataset],
    params: GbtParams,
    seed: int = 0,
    bus: MessageBus | None = None,
    key_bits: int = 512,
) -> tuple[VflTrained, MessageBus]:
    bus = bus or MessageBus()
    active = ActiveParty(roster.active_id, datasets[roster.active_id], params, seed, key_bits)
    passives = {
        pid: PassiveParty(pid, datasets[pid], params.max_bin) for pid in roster.passive_ids
    }
    aid = roster.active_id
    round_id = 0
    next_record = 0
    trees: list[Tree] = []

    for t in range(params.n_estimators):
        rows = tree_row_sample(active.dataset.n_samples, params.subsample, seed, t)
        active.g, active.h = map(quantize, logistic_gradients(active.dataset.labels,
                                                              active.margins))

        round_id += 1
        ids, enc_g, enc_h = active.encrypt_gradients(rows)
        payload = {
            "tree": t,
            "enc_g": {str(s): int_to_hex(c.value) for s, c in zip(ids, enc_g)},
            "enc_h": {str(s): int_to_hex(c.value) for s, c in zip(ids, enc_h)},
        }
        for pid in roster.passive_ids:
            bus.send(aid, pid, "GRADIENT_BROADCAST", round_id, payload)
        for pid, passive in passives.items():
            env = bus.recv(pid, "GRADIENT_BROADCAST")
            passive.pk = active.pk  # public key is public by definition
            g_map = env.payload["enc_g"]
            h_map = env.payload["enc_h"]
            passive.receive_gradients(
                [int(s) for s in g_map],
                [Ciphertext(hex_to_int(v)) for v in g_map.values()],
                [Ciphertext(hex_to_int(v)) for v in h_map.values()],
            )

        node_positions: dict[int, np.ndarray] = {0: rows}

        def finish_level(tree: Tree, depth: int, level: list[int], stats: dict,
                         build: list[int]) -> dict[int, GradHistogram]:
            nonlocal round_id, next_record
            hists = {}
            if 0 in build:
                hists[0], round_id = _exchange_histograms(bus, active, passives, t, 0, rows,
                                                          round_id)
            for node in (tree.nodes[i] for i in level if not tree.nodes[i].is_leaf):
                positions = node_positions.pop(node.node_id)
                owner = roster.owner_of(node.feature)
                local_feature = roster.to_local(owner, node.feature)
                # the skeleton keeps the winning feature and bin, which the
                # active party's argmax already knows; only a foreign
                # threshold value stays private to its owner
                node.owner, node.record_id = owner, next_record
                next_record += 1
                if owner == aid:
                    record = active.records[node.record_id] = SplitRecord.at(
                        active.binning, node.record_id, local_feature, node.bin_index)
                    node.threshold = record.threshold
                    left = positions[active.columns[local_feature][positions] <= node.bin_index]
                else:
                    round_id += 1
                    bus.send(aid, owner, "SPLIT_NOTICE", round_id, {
                        "tree": t,
                        "node": node.node_id,
                        "record": node.record_id,
                        "feature_local": local_feature,
                        "bin": node.bin_index,
                    })
                    env = bus.recv(owner, "SPLIT_NOTICE")
                    passives[owner].store_record(
                        node.record_id, env.payload["feature_local"], env.payload["bin"]
                    )
                    sample_ids = [int(active.dataset.sample_ids[p]) for p in positions]
                    left, round_id = _partition_leg(bus, active, passives[owner], node.record_id,
                                                    sample_ids, t, node.node_id, round_id)
                    # leaf weights come from the split's sums: the reply must
                    # agree with them on this party's own gradients
                    if (int(active.g[left].sum()), int(active.h[left].sum()),
                            left.size) != stats[node.left]:
                        raise ProtocolError(f"PARTITION_REPLY from {owner} for tree {t}, node "
                                            f"{node.node_id}: the left side disagrees with "
                                            "the split's sums")
                node_positions[node.left] = left
                node_positions[node.right] = np.setdiff1d(positions, left)
                # each wanted child is exchanged right after its parent's partition
                for c in (c for c in (node.left, node.right) if c in build):
                    hists[c], round_id = _exchange_histograms(bus, active, passives, t, c,
                                                              node_positions[c], round_id)
            return hists

        root = int(active.g[rows].sum()), int(active.h[rows].sum()), rows.size
        tree = grow_tree(params, t, root, finish_level)

        # margin update: the rows the tree was grown on take their weights
        # from the final partition; only the rows subsampling left out are
        # routed, querying the owner of each foreign split
        weights = np.zeros(active.dataset.n_samples)
        for leaf_id, positions in node_positions.items():
            weights[positions] = tree.nodes[leaf_id].weight
        rest = np.setdiff1d(np.arange(active.dataset.n_samples), rows)
        if rest.size:
            round_id = _route_rows(tree, active, passives, roster, bus, t, round_id, rest,
                                   weights)
        active.margins += params.learning_rate * weights
        trees.append(tree)

    ensemble = BoostedEnsemble(
        trees=trees,
        params=params,
        base_score_logit=params.base_score_logit,
        feature_names=roster.feature_names,
    )
    trained = VflTrained(roster=roster, ensemble=ensemble, active=active, passives=passives)
    return trained, bus


def _exchange_histograms(bus: MessageBus, active: ActiveParty,
                         passives: dict[str, PassiveParty], tree_index: int, node_id: int,
                         positions: np.ndarray, round_id: int) -> tuple[GradHistogram, int]:
    """Every party's bin sums of one node, in roster feature order, and the
    last round id: every passive party aggregates the node's sample space
    under encryption, and the active party decrypts the sums and builds its
    own."""
    aid = active.party_id
    sample_ids = [int(active.dataset.sample_ids[p]) for p in positions]
    # only the key holder knows p, so it names how many bins fold together
    slots = fold_slots(len(sample_ids), active.sk.p)
    round_id += 1
    for pid in passives:
        bus.send(aid, pid, "SAMPLE_SPACE", round_id, {
            "tree": tree_index, "node": node_id, "sample_ids": sample_ids, "slots": slots,
        })
    round_id += 1
    for pid, passive in passives.items():
        env = bus.recv(pid, "SAMPLE_SPACE")
        eg, eh, counts = passive.bin_aggregate(env.payload["sample_ids"], env.payload["slots"])
        bus.send(pid, aid, "ENC_HISTOGRAM_SUBMIT", round_id, {
            "tree": tree_index,
            "node": node_id,
            "enc_g": [int_to_hex(c.value) for c in eg],
            "enc_h": [int_to_hex(c.value) for c in eh],
            "counts": counts.flatten().tolist(),
        })
    envs = bus.recv_from_each(aid, list(passives), "ENC_HISTOGRAM_SUBMIT")
    hists = []
    for pid, passive in passives.items():
        payload = envs[pid].payload
        where = f"{pid}'s histogram for tree {tree_index}, node {node_id}"
        if (payload["tree"], payload["node"]) != (tree_index, node_id):
            raise ProtocolError(f"{where}: the reply names tree {payload['tree']}, "
                                f"node {payload['node']}")
        shape = passive.dataset.n_features, active.params.max_bin
        counts = np.array(payload["counts"], dtype=np.int64)
        if counts.size != shape[0] * shape[1]:
            raise ProtocolError(f"{where}: {counts.size} counts, expected {shape[0] * shape[1]}")
        hists.append(active.decrypt_histogram(
            [Ciphertext(hex_to_int(v)) for v in payload["enc_g"]],
            [Ciphertext(hex_to_int(v)) for v in payload["enc_h"]],
            counts.reshape(shape), positions.size, where,
        ))
    parts = [active.own_histogram(positions), *hists]
    return GradHistogram(*(np.vstack([getattr(part, a) for part in parts])
                           for a in ("g", "h", "counts"))), round_id


def _partition_leg(bus: MessageBus, active: ActiveParty, owner: PassiveParty, record_id: int,
                   sample_ids: list[int], tree_index: int, node_id: int,
                   round_id: int) -> tuple[np.ndarray, int]:
    """The owner of a foreign split replies with the ids of ``sample_ids``
    that go left; returns their sorted positions at the active party and the
    last round id."""
    round_id += 1
    left_ids = owner.resolve_partition(record_id, sample_ids)
    bus.send(owner.party_id, active.party_id, "PARTITION_REPLY", round_id, {
        "tree": tree_index, "node": node_id, "sample_ids": left_ids,
    })
    reply = bus.recv(active.party_id, "PARTITION_REPLY")
    left = sorted(active.pos_of_id[s] for s in reply.payload["sample_ids"])
    return np.array(left, dtype=np.int64), round_id


def _route_rows(tree: Tree, active: ActiveParty, passives: dict[str, PassiveParty],
                roster: VflRoster, bus: MessageBus, tree_index: int,
                round_id: int, positions: np.ndarray, out: np.ndarray) -> int:
    """Route the training rows at ``positions`` down the tree into ``out``,
    asking owners of foreign splits to partition; returns the last round
    id."""
    aid = roster.active_id
    stack = [(0, positions)]
    while stack:
        node_id, positions = stack.pop()
        node = tree.nodes[node_id]
        if node.is_leaf:
            out[positions] = node.weight
            continue
        if node.owner == aid:
            record = active.records[node.record_id]
            mask = active.columns[record.feature_local][positions] <= record.bin_index
            left = positions[mask]
        else:
            sample_ids = [int(active.dataset.sample_ids[p]) for p in positions]
            round_id += 1
            bus.send(aid, node.owner, "SAMPLE_SPACE", round_id, {
                "tree": tree_index, "node": node_id, "sample_ids": sample_ids,
            })
            env = bus.recv(node.owner, "SAMPLE_SPACE")
            left, round_id = _partition_leg(bus, active, passives[node.owner], node.record_id,
                                            env.payload["sample_ids"], tree_index, node_id,
                                            round_id)
        stack.append((node.left, left))
        stack.append((node.right, np.setdiff1d(positions, left)))
    return round_id


def vfl_predict(
    trained: VflTrained,
    parts: dict[str, PartyDataset],
    bus: MessageBus | None = None,
) -> tuple[np.ndarray, MessageBus]:
    """Federated inference over vertically-split feature rows.

    ``parts`` maps each roster party to its feature slice of the query rows
    (same sample ids everywhere).  Every (tree, row) pair is one walk, and
    all walks advance in level-synchronous rounds.  In a round, each live
    walk first descends through the active party's own splits, locally,
    until it reaches a leaf or a foreign split.  Each passive party that
    owns a split some walk waits at then gets one ``INFER_QUERY`` listing
    those records and, per record, the sample ids waiting there; its one
    ``INFER_REPLY`` carries one list of bools per record.  The rounds are
    at most the largest count of foreign splits on one path.  Only leaf
    weights accumulate here, per row in tree order.
    """
    bus = bus or MessageBus()
    roster = trained.roster
    aid = roster.active_id
    ids = parts[aid].sample_ids.tolist()
    for pid in roster.passive_ids:
        if parts[pid].sample_ids.tolist() != ids:
            raise ProtocolError("inference rows are not aligned across parties")
        trained.passives[pid].load_inference_rows(parts[pid].sample_ids, parts[pid].features)

    rows = parts[aid].features.tolist()
    records = trained.active.records
    # one walk [tree nodes, current node, row, leaf weight] per (tree, row),
    # tree-major, so each row's leaf weights add up in tree order below
    walks = [[tree.nodes, tree.nodes[0], i, 0.0]
             for tree in trained.ensemble.trees for i in range(len(ids))]
    pending = walks
    round_id = INFER_ROUND_START
    query = 0
    while pending:
        waiting: dict[str, dict[int, list]] = {}  # owner -> record id -> walks
        for walk in pending:
            nodes, node, i = walk[0], walk[1], walk[2]
            while not node.is_leaf:
                if node.owner != aid:
                    waiting.setdefault(node.owner, {}).setdefault(node.record_id, []).append(walk)
                    break
                record = records[node.record_id]
                go_left = rows[i][record.feature_local] <= record.threshold
                node = nodes[node.left if go_left else node.right]
            else:
                walk[3] = node.weight
            walk[1] = node
        pending = []
        round_id += 1
        for owner, at in waiting.items():
            query += 1
            bus.send(aid, owner, "INFER_QUERY", round_id, {
                "query": query, "records": list(at),
                "sample_ids": [[ids[walk[2]] for walk in group] for group in at.values()],
            })
            asked = bus.recv(owner, "INFER_QUERY").payload
            try:
                answers = trained.passives[owner].answer_query(asked["records"],
                                                               asked["sample_ids"])
            except ProtocolError as exc:
                raise ProtocolError(f"INFER_QUERY {asked['query']} to {owner}: {exc}") from None
            bus.send(owner, aid, "INFER_REPLY", round_id, {
                "query": asked["query"], "go_left": answers,
            })
            reply = bus.recv(aid, "INFER_REPLY").payload
            answers = reply["go_left"]
            where = f"INFER_REPLY from {owner} to query {query}"
            if reply["query"] != query:
                raise ProtocolError(f"{where} names query {reply['query']}")
            if type(answers) is not list or len(answers) != len(at):
                raise ProtocolError(f"{where}: expected {len(at)} answer lists")
            for (record_id, group), lefts in zip(at.items(), answers):
                if type(lefts) is not list or len(lefts) != len(group):
                    raise ProtocolError(f"{where}: expected {len(group)} answers for record "
                                        f"{record_id}")
                for walk, left in zip(group, lefts):
                    if left is not True and left is not False:
                        raise ProtocolError(f"{where}: answer {left!r} for record {record_id} "
                                            "is not a bool")
                    node = walk[1]
                    walk[1] = walk[0][node.left if left else node.right]
                    pending.append(walk)

    margins = [trained.ensemble.base_score_logit] * len(ids)
    lr = trained.ensemble.params.learning_rate
    for walk in walks:
        margins[walk[2]] += lr * walk[3]
    return sigmoid(np.array(margins)), bus
