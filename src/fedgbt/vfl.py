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

The active party holds the primes and works in them.  It encrypts each
sample's quantized gradients (:func:`fedgbt.gbt.quantize`) with its private
key's per-prime tables, and decrypts each bin sum modulo ``p`` alone: a sum
of ``c`` quantized gradients has magnitude at most ``c * 2**40``, far below
``p / 2``, and a sum outside that bound is rejected as tampered.  Passive
parties aggregate the root and then only the smaller child of each split
whose children may still split; the active party keeps every node's
decrypted sums as int64 histograms, the pooled trainer's integers, and
derives the larger child as parent minus smaller, exactly.  It grows each
tree with the shared :func:`fedgbt.gbt.grow_tree`.

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
    GRAD_SCALE_BITS,
    Binning,
    BoostedEnsemble,
    GbtParams,
    GradHistogram,
    Tree,
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
from .hfl import ProtocolError
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


class PassiveParty:
    """Feature owner without labels; sees only gradient ciphertexts."""

    def __init__(self, party_id: str, dataset: PartyDataset, n_bins: int):
        self.party_id = party_id
        self.dataset = dataset
        self.n_bins = n_bins
        self.binning: Binning = compute_binning(dataset.features, n_bins)
        self.binned: np.ndarray = self.binning.bin_matrix(dataset.features)
        self.pk: PublicKey | None = None
        self.enc_g: dict[int, Ciphertext] = {}
        self.enc_h: dict[int, Ciphertext] = {}
        self.records: dict[int, SplitRecord] = {}
        self.pos_of_id = {int(s): i for i, s in enumerate(dataset.sample_ids)}
        self.inference_rows: dict[int, np.ndarray] = {}

    def receive_gradients(self, sample_ids: list[int], enc_g: list[Ciphertext],
                          enc_h: list[Ciphertext]) -> None:
        self.enc_g = dict(zip(sample_ids, enc_g))
        self.enc_h = dict(zip(sample_ids, enc_h))

    def bin_aggregate(self, sample_ids: list[int]) -> tuple[list, list, np.ndarray]:
        """Homomorphic per-(feature, bin) sums over the given sample space.

        Per feature, one stable argsort of the samples' cells groups each
        bin's samples in sample-space order, and one ``aggregate`` call
        multiplies a bin's ciphertexts.
        """
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
        cells = self.binned[[self.pos_of_id[s] for s in sample_ids]]
        counts = np.zeros((F, B), dtype=np.int64)
        enc_g: list[Ciphertext] = []
        enc_h: list[Ciphertext] = []
        for f in range(F):
            order = np.argsort(cells[:, f], kind="stable")
            counts[f] = np.bincount(cells[:, f], minlength=B)
            start = 0
            for stop in np.cumsum(counts[f]).tolist():
                members = order[start:stop].tolist()
                enc_g.append(aggregate(self.pk, [cg[i] for i in members]))
                enc_h.append(aggregate(self.pk, [ch[i] for i in members]))
                start = stop
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
        left = self.binned[positions, rec.feature_local] <= rec.bin_index
        return np.asarray(sample_ids, dtype=np.int64)[left].tolist()

    def load_inference_rows(self, sample_ids: np.ndarray, rows: np.ndarray) -> None:
        for sid, row in zip(sample_ids, rows):
            self.inference_rows[int(sid)] = np.asarray(row, dtype=np.float64)

    def answer_query(self, record_id: int, sample_id: int) -> bool:
        if record_id not in self.records:
            raise ProtocolError(f"{self.party_id} cannot resolve record {record_id}")
        rec = self.records[record_id]
        row = self.inference_rows.get(sample_id)
        if row is None:
            raise ProtocolError(f"{self.party_id} holds no feature slice for sample {sample_id}")
        return bool(row[rec.feature_local] <= rec.threshold)


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
        # a bin sums at most every sample's |g| < 1, and is decrypted modulo
        # p alone into an int64: both must hold every such sum
        check_capacity(min(self.sk.p, self.sk.q, 2**64), dataset.n_samples)
        # seeded, so every obfuscator is predictable from the run seed: see
        # HflClient.enc_rng; a deployment must encrypt with ``rng=None``
        self.enc_rng = random.Random(derive_seed("vfl-enc", seed))
        self.binning: Binning = compute_binning(dataset.features, params.max_bin)
        self.binned: np.ndarray = self.binning.bin_matrix(dataset.features)
        self.margins = initial_margins(dataset.n_samples, params, seed)
        # this tree's quantized gradients
        self.g = np.zeros(dataset.n_samples, dtype=np.int64)
        self.h = np.zeros(dataset.n_samples, dtype=np.int64)
        self.records: dict[int, SplitRecord] = {}
        self.pos_of_id = {int(s): i for i, s in enumerate(dataset.sample_ids)}
        # node id -> passive party -> its bin sums, for the tree in progress
        self.passive_hists: dict[int, dict[str, GradHistogram]] = {}
        # node id -> this party's own-feature bin sums, likewise
        self.own_hists: dict[int, GradHistogram] = {}

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

        A bin of ``c`` samples sums ``c`` values of magnitude at most
        ``2**GRAD_SCALE_BITS``, so each ciphertext is decrypted modulo ``p`` alone
        with that bound.  A sum outside it, an empty bin whose ciphertext is
        not the identity, or counts that do not add up to the sample space
        raise :class:`ProtocolError` naming ``where`` (sender, tree, node).
        """
        if len(enc_g) != counts.size or len(enc_h) != counts.size:
            raise ProtocolError(f"{where}: {len(enc_g)} and {len(enc_h)} ciphertexts "
                                f"for {counts.size} bins")
        if (counts < 0).any() or (counts.sum(axis=1) != n_samples).any():
            raise ProtocolError(f"{where}: bin counts are negative or do not add up to "
                                f"{n_samples} samples")
        bounds = [int(c) << GRAD_SCALE_BITS for c in counts.flat]

        def plain(cts):
            values = []
            for c, bound in zip(cts, bounds):
                if bound == 0 and c.value != 1:
                    raise ProtocolError(f"{where}: an empty bin's ciphertext is not the identity")
                try:
                    values.append(decrypt(self.sk, self.pk, c, bound=bound))
                except EncodingError as exc:
                    raise ProtocolError(f"{where}: {exc}") from None
            return np.array(values, dtype=np.int64).reshape(counts.shape)

        return GradHistogram(g=plain(enc_g), h=plain(enc_h), counts=counts.astype(np.int64))

    def sibling_histogram(self, parent: GradHistogram, child: GradHistogram,
                          where: str) -> GradHistogram:
        """The other child's bin sums: ``parent`` minus ``child``, exact in
        integers.  Raises :class:`ProtocolError` naming ``where`` when a
        count goes negative or a sum leaves ``±count * 2**GRAD_SCALE_BITS``."""
        sibling = parent.subtract(child)
        if (sibling.counts < 0).any():
            raise ProtocolError(f"{where}: sibling subtraction produced a negative count")
        bound = sibling.counts << GRAD_SCALE_BITS
        if (np.abs(sibling.g) > bound).any() or (np.abs(sibling.h) > bound).any():
            raise ProtocolError(f"{where}: a bin sum derived by subtraction exceeds "
                                f"its count times 2^{GRAD_SCALE_BITS}")
        return sibling

    def own_histogram(self, positions: np.ndarray) -> GradHistogram:
        from .gbt import build_histogram

        return build_histogram(self.binned, self.g, self.h, positions, self.params.max_bin)


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
        active.passive_hists, active.own_hists = {}, {}
        if params.max_depth > 0 and rows.size >= 2:
            round_id = _exchange_histograms(bus, active, passives, t, 0, rows, round_id)
            active.own_hists[0] = active.own_histogram(rows)

        def histogram(node_id: int) -> GradHistogram | None:
            positions = node_positions[node_id]
            if positions.size < 2:
                return None
            # every party's bin sums, in roster feature order
            parts = {**active.passive_hists[node_id], aid: active.own_hists[node_id]}
            return GradHistogram(*(np.vstack([getattr(parts[p], a) for p in roster.party_ids])
                                   for a in ("g", "h", "counts")))

        def totals(node_id: int) -> tuple[int, int]:
            positions = node_positions[node_id]
            return int(active.g[positions].sum()), int(active.h[positions].sum())

        def finish_level(tree: Tree, depth: int, level: list[int]) -> None:
            nonlocal round_id, next_record
            for node in (tree.nodes[i] for i in level if not tree.nodes[i].is_leaf):
                positions = node_positions[node.node_id]
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
                    left = positions[active.binned[positions, local_feature] <= node.bin_index]
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
                right = np.setdiff1d(positions, left)
                node_positions[node.left], node_positions[node.right] = left, right
                # while either child may still split, every party aggregates
                # the smaller one; the larger is parent minus smaller
                if depth + 1 < params.max_depth and max(left.size, right.size) >= 2:
                    small, large = ((node.left, node.right) if left.size <= right.size
                                    else (node.right, node.left))
                    round_id = _exchange_histograms(bus, active, passives, t, small,
                                                    node_positions[small], round_id)
                    active.passive_hists[large] = {
                        pid: active.sibling_histogram(
                            active.passive_hists[node.node_id][pid], hist,
                            f"{pid}'s histogram for tree {t}, node {large}")
                        for pid, hist in active.passive_hists[small].items()
                    }
                    own = active.own_hists[small] = active.own_histogram(node_positions[small])
                    active.own_hists[large] = active.own_hists[node.node_id].subtract(own)

        tree = grow_tree(params, histogram, totals, finish_level)

        # margin update: with subsample=1 the training partitions already
        # route every row; otherwise route the full row set, querying the
        # owner of each foreign split
        weights = np.zeros(active.dataset.n_samples)
        if params.subsample >= 1.0:
            for node in tree.nodes:
                if node.is_leaf:
                    weights[node_positions[node.node_id]] = node.weight
        else:
            round_id = _route_all_rows(
                tree, active, passives, roster, bus, t, round_id, weights
            )
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
                         positions: np.ndarray, round_id: int) -> int:
    """Every passive party aggregates the node's sample space under
    encryption, and the active party decrypts the sums into
    ``active.passive_hists[node_id]``; returns the last round id."""
    aid = active.party_id
    sample_ids = [int(active.dataset.sample_ids[p]) for p in positions]
    round_id += 1
    for pid in passives:
        bus.send(aid, pid, "SAMPLE_SPACE", round_id, {
            "tree": tree_index, "node": node_id, "sample_ids": sample_ids,
        })
    round_id += 1
    for pid, passive in passives.items():
        env = bus.recv(pid, "SAMPLE_SPACE")
        eg, eh, counts = passive.bin_aggregate(env.payload["sample_ids"])
        bus.send(pid, aid, "ENC_HISTOGRAM_SUBMIT", round_id, {
            "tree": tree_index,
            "node": node_id,
            "enc_g": [int_to_hex(c.value) for c in eg],
            "enc_h": [int_to_hex(c.value) for c in eh],
            "counts": counts.flatten().tolist(),
        })
    envs = bus.recv_from_each(aid, list(passives), "ENC_HISTOGRAM_SUBMIT")
    hists = {}
    for pid, passive in passives.items():
        payload = envs[pid].payload
        where = f"{pid}'s histogram for tree {tree_index}, node {node_id}"
        if (payload["tree"], payload["node"]) != (tree_index, node_id):
            raise ProtocolError(f"{where}: the reply names tree {payload['tree']}, "
                                f"node {payload['node']}")
        counts = np.array(payload["counts"], dtype=np.int64).reshape(
            passive.dataset.n_features, active.params.max_bin)
        hists[pid] = active.decrypt_histogram(
            [Ciphertext(hex_to_int(v)) for v in payload["enc_g"]],
            [Ciphertext(hex_to_int(v)) for v in payload["enc_h"]],
            counts, positions.size, where,
        )
    active.passive_hists[node_id] = hists
    return round_id


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


def _route_all_rows(tree: Tree, active: ActiveParty, passives: dict[str, PassiveParty],
                    roster: VflRoster, bus: MessageBus, tree_index: int,
                    round_id: int, out: np.ndarray) -> int:
    """Route every training row down the tree, asking owners of foreign
    splits to partition (used when subsampling left rows unrouted)."""
    aid = roster.active_id
    stack = [(0, np.arange(active.dataset.n_samples, dtype=np.int64))]
    while stack:
        node_id, positions = stack.pop()
        node = tree.nodes[node_id]
        if node.is_leaf:
            out[positions] = node.weight
            continue
        if node.owner == aid:
            record = active.records[node.record_id]
            mask = active.binned[positions, record.feature_local] <= record.bin_index
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
    (same sample ids everywhere).  The active party walks each tree and asks
    a node's owner to answer left/right; only leaf weights accumulate here.
    """
    bus = bus or MessageBus()
    roster = trained.roster
    active = trained.active
    aid = roster.active_id
    sample_ids = parts[aid].sample_ids
    for pid in roster.passive_ids:
        if not np.array_equal(parts[pid].sample_ids, sample_ids):
            raise ProtocolError("inference rows are not aligned across parties")
        trained.passives[pid].load_inference_rows(parts[pid].sample_ids, parts[pid].features)

    X_active = parts[aid].features
    margins = np.full(len(sample_ids), trained.ensemble.base_score_logit)
    round_id = INFER_ROUND_START
    query = 0
    for i, sid in enumerate(sample_ids):
        for tree in trained.ensemble.trees:
            node = tree.nodes[0]
            while not node.is_leaf:
                if node.owner == aid:
                    record = active.records[node.record_id]
                    go_left = X_active[i, record.feature_local] <= record.threshold
                else:
                    round_id += 1
                    query += 1
                    bus.send(aid, node.owner, "INFER_QUERY", round_id, {
                        "query": query, "record": node.record_id, "sample_id": int(sid),
                    })
                    env = bus.recv(node.owner, "INFER_QUERY")
                    answer = trained.passives[node.owner].answer_query(
                        env.payload["record"], env.payload["sample_id"]
                    )
                    bus.send(node.owner, aid, "INFER_REPLY", round_id, {
                        "query": query, "go_left": bool(answer),
                    })
                    go_left = bus.recv(aid, "INFER_REPLY").payload["go_left"]
                node = tree.nodes[node.left if go_left else node.right]
            margins[i] += trained.ensemble.params.learning_rate * node.weight
    return sigmoid(margins), bus
