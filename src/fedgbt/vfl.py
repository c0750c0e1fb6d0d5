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
or trees.  Training routes the rows a subsampled tree left out (its
out-of-bag rows) through the same walk, to update their margins; each
passive party answers from its own rows of those ids.

The active party holds the primes and works in them.  It encrypts each
sample's quantized gradients (:func:`fedgbt.gbt.quantize`) with its private
key's per-prime powers.  A passive party folds only the bins its counts say
are non-empty, in flat (feature, bin) order, each run of them into one
ciphertext by Horner's rule, ``c <- c**(2**w) * c_next`` (cipher
compression, after SecureBoost+).  Per node and stream it loads each of the
node's ciphertexts once (:func:`fedgbt.paillier.operands`), so under
libcrypto every product and fold step of every feature runs there on
operands already in Montgomery form, and frees them before it replies.
A ciphertext outside ``[0, n^2)`` is rejected there, naming the
``GRADIENT_BROADCAST``.  The slots are those of the horizontal
federation (:func:`fedgbt.gbt.level_layouts`) for a node of ``n`` samples:
g at an offset, h unsigned.  Only the active party knows ``p``, so it names
each stream's slot count in each ``SAMPLE_SPACE``, the most whose fold stays
below ``p / 2`` (:meth:`ActiveParty.fold_layouts`).  It derives the folded
bins from the counts, decrypts each fold modulo ``p`` alone and unpacks it;
a fold outside its bound, a negative h fold, bits above its slots, a bin
sum beyond its count's bound, or a feature whose sums miss the node's
totals is rejected as tampered.  The decrypted sums are int64 histograms,
the pooled trainer's integers.  The active party grows each tree with the
shared :func:`fedgbt.gbt.grow_tree`: every party aggregates the root and
then only the smaller child of each split whose children may still split,
and the grower derives the larger child as parent minus smaller, exactly,
on every party's features at once.

Wire protocol during training: ``KEY_BROADCAST`` (the active party's public
key, from which each passive party builds its own key object and checks it
as a horizontal client does, :func:`fedgbt.paillier.received_public_key`);
``GRADIENT_BROADCAST``; ``SAMPLE_SPACE`` (a node's sample ids, ``slots``
and ``h_slots``) and ``ENC_HISTOGRAM_SUBMIT``; ``SPLIT_NOTICE`` (a foreign
split's record and its node's sample ids) and ``PARTITION_REPLY`` (the ids
that go left);
``INFER_QUERY`` / ``INFER_REPLY`` for out-of-bag rows.  During prediction:
``INFER_QUERY`` / ``INFER_REPLY``.  Every payload's fields and wire form are
those of :data:`fedgbt.transport.MESSAGES`: the parties hand the bus
ciphertexts as ints and counts as lists, and read them back decoded.  A
ciphertext is a plain int on the wire and between calls, and a passive
party keeps the ``GRADIENT_BROADCAST`` maps of sample id to ciphertext as
they arrive.  It rejects a ``SPLIT_NOTICE`` that reuses a record id, whose
feature or bin is not an int in range, or that names a sample id it does
not hold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate

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
    level_layouts,
    logistic_gradients,
    quantize,
    sigmoid,
    tree_row_sample,
)
from .paillier import (EncodingError, PublicKey, aggregate, decrypt, encrypt, keygen, operands,
                       received_public_key)
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


class PassiveParty:
    """Feature owner without labels; sees only gradient ciphertexts."""

    def __init__(self, party_id: str, dataset: PartyDataset, n_bins: int):
        self.party_id = party_id
        self.dataset = dataset
        self.n_bins = n_bins
        self.binning: Binning = compute_binning(dataset.features, n_bins)
        self.columns: np.ndarray = self.binning.bin_columns(dataset.features)
        self.pk: PublicKey | None = None
        # this tree's gradient ciphertexts by sample id
        self.enc_g: dict[int, int] = {}
        self.enc_h: dict[int, int] = {}
        self.records: dict[int, SplitRecord] = {}
        self.pos_of_id = {int(s): i for i, s in enumerate(dataset.sample_ids)}
        self.inference_rows: dict[int, list[float]] = {}

    def receive_gradients(self, enc_g: dict[int, int], enc_h: dict[int, int]) -> None:
        """Keep a ``GRADIENT_BROADCAST``'s two maps of sample id to ciphertext."""
        self.enc_g, self.enc_h = enc_g, enc_h

    def bin_aggregate(self, sample_ids: list[int], slots: int,
                      h_slots: int) -> tuple[list, list, np.ndarray]:
        """Homomorphic per-(feature, bin) sums over the given sample space,
        folded ``slots`` g and ``h_slots`` h sums to a ciphertext.

        Per feature, one stable argsort of the samples' cells groups each
        bin's samples in sample-space order.  Each stream cuts the non-empty
        bins, in flat (feature, bin) order, into runs of its slot count, and
        one ``aggregate`` call folds a run's ciphertexts into one, its
        ``j``-th bin in slot ``j`` (:func:`fedgbt.gbt.level_layouts`).  The
        counts stay one per bin, so they name the folded bins.
        """
        for named in (slots, h_slots):
            if type(named) is not int or named < 1:
                raise ProtocolError(f"{self.party_id} was asked to fold {named!r} bins "
                                    "per ciphertext")
        unknown = [s for s in sample_ids if s not in self.pos_of_id]
        if unknown:
            raise ProtocolError(f"{self.party_id} received unknown sample ids {unknown[:3]}")
        unsent = [s for s in sample_ids if s not in self.enc_g or s not in self.enc_h]
        if unsent:
            raise ProtocolError(f"{self.party_id} received sample ids {unsent[:3]} that this "
                                "tree's GRADIENT_BROADCAST did not carry")
        F, B = self.dataset.n_features, self.n_bins
        positions = np.array([self.pos_of_id[s] for s in sample_ids], dtype=np.int64)
        counts = np.zeros((F, B), dtype=np.int64)
        order: list[int] = []  # sample-space indices, feature by feature, bin by bin
        for f, column in enumerate(self.columns):
            bins = column[positions]
            order += np.argsort(bins, kind="stable").tolist()
            counts[f] = np.bincount(bins, minlength=B)
        sizes = counts[counts > 0].tolist()
        ends = [0, *accumulate(sizes)]
        groups = [order[a:b] for a, b in zip(ends, ends[1:])]  # each non-empty bin's samples

        def fold(name, stream, per_run, width):
            # each ciphertext is loaded once here, whatever the features it folds into
            try:
                with operands(self.pk, [stream[s] for s in sample_ids]) as cts:
                    return [aggregate(self.pk, [cts[i] for group in groups[k:k + per_run]
                                                for i in group], sizes[k:k + per_run], width)
                            for k in range(0, len(sizes), per_run)]
            except EncodingError as exc:
                raise ProtocolError(f"{self.party_id} cannot aggregate the {name} ciphertexts of "
                                    f"this tree's GRADIENT_BROADCAST: {exc}") from None

        # a slot's width follows from the node's sample count alone; the
        # slot counts are the key holder's, since only it knows p
        g_layout, h_layout = level_layouts(len(sample_ids).bit_length(), self.pk.n)
        return (fold("g", self.enc_g, slots, g_layout.width),
                fold("h", self.enc_h, h_slots, h_layout.width), counts)

    def store_record(self, record_id: int, feature_local: int, bin_index: int) -> SplitRecord:
        """Keep a split at an interior boundary of one of this party's
        features; a record id already held, or a feature or bin that is not
        an int in range, raises :class:`ProtocolError`."""
        if record_id in self.records:
            raise ProtocolError(f"{self.party_id} cannot store record {record_id}: it holds "
                                "one by that id already")
        for name, value, stop in (("feature", feature_local, self.dataset.n_features),
                                  ("split bin", bin_index, self.n_bins - 1)):
            if type(value) is not int or not 0 <= value < stop:
                raise ProtocolError(f"{self.party_id} cannot store record {record_id}: "
                                    f"{name} {value!r} is not an int in [0, {stop})")
        self.records[record_id] = SplitRecord(record_id, feature_local, bin_index,
                                              self.binning.threshold(feature_local, bin_index))
        return self.records[record_id]

    def resolve_partition(self, record_id: int, sample_ids: list[int]) -> list[int]:
        """Sample ids from the given space that fall left of the stored split;
        an id this party does not hold raises :class:`ProtocolError`."""
        if record_id not in self.records:
            raise ProtocolError(f"{self.party_id} has no record {record_id}")
        unknown = [s for s in sample_ids if s not in self.pos_of_id]
        if unknown:
            raise ProtocolError(f"{self.party_id} cannot partition record {record_id}: it "
                                f"holds no sample ids {unknown[:3]}")
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
        # so in int64, and a slot of each stream, folded and decrypted modulo
        # p alone, must fit at the root
        check_capacity(FLOAT64_MODULUS, dataset.n_samples)
        self.fold_layouts(dataset.n_samples)
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
        self.pos_of_id = {int(s): i for i, s in enumerate(dataset.sample_ids)}

    def encrypt_gradients(self, positions: np.ndarray) -> tuple[dict[int, int], dict[int, int]]:
        """The ``GRADIENT_BROADCAST`` maps of sample id to the ciphertext of
        its quantized g, and of its h, for the samples at ``positions``."""
        enc_g, enc_h = {}, {}
        n = self.pk.n
        for pos in positions:
            sample_id = int(self.dataset.sample_ids[pos])
            enc_g[sample_id] = encrypt(self.pk, int(self.g[pos]) % n, rng=self.enc_rng, sk=self.sk)
            enc_h[sample_id] = encrypt(self.pk, int(self.h[pos]) % n, rng=self.enc_rng, sk=self.sk)
        return enc_g, enc_h

    def fold_layouts(self, n_samples: int) -> tuple[PackedLayout, PackedLayout]:
        """The g and h layouts of a node of ``n_samples``: the most slots
        whose fold stays below ``p / 2``, so that it decrypts modulo ``p``
        alone, whatever its sign."""
        return level_layouts(n_samples.bit_length(), self.sk.p >> 1)

    def decrypt_histogram(self, enc_g: list[int], enc_h: list[int],
                          counts: np.ndarray, positions: np.ndarray, where: str) -> GradHistogram:
        """One passive party's bin sums over the sample space at ``positions``,
        as exact quantized integers.

        Each ciphertext folds a run of the bins that ``counts`` says are
        non-empty, in flat (feature, bin) order
        (:meth:`PassiveParty.bin_aggregate`); every empty bin sums to zero.
        Each fold is decrypted modulo ``p`` alone: a g fold against its
        run's offset constant ``M``, the packing of all-zero sums, which is
        then added back; an h fold, whose slots are unsigned, against
        ``2**(width * slots) - 1``.  A ciphertext list of the wrong length,
        counts that are negative or do not add up to the sample space, a
        fold outside its bound, a negative h fold, bits above its slots, a
        bin of ``c`` samples whose sum leaves ``[-c * 2**GRAD_SCALE_BITS,
        c * 2**GRAD_SCALE_BITS]``, or a feature whose g or h sums miss the
        node's totals on this party's own gradients raise
        :class:`ProtocolError` naming ``where`` (sender, tree, node).  A
        count moved into or out of an empty bin shifts every later slot by
        one bin, across features, which the last check sees unless the
        shift stays within the last feature.
        """
        n_samples = positions.size
        if (counts < 0).any() or (counts.sum(axis=1) != n_samples).any():
            raise ProtocolError(f"{where}: bin counts are negative or do not add up to "
                                f"{n_samples} samples")
        occupied = np.flatnonzero(counts)
        layouts = self.fold_layouts(n_samples)
        if [len(enc_g), len(enc_h)] != [-(-occupied.size // x.slots) for x in layouts]:
            raise ProtocolError(f"{where}: {len(enc_g)} and {len(enc_h)} ciphertexts for "
                                f"{occupied.size} non-empty bins in runs of "
                                f"{layouts[0].slots} and {layouts[1].slots}")
        top = counts << GRAD_SCALE_BITS

        def plain(cts, layout, name, node_sum):
            # a g fold is signed around its offset constant m; an h fold,
            # with no offset, is unsigned
            folds = layout.pack(np.zeros(occupied.size, dtype=np.int64))
            unsigned = (1 << (layout.width * layout.slots)) - 1
            values = np.zeros(counts.shape, dtype=np.int64)
            try:
                totals = [decrypt(self.sk, self.pk, c, bound=m or unsigned) + m
                          for c, m in zip(cts, folds)]
                if min(totals, default=0) < 0:
                    raise ProtocolError(f"{name} fold {totals.index(min(totals))} is negative")
                values.flat[occupied] = layout.unpack(totals, occupied.size)
            except (EncodingError, ProtocolError) as exc:
                raise ProtocolError(f"{where}: {exc}") from None
            bad = (values > top) | (values < -top)
            if np.count_nonzero(bad):
                f, b = (int(i) for i in np.argwhere(bad)[0])
                raise ProtocolError(f"{where}: feature {f}, bin {b} has a {name} sum of "
                                    f"{values[f, b]}, beyond {counts[f, b]} samples' bound")
            off = np.flatnonzero(values.sum(axis=1) != node_sum)
            if off.size:
                raise ProtocolError(f"{where}: feature {off[0]}'s {name} sums add up to "
                                    f"{values[off[0]].sum()}, not the node's {node_sum}")
            return values

        g, h = (plain(cts, layout, name, int(own[positions].sum())) for cts, layout, name, own
                in zip((enc_g, enc_h), layouts, "gh", (self.g, self.h)))
        return GradHistogram(g, h, counts)

    def own_histogram(self, positions: np.ndarray) -> GradHistogram:
        from .gbt import build_histogram

        return build_histogram(self.cells, self.g, self.h, [positions], self.params.max_bin)[0]


@dataclass
class VflTrained:
    """The distributed model: the skeleton, with the active party's own
    thresholds, at the active party; foreign thresholds at their owners."""

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
    round_id = 1  # the public key, sent over the bus as to HFL clients
    for pid in roster.passive_ids:
        bus.send(aid, pid, "KEY_BROADCAST", round_id,
                 {"n": active.pk.n, "g": active.pk.g, "key_bits": key_bits})
    for pid, passive in passives.items():
        try:
            passive.pk = received_public_key(bus.recv(pid, "KEY_BROADCAST").payload)
        except ValueError as exc:
            raise ProtocolError(f"KEY_BROADCAST to {pid}: {exc}") from None
    next_record = 0
    trees: list[Tree] = []

    for t in range(params.n_estimators):
        rows = tree_row_sample(active.dataset.n_samples, params.subsample, seed, t)
        active.g, active.h = map(quantize, logistic_gradients(active.dataset.labels,
                                                              active.margins))

        round_id += 1
        enc_g, enc_h = active.encrypt_gradients(rows)
        for pid in roster.passive_ids:
            bus.send(aid, pid, "GRADIENT_BROADCAST", round_id,
                     {"tree": t, "enc_g": enc_g, "enc_h": enc_h})
        for pid, passive in passives.items():
            got = bus.recv(pid, "GRADIENT_BROADCAST").payload
            passive.receive_gradients(got["enc_g"], got["enc_h"])

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
                    node.threshold = active.binning.threshold(local_feature, node.bin_index)
                    left = positions[active.columns[local_feature][positions] <= node.bin_index]
                else:
                    # the owner stores the split and partitions the sample
                    # ids its notice carries
                    noticed = active.dataset.sample_ids[positions].tolist()
                    round_id += 1
                    bus.send(aid, owner, "SPLIT_NOTICE", round_id, {
                        "tree": t,
                        "node": node.node_id,
                        "record": node.record_id,
                        "feature_local": local_feature,
                        "bin": node.bin_index,
                        "sample_ids": noticed,
                    })
                    notice = bus.recv(owner, "SPLIT_NOTICE").payload
                    passive = passives[owner]
                    passive.store_record(notice["record"], notice["feature_local"], notice["bin"])
                    round_id += 1
                    bus.send(owner, aid, "PARTITION_REPLY", round_id, {
                        "tree": t, "node": node.node_id,
                        "sample_ids": passive.resolve_partition(notice["record"],
                                                                notice["sample_ids"]),
                    })
                    reply = bus.recv(aid, "PARTITION_REPLY").payload["sample_ids"]
                    where = f"PARTITION_REPLY from {owner} for tree {t}, node {node.node_id}"
                    if len(set(reply)) != len(reply) or not set(reply) <= set(noticed):
                        raise ProtocolError(f"{where}: the ids are not a duplicate-free subset "
                                            "of the notice's")
                    left = np.array(sorted(active.pos_of_id[s] for s in reply), dtype=np.int64)
                    # leaf weights come from the split's sums: the reply must
                    # agree with them on this party's own gradients
                    if (int(active.g[left].sum()), int(active.h[left].sum()),
                            left.size) != stats[node.left]:
                        raise ProtocolError(f"{where}: the left side disagrees with the "
                                            "split's sums")
                node_positions[node.left] = left
                # left is a sorted subset of the sorted positions
                node_positions[node.right] = np.delete(positions, np.searchsorted(positions, left))
                # each wanted child is exchanged right after its parent's partition
                for c in (c for c in (node.left, node.right) if c in build):
                    hists[c], round_id = _exchange_histograms(bus, active, passives, t, c,
                                                              node_positions[c], round_id)
            return hists

        root = int(active.g[rows].sum()), int(active.h[rows].sum()), rows.size
        tree = grow_tree(params, t, root, finish_level)

        # margin update: the rows the tree was grown on take their weights
        # from the final partition; only the rows subsampling left out walk
        # the tree as inference rows do, and each passive party answers from
        # its own rows of those ids, the ones its GRADIENT_BROADCAST lacked
        weights = np.zeros(active.dataset.n_samples)
        for leaf_id, positions in node_positions.items():
            weights[positions] = tree.nodes[leaf_id].weight
        rest = np.delete(np.arange(active.dataset.n_samples), rows)
        if rest.size:
            ids = active.dataset.sample_ids[rest]
            for passive in passives.values():
                own = [passive.pos_of_id[s] for s in ids.tolist()]
                passive.load_inference_rows(ids, passive.dataset.features[own])
            weights[rest], round_id = _walk([tree], roster, passives,
                                            active.dataset.features[rest], ids.tolist(), bus,
                                            round_id)
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
    g_layout, h_layout = active.fold_layouts(len(sample_ids))
    round_id += 1
    for pid in passives:
        bus.send(aid, pid, "SAMPLE_SPACE", round_id, {
            "tree": tree_index, "node": node_id, "sample_ids": sample_ids,
            "slots": g_layout.slots, "h_slots": h_layout.slots,
        })
    round_id += 1
    for pid, passive in passives.items():
        space = bus.recv(pid, "SAMPLE_SPACE").payload
        eg, eh, counts = passive.bin_aggregate(space["sample_ids"], space["slots"], space["h_slots"])
        bus.send(pid, aid, "ENC_HISTOGRAM_SUBMIT", round_id, {
            "tree": tree_index, "node": node_id, "enc_g": eg, "enc_h": eh,
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
        counts = payload["counts"]
        if counts.size != shape[0] * shape[1]:
            raise ProtocolError(f"{where}: {counts.size} counts, expected {shape[0] * shape[1]}")
        hists.append(active.decrypt_histogram(payload["enc_g"], payload["enc_h"],
                                              counts.reshape(shape), positions, where))
    parts = [active.own_histogram(positions), *hists]
    return GradHistogram(*(np.vstack([getattr(part, a) for part in parts])
                           for a in ("g", "h", "counts"))), round_id


def vfl_predict(
    trained: VflTrained,
    parts: dict[str, PartyDataset],
    bus: MessageBus | None = None,
) -> tuple[np.ndarray, MessageBus]:
    """Federated inference over vertically-split feature rows.

    ``parts`` maps each roster party to its feature slice of the query rows
    (same sample ids everywhere).  Every (tree, row) pair is one walk of
    :func:`_walk`, and all walks advance in level-synchronous rounds; only
    leaf weights accumulate here, per row in tree order.
    """
    bus = bus or MessageBus()
    roster = trained.roster
    aid = roster.active_id
    ids = parts[aid].sample_ids.tolist()
    for pid in roster.passive_ids:
        if parts[pid].sample_ids.tolist() != ids:
            raise ProtocolError("inference rows are not aligned across parties")
        trained.passives[pid].load_inference_rows(parts[pid].sample_ids, parts[pid].features)
    leaf_weights, _ = _walk(trained.ensemble.trees, roster, trained.passives,
                            parts[aid].features, ids, bus, INFER_ROUND_START)
    # each row's leaf weights add up in tree order
    margins = [trained.ensemble.base_score_logit] * len(ids)
    lr = trained.ensemble.params.learning_rate
    for k, weight in enumerate(leaf_weights):
        margins[k % len(ids)] += lr * weight
    return sigmoid(np.array(margins)), bus


def _walk(trees: list[Tree], roster: VflRoster, passives: dict[str, PassiveParty],
          rows: np.ndarray, ids: list[int], bus: MessageBus,
          round_id: int) -> tuple[list[float], int]:
    """The leaf weight of every (tree, row) pair, tree-major, and the last
    round id: the walk that inference and the training margin update share.

    ``rows`` are the active party's feature rows of the sample ids ``ids``;
    each passive party holds its own rows of them
    (:meth:`PassiveParty.load_inference_rows`).  In a round, each live walk
    first descends through the active party's own splits, locally, until it
    reaches a leaf or a foreign split.  Each passive party that owns a split
    some walk waits at then gets one ``INFER_QUERY`` listing those records
    and, per record, the sample ids waiting there; its one ``INFER_REPLY``
    carries one list of bools per record.  The rounds are at most the
    largest count of foreign splits on one path.
    """
    aid = roster.active_id
    # the active party's rows hold its own slice of the roster's features
    first = roster.feature_slices[aid][0]
    rows = rows.tolist()
    # one walk [tree nodes, current node, row, leaf weight] per (tree, row)
    walks = [[tree.nodes, tree.nodes[0], i, 0.0] for tree in trees for i in range(len(ids))]
    pending = walks
    query = 0
    while pending:
        waiting: dict[str, dict[int, list]] = {}  # owner -> record id -> walks
        for walk in pending:
            nodes, node, i = walk[0], walk[1], walk[2]
            while not node.is_leaf:
                if node.owner != aid:
                    waiting.setdefault(node.owner, {}).setdefault(node.record_id, []).append(walk)
                    break
                go_left = rows[i][node.feature - first] <= node.threshold
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
                answers = passives[owner].answer_query(asked["records"], asked["sample_ids"])
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
    return [walk[3] for walk in walks], round_id
