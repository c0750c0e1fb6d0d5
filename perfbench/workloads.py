"""The four benchmark workloads: input construction, the timed calls, and
the pooled references their outputs are checked against.

Every input comes from the workload seed: it drives data generation, the
fold plan, the client split and the protocol seed.  The program under test
receives only the generated inputs.  Why each workload exists is recorded
in ``perfbench/README.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from fedgbt import data, gbt, hfl, vfl
from fedgbt.scanner import SensitiveCorpus

# Acceptance-style equivalence parameters (2 trees, depth 3, 8 bins, lambda=1).
EQUIV_PARAMS = gbt.GbtParams(
    n_estimators=2, max_depth=3, max_bin=8, learning_rate=0.3,
    reg_lambda=1.0, min_child_weight=1.0,
)
# The paper's horizontal parameters (20 trees, depth 5, 32 bins, lambda=0).
PAPER_PARAMS = gbt.GbtParams(
    n_estimators=20, max_depth=5, max_bin=32, learning_rate=0.3,
    reg_lambda=0.0, min_child_weight=1.0,
)
CENTRAL_PARAMS = gbt.GbtParams(
    n_estimators=20, max_depth=5, max_bin=32, learning_rate=0.3,
    reg_lambda=1.0, min_child_weight=1.0,
)
KEY_BITS = 512


def synth_classification(n: int, F: int, seed: int):
    """Linear-threshold labels over Gaussian features (the acceptance generator)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, F))
    w = rng.normal(size=F)
    y = (X @ w / math.sqrt(F) + 0.3 * rng.normal(size=n) > 0).astype(int)
    if y.min() == y.max():
        y[: n // 3] = 1 - y[0]
    return X, y


def _labeled(X, y, prefix="f"):
    n, F = X.shape
    return data.PartyDataset("joined", np.arange(n), X, tuple(f"{prefix}{j}" for j in range(F)), y)


def _fold0(joined: data.PartyDataset, seed: int):
    fold = data.split_train_valid_test(joined, k=5, seed=seed).folds[0]
    return fold.full_train_idx, fold.test_idx


def _cells(datasets) -> set[float]:
    """Raw feature values the transcripts must not carry.

    Zero is left out: the synthetic well data has zero-valued cells, and a
    leaf whose gradient sum is exactly zero goes on the wire with weight
    -0.0, which compares equal.  A zero identifies no cell.
    """
    cells = set()
    for d in datasets:
        cells |= set(map(float, d.features.flatten()))
    cells.discard(0.0)
    return cells


@dataclass
class Inputs:
    """Everything a workload's timed calls need, built by ``setup``."""

    seed: int
    train: dict  # party id -> PartyDataset (the training rows)
    test: dict  # party id -> PartyDataset (the scoring rows)
    test_labels: np.ndarray
    extra: dict = field(default_factory=dict)

    def digest_material(self) -> bytes:
        parts = [self.train[p].features.tobytes() for p in sorted(self.train)]
        parts += [self.test[p].features.tobytes() for p in sorted(self.test)]
        return b"".join(parts) + self.test_labels.tobytes()


class Workload:
    name = ""
    federated = True
    same_structure = True  # federated trees must match the pooled ones node for node

    def setup(self, seed: int) -> Inputs:
        raise NotImplementedError

    def train(self, inp: Inputs):
        """Run one training; returns (model handle, MessageBus or None)."""
        raise NotImplementedError

    def ensemble(self, model) -> gbt.BoostedEnsemble:
        return model

    def score_batch(self, model, inp: Inputs):
        """Score every test row; returns (scores, MessageBus or None)."""
        return gbt.predict_proba(model, self.test_matrix(inp)), None

    def row_requests(self, inp: Inputs) -> list:
        """One single-row scoring request per test row, built outside the timer."""
        return list(self.test_matrix(inp))

    def score_row(self, model, request) -> float:
        return gbt.predict(model, request)[1]

    def test_matrix(self, inp: Inputs) -> np.ndarray:
        return next(iter(inp.test.values())).features

    def pooled(self, inp: Inputs) -> gbt.BoostedEnsemble:
        """The centralized model on the union of the training rows."""
        raise NotImplementedError

    def corpus(self, inp: Inputs, model) -> SensitiveCorpus:
        raise NotImplementedError


class _Hfl(Workload):
    """Shared horizontal plumbing: clients in ``inp.train``, one test matrix."""

    mode = hfl.SECAGG_PAILLIER
    params = EQUIV_PARAMS

    def train(self, inp):
        ids = sorted(inp.train)
        roster = hfl.make_roster(ids, [inp.train[c].n_samples for c in ids],
                                 master_seed=inp.seed, secagg_mode=self.mode)
        return hfl.hfl_train(roster, inp.train, self.params, seed=inp.seed, key_bits=KEY_BITS)

    def pooled(self, inp):
        parties = [inp.train[c] for c in sorted(inp.train)]
        binning = hfl.establish_global_binning(parties, self.params.max_bin)
        return gbt.train_centralized(data.join_datasets(parties, "union"), self.params,
                                     seed=inp.seed, binning=binning)

    def corpus(self, inp, model):
        return SensitiveCorpus(
            label_vectors={c: d.labels.tolist() for c, d in inp.train.items()},
            feature_cells=_cells(inp.train.values()),
        )


class HflPaillier(_Hfl):
    name = "hfl-paillier"
    n, F, clients = 250, 16, 3

    def setup(self, seed):
        joined = _labeled(*synth_classification(self.n, self.F, seed))
        train_idx, test_idx = _fold0(joined, seed)
        train = joined.subset(train_idx)
        rng = np.random.default_rng([seed, 1])
        chunks = np.array_split(rng.permutation(train.n_samples), self.clients)
        parties, offset = {}, 0
        for i, chunk in enumerate(chunks):
            chunk = np.sort(chunk)
            parties[f"c{i}"] = data.PartyDataset(
                f"c{i}", np.arange(offset, offset + len(chunk)), train.features[chunk],
                train.feature_names, train.labels[chunk],
            )
            offset += len(chunk)
        test = joined.subset(test_idx, "test")
        return Inputs(seed, parties, {"test": test}, test.labels)


class HflMaskPaper(_Hfl):
    name = "hfl-mask-paper"
    mode = hfl.SECAGG_MASK_ONLY
    params = PAPER_PARAMS
    # With lambda=0 many nodes become pure early, so tree shapes, and with
    # them mask draws and prediction paths, change with the data: batch
    # scoring time varied 2x over five data seeds.  The districts and fold
    # plan are therefore fixed (data seed 0, the paper-scale run the
    # known-defect count refers to); the workload seed drives the protocol
    # (pairwise mask seeds and nonces).
    data_seed = 0
    # lambda=0 leaves rounding-noise gains on some pure nodes, so the
    # structure check is reported as a count; scores are still gated
    same_structure = False

    def setup(self, seed):
        districts = data.synth_generate(data.default_synth_config(self.data_seed))
        joined = data.join_datasets(list(districts), "joined")
        train_idx, test_idx = _fold0(joined, self.data_seed)
        train = joined.subset(train_idx, "train")
        parties = {
            d.party_id: train.subset(np.flatnonzero(np.isin(train.sample_ids, d.sample_ids)),
                                     d.party_id)
            for d in districts
        }
        test = joined.subset(test_idx, "test")
        return Inputs(seed, parties, {"test": test}, test.labels)


class VflTrain(Workload):
    name = "vfl-train"
    n, F = 250, 32
    blocks = (11, 11, 10)  # active party first, then two passive parties
    # Inference cost follows how many splits on a row's path belong to a
    # passive party, and over data seeds that varies by 30-60% for this
    # 2-tree model.  The data and fold plan are therefore fixed; the
    # workload seed drives the protocol (key generation and encryption
    # randomness), so runs differ only in keys and noise.
    data_seed = 0

    def setup(self, seed):
        X, y = synth_classification(self.n, self.F, self.data_seed)
        joined = _labeled(X, y, prefix="g")
        train_idx, test_idx = _fold0(joined, self.data_seed)
        ids = joined.sample_ids
        parties, start = {}, 0
        for k, width in enumerate(self.blocks):
            pid = "active" if k == 0 else f"passive{k - 1}"
            cols = slice(start, start + width)
            parties[pid] = data.PartyDataset(pid, ids, X[:, cols], joined.feature_names[cols],
                                             y if k == 0 else None)
            start += width
        train = {p: d.subset(train_idx) for p, d in parties.items()}
        test = {p: d.subset(test_idx) for p, d in parties.items()}
        return Inputs(seed, train, test, y[test_idx],
                      extra={"joined_train": joined.subset(train_idx),
                             "joined_test": joined.subset(test_idx)})

    def train(self, inp):
        roster = vfl.make_vfl_roster("active", inp.train)
        return vfl.vfl_train(roster, inp.train, EQUIV_PARAMS, seed=inp.seed, key_bits=KEY_BITS)

    def ensemble(self, model):
        return model.ensemble

    def score_batch(self, model, inp):
        return vfl.vfl_predict(model, inp.test)

    def row_requests(self, inp):
        return [{p: d.subset([i]) for p, d in inp.test.items()}
                for i in range(len(inp.test_labels))]

    def score_row(self, model, request):
        return float(vfl.vfl_predict(model, request)[0][0])

    def test_matrix(self, inp):
        return inp.extra["joined_test"].features

    def pooled(self, inp):
        return gbt.train_centralized(inp.extra["joined_train"], EQUIV_PARAMS, seed=inp.seed)

    def corpus(self, inp, model):
        thresholds = {
            float(t) for passive in model.passives.values()
            for t in passive.binning.boundaries.flatten()
        }
        return SensitiveCorpus(
            label_vectors={"active": inp.train["active"].labels.tolist()},
            feature_cells=_cells((*inp.train.values(), *inp.test.values())),
            owner_thresholds={"active": thresholds},
        )


class Central(Workload):
    name = "central"
    federated = False
    n, F = 25_000, 32  # fold 0 of 5 leaves 20,000 training and 5,000 held-out rows

    def setup(self, seed):
        joined = _labeled(*synth_classification(self.n, self.F, seed))
        train_idx, test_idx = _fold0(joined, seed)
        test = joined.subset(test_idx, "test")
        return Inputs(seed, {"pool": joined.subset(train_idx, "pool")}, {"test": test},
                      test.labels)

    def train(self, inp):
        return gbt.train_centralized(inp.train["pool"], CENTRAL_PARAMS, seed=inp.seed), None


WORKLOADS = {w.name: w for w in (HflPaillier(), HflMaskPaper(), VflTrain(), Central())}
