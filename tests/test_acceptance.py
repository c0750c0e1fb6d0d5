"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The federated-equivalence criteria run the full encrypted protocols at
512-bit keys and are the slowest part of the suite (a few minutes total).
"""

import json
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fedgbt.cli import main as cli_main
from fedgbt.data import PartyDataset, default_synth_config, join_datasets, split_train_valid_test, synth_generate
from fedgbt.gbt import (
    GRAD_SCALE_BITS,
    GbtParams,
    find_best_split,
    logistic_gradients,
    predict_proba,
    quantize,
    train_centralized,
)
from fedgbt.hfl import (
    SECAGG_MASK_ONLY,
    SECAGG_PAILLIER,
    establish_global_binning,
    hfl_train,
    make_roster,
)
from fedgbt.hpo import (
    Dimension,
    SearchSpace,
    TunedParams,
    aggregate_params,
    bo_optimize,
    default_search_space,
    expected_improvement,
    gp_fit,
)
from fedgbt.metrics import auc_roc, evaluate_scores, privacy_cost
from fedgbt.paillier import aggregate, decrypt, encrypt, keygen
from fedgbt.scanner import SensitiveCorpus, scan_sensitive, scan_structure
from fedgbt.vfl import make_vfl_roster, vfl_predict, vfl_train

from test_gbt import brute_force_best_split, histogram_of
from test_metrics import naive_metrics, pairwise_auc


@contextmanager
def criterion(num: int, name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE {num:02d}] {name}: FAIL "
              f"({time.perf_counter() - started:.1f}s)")
        raise
    print(f"\n[ACCEPTANCE {num:02d}] {name}: PASS "
          f"({time.perf_counter() - started:.1f}s)")


def synth_classification(n, F, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, F))
    w = rng.normal(size=F)
    y = (X @ w / math.sqrt(F) + 0.3 * rng.normal(size=n) > 0).astype(int)
    if y.min() == y.max():
        y[: n // 3] = 1 - y[0]
    return X, y


def split_horizontal(X, y, n_parties, seed):
    rng = np.random.default_rng(seed)
    chunks = np.array_split(rng.permutation(X.shape[0]), n_parties)
    parties = {}
    offset = 0
    for i, chunk in enumerate(chunks):
        chunk = np.sort(chunk)
        parties[f"c{i}"] = PartyDataset(
            f"c{i}", np.arange(offset, offset + len(chunk)), X[chunk],
            tuple(f"f{j}" for j in range(X.shape[1])), y[chunk],
        )
        offset += len(chunk)
    return parties


def assert_same_structure(fed_model, central_model):
    """Node for node: the same kind, the same (feature, bin), equal weights."""
    assert len(fed_model.trees) == len(central_model.trees)
    for ft, ct in zip(fed_model.trees, central_model.trees):
        assert len(ft.nodes) == len(ct.nodes)
        for fn, cn in zip(ft.nodes, ct.nodes):
            assert fn.is_leaf == cn.is_leaf
            if fn.is_leaf:
                assert fn.weight == cn.weight
            else:
                assert (fn.feature, fn.bin_index) == (cn.feature, cn.bin_index)


EQUIV_PARAMS = GbtParams(
    n_estimators=2, max_depth=3, max_bin=8, learning_rate=0.3,
    reg_lambda=1.0, min_child_weight=1.0,
)


def test_criterion_01_paillier_correctness():
    with criterion(1, "Paillier homomorphic aggregation at 512-bit keys"):
        started = time.perf_counter()
        pk, sk = keygen(key_bits=512, rng_seed=101)
        rng = random.Random(2024)
        for _ in range(1000):
            m1 = rng.randrange(0, pk.n // 4)
            m2 = rng.randrange(0, pk.n // 4)
            total = aggregate(pk, [encrypt(pk, m1, rng=rng), encrypt(pk, m2, rng=rng)])
            assert decrypt(sk, pk, total) == m1 + m2
        for trial in range(50):
            xs = [rng.uniform(-1, 1) for _ in range(rng.randrange(2, 40))]
            cs = [encrypt(pk, int(quantize(x)) % pk.n, rng=rng) for x in xs]
            total = decrypt(sk, pk, aggregate(pk, cs), bound=len(xs) << GRAD_SCALE_BITS)
            assert total == sum(int(quantize(x)) for x in xs)
            decoded = total / 2**GRAD_SCALE_BITS
            # each term rounds by at most half a unit in the last place
            assert abs(decoded - sum(xs)) <= len(xs) * 2**-GRAD_SCALE_BITS
        assert time.perf_counter() - started <= 60.0


def test_criterion_02_hfl_equals_centralized():
    with criterion(2, "sample-partitioned federated training matches pooled training"):
        started = time.perf_counter()
        meta_rng = np.random.default_rng(777)
        for run in range(20):
            run_started = time.perf_counter()
            n = int(meta_rng.integers(100, 301))
            F = int(meta_rng.integers(8, 33))
            n_clients = int(meta_rng.integers(2, 5))
            X, y = synth_classification(n, F, 9000 + run)
            joined = PartyDataset("joined", np.arange(n), X,
                                  tuple(f"f{j}" for j in range(F)), y)
            plan = split_train_valid_test(joined, k=5, seed=run)
            fold = plan.folds[0]
            train = joined.subset(fold.full_train_idx)
            test = joined.subset(fold.test_idx)
            parties = split_horizontal(train.features, train.labels, n_clients,
                                       seed=100 + run)
            roster = make_roster(
                sorted(parties), [parties[p].n_samples for p in sorted(parties)],
                master_seed=run, secagg_mode=SECAGG_PAILLIER,
            )
            fed, _ = hfl_train(roster, parties, EQUIV_PARAMS, seed=run, key_bits=512)
            binning = establish_global_binning(list(parties.values()), EQUIV_PARAMS.max_bin)
            central = train_centralized(
                join_datasets(list(parties.values()), "union"), EQUIV_PARAMS,
                seed=run, binning=binning,
            )
            assert_same_structure(fed, central)
            fed_auc = auc_roc(test.labels, predict_proba(fed, test.features))
            cen_auc = auc_roc(test.labels, predict_proba(central, test.features))
            assert abs(fed_auc - cen_auc) <= 0.005
            assert time.perf_counter() - run_started <= 600.0
        assert time.perf_counter() - started <= 600.0


def test_criterion_03_vfl_equals_centralized():
    with criterion(3, "feature-partitioned federated training matches pooled training"):
        meta_rng = np.random.default_rng(888)
        for run in range(20):
            n = int(meta_rng.integers(100, 301))
            F = int(meta_rng.integers(8, 33))
            n_passives = int(meta_rng.integers(1, 3))
            X, y = synth_classification(n, F, 7000 + run)
            cut_points = sorted(
                meta_rng.choice(np.arange(2, F - 1), size=n_passives, replace=False)
            )
            blocks = np.split(np.arange(F), cut_points)
            ids = np.arange(n)
            datasets = {
                "active": PartyDataset("active", ids, X[:, blocks[0]],
                                       tuple(f"g{j}" for j in blocks[0]), y)
            }
            for k, block in enumerate(blocks[1:]):
                datasets[f"passive{k}"] = PartyDataset(
                    f"passive{k}", ids, X[:, block], tuple(f"g{j}" for j in block)
                )
            roster = make_vfl_roster("active", datasets)
            joined = PartyDataset("joined", ids, X, roster.feature_names, y)
            plan = split_train_valid_test(joined, k=5, seed=run)
            fold = plan.folds[0]
            train_idx, test_idx = fold.full_train_idx, fold.test_idx
            train_parts = {p: d.subset(train_idx) for p, d in datasets.items()}
            test_parts = {p: d.subset(test_idx) for p, d in datasets.items()}
            trained, bus = vfl_train(make_vfl_roster("active", train_parts), train_parts,
                                     EQUIV_PARAMS, seed=run, key_bits=512)
            central = train_centralized(joined.subset(train_idx), EQUIV_PARAMS, seed=run)
            assert_same_structure(trained.ensemble, central)
            fed_scores, _ = vfl_predict(trained, test_parts)
            cen_scores = predict_proba(central, joined.subset(test_idx).features)
            np.testing.assert_array_equal(fed_scores, cen_scores)
            fed_auc = auc_roc(joined.labels[test_idx], fed_scores)
            cen_auc = auc_roc(joined.labels[test_idx], cen_scores)
            assert abs(fed_auc - cen_auc) <= 0.005


def test_criterion_04_split_search_matches_exhaustive_enumeration():
    with criterion(4, "histogram split search agrees with brute-force enumeration"):
        rng = np.random.default_rng(4242)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            F = int(rng.integers(1, 3))
            B = int(rng.integers(2, 6))
            binned = rng.integers(0, B, size=(n, F))
            y = rng.integers(0, 2, size=n)
            margins = rng.normal(scale=0.5, size=n)
            g, h = map(quantize, logistic_gradients(y, margins))
            hist = histogram_of(binned, g, h, np.arange(n), B)
            params = GbtParams(
                min_child_weight=float(rng.choice([0.0, 0.1, 0.3])),
                reg_lambda=float(rng.choice([0.0, 0.5, 1.0])),
                reg_alpha=float(rng.choice([0.0, 0.05])),
                gamma=float(rng.choice([0.0, 0.1])),
            )
            (ours,) = find_best_split([hist], params)
            oracle = brute_force_best_split(hist, params)
            if oracle is None:
                assert ours is None
            else:
                assert ours is not None
                assert ours.gain == pytest.approx(oracle[0], abs=1e-9)
                assert (ours.feature, ours.bin_index) == (oracle[1], oracle[2])


def test_criterion_05_metrics_match_independent_oracles():
    with criterion(5, "classification metrics match naive counting and pair enumeration"):
        rng = np.random.default_rng(555)
        for _ in range(1000):
            n = int(rng.integers(2, 50))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = rng.integers(0, 12, size=n) / 12.0
            report = evaluate_scores(labels, scores)
            oracle = naive_metrics(labels, scores)
            for field in ("accuracy", "precision", "recall", "f1",
                          "fpr_standard", "fpr_paper"):
                assert getattr(report, field) == oracle[field]
            assert report.auc == pytest.approx(pairwise_auc(labels, scores), abs=1e-12)


def test_criterion_06_privacy_cost_reproduces_published_deltas():
    with criterion(6, "privacy-cost arithmetic reproduces the published comparison deltas"):
        fed_costs = [
            privacy_cost("federated", "auc", 89.61, 89.33).cost,
            privacy_cost("federated", "accuracy", 84.17, 82.76).cost,
            privacy_cost("federated", "f1", 86.74, 85.47).cost,
        ]
        assert fed_costs[0] == pytest.approx(0.28, abs=1e-12)
        assert fed_costs[1] == pytest.approx(1.41, abs=1e-12)
        assert fed_costs[2] == pytest.approx(1.27, abs=1e-12)
        open_cost = privacy_cost("open_share", "auc", 89.61, 69.25).cost
        assert open_cost == pytest.approx(20.36, abs=1e-12)


def test_criterion_07_bayesian_optimization_sanity():
    with criterion(7, "surrogate search finds the known optimum; GP and EI behave"):
        space = SearchSpace(dimensions=(Dimension("x", "continuous", 0.0, 1.0),))
        for seed in range(10):
            result = bo_optimize(lambda v: -((v["x"] - 0.3) ** 2), space,
                                 budget=25, seed=seed)
            assert abs(result.vector["x"] - 0.3) <= 0.05, (seed, result.vector)
        import itertools

        X = np.array(list(itertools.product([0.0, 1.0], repeat=3)))
        y = np.random.default_rng(7).normal(size=len(X))
        gp = gp_fit(X, y)
        mean, _ = gp.posterior(X)
        np.testing.assert_allclose(mean, y, atol=1e-4)
        queries = np.random.default_rng(8).random((1000, 3))
        assert (expected_improvement(gp, queries, best=float(y.max())) >= 0).all()


def test_criterion_08_sample_weighted_parameter_aggregation():
    with criterion(8, "sample-weighted hyperparameter averaging is exact and convex"):
        space = SearchSpace(dimensions=(Dimension("learning_rate", "continuous", 0.01, 0.5),))
        locals_ = [
            (TunedParams({"learning_rate": 0.2}, {"learning_rate": 0.2}, 1.0, "direct"), 72),
            (TunedParams({"learning_rate": 0.4}, {"learning_rate": 0.4}, 1.0, "direct"), 212),
        ]
        merged = aggregate_params(locals_, space)
        exact = (72 * 0.2 + 212 * 0.4) / 284
        assert merged.raw_vector["learning_rate"] == pytest.approx(exact, abs=1e-12)
        assert merged.raw_vector["learning_rate"] == pytest.approx(0.34929577464788737, abs=1e-12)
        full = default_search_space()
        rng = np.random.default_rng(88)
        for _ in range(25):
            parts = []
            for n in rng.integers(10, 200, size=3):
                vec = {d.name: float(rng.uniform(d.low, d.high)) for d in full.dimensions}
                parts.append((TunedParams(vec, dict(vec), 0.0, "direct"), int(n)))
            merged = aggregate_params(parts, full)
            for d in full.dimensions:
                values = [tp.raw_vector[d.name] for tp, _ in parts]
                assert min(values) - 1e-12 <= merged.raw_vector[d.name] <= max(values) + 1e-12


def test_criterion_09_small_party_gains_from_federation():
    with criterion(9, "the small party's federated score beats its local model in >=8/10 seeds"):
        params = GbtParams(n_estimators=10, max_depth=3, max_bin=16,
                           learning_rate=0.3, reg_lambda=1.0, min_child_weight=1.0)
        wins = 0
        for seed in range(10):
            district_a, district_b = synth_generate(default_synth_config(seed=seed))
            joined = join_datasets([district_a, district_b], "joined")
            plan = split_train_valid_test(joined, k=5, seed=seed)
            fold = plan.folds[0]
            train = joined.subset(fold.full_train_idx)
            test = joined.subset(fold.test_idx)
            a_rows = np.flatnonzero(np.isin(train.sample_ids, district_a.sample_ids))
            b_rows = np.flatnonzero(np.isin(train.sample_ids, district_b.sample_ids))
            train_a = train.subset(a_rows, "A")
            train_b = train.subset(b_rows, "B")
            separate_a = train_centralized(train_a, params, seed=seed)
            roster = make_roster(["A", "B"], [train_a.n_samples, train_b.n_samples],
                                 master_seed=seed, secagg_mode=SECAGG_MASK_ONLY)
            federated, _ = hfl_train(roster, {"A": train_a, "B": train_b}, params, seed=seed)
            sep_auc = auc_roc(test.labels, predict_proba(separate_a, test.features))
            fed_auc = auc_roc(test.labels, predict_proba(federated, test.features))
            wins += fed_auc >= sep_auc
        assert wins >= 8, f"federated won only {wins}/10 seeds"


def test_criterion_10_transcripts_carry_no_sensitive_values():
    with criterion(10, "transcripts leak no labels, raw features, sums, or foreign thresholds"):
        params = GbtParams(n_estimators=2, max_depth=2, max_bin=8,
                           reg_lambda=1.0, min_child_weight=1.0)
        for seed in range(5):
            X, y = synth_classification(60, 6, 3000 + seed)
            parties = split_horizontal(X, y, 2, seed)
            roster = make_roster(sorted(parties),
                                 [parties[p].n_samples for p in sorted(parties)],
                                 master_seed=seed, secagg_mode=SECAGG_PAILLIER)
            model, bus = hfl_train(roster, parties, params, seed=seed, key_bits=512)
            assert scan_structure(bus.transcript).clean
            binning = establish_global_binning(list(parties.values()), params.max_bin)
            forbidden = set()
            for party in parties.values():
                from fedgbt.gbt import predict_margin

                margins = predict_margin(model, party.features, n_trees=1)
                g, h = map(quantize, logistic_gradients(party.labels, margins))
                hist = histogram_of(binning.bin_columns(party.features).T, g, h,
                                    np.arange(party.n_samples), params.max_bin)
                for value in hist.g.flatten():
                    value = int(value) / 2**GRAD_SCALE_BITS
                    if value and value != round(value * 4) / 4:
                        forbidden.add(value)
            corpus = SensitiveCorpus(
                label_vectors={p.party_id: p.labels.tolist() for p in parties.values()},
                feature_cells=set(map(float, X.flatten())),
                forbidden_floats=forbidden,
            )
            report = scan_sensitive(bus.transcript, corpus)
            assert report.clean, report.findings

        for seed in range(5):
            X, y = synth_classification(60, 8, 4000 + seed)
            ids = np.arange(60)
            datasets = {
                "active": PartyDataset("active", ids, X[:, :4],
                                       tuple(f"a{i}" for i in range(4)), y),
                "passive0": PartyDataset("passive0", ids, X[:, 4:],
                                         tuple(f"p{i}" for i in range(4))),
            }
            roster = make_vfl_roster("active", datasets)
            trained, bus = vfl_train(roster, datasets, params, seed=seed, key_bits=512)
            scores, bus = vfl_predict(trained, {
                p: d.subset(np.arange(8)) for p, d in datasets.items()
            }, bus=bus)
            assert scan_structure(bus.transcript).clean
            thresholds = {
                float(t)
                for passive in trained.passives.values()
                for t in passive.binning.boundaries.flatten()
            }
            corpus = SensitiveCorpus(
                label_vectors={"active": y.tolist()},
                feature_cells=set(map(float, X[:, 4:].flatten())),
                owner_thresholds={"active": thresholds},
            )
            report = scan_sensitive(bus.transcript, corpus)
            assert report.clean, report.findings


def test_criterion_11_repeated_comparison_runs_are_byte_identical(tmp_path):
    with criterion(11, "identical configs and seeds give byte-identical reports"):
        doc = {
            "scenario": "hfl_case_one",
            "regimes": ["separate", "federated", "centralized"],
            "params": {"n_estimators": 2, "max_depth": 2, "max_bin": 8,
                       "reg_lambda": 1.0},
            "data": {"synth": {"seed": 21}},
            "k_folds": 2,
            "seed": 21,
            "secagg": "mask-only",
        }
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli_main(["compare", "--config", str(config), "--out", str(out1)]) == 0
        assert cli_main(["compare", "--config", str(config), "--out", str(out2)]) == 0
        for name in ("report.json", "summary.tsv", "folds.tsv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        for tag in r1["regimes"]:
            assert r1["regimes"][tag]["model_hashes"] == r2["regimes"][tag]["model_hashes"]
            assert r1["regimes"][tag]["model_hashes"], tag
