import hashlib
import json
import os
from argparse import Namespace
from dataclasses import replace

import numpy as np
import pytest

from fedgbt.cli import _override_config, main as cli_main
from fedgbt import gbt
from fedgbt.data import (
    DISTRICT_B_STATS,
    DistrictSpec,
    FeatureStats,
    PartyDataset,
    SynthConfig,
    join_datasets,
    split_train_valid_test,
    synth_config_from_dict,
)
from fedgbt.experiment import (
    SCENARIO_HFL,
    SCENARIO_VFL,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    fold_seed,
    load_districts,
    party_sets,
    run_experiment,
    train_regime,
)
from fedgbt.gbt import GRAD_SCALE_BITS, GbtParams
from fedgbt.hfl import SECAGG_MASK_ONLY, hfl_train, make_roster
from fedgbt.transport import write_transcript


def small_synth(seed=0):
    from fedgbt.data import DistrictSpec, DISTRICT_A_STATS, DISTRICT_B_STATS

    return SynthConfig(
        districts=(
            DistrictSpec("A", 40, 0.35, DISTRICT_A_STATS),
            DistrictSpec("B", 80, 0.69, DISTRICT_B_STATS),
        ),
        seed=seed,
    )


def fast_params(**kw):
    base = dict(n_estimators=2, max_depth=2, max_bin=8, reg_lambda=1.0,
                min_child_weight=1.0)
    base.update(kw)
    return GbtParams(**base)


def hfl_config(seed=0, regimes=("separate", "federated", "centralized"), **kw):
    return ExperimentConfig(
        scenario=SCENARIO_HFL,
        regimes=tuple(regimes),
        params=fast_params(),
        synth=small_synth(seed),
        k_folds=3,
        seed=seed,
        secagg_mode=SECAGG_MASK_ONLY,
        **kw,
    )


@pytest.fixture(scope="module")
def hfl_report():
    return run_experiment(hfl_config(seed=1))


def test_all_regimes_complete(hfl_report):
    assert set(hfl_report.regimes) == {"separate:A", "separate:B", "federated", "centralized"}
    for result in hfl_report.regimes.values():
        assert result.error is None
        assert len(result.per_fold) == 3
        assert result.averaged is not None


def test_federated_close_to_centralized(hfl_report):
    fed = hfl_report.regimes["federated"]
    central = hfl_report.regimes["centralized"]
    for f_rep, c_rep in zip(fed.per_fold, central.per_fold):
        for metric in ("auc", "accuracy", "f1"):
            assert abs(getattr(f_rep, metric) - getattr(c_rep, metric)) <= 0.005


def test_regime_failure_is_isolated_and_reported():
    # a modulus too small for the fixed-point capacity aborts the federated
    # regime while the plaintext regimes still complete
    config = ExperimentConfig(
        scenario=SCENARIO_HFL,
        regimes=("separate", "federated", "centralized"),
        params=fast_params(),
        synth=small_synth(6),
        k_folds=2,
        seed=6,
        secagg_mode="paillier+mask",
        # each packed slot takes at least S + 4 bits (a 2-bit sample count,
        # a sign bit and a carry bit for two clients); this key leaves at
        # most S + 3 bits below its modulus
        key_bits=GRAD_SCALE_BITS + 4,
    )
    report = run_experiment(config)
    assert "fits no" in report.regimes["federated"].error
    assert report.regimes["centralized"].error is None
    assert report.regimes["centralized"].averaged is not None


@pytest.mark.parametrize("seed", [1, 2])
def test_paper_scale_pooled_trees_match_the_40_bit_scale(monkeypatch, seed):
    # run_hfl_experiment.py's centralized regime, every fold: the split
    # structure of every tree at GRAD_SCALE_BITS equals the one at 2^40
    # (narrower scales first change trees at these seeds: 2^18 at seed 2,
    # 2^16 at seeds 1 and 2)
    config = ExperimentConfig(
        scenario=SCENARIO_HFL, regimes=("centralized",), seed=seed, k_folds=5,
        params=GbtParams(n_estimators=20, max_depth=5, max_bin=32, learning_rate=0.3,
                         reg_lambda=0.0, min_child_weight=1.0),
    )
    joined = join_datasets(load_districts(config), "joined")
    folds = split_train_valid_test(joined, k=config.k_folds, seed=seed).folds

    def structures():
        return [[[(n.node_id, n.feature, n.bin_index, n.left, n.right) for n in tree.nodes]
                 for tree in train_regime(config, "centralized",
                                          joined.subset(fold.full_train_idx, "train"), {},
                                          config.params, fold_seed(config, fold.fold_id))[0].trees]
                for fold in folds]

    ours = structures()
    monkeypatch.setattr(gbt, "GRAD_SCALE_BITS", 40)
    monkeypatch.setattr(gbt, "GRAD_SCALE", 1 << 40)
    wide = structures()
    for k, (fold, reference) in enumerate(zip(ours, wide)):
        for t, (tree, ref) in enumerate(zip(fold, reference)):
            assert tree == ref, f"fold {k}, tree {t}: the split structure moved from 2^40"


def test_privacy_cost_rows_present_and_consistent(hfl_report):
    kinds = {(c.kind, c.metric) for c in hfl_report.privacy_costs}
    assert ("federated", "auc") in kinds
    assert any(k == "open_share" and m.startswith("auc[") for k, m in kinds)
    central = hfl_report.regimes["centralized"].averaged
    fed = hfl_report.regimes["federated"].averaged
    fed_auc_cost = next(
        c for c in hfl_report.privacy_costs if c.kind == "federated" and c.metric == "auc"
    )
    assert fed_auc_cost.cost == pytest.approx(central.auc - fed.auc, abs=1e-12)


def test_averaged_rows_are_fold_means(hfl_report):
    for result in hfl_report.regimes.values():
        for metric in ("auc", "accuracy", "f1"):
            values = [getattr(r, metric) for r in result.per_fold]
            assert getattr(result.averaged, metric) == pytest.approx(
                float(np.mean(values)), abs=1e-12
            )


def test_byte_accounting_only_for_federated(hfl_report):
    assert hfl_report.regimes["federated"].bytes_by_role
    assert not hfl_report.regimes["centralized"].bytes_by_role
    sent = hfl_report.regimes["federated"].bytes_by_role
    assert sent.get("server", 0) > 0 and any(k != "server" for k in sent)


def test_separate_only_run_has_no_privacy_rows():
    report = run_experiment(hfl_config(seed=2, regimes=("separate",)))
    assert report.privacy_costs == []
    assert set(report.regimes) == {"separate:A", "separate:B"}


def test_reports_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    r1 = run_experiment(hfl_config(seed=3), out_dir=str(out1))
    r2 = run_experiment(hfl_config(seed=3), out_dir=str(out2))
    assert r1.fold_plan_hash == r2.fold_plan_hash
    for name in ("report.json", "summary.tsv", "folds.tsv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    for tag in r1.regimes:
        assert r1.regimes[tag].model_hashes == r2.regimes[tag].model_hashes


def test_vfl_scenario_runs_end_to_end():
    config = ExperimentConfig(
        scenario=SCENARIO_VFL,
        regimes=("separate", "federated", "centralized"),
        params=fast_params(),
        synth=small_synth(4),
        k_folds=2,
        seed=4,
        key_bits=256,
    )
    report = run_experiment(config)
    assert set(report.regimes) == {
        "separate:exploration_institute", "separate:oil_company",
        "federated", "centralized",
    }
    for result in report.regimes.values():
        assert result.error is None, result.error
    fed = report.regimes["federated"]
    central = report.regimes["centralized"]
    for f_rep, c_rep in zip(fed.per_fold, central.per_fold):
        assert abs(f_rep.auc - c_rep.auc) <= 0.005


def test_vfl_model_hash_is_sha256_of_the_model_json():
    # one hash form for every regime: sha256 of gbt.model_to_json
    config = ExperimentConfig(scenario=SCENARIO_VFL, regimes=("federated",), params=fast_params(),
                              synth=small_synth(4), k_folds=2, seed=4, key_bits=256)
    report = run_experiment(config)
    districts = load_districts(config)
    joined = join_datasets(districts, "joined")
    fold = split_train_valid_test(joined, k=config.k_folds, seed=config.seed).folds[0]
    train = joined.subset(fold.full_train_idx, "train")
    sets = party_sets(config.scenario, districts, train)
    model, _ = train_regime(config, "federated", train, sets, config.params,
                            fold_seed(config, fold.fold_id))
    expected = hashlib.sha256(gbt.model_to_json(model.ensemble).encode()).hexdigest()
    assert report.regimes["federated"].model_hashes[0] == expected


def test_vfl_federated_with_aggregated_tuning_is_rejected():
    # per-party tuning would give every feature owner the label vector
    with pytest.raises(ConfigError, match="labels"):
        ExperimentConfig(scenario=SCENARIO_VFL, tuning="aggregated_bo")
    ExperimentConfig(scenario=SCENARIO_VFL, regimes=("centralized",), tuning="aggregated_bo")
    ExperimentConfig(tuning="aggregated_bo")


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="other")
    with pytest.raises(ConfigError):
        ExperimentConfig(regimes=("federated",), tuning="direct_bo")
    with pytest.raises(ConfigError):
        ExperimentConfig(regimes=())
    config = config_from_dict({
        "scenario": "hfl_case_one",
        "regimes": ["centralized"],
        "params": {"n_estimators": 3},
        "data": {"synth": {"seed": 5}},
    })
    assert config.params.n_estimators == 3
    assert config.synth.seed == 5


def test_a_config_document_keeps_the_defaults_of_every_key_it_leaves_out():
    assert config_from_dict({}) == ExperimentConfig()
    assert config_from_dict({"secagg": SECAGG_MASK_ONLY, "regimes": ["centralized"]}) == \
        ExperimentConfig(secagg_mode=SECAGG_MASK_ONLY, regimes=("centralized",))


def test_a_synth_document_keeps_the_defaults_of_every_key_it_leaves_out():
    assert synth_config_from_dict({}) == SynthConfig()
    assert synth_config_from_dict({"signal_weights": {}}, seed=4) == SynthConfig(seed=4)
    doc = {"seed": 2, "noise_scale": 0.1, "label_threshold": 1.5e4, "signal_weights": {"O3": 2.0},
           "districts": [{"name": "B", "n_samples": 30, "positive_rate": 0.4},
                         {"name": "C", "n_samples": 20, "positive_rate": 0.5,
                          "stats": {"O3": [5.0, 4.0, 1.0, 9.0]}}]}
    synth = synth_config_from_dict(doc, seed=4)
    assert synth == SynthConfig(
        districts=(DistrictSpec("B", 30, 0.4, DISTRICT_B_STATS),
                   DistrictSpec("C", 20, 0.5, {"O3": FeatureStats(5.0, 4.0, 1.0, 9.0)})),
        signal_weights={"O3": 2.0}, label_threshold=1.5e4, noise_scale=0.1, seed=2)
    assert config_from_dict({"data": {"synth": doc}}).synth == synth


def test_a_seed_override_keeps_every_other_synth_field():
    synth = replace(small_synth(seed=3), signal_weights={"O3": 2.0}, label_threshold=1.5e4,
                    noise_scale=0.1, rate_tolerance=0.05)
    config = _override_config(ExperimentConfig(synth=synth, seed=3), Namespace(seed=9))
    assert config == ExperimentConfig(synth=replace(synth, seed=9), seed=9)


# ---------------------------------------------------------------------------
# CLI


def write_cli_config(path, seed=0, k_folds=2):
    doc = {
        "scenario": "hfl_case_one",
        "regimes": ["separate", "federated", "centralized"],
        "params": {"n_estimators": 2, "max_depth": 2, "max_bin": 8, "reg_lambda": 1.0},
        "data": {"synth": {"seed": seed}},
        "k_folds": k_folds,
        "seed": seed,
        "secagg": "mask-only",
    }
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_synth_deterministic(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli_main(["synth", "--seed", "7", "--out", str(out1)]) == 0
    assert cli_main(["synth", "--seed", "7", "--out", str(out2)]) == 0
    for name in ("district_A.csv", "district_B.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_synth_accepts_district_overrides(tmp_path):
    doc = {
        "seed": 5,
        "districts": [
            {"name": "A", "n_samples": 30, "positive_rate": 0.4},
            {"name": "B", "n_samples": 50, "positive_rate": 0.6},
        ],
    }
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "data"
    assert cli_main(["synth", "--seed", "5", "--config", str(cfg),
                     "--out", str(out)]) == 0
    from fedgbt.data import load_csv

    a = load_csv(str(out / "district_A.csv"))
    b = load_csv(str(out / "district_B.csv"))
    assert a.n_samples == 30 and b.n_samples == 50
    assert abs(a.labels.mean() - 0.4) <= 0.05


def test_random_margin_initialization_mode():
    # the seeded random-start alternative to the deterministic base score
    from fedgbt.data import PartyDataset
    from fedgbt.gbt import initial_margins, train_centralized

    params = fast_params(random_init_scale=0.1)
    m1 = initial_margins(20, params, seed=3)
    m2 = initial_margins(20, params, seed=3)
    m3 = initial_margins(20, params, seed=4)
    np.testing.assert_array_equal(m1, m2)
    assert not np.array_equal(m1, m3)
    assert np.std(m1) > 0
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 2))
    y = (X[:, 0] > 0).astype(int)
    data = PartyDataset("p", np.arange(30), X, ("a", "b"), y)
    t1 = train_centralized(data, params, seed=3)
    t2 = train_centralized(data, params, seed=3)
    from fedgbt.gbt import model_to_json

    assert model_to_json(t1) == model_to_json(t2)


def test_cli_keygen_writes_hex_key_files(tmp_path):
    assert cli_main(["keygen", "--key-bits", "256", "--seed", "3",
                     "--out", str(tmp_path)]) == 0
    public = json.loads((tmp_path / "public_key.json").read_text())
    private = json.loads((tmp_path / "private_key.json").read_text())
    assert public["kind"] == "paillier-public"
    assert int(public["n"], 16) == int(private["n"], 16)
    assert int(private["lambda"], 16) > 0


def test_cli_compare_is_byte_deterministic(tmp_path):
    config = write_cli_config(tmp_path / "cfg.json", seed=11)
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert cli_main(["compare", "--config", config, "--out", str(out1)]) == 0
    assert cli_main(["compare", "--config", config, "--out", str(out2)]) == 0
    for name in ("report.json", "summary.tsv", "folds.tsv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    for tag in r1["regimes"]:
        assert r1["regimes"][tag]["model_hashes"] == r2["regimes"][tag]["model_hashes"]


def test_cli_train_federated_writes_model_and_transcript(tmp_path):
    config = write_cli_config(tmp_path / "cfg.json", seed=12)
    out = tmp_path / "train"
    assert cli_main(["train", "--config", config, "--regime", "federated",
                     "--out", str(out)]) == 0
    assert (out / "model.json").exists()
    assert (out / "transcript.log").exists()
    assert cli_main(["inspect-transcript", str(out / "transcript.log")]) == 0


def test_cli_inspect_transcript_reports_a_missing_field_and_a_non_hex_residue(tmp_path, capsys):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    y = (X.sum(axis=1) > 0).astype(int)
    names = ("f0", "f1", "f2")
    parties = {c: PartyDataset(c, np.arange(20 * i, 20 * i + 20), X[20 * i:20 * i + 20], names,
                               y[20 * i:20 * i + 20]) for i, c in enumerate(("c0", "c1"))}
    roster = make_roster(["c0", "c1"], [20, 20], secagg_mode=SECAGG_MASK_ONLY)
    _, bus = hfl_train(roster, parties, GbtParams(n_estimators=1, max_depth=2, max_bin=8))
    path = tmp_path / "transcript.log"
    write_transcript(bus, str(path))
    assert cli_main(["inspect-transcript", str(path)]) == 0
    records = [json.loads(line) for line in path.read_text().splitlines()]
    split = next(i for i, r in enumerate(records) if r["msg_type"] == "SPLIT_BROADCAST")
    submit = next(i for i, r in enumerate(records) if r["msg_type"] == "HISTOGRAM_SUBMIT")
    del records[split]["payload"]["bits"]
    records[submit]["payload"]["enc_g"][0] = "not-hex"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    assert cli_main(["inspect-transcript", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("2 finding(s): ")
    assert f"#{split} SPLIT_BROADCAST from server: missing field bits" in out
    sender = records[submit]["sender"]
    assert (f"#{submit} HISTOGRAM_SUBMIT from {sender}: field enc_g is not a list of hex "
            "integers") in out


def test_cli_evaluate_saved_model(tmp_path, capsys):
    config = write_cli_config(tmp_path / "cfg.json", seed=13)
    out = tmp_path / "m"
    assert cli_main(["train", "--config", config, "--regime", "centralized",
                     "--out", str(out)]) == 0
    assert cli_main(["synth", "--seed", "13", "--out", str(tmp_path)]) == 0
    capsys.readouterr()  # drop the train/synth progress lines
    code = cli_main(["evaluate", "--model", str(out / "model.json"),
                     "--data", str(tmp_path / "district_A.csv")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0.0 <= doc["auc"] <= 1.0


def test_cli_evaluate_rejects_a_model_that_is_not_a_tree(tmp_path, capsys):
    config = write_cli_config(tmp_path / "cfg.json", seed=13)
    out = tmp_path / "m"
    assert cli_main(["train", "--config", config, "--regime", "centralized",
                     "--out", str(out)]) == 0
    assert cli_main(["synth", "--seed", "13", "--out", str(tmp_path)]) == 0
    doc = json.loads((out / "model.json").read_text())
    nodes = doc["trees"][0]["nodes"]
    split = next(n for n in nodes if not n["leaf"])
    split["right"] = split["left"]  # one child twice, the other orphaned
    (out / "model.json").write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli_main(["evaluate", "--model", str(out / "model.json"),
                     "--data", str(tmp_path / "district_A.csv")])
    assert code == 2
    assert "not each the child of exactly one split" in capsys.readouterr().err


def test_cli_usage_errors_exit_1():
    assert cli_main(["--definitely-not-a-flag"]) == 1
    assert cli_main(["compare"]) == 1  # missing required args


def test_cli_runtime_errors_exit_2(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert cli_main(["compare", "--config", missing, "--out", str(tmp_path / "o")]) == 2


def test_cli_tune_writes_fold_table(tmp_path):
    doc = {
        "scenario": "hfl_case_one",
        "regimes": ["centralized"],
        "params": {"n_estimators": 2, "max_depth": 2, "max_bin": 8, "reg_lambda": 1.0},
        "data": {"synth": {"seed": 9}},
        "k_folds": 2,
        "seed": 9,
        "secagg": "mask-only",
        "bo_budget": 6,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "tuned"
    assert cli_main(["tune", "--config", str(cfg), "--mode", "aggregated",
                     "--out", str(out)]) == 0
    table = (out / "tuned.tsv").read_text().splitlines()
    assert table[0].startswith("hyperparameter\t1\t2")
    assert any(line.startswith("learning_rate") for line in table)
    tuned = json.loads((out / "tuned.json").read_text())
    assert len(tuned) == 2
    assert all(t["provenance"] == "aggregated" for t in tuned)


def test_cli_tune_aggregated_rejects_the_vertical_scenario(tmp_path, capsys):
    doc = {
        "scenario": "vfl_case_two",
        "regimes": ["centralized"],
        "params": {"n_estimators": 2, "max_depth": 2, "max_bin": 8},
        "data": {"synth": {"seed": 9}},
        "k_folds": 2,
        "bo_budget": 6,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "tuned"
    assert cli_main(["tune", "--config", str(cfg), "--mode", "aggregated",
                     "--out", str(out)]) == 2
    assert "label" in capsys.readouterr().err
    assert not out.exists()


def _write_csv_config(tmp_path, scenario, seed=5):
    """A config over two small synthetic districts written as CSV files."""
    from fedgbt.data import synth_generate, write_csv

    csv = {}
    for district in synth_generate(small_synth(seed)):
        csv[district.party_id] = str(tmp_path / f"district_{district.party_id}.csv")
        write_csv(district, csv[district.party_id])
    doc = {
        "scenario": scenario,
        "params": {"n_estimators": 2, "max_depth": 2, "max_bin": 8, "reg_lambda": 1.0},
        "data": {"csv": csv},
        "k_folds": 2,
        "seed": seed,
        "key_bits": 256,
        "bo_budget": 4,
    }
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    return str(tmp_path / "cfg.json"), csv, GbtParams(**doc["params"]), seed


@pytest.mark.parametrize("scenario,command,mode", [
    ("vfl_case_two", "train", "separate"),
    ("vfl_case_two", "train", "centralized"),
    ("vfl_case_two", "train", "federated"),
    ("hfl_case_one", "train", "separate"),
    ("vfl_case_two", "tune", "separate"),
    ("vfl_case_two", "tune", "centralized"),
])
def test_cli_train_and_tune_match_direct_calls(tmp_path, scenario, command, mode):
    from fedgbt.data import (
        PartyDataset,
        join_datasets,
        load_csv,
        split_train_valid_test,
        vertical_partition,
    )
    from fedgbt.gbt import model_to_json, train_centralized
    from fedgbt.hpo import default_search_space, tune_objective
    from fedgbt.transport import write_transcript
    from fedgbt.vfl import joined_matrix, make_vfl_roster, vfl_train

    config, csv, params, seed = _write_csv_config(tmp_path, scenario)
    out = tmp_path / "out"
    flag = "--regime" if command == "train" else "--mode"
    argv = [command, "--config", config, flag, mode, "--out", str(out)]
    if scenario == "hfl_case_one":
        argv += ["--party", "B"]
    assert cli_main(argv) == 0

    districts = [load_csv(csv[name], party_id=name) for name in sorted(csv)]
    joined = join_datasets(districts)

    def labeled_blocks(rows):
        return {p: PartyDataset(p, b.sample_ids, b.features, b.feature_names, rows.labels)
                for p, b in vertical_partition(rows).items()}

    def pooled(rows):
        parts = vertical_partition(rows)
        roster = make_vfl_roster("oil_company", parts)
        return PartyDataset("joined", rows.sample_ids, joined_matrix(roster, parts),
                            roster.feature_names, rows.labels)

    if command == "train":
        if scenario == "hfl_case_one":
            model = train_centralized(districts[1], params, seed=seed)
        elif mode == "separate":
            model = train_centralized(labeled_blocks(joined)["oil_company"], params, seed=seed)
        elif mode == "centralized":
            model = train_centralized(pooled(joined), params, seed=seed)
        else:
            parts = vertical_partition(joined)
            trained, bus = vfl_train(make_vfl_roster("oil_company", parts), parts, params,
                                     seed=seed, key_bits=256)
            model = trained.ensemble
            write_transcript(bus, str(tmp_path / "expected.log"))
            assert (out / "transcript.log").read_bytes() == (tmp_path / "expected.log").read_bytes()
        assert (out / "model.json").read_text() == model_to_json(model) + "\n"
        return

    plan = split_train_valid_test(joined, k=2, seed=seed)
    tuned = json.loads((out / "tuned.json").read_text())
    assert len(tuned) == len(plan.folds)
    for fold, row in zip(plan.folds, tuned):
        train = joined.subset(fold.full_train_idx)
        data = ([labeled_blocks(train)["oil_company"]] if mode == "separate"
                else [pooled(train)])
        expected = tune_objective(mode, data, base=params, space=default_search_space(),
                                  seed=seed + 101 * fold.fold_id, budget=4)
        assert (row["raw"], row["rounded"], row["score"]) == (
            expected.raw_vector, expected.vector, expected.score)


def test_cli_tune_centralized_searches_each_fold_at_the_compare_seed(tmp_path):
    from dataclasses import replace

    from fedgbt.data import join_datasets, split_train_valid_test
    from fedgbt.experiment import (
        fold_seed,
        load_config,
        load_districts,
        party_sets,
        tune_regime,
    )

    config_path, _, _, _ = _write_csv_config(tmp_path, "hfl_case_one", seed=6)
    out = tmp_path / "out"
    assert cli_main(["tune", "--config", config_path, "--mode", "centralized",
                     "--out", str(out)]) == 0

    config = replace(load_config(config_path), regimes=("centralized",), tuning="direct_bo")
    districts = load_districts(config)
    joined = join_datasets(districts)
    plan = split_train_valid_test(joined, k=config.k_folds, seed=config.seed)
    tuned = json.loads((out / "tuned.json").read_text())
    assert len(tuned) == len(plan.folds) == 2
    for fold, row in zip(plan.folds, tuned):
        assert fold_seed(config, fold.fold_id) == config.seed + 101 * fold.fold_id
        train = joined.subset(fold.full_train_idx)
        expected = tune_regime(config, "centralized", train,
                               party_sets(config.scenario, districts, train),
                               fold_seed(config, fold.fold_id))
        assert (row["raw"], row["rounded"], row["score"]) == (
            expected.raw_vector, expected.vector, expected.score)


@pytest.mark.parametrize("scenario,party", [("vfl_case_two", "oil_company"),
                                            ("hfl_case_one", "A")])
def test_cli_train_and_tune_default_to_the_same_party(tmp_path, scenario, party):
    from dataclasses import replace

    from fedgbt.data import join_datasets, split_train_valid_test
    from fedgbt.experiment import (
        fold_seed,
        load_config,
        load_districts,
        party_sets,
        tune_regime,
    )
    from fedgbt.gbt import model_to_json, train_centralized

    config_path, _, params, seed = _write_csv_config(tmp_path, scenario)
    assert cli_main(["train", "--config", config_path, "--regime", "separate",
                     "--out", str(tmp_path / "trained")]) == 0
    assert cli_main(["tune", "--config", config_path, "--mode", "separate",
                     "--out", str(tmp_path / "tuned")]) == 0

    config = replace(load_config(config_path), regimes=("separate",), tuning="direct_bo")
    districts = load_districts(config)
    joined = join_datasets(districts)
    model = train_centralized(party_sets(scenario, districts, joined)[party], params, seed=seed)
    assert (tmp_path / "trained" / "model.json").read_text() == model_to_json(model) + "\n"

    fold = split_train_valid_test(joined, k=config.k_folds, seed=seed).folds[0]
    train = joined.subset(fold.full_train_idx)
    expected = tune_regime(config, "separate", train, party_sets(scenario, districts, train),
                           fold_seed(config, fold.fold_id), party)
    row = json.loads((tmp_path / "tuned" / "tuned.json").read_text())[0]
    assert (row["raw"], row["score"]) == (expected.raw_vector, expected.score)
