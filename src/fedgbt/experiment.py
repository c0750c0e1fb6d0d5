"""Experiment harness: paired comparison of separate / federated / centralized
modeling over a shared fold plan, with privacy-cost and communication
accounting.

Every regime in one experiment consumes the same stratified fold plan, so
per-fold metric differences are paired.  Reports split into deterministic
files (metrics, privacy costs, byte counts, model hashes — byte-identical
across reruns with the same config and seeds) and a timing file, which is
hardware-dependent and excluded from the determinism guarantee.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .data import (
    PartyDataset,
    SynthConfig,
    default_synth_config,
    join_datasets,
    load_csv,
    split_train_valid_test,
    synth_config_from_dict,
    synth_generate,
    vertical_partition,
)
from .gbt import GbtParams, model_to_json, predict_proba, train_centralized
from .hfl import SECAGG_MASK_ONLY, SECAGG_PAILLIER, hfl_train, make_roster
from .hpo import TunedParams, params_from_vector, tune_objective
from .metrics import MetricReport, average_reports, evaluate_scores, privacy_cost
from .transport import MessageBus, write_transcript
from .vfl import VflTrained, joined_matrix, make_vfl_roster, vfl_predict, vfl_train

SCENARIO_HFL = "hfl_case_one"
SCENARIO_VFL = "vfl_case_two"
REGIMES = ("separate", "federated", "centralized")
TUNING_MODES = ("none", "direct_bo", "aggregated_bo")
LABEL_PARTY = "oil_company"  # the vertical scenario's label owner and active party

HEADLINE_METRICS = ("auc", "accuracy", "f1")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = SCENARIO_HFL
    regimes: tuple[str, ...] = ("separate", "federated", "centralized")
    tuning: str = "none"
    params: GbtParams = field(default_factory=GbtParams)
    csv_paths: dict | None = None  # district name -> csv path
    synth: SynthConfig | None = None
    k_folds: int = 5
    seed: int = 0
    secagg_mode: str = SECAGG_PAILLIER
    key_bits: int = 512
    bo_budget: int = 12

    def __post_init__(self):
        if self.scenario not in (SCENARIO_HFL, SCENARIO_VFL):
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        unknown = set(self.regimes) - set(REGIMES)
        if unknown:
            raise ConfigError(f"unknown regimes {sorted(unknown)}")
        if not self.regimes:
            raise ConfigError("at least one regime is required")
        if self.tuning not in TUNING_MODES:
            raise ConfigError(f"unknown tuning mode {self.tuning!r}")
        if self.tuning == "direct_bo" and "federated" in self.regimes:
            raise ConfigError(
                "federated training cannot use direct tuning: it would need "
                "pooled data; use aggregated_bo"
            )
        if (self.scenario == SCENARIO_VFL and self.tuning == "aggregated_bo"
                and "federated" in self.regimes):
            raise ConfigError(
                "vertical federated training cannot use aggregated_bo: per-party "
                "tuning would hand the labels to every feature owner"
            )
        if self.secagg_mode not in (SECAGG_PAILLIER, SECAGG_MASK_ONLY):
            raise ConfigError(f"unknown secure-aggregation mode {self.secagg_mode!r}")


def config_from_dict(doc: dict) -> ExperimentConfig:
    """The config a JSON document describes; a field the document leaves
    out keeps its :class:`ExperimentConfig` default."""
    fields = {name: doc[name] for name in ("scenario", "tuning", "k_folds", "seed",
                                           "key_bits", "bo_budget") if name in doc}
    if "regimes" in doc:
        fields["regimes"] = tuple(doc["regimes"])
    if "secagg" in doc:
        fields["secagg_mode"] = doc["secagg"]
    data = doc.get("data", {})
    if "synth" in data:
        fields["synth"] = synth_config_from_dict(data["synth"])
    return ExperimentConfig(params=GbtParams(**doc.get("params", {})),
                            csv_paths=data.get("csv"), **fields)


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def load_districts(config: ExperimentConfig) -> list[PartyDataset]:
    if config.csv_paths:
        return [load_csv(path, party_id=name) for name, path in sorted(config.csv_paths.items())]
    synth = config.synth or default_synth_config(seed=config.seed)
    return list(synth_generate(synth))


@dataclass
class RegimeResult:
    tag: str
    per_fold: list[MetricReport] = field(default_factory=list)
    averaged: MetricReport | None = None
    model_hashes: list[str] = field(default_factory=list)
    wall_time: float = 0.0
    bytes_by_role: dict = field(default_factory=dict)
    messages_by_role: dict = field(default_factory=dict)
    error: str | None = None


@dataclass
class ExperimentReport:
    config_digest: str
    fold_plan_hash: str
    regimes: dict  # tag -> RegimeResult
    privacy_costs: list  # PrivacyCost entries

    def deterministic_dict(self) -> dict:
        out = {
            "config_digest": self.config_digest,
            "fold_plan_hash": self.fold_plan_hash,
            "regimes": {},
            "privacy_costs": [asdict(c) for c in self.privacy_costs],
        }
        for tag, result in sorted(self.regimes.items()):
            out["regimes"][tag] = {
                "error": result.error,
                "averaged": result.averaged.as_dict() if result.averaged else None,
                "per_fold": [r.as_dict() for r in result.per_fold],
                "model_hashes": result.model_hashes,
                "bytes_by_role": dict(sorted(result.bytes_by_role.items())),
                "messages_by_role": dict(sorted(result.messages_by_role.items())),
            }
        return out


def _hash_json(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _hash_fold_plan(plan) -> str:
    doc = [
        {
            "train": fold.train_idx.tolist(),
            "valid": fold.valid_idx.tolist(),
            "test": fold.test_idx.tolist(),
        }
        for fold in plan.folds
    ]
    return _hash_json(doc)


# ---------------------------------------------------------------------------
# Regimes: what each party and the pool hold, how each regime tunes and
# trains.  ``run_experiment`` runs them per fold; ``fedgbt train`` and
# ``fedgbt tune`` run them on the whole data.


def party_sets(scenario: str, districts: list[PartyDataset],
               rows: PartyDataset) -> dict[str, PartyDataset]:
    """Each party's labeled share of ``rows``, keyed in sorted party order.

    Horizontal: a district's rows.  Vertical: the party's feature block of
    every row, with the labels: what the party trains or tunes on alone.
    """
    if scenario == SCENARIO_HFL:
        sets = {
            d.party_id: rows.subset(np.flatnonzero(np.isin(rows.sample_ids, d.sample_ids)),
                                    d.party_id)
            for d in districts
        }
    else:
        sets = {p: replace(block, labels=rows.labels)
                for p, block in vertical_partition(rows).items()}
    return dict(sorted(sets.items()))


def default_party(scenario: str, sets: dict[str, PartyDataset]) -> str:
    """The party that trains or tunes alone when none is named: the label
    owner in the vertical scenario, the first in sorted order otherwise."""
    return LABEL_PARTY if scenario == SCENARIO_VFL else next(iter(sets))


def fold_seed(config: ExperimentConfig, fold_id: int) -> int:
    """The seed with which every regime tunes and trains fold ``fold_id``."""
    return config.seed + 101 * fold_id


def pooled_set(scenario: str, rows: PartyDataset) -> PartyDataset:
    """The open-share pool of ``rows``: vertical blocks join in roster order."""
    if scenario == SCENARIO_HFL:
        return rows
    parts = vertical_partition(rows)
    roster = make_vfl_roster(LABEL_PARTY, parts)
    return PartyDataset("joined", rows.sample_ids, joined_matrix(roster, parts),
                        roster.feature_names, rows.labels)


def tune_regime(config: ExperimentConfig, regime: str, rows: PartyDataset,
                sets: dict[str, PartyDataset], seed: int, party: str | None = None) -> TunedParams:
    """Search hyperparameters on the data ``regime`` may see under ``config.tuning``.

    A separate party tunes on its own set, and centralized training under
    ``direct_bo`` on the pool.  Federated training, and centralized training
    under ``aggregated_bo``, tune on each party's set alone and average the
    optima by sample count.
    """
    if regime == "separate":
        mode, data = "separate", [sets[party]]
    elif regime == "centralized" and config.tuning == "direct_bo":
        mode, data = "centralized", [pooled_set(config.scenario, rows)]
    else:
        mode, data = "federated-aggregated", list(sets.values())
    return tune_objective(mode, data, base=config.params, seed=seed, budget=config.bo_budget)


def train_regime(config: ExperimentConfig, regime: str, rows: PartyDataset,
                 sets: dict[str, PartyDataset], params: GbtParams, seed: int,
                 party: str | None = None):
    """Train ``regime`` on ``rows``; returns (model, bus or None).

    Separate trains on one party's set and centralized on the pool.
    Federated runs the horizontal protocol over the district sets, with the
    clients in sorted order and pairwise mask seeds derived from ``seed``,
    or the vertical protocol over the feature blocks, with the labels at
    ``LABEL_PARTY``; its model is a :class:`VflTrained`.
    """
    if regime == "separate":
        return train_centralized(sets[party], params, seed=seed), None
    if regime == "centralized":
        return train_centralized(pooled_set(config.scenario, rows), params, seed=seed), None
    if config.scenario == SCENARIO_HFL:
        roster = make_roster(list(sets), [d.n_samples for d in sets.values()],
                             master_seed=seed, secagg_mode=config.secagg_mode)
        return hfl_train(roster, sets, params, seed=seed, key_bits=config.key_bits)
    parts = vertical_partition(rows)
    return vfl_train(make_vfl_roster(LABEL_PARTY, parts), parts, params, seed=seed,
                     key_bits=config.key_bits)


def run_experiment(config: ExperimentConfig, out_dir: str | None = None) -> ExperimentReport:
    districts = load_districts(config)
    joined = join_datasets(districts, "joined")
    plan = split_train_valid_test(joined, k=config.k_folds, seed=config.seed)
    fold_plan_hash = _hash_fold_plan(plan)

    results: dict[str, RegimeResult] = {}
    saved_transcript: MessageBus | None = None

    for fold in plan.folds:
        train = joined.subset(fold.full_train_idx, "train")
        test = joined.subset(fold.test_idx, "test")
        seed = fold_seed(config, fold.fold_id)
        sets = party_sets(config.scenario, districts, train)
        runs = [("separate", p) for p in sets if "separate" in config.regimes]
        runs += [(r, None) for r in ("centralized", "federated") if r in config.regimes]

        for regime, party in runs:
            tag = f"separate:{party}" if party else regime
            result = results.setdefault(tag, RegimeResult(tag=tag))
            if result.error:
                continue
            started = time.perf_counter()
            try:
                scores, model_hash, bus = _fold_run(config, regime, train, test, sets,
                                                    seed, party)
            except Exception as exc:  # keep other regimes alive, record the failure
                result.error = f"fold {fold.fold_id}: {type(exc).__name__}: {exc}"
                continue
            result.wall_time += time.perf_counter() - started
            result.per_fold.append(
                evaluate_scores(test.labels, scores, fold_id=fold.fold_id, model_tag=tag)
            )
            result.model_hashes.append(model_hash)
            if bus is not None:
                for role, nbytes in bus.bytes_by_sender().items():
                    result.bytes_by_role[role] = result.bytes_by_role.get(role, 0) + nbytes
                for role, count in bus.messages_by_sender().items():
                    result.messages_by_role[role] = result.messages_by_role.get(role, 0) + count
                if saved_transcript is None:
                    saved_transcript = bus

    for result in results.values():
        if result.per_fold:
            result.averaged = average_reports(result.per_fold, result.tag)

    costs = []
    centralized = results.get("centralized")
    if centralized and centralized.averaged:
        for metric in HEADLINE_METRICS:
            base = getattr(centralized.averaged, metric)
            federated = results.get("federated")
            if federated and federated.averaged:
                costs.append(privacy_cost("federated", metric, base,
                                          getattr(federated.averaged, metric)))
            for tag, result in sorted(results.items()):
                if tag.startswith("separate:") and result.averaged:
                    party = tag.split(":", 1)[1]
                    costs.append(
                        privacy_cost(
                            "open_share", f"{metric}[{party}]", base,
                            getattr(result.averaged, metric),
                        )
                    )

    report = ExperimentReport(
        config_digest=_hash_json(_config_doc(config)),
        fold_plan_hash=fold_plan_hash,
        regimes=results,
        privacy_costs=costs,
    )
    if out_dir:
        write_report_files(report, out_dir, results, saved_transcript)
    return report


def _fold_run(config, regime, train, test, sets, seed, party):
    """Tune, train and score one regime on one fold: (test scores, model hash, bus)."""
    params = config.params
    if config.tuning != "none":
        tuned = tune_regime(config, regime, train, sets, seed, party)
        params = params_from_vector(params, tuned.vector)
    model, bus = train_regime(config, regime, train, sets, params, seed, party)
    if isinstance(model, VflTrained):
        scores, bus = vfl_predict(model, vertical_partition(test), bus=bus)
        return scores, _model_hash(model.ensemble), bus
    if config.scenario == SCENARIO_HFL:
        X = test.features
    elif party:
        X = vertical_partition(test)[party].features
    else:
        X = pooled_set(config.scenario, test).features
    return predict_proba(model, X), _model_hash(model), bus


def _model_hash(model) -> str:
    return hashlib.sha256(model_to_json(model).encode()).hexdigest()


def _config_doc(config: ExperimentConfig) -> dict:
    doc = {
        "scenario": config.scenario,
        "regimes": list(config.regimes),
        "tuning": config.tuning,
        "params": asdict(config.params),
        "k_folds": config.k_folds,
        "seed": config.seed,
        "secagg": config.secagg_mode,
        "key_bits": config.key_bits,
        "bo_budget": config.bo_budget,
    }
    if config.csv_paths:
        doc["csv"] = dict(sorted(config.csv_paths.items()))
    if config.synth:
        doc["synth_seed"] = config.synth.seed
    return doc


# ---------------------------------------------------------------------------
# Report files


def write_report_files(report: ExperimentReport, out_dir: str,
                       results: dict[str, RegimeResult],
                       transcript: MessageBus | None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report.deterministic_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    with open(os.path.join(out_dir, "summary.tsv"), "w") as fh:
        fh.write("model\tprivacy\tauc\tacc\tf1_score\n")
        for tag, result in sorted(results.items()):
            if not result.averaged:
                continue
            privacy = "not-safe" if tag == "centralized" else "safe"
            r = result.averaged
            fh.write(f"{tag}\t{privacy}\t{r.auc:.6f}\t{r.accuracy:.6f}\t{r.f1:.6f}\n")
        for cost in report.privacy_costs:
            fh.write(
                f"privacy_cost[{cost.kind}:{cost.metric}]\t-\t{cost.cost:.6f}\t-\t-\n"
            )

    with open(os.path.join(out_dir, "folds.tsv"), "w") as fh:
        fields = ("auc", "accuracy", "precision", "recall", "f1", "fpr_standard", "fpr_paper")
        fh.write("model\tfold\t" + "\t".join(fields) + "\n")
        for tag, result in sorted(results.items()):
            for rep in result.per_fold:
                row = "\t".join(f"{getattr(rep, f):.6f}" for f in fields)
                fh.write(f"{tag}\t{rep.fold_id}\t{row}\n")

    # wall time is hardware-dependent and deliberately not part of the
    # deterministic report set
    with open(os.path.join(out_dir, "timing.tsv"), "w") as fh:
        fh.write("model\twall_time_seconds\n")
        for tag, result in sorted(results.items()):
            fh.write(f"{tag}\t{result.wall_time:.3f}\n")

    if transcript is not None:
        write_transcript(transcript, os.path.join(out_dir, "transcript_fold0.log"))
