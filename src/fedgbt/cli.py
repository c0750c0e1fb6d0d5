"""Command-line interface.

Subcommands: ``keygen``, ``synth``, ``train``, ``tune``, ``evaluate``,
``compare``, ``inspect-transcript``.  Exit codes: 0 success, 1 usage error,
2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .data import (
    default_synth_config,
    join_datasets,
    load_csv,
    split_train_valid_test,
    synth_config_from_dict,
    synth_generate,
    write_csv,
)
from .experiment import (
    ExperimentConfig,
    default_party,
    fold_seed,
    load_config,
    load_districts,
    party_sets,
    run_experiment,
    train_regime,
    tune_regime,
)
from .gbt import model_from_json, model_to_json, predict_proba
from .hfl import SECAGG_MASK_ONLY, SECAGG_PAILLIER
from .hpo import default_search_space
from .metrics import evaluate_scores
from .paillier import int_to_hex, keygen
from .scanner import scan_structure
from .transport import read_transcript, write_transcript
from .vfl import VflTrained


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fedgbt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("keygen", help="generate a key pair and write hex key files")
    p.add_argument("--key-bits", type=int, default=2048)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".")

    p = sub.add_parser("synth", help="generate the synthetic well datasets as CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="JSON overrides for the generator")
    p.add_argument("--out", default=".")

    p = sub.add_parser("train", help="train one modeling regime on the full data")
    p.add_argument("--config", required=True)
    p.add_argument("--regime", choices=("separate", "centralized", "federated"),
                   default="centralized")
    p.add_argument("--party", default=None, help="party id for the separate regime")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--key-bits", type=int, default=None)
    p.add_argument("--secagg", choices=("paillier", "mask"), default=None)
    p.add_argument("--out", default=".")

    p = sub.add_parser("tune", help="hyperparameter search per fold")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=("separate", "centralized", "aggregated"),
                   default="aggregated")
    p.add_argument("--party", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".")

    p = sub.add_parser("evaluate", help="metrics of a saved model on a labeled CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("compare", help="full paired comparison across regimes")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--key-bits", type=int, default=None)
    p.add_argument("--secagg", choices=("paillier", "mask"), default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("inspect-transcript", help="privacy scan of a transcript log")
    p.add_argument("transcript")

    return parser


def _override_config(config: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
        if config.synth is not None:
            updates["synth"] = replace(config.synth, seed=args.seed)
    if getattr(args, "key_bits", None) is not None:
        updates["key_bits"] = args.key_bits
    if getattr(args, "secagg", None) is not None:
        updates["secagg_mode"] = (
            SECAGG_PAILLIER if args.secagg == "paillier" else SECAGG_MASK_ONLY
        )
    return replace(config, **updates) if updates else config


def _cmd_keygen(args) -> int:
    pk, sk = keygen(key_bits=args.key_bits, rng_seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    public = {
        "format_version": 1,
        "kind": "paillier-public",
        "key_bits": args.key_bits,
        "n": int_to_hex(pk.n),
        "g": int_to_hex(pk.g),
    }
    private = {
        "format_version": 1,
        "kind": "paillier-private",
        "key_bits": args.key_bits,
        "n": int_to_hex(pk.n),
        "lambda": int_to_hex(sk.lam),
        "mu": int_to_hex(sk.mu),
    }
    for name, doc in (("public_key.json", public), ("private_key.json", private)):
        with open(os.path.join(args.out, name), "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"wrote {args.out}/public_key.json and private_key.json")
    return 0


def _cmd_synth(args) -> int:
    config = default_synth_config(seed=args.seed)
    if args.config:
        with open(args.config) as fh:
            config = synth_config_from_dict(json.load(fh), seed=args.seed)
    datasets = synth_generate(config)
    os.makedirs(args.out, exist_ok=True)
    for dataset in datasets:
        path = os.path.join(args.out, f"district_{dataset.party_id}.csv")
        write_csv(dataset, path)
        print(f"wrote {path} ({dataset.n_samples} wells)")
    return 0


def _cmd_train(args) -> int:
    config = _override_config(load_config(args.config), args)
    districts = load_districts(config)
    os.makedirs(args.out, exist_ok=True)
    rows = join_datasets(districts)
    sets = party_sets(config.scenario, districts, rows)
    party = args.party or default_party(config.scenario, sets)
    model, bus = train_regime(config, args.regime, rows, sets, config.params, config.seed, party)
    if bus is not None:
        write_transcript(bus, os.path.join(args.out, "transcript.log"))
    if isinstance(model, VflTrained):
        model = model.ensemble

    path = os.path.join(args.out, "model.json")
    with open(path, "w") as fh:
        fh.write(model_to_json(model))
        fh.write("\n")
    print(f"wrote {path}")
    return 0


# ``fedgbt tune --mode``: the regime whose tuning step it runs, and how
_TUNE_MODES = {
    "separate": ("separate", "direct_bo"),
    "centralized": ("centralized", "direct_bo"),
    "aggregated": ("federated", "aggregated_bo"),
}


def _cmd_tune(args) -> int:
    regime, tuning = _TUNE_MODES[args.mode]
    # the config's own checks reject what compare would reject, such as
    # per-party tuning in the vertical scenario
    config = replace(_override_config(load_config(args.config), args),
                     regimes=(regime,), tuning=tuning)
    districts = load_districts(config)
    joined = join_datasets(districts)
    plan = split_train_valid_test(joined, k=config.k_folds, seed=config.seed)
    space = default_search_space()
    columns = []
    for fold in plan.folds:
        train = joined.subset(fold.full_train_idx)
        sets = party_sets(config.scenario, districts, train)
        columns.append(tune_regime(config, regime, train, sets, fold_seed(config, fold.fold_id),
                                   args.party or default_party(config.scenario, sets)))

    os.makedirs(args.out, exist_ok=True)
    tsv = os.path.join(args.out, "tuned.tsv")
    with open(tsv, "w") as fh:
        fh.write("hyperparameter\t" + "\t".join(str(i + 1) for i in range(len(columns))) + "\n")
        for dim in space.dimensions:
            raw = "\t".join(f"{c.raw_vector[dim.name]:.4g}" for c in columns)
            fh.write(f"{dim.name}\t{raw}\n")
        for dim in space.dimensions:
            rounded = "\t".join(f"{c.vector[dim.name]:.4g}" for c in columns)
            fh.write(f"{dim.name} (rounded)\t{rounded}\n")
    with open(os.path.join(args.out, "tuned.json"), "w") as fh:
        json.dump(
            [
                {"fold": i, "raw": c.raw_vector, "rounded": c.vector,
                 "score": c.score, "provenance": c.provenance}
                for i, c in enumerate(columns)
            ],
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
    print(f"wrote {tsv}")
    return 0


def _cmd_evaluate(args) -> int:
    with open(args.model) as fh:
        model = model_from_json(fh.read())
    data = load_csv(args.data)
    if data.labels is None:
        print("error: evaluation data carries no label column", file=sys.stderr)
        return 2
    report = evaluate_scores(data.labels, predict_proba(model, data.features))
    doc = report.as_dict()
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "evaluation.json"), "w") as fh:
            fh.write(text)
            fh.write("\n")
    return 0


def _cmd_compare(args) -> int:
    config = _override_config(load_config(args.config), args)
    report = run_experiment(config, out_dir=args.out)
    failures = [r.error for r in report.regimes.values() if r.error]
    for tag, result in sorted(report.regimes.items()):
        if result.averaged:
            print(f"{tag}: auc={result.averaged.auc:.4f} acc={result.averaged.accuracy:.4f} "
                  f"f1={result.averaged.f1:.4f}")
        else:
            print(f"{tag}: FAILED ({result.error})")
    print(f"report files in {args.out}")
    return 2 if failures else 0


def _cmd_inspect(args) -> int:
    envelopes = read_transcript(args.transcript)
    report = scan_structure(envelopes)
    print(report.verdict())
    return 0 if report.clean else 2


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "keygen": _cmd_keygen,
        "synth": _cmd_synth,
        "train": _cmd_train,
        "tune": _cmd_tune,
        "evaluate": _cmd_evaluate,
        "compare": _cmd_compare,
        "inspect-transcript": _cmd_inspect,
    }
    try:
        return handlers[args.command](args)
    except SystemExit:
        raise
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
