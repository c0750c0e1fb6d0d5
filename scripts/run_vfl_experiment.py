#!/usr/bin/env python3
"""An oil company (operational features + labels) and an exploration
institute (geological features) covering the same 284 synthetic wells train
separately, pooled, and through the encrypted vertical federation, over a
shared 5-fold plan, at the paper's 20 trees, depth 5 and 32 bins.  Writes the
comparison tables plus privacy-cost rows and communication accounting.

The federation always runs real Paillier encryption under the active
party's key; at 512-bit keys on a 2-core box its federated regime takes
about 17 s with the system libcrypto and about 50 s without it (five
folds).  ``--trees`` and ``--folds`` shorten it.
"""

import argparse
import sys

from fedgbt.data import default_synth_config
from fedgbt.experiment import SCENARIO_VFL, ExperimentConfig, run_experiment
from fedgbt.gbt import GbtParams


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="results/vfl")
    parser.add_argument("--key-bits", type=int, default=512)
    parser.add_argument("--folds", type=int, default=5)
    parser.add_argument("--trees", type=int, default=20)
    # aggregated_bo would hand the labels to the exploration institute
    parser.add_argument("--tuning", choices=("none",), default="none")
    parser.add_argument("--bo-budget", type=int, default=12)
    args = parser.parse_args()

    config = ExperimentConfig(
        scenario=SCENARIO_VFL,
        regimes=("separate", "federated", "centralized"),
        tuning=args.tuning,
        params=GbtParams(n_estimators=args.trees, max_depth=5, max_bin=32,
                         learning_rate=0.3, reg_lambda=0.0, min_child_weight=1.0),
        synth=default_synth_config(seed=args.seed),
        k_folds=args.folds,
        seed=args.seed,
        key_bits=args.key_bits,
        bo_budget=args.bo_budget,
    )
    report = run_experiment(config, out_dir=args.out)
    for tag, result in sorted(report.regimes.items()):
        if result.error:
            print(f"{tag}: FAILED ({result.error})")
            continue
        r = result.averaged
        print(f"{tag:34s} auc={r.auc:.4f} acc={r.accuracy:.4f} f1={r.f1:.4f} "
              f"wall={result.wall_time:.1f}s")
    for cost in report.privacy_costs:
        print(f"privacy cost [{cost.kind}] {cost.metric}: {cost.cost:+.4f}")
    fed = report.regimes.get("federated")
    if fed and fed.bytes_by_role:
        total = sum(fed.bytes_by_role.values())
        print(f"federated traffic: {total} bytes across "
              f"{sum(fed.messages_by_role.values())} messages")
    print(f"report files in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
