#!/usr/bin/env python3
"""Train once on synthetic biased data, then sweep the mixing ratio.

Prints one line per alpha (error rate and the three relaxed gaps) and
optionally writes the full report CSV. The sweep shows the trade-off curve a
single checkpoint serves: error rises and the demographic-parity gap falls as
alpha moves from the accuracy endpoint to the fairness endpoint.

Usage: python scripts/run_tradeoff_sweep.py [--seed 0] [--out report.csv]
"""

import argparse
import sys

import fairline as fl
from fairline.losses import FAIRNESS_METRICS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=8000)
    ap.add_argument("--d", type=int, default=6)
    ap.add_argument("--gap", type=float, default=0.4)
    ap.add_argument("--epochs", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--metric", choices=FAIRNESS_METRICS, default="dp")
    ap.add_argument("--out", default=None, help="also write the report CSV here")
    args = ap.parse_args()

    ds = fl.synth_biased(args.n, args.d, 0.5, args.gap, 1.0, seed=args.seed)
    train, test = fl.split(ds, 0.25, seed=args.seed)
    cfg = fl.TrainConfig(epochs=args.epochs, seed=args.seed,
                         fairness_metric=args.metric)
    model = fl.train_subspace(train, cfg)
    print(f"trained in {model.wall_time_s:.2f}s "
          f"(skipped {model.train_meta['fairness_skipped_batches']} of "
          f"{model.train_meta['batches_total']} fairness terms)", file=sys.stderr)

    records = fl.alpha_sweep(model, test)
    print(f"{'alpha':>6} {'error':>8} {'dp':>8} {'eo':>8} {'eodd':>8}")
    for r in records:
        print(f"{r.alpha:6.2f} {r.error_rate:8.4f} {r.dp_relaxed:8.4f} "
              f"{r.eo_relaxed:8.4f} {r.eodd_relaxed:8.4f}")
    if args.out:
        fl.write_report(records, args.out)
        print(f"report written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
