#!/usr/bin/env python3
"""One subspace run versus a grid of fixed-penalty runs.

Calls fairline.compare_to_grid: trains the endpoint pair once and a
separately initialized fixed model per penalty strength, evaluates everything
on the same held-out split, and prints both Pareto frontiers, the mean
vertical gap between them (over every fixed point, A = 0 included, as
`fairline compare` reports it), and the wall-time ratio of one subspace run
to one fixed run.

Usage: python scripts/run_frontier_compare.py [--seed 0]
"""

import argparse
import sys

import fairline as fl


def show_frontier(name, frontier):
    print(f"{name} frontier ({len(frontier)} points):")
    for r in frontier:
        tag = f"alpha={r.alpha:.2f}" if r.alpha is not None else f"A={r.fairness_weight:.2f}"
        print(f"  err={r.error_rate:.4f} dp={r.dp_relaxed:.4f} ({tag})")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=8000)
    ap.add_argument("--epochs", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    ds = fl.synth_biased(args.n, 6, 0.5, 0.4, 1.0, seed=args.seed)
    train, test = fl.split(ds, 0.25, seed=args.seed)
    cfg = fl.TrainConfig(epochs=args.epochs, seed=args.seed)
    line_records, fixed_records, gap, ratio = fl.compare_to_grid(train, test, cfg)

    show_frontier("subspace (one training run)",
                  fl.pareto_frontier(line_records, "dp_relaxed"))
    show_frontier(f"fixed penalties ({len(fixed_records)} runs, one per point)",
                  fl.pareto_frontier(fixed_records, "dp_relaxed"))
    print("frontier gap: undefined (error ranges do not overlap)" if gap is None
          else f"frontier gap: {gap:.9g} (demographic-parity units)")
    print(f"wall-time ratio (subspace / fixed): {ratio:.2f}")
    erm = next(r for r in fixed_records if r.fairness_weight == 0.0)
    print(f"ERM anchor: err={erm.error_rate:.4f} dp={erm.dp_relaxed:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
