#!/usr/bin/env python3
"""Time serving a trained line: 1-row, 512-row and 2000-row predicts and
a whole-split sweep.

A line is trained at the acceptance size (8000-row synth, 6 features,
test fraction 0.25, 8 epochs). Three cases, each timed by bench_ingest's
_timed (one warm-up call, then RUNS timed calls):

- predict_1row: one call is a block of BLOCK (2000) 1-row predict calls,
  each at its own alpha ~ U[0, 1) on a random test row, as serve-line's
  requests; per_call_s is the fastest block's mean time per call;
- predict_512row: the same for a block of BLOCK_512 (200) predict calls on
  the first 512 test rows, each at the next of the same alphas;
- predict_2000row: the same for a block of BLOCK_2000 (50) predict calls on
  the whole 2000-row test split, which predict serves in 512-row chunks;
- alpha_sweep_2000: one call is a 21-alpha alpha_sweep over the 2000-row
  test split.

The session is appended to the JSON file --out in bench_ingest's format, so
runs of two trees in alternating sessions, with one --out, sit side by
side. The tree's own src/ is imported. About 3 s on 2 cores.

Usage: python scripts/bench_serve.py --label NAME [--out BENCH_serve.json]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from bench_ingest import ROOT, SEED, _timed, record

import fairline as fl  # bench_ingest put this tree's src/ on sys.path

BLOCK = 2000
BLOCK_512 = 200
BLOCK_2000 = 50


def measure() -> dict:
    train, test = fl.split(fl.synth_biased(8000, 6, 0.5, 0.4, 1.0, seed=SEED), 0.25, seed=SEED)
    line = fl.train_subspace(train, fl.TrainConfig(epochs=8, seed=SEED))
    rng = np.random.default_rng(SEED)
    alphas = rng.uniform(size=BLOCK).tolist()
    rows = [test.features[r:r + 1] for r in rng.integers(test.n, size=BLOCK)]

    def predict_block():
        for alpha, x in zip(alphas, rows):
            fl.predict(line, alpha, x)

    def predict_rows(x, calls):
        def block():
            for alpha in alphas[:calls]:
                fl.predict(line, alpha, x)
        return _per_call(block, calls)

    return {
        "predict_1row": _per_call(predict_block, BLOCK),
        "predict_512row": predict_rows(test.features[:512], BLOCK_512),
        "predict_2000row": predict_rows(test.features, BLOCK_2000),
        "alpha_sweep_2000": _timed(lambda: fl.alpha_sweep(line, test)),
    }


def _per_call(block, calls: int) -> dict:
    timed = _timed(block)
    return {**timed, "calls": calls, "per_call_s": timed["min_s"] / calls}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of the tree measured")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_serve.json")
    args = parser.parse_args(argv)
    cases = measure()
    for case in ("predict_1row", "predict_512row", "predict_2000row"):
        print(f"{args.label} {case} per_call_us={cases[case]['per_call_s'] * 1e6:.2f}")
    record(args.label, cases, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
