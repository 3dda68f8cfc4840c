#!/usr/bin/env python3
"""Time CSV ingest and CSV writing at the acceptance size, and trace the
memory of CSV writing.

Four cases, each called once to warm up and then RUNS (15) times:

- load_csv_fit_8000: load_csv of an 8000-row synth CSV (6 numeric features)
  under the default schema, fitting the transform, as `train` reads --data;
- load_csv_transform_2000: load_csv of the 2000-row held-out split through
  the training split's transform, as `sweep` reads --test;
- load_csv_onehot_fit_8000: load_csv of the same 8000 rows with one more
  column of three categories, fitting: numpy's reader refuses the file at
  its first row and the csv.reader path reads it, the path of every file
  with a one-hot column, which no benchmark workload reads;
- write_csv_8000: write_csv of the 8000-row dataset, as `synth` writes it.

Each case records the min and the max/min spread of its run times. After
the timed runs, so that their times stay comparable with sessions recorded
without it, one write_csv of a synth dataset of each MEMORY_ROWS size (6
features) runs under tracemalloc, which records its peak in MB (2^20 bytes,
as perfbench's peak_rss_mb): the most that write_csv's own Python objects
and numpy buffers held at once. The session (its --label, the cases, the
memory cases, and the environment: Python, numpy, BLAS and its thread
count, nproc) is appended to the JSON file --out, so runs of two trees in
alternating sessions, with one --out, sit side by side. The tree's own src/
is imported; files go to a temporary directory removed on exit. About 7 s on
2 cores.

Usage: python scripts/bench_ingest.py --label NAME [--out BENCH_ingest.json]
"""

import argparse
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import fairline as fl  # noqa: E402
from fairline.data import write_csv  # noqa: E402
from run import environment  # noqa: E402

SEED = 1
RUNS = 15
MEMORY_ROWS = (8000, 200_000)


def _timed(fn) -> dict:
    fn()
    times = []
    for _ in range(RUNS):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return {"min_s": min(times), "spread": max(times) / min(times), "runs": RUNS}


def measure() -> dict:
    ds = fl.synth_biased(8000, 6, 0.5, 0.4, 1.0, seed=SEED)
    train, test = fl.split(ds, 0.25, seed=SEED)
    with tempfile.TemporaryDirectory() as tmp:
        full, held_out, onehot, out = (Path(tmp) / name for name in
                                       ("full.csv", "test.csv", "onehot.csv", "w.csv"))
        write_csv(ds, full)
        write_csv(test, held_out)
        header, *rows = full.read_text().splitlines()
        onehot.write_text("".join(f"{line}\n" for line in [
            f"{header},c", *(f"{row},{'abc'[i % 3]}" for i, row in enumerate(rows))]))
        return {
            "load_csv_fit_8000": _timed(lambda: fl.load_csv(full, fl.CsvSchema())),
            "load_csv_transform_2000": _timed(lambda: fl.load_csv(held_out, train.transform)),
            "load_csv_onehot_fit_8000": _timed(lambda: fl.load_csv(onehot, fl.CsvSchema())),
            "write_csv_8000": _timed(lambda: write_csv(ds, out)),
        }


def write_csv_peak(n: int) -> dict:
    """tracemalloc's peak, in MB, during one write_csv of an n-row synth
    dataset with 6 features; the dataset is made before tracing starts."""
    ds = fl.synth_biased(n, 6, 0.5, 0.4, 1.0, seed=SEED)
    with tempfile.TemporaryDirectory() as tmp:
        tracemalloc.start()
        try:
            write_csv(ds, Path(tmp) / "w.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return {"rows": n, "traced_peak_mb": peak / 2**20}


def record(label: str, cases: dict, out: Path, memory: dict | None = None) -> None:
    """Print each case and append the session ({label, cases, environment},
    and memory when given) to the JSON file out, creating it if missing."""
    for name, case in cases.items():
        print(f"{label} {name} min_s={case['min_s']:.4f} spread={case['spread']:.2f}")
    session = {"label": label, "cases": cases}
    if memory is not None:
        for name, case in memory.items():
            print(f"{label} {name} traced_peak_mb={case['traced_peak_mb']:.3f}")
        session["memory"] = memory
    report = json.loads(out.read_text()) if out.exists() else {"sessions": []}
    report["sessions"].append({**session, "environment": environment(SEED)})
    out.write_text(json.dumps(report, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of the tree measured")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_ingest.json")
    args = parser.parse_args(argv)
    cases = measure()
    memory = {f"write_csv_{n}": write_csv_peak(n) for n in MEMORY_ROWS}
    record(args.label, cases, args.out, memory)
    return 0


if __name__ == "__main__":
    sys.exit(main())
