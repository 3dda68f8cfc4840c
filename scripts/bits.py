#!/usr/bin/env python3
"""Print the sha256 of a fixed set of checkpoints, fixed models, CSVs and
reports.

Run it on two trees and diff the output to check that a change keeps
checkpoints, fixed models, CSVs and reports bit-identical. The first line,
`blas_core=<name>`, names the OpenBLAS kernel that computed them: checkpoint
bits hold per kernel (under OPENBLAS_CORETYPE=Haswell and SkylakeX the
checkpoint lines differ, the data and report lines do not), so a diff from
another machine names its cause. Each other line is `name sha256`; the
compare runs also print their `frontier_gap=` line.
Nothing reads a fixed model back from a file, so one is pinned by its
weight bytes and its sorted `key=value` metadata lines. Files go to a
temporary directory that is removed on exit. The tree's own `src/` is
imported, so no install or PYTHONPATH is needed. About 10 s on 2 cores.

Usage: python scripts/bits.py
"""

import contextlib
import csv
import ctypes
import hashlib
import io
import logging
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import fairline as fl  # noqa: E402
from fairline import cli  # noqa: E402

METRICS = ("dp", "eo", "eodd")
FIXED_WEIGHTS = (0.0, 0.5, 1.0)


def blas_core() -> str:
    """The core name the first OpenBLAS loaded in this process reports, found
    by path in /proc/self/maps, or "unknown" where none reports one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            # fields: address, perms, offset, dev, inode, then the path
            paths = sorted({fields[5].strip() for fields in (line.split(maxsplit=5) for line in fh)
                            if len(fields) == 6 and "openblas" in fields[5]})
    except OSError:
        return "unknown"
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a library file deleted since it was loaded
            continue
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, name, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "unknown"


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _skewed_dataset(n=40, n_group1=2) -> fl.Dataset:
    # Pinned copy of tests/test_subspace.py's set: group 1 has two rows, so
    # most batches skip the fairness term.
    rng = np.random.default_rng(0)
    features = rng.standard_normal((n, 3))
    labels = (rng.random(n) < 0.5).astype(np.float64)
    sensitive = np.zeros(n)
    sensitive[:n_group1] = 1.0
    return fl.Dataset(features, labels, sensitive, fl.FeatureTransform.numeric(["x1", "x2", "x3"]))


def _library_checkpoints(tmp: Path):
    train = fl.split(fl.synth_biased(1200, 4, 0.5, 0.4, 1.0, seed=3), 0.25, seed=3)[0]

    def config(metric="dp"):
        return fl.TrainConfig(epochs=3, batch_size=128, seed=5, fairness_metric=metric)

    def sub(name, ds, cfg, arch=None):
        path = tmp / "sub.ckpt"
        fl.save_checkpoint(fl.train_subspace(ds, cfg, arch=arch), path)
        return name, _sha(path)

    def fixed(name, ds, cfg, weight, arch=None):
        model = fl.train_fixed(ds, cfg, weight, arch=arch)
        meta = "".join(f"{k}={v}\n" for k, v in sorted(model.train_meta.items()))
        return name, hashlib.sha256(model.weights.tobytes() + meta.encode()).hexdigest()

    for m in METRICS:
        yield sub(f"sub/{m}", train, config(m))
    for m in METRICS:
        for w in FIXED_WEIGHTS:
            yield fixed(f"fixed/{m}/A={w:g}", train, config(m), w)
    wide = fl.MlpArchitecture(4, (32, 16))
    yield sub("sub/32x16/dp", train, config(), arch=wide)
    yield fixed("fixed/32x16/dp/A=0.5", train, config(), 0.5, arch=wide)
    # three hidden layers: the lower-layer backward loop runs twice
    deep = fl.MlpArchitecture(4, (16, 8, 4))
    yield sub("sub/16x8x4/dp", train, config(), arch=deep)
    yield fixed("fixed/16x8x4/dp/A=0.5", train, config(), 0.5, arch=deep)
    yield sub("sub/linear/dp", train, config(), arch=fl.MlpArchitecture(4, ()))
    skewed, skewed_cfg = _skewed_dataset(), fl.TrainConfig(epochs=2, batch_size=4, seed=0)
    yield sub("skewed/sub", skewed, skewed_cfg)
    yield fixed("skewed/fixed/A=1", skewed, skewed_cfg, 1.0)


def _run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"fairline {argv[0]} exited {code}")
    return out.getvalue()


def _categorical_csv(path: Path, n=2000):
    # a numeric column and a categorical one whose first category holds a comma
    rng = np.random.default_rng(11)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "c", "label", "group"])
        for i in range(n):
            c = int(rng.integers(3))
            writer.writerow([repr(float(rng.normal() + c)), ("a, b", "plain", "z")[c],
                             int(rng.random() < 0.3 + 0.2 * c), i % 2])


def _schema_csv(path: Path, n=2000):
    # a non-default schema: label income, positive value ">50K, high" (with a
    # comma), sensitive column sex; the features include one named label
    rng = np.random.default_rng(13)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "c", "income", "sex"])
        for i in range(n):
            c = int(rng.integers(3))
            writer.writerow([repr(float(rng.normal() + c)), ("a, b", "plain", "z")[c],
                             ">50K, high" if rng.random() < 0.3 + 0.2 * c else "<=50K",
                             "FM"[i % 2]])


def _cli_outputs(tmp: Path):
    data = tmp / "data.csv"
    _run_cli(["synth", "--n", 8000, "--d", 6, "--seed", 0, "--out", data])
    yield "synth/n=8000", _sha(data)
    line, test, sweep = tmp / "line.ckpt", tmp / "test.csv", tmp / "sweep.csv"
    _run_cli(["train", "--data", data, "--out", line, "--epochs", 8, "--seed", 0,
              "--test-fraction", 0.25, "--test-out", test])
    _run_cli(["sweep", "--checkpoint", line, "--test", test, "--out", sweep])
    yield "train/checkpoint", _sha(line)
    yield "train/test-out", _sha(test)
    yield "sweep/report", _sha(sweep)
    ckpt, cat = tmp / "other.ckpt", tmp / "cat.csv"
    _categorical_csv(cat)
    _run_cli(["train", "--data", cat, "--out", ckpt, "--epochs", 4, "--seed", 0,
              "--test-fraction", 0.25, "--test-out", test])
    _run_cli(["sweep", "--checkpoint", ckpt, "--test", test, "--out", sweep])
    yield "categorical/train/checkpoint", _sha(ckpt)
    yield "categorical/train/test-out", _sha(test)
    yield "categorical/sweep/report", _sha(sweep)
    income = tmp / "income.csv"
    _schema_csv(income)
    _run_cli(["train", "--data", income, "--out", ckpt, "--epochs", 4, "--seed", 0,
              "--label-column", "income", "--positive-label", ">50K, high",
              "--sensitive-column", "sex", "--positive-sensitive", "F",
              "--test-fraction", 0.25, "--test-out", test])
    _run_cli(["sweep", "--checkpoint", ckpt, "--test", test, "--out", sweep])
    yield "schema/train/checkpoint", _sha(ckpt)
    yield "schema/train/test-out", _sha(test)
    yield "schema/sweep/report", _sha(sweep)
    # the line trained above, served on compare's split: the same one as
    # train's, since both take --test-fraction 0.25 and --seed 0
    for name, extra in (("compare/dp", []), ("compare/eo", ["--metric", "eo"]),
                        ("compare/eodd", ["--metric", "eodd"]),
                        ("compare/checkpoint", ["--checkpoint", line])):
        report = tmp / "compare.csv"
        stdout = _run_cli(["compare", "--data", data, "--out", report,
                           "--epochs", 8, "--seed", 0, *extra])
        gap = next(ln for ln in stdout.splitlines() if ln.startswith("frontier_gap="))
        yield f"{name}/report", _sha(report)
        yield name, gap


def main() -> int:
    # quiet the per-epoch INFO lines; cli.main's basicConfig is then a no-op
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    print(f"blas_core={blas_core()}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for source in (_library_checkpoints, _cli_outputs):
            for name, value in source(Path(tmp)):
                print(name, value, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
