"""The benchmark's workloads.

Each workload makes its inputs from the seed, then runs as a closed loop
with one client: ``call`` makes the timed calls into fairline for one op and
returns their durations by label, ``check`` verifies that op's outputs.
``setup`` builds the inputs and reference outputs; the runner repeats it and
keeps the last state.

Why these four (see README.md in this directory for the full mapping):

- train-line: the training-step layers only; carries the paper's cost ratio.
- compare-grid: the fixed-penalty grid dominates, so a grid-level change
  shows here and nowhere else.
- serve-line: forward passes only, at 1 row (per-call overhead) and at the
  2000-row test split (memory bandwidth); never backward or Adam.
- cli-roundtrip: the only workload where CSV writing and parsing and the
  checkpoint file do real work.
"""

from __future__ import annotations

import contextlib
import io
import logging
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import fairline as fl
from fairline import cli


@dataclass(frozen=True)
class Size:
    n: int = 8000  # rows of synth_biased(d=6, group_fraction=0.5, gap=0.4, noise=1.0)
    epochs: int = 8
    # serve-line: one bulk sweep per this many ops. One sweep took as long
    # as 2890 one-row requests (median over ten seeds of the ratio of mean
    # times), so the two regimes weigh about equally in op_mean_ref.
    sweep_every: int = 2900


ACCEPTANCE = Size()
TINY = Size(n=400, epochs=1, sweep_every=50)

TEST_FRACTION = 0.25
PAPER_COST_BOUND = 2.0  # the paper's claim: one line costs <= 2x one fixed run


def tail(samples) -> dict:
    """Median, and the highest percentile with at least ten samples beyond
    it, with the sample count. The tail is None below 21 samples, where that
    percentile would not lie above the median."""
    xs = sorted(samples)
    n = len(xs)
    out = {"n": n, "p50": statistics.median(xs) if xs else None,
           "tail_pct": None, "tail": None}
    if n >= 21:
        out["tail_pct"], out["tail"] = 100.0 * (n - 10) / n, xs[n - 11]
    return out


def _median(samples) -> float | None:
    return statistics.median(samples) if samples else None


def _times(x: float | None, k: float) -> float | None:
    return None if x is None else x * k


def run_cli(argv: list[str]) -> tuple[int, str]:
    """fairline.cli.main in-process; returns the exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _log_cli_to(path: Path) -> None:
    # The CLI logs at INFO on every epoch. Send those records to a file with
    # the CLI's own format so the run's stderr stays readable; cli.main's
    # basicConfig is then a no-op.
    logging.basicConfig(filename=str(path), level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")


def _synth(seed: int, size: Size) -> fl.Dataset:
    return fl.synth_biased(size.n, 6, 0.5, 0.4, 1.0, seed=seed)


class Workload:
    def __init__(self, seed: int, size: Size, workdir: Path):
        self.seed, self.size, self.workdir = seed, size, workdir

    def setup(self) -> None:
        raise NotImplementedError

    def call(self, i: int) -> tuple[dict[str, float], object]:
        raise NotImplementedError

    def check(self, i: int, out) -> bool:
        raise NotImplementedError

    def details(self, parts: dict[str, list[float]]) -> dict:
        """Named results of the run, beyond the gated end-to-end metrics."""
        raise NotImplementedError


class TrainLine(Workload):
    """One train_subspace run, then one train_fixed(A=1.0) on the same split."""

    def setup(self):
        train, _ = fl.split(_synth(self.seed, self.size), TEST_FRACTION, self.seed)
        self.train = train
        self.config = fl.TrainConfig(epochs=self.size.epochs, seed=self.seed)
        self.ref = self._checkpoint_bytes(*self.call(0)[1])

    def call(self, i):
        t0 = perf_counter()
        line = fl.train_subspace(self.train, self.config)
        t1 = perf_counter()
        fixed = fl.train_fixed(self.train, self.config, 1.0)
        t2 = perf_counter()
        return {"train": t1 - t0, "fixed": t2 - t1}, (line, fixed)

    def _checkpoint_bytes(self, line, fixed) -> tuple[bytes, bytes]:
        a, b = self.workdir / "line.ckpt", self.workdir / "fixed.ckpt"
        fl.save_checkpoint(line, a)
        fl.save_fixed_checkpoint(fixed, b)
        return a.read_bytes(), b.read_bytes()

    def check(self, i, out):
        return self._checkpoint_bytes(*out) == self.ref

    def details(self, parts):
        train, fixed = tail(parts["train"]), tail(parts["fixed"])
        ratio = train["p50"] / fixed["p50"]
        return {
            "train_p50_s": train["p50"],
            "train_tail_s": train["tail"], "train_tail_pct": train["tail_pct"],
            "train_samples": train["n"],
            "fixed_p50_s": fixed["p50"], "fixed_samples": fixed["n"],
            "cost_ratio": ratio,
            "cost_ratio_paper_bound": PAPER_COST_BOUND,
            "cost_ratio_within_paper_bound": ratio <= PAPER_COST_BOUND,
        }


class CompareGrid(Workload):
    """`fairline compare` on one CSV written during set-up: one subspace run,
    21 fixed runs, a 21-alpha sweep and 21 fixed evaluations."""

    def setup(self):
        _log_cli_to(self.workdir / "fairline.log")
        self.data = self.workdir / "data.csv"
        self.report = self.workdir / "compare.csv"
        code, _ = run_cli(["synth", "--n", self.size.n, "--d", 6,
                           "--group-fraction", 0.5, "--gap", 0.4, "--noise", 1.0,
                           "--seed", self.seed, "--out", self.data])
        if code != 0:
            raise RuntimeError(f"fairline synth exited {code}")
        self.ref = None
        self.stdout: list[str] = []

    def call(self, i):
        t0 = perf_counter()
        code, stdout = run_cli(["compare", "--data", self.data, "--out", self.report,
                                "--epochs", self.size.epochs, "--batch-size", 512,
                                "--metric", "dp", "--test-fraction", TEST_FRACTION,
                                "--seed", self.seed])
        return {"compare": perf_counter() - t0}, (code, stdout)

    def check(self, i, out):
        code, stdout = out
        if code != 0:
            return False
        self.stdout.append(stdout)
        # frontier_gap= is printed with 9 significant digits; the text must
        # match the first repetition exactly, as must the report bytes.
        got = (self.report.read_bytes(), _stdout_value(stdout, "frontier_gap"))
        if self.ref is None:
            self.ref = got
        return got == self.ref

    def details(self, parts):
        compare = tail(parts["compare"])
        ratios = [float(r) for r in (_stdout_value(s, "wall_time_ratio")
                                     for s in self.stdout) if r]
        gap = self.ref[1] if self.ref else ""
        return {
            "compare_p50_s": compare["p50"], "compare_samples": compare["n"],
            "frontier_gap": float(gap) if gap else None,
            "wall_time_ratio_p50": _median(ratios),
        }


def _stdout_value(stdout: str, key: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith(key + "="):
            return line[len(key) + 1:]
    return None


class ServeLine(Workload):
    """A line loaded from a checkpoint serves 1-row predict requests, each at
    its own alpha ~ U[0, 1) on a random test row; every sweep_every-th op is
    one 21-point alpha_sweep over the whole test split."""

    CHUNK = 4096

    def setup(self):
        train, test = fl.split(_synth(self.seed, self.size), TEST_FRACTION, self.seed)
        line = fl.train_subspace(train, fl.TrainConfig(epochs=self.size.epochs,
                                                       seed=self.seed))
        path = self.workdir / "line.ckpt"
        fl.save_checkpoint(line, path)
        self.model = fl.load_checkpoint(path)
        self.test = test
        self.rng = np.random.default_rng([self.seed, 1])
        self.alphas: list[float] = []
        self.rows: list[int] = []
        self.ref_sweep = fl.alpha_sweep(self.model, self.test)

    def _next_request(self) -> tuple[float, np.ndarray]:
        if not self.alphas:
            self.alphas = self.rng.uniform(size=self.CHUNK).tolist()
            self.rows = self.rng.integers(self.test.n, size=self.CHUNK).tolist()
        row = self.rows.pop()
        return self.alphas.pop(), self.test.features[row:row + 1]

    def call(self, i):
        if i % self.size.sweep_every == self.size.sweep_every - 1:
            t0 = perf_counter()
            records = fl.alpha_sweep(self.model, self.test)
            return {"sweep": perf_counter() - t0}, records
        alpha, x = self._next_request()
        t0 = perf_counter()
        pred = fl.predict(self.model, alpha, x)
        return {"predict": perf_counter() - t0}, pred

    def check(self, i, out):
        if isinstance(out, np.ndarray):
            return out.shape == (1,) and 0.0 < float(out[0]) < 1.0
        m, x = self.model, self.test.features
        return (out == self.ref_sweep
                and np.array_equal(fl.predict(m, 0.0, x), fl.forward(m.arch, m.w_acc, x)[0])
                and np.array_equal(fl.predict(m, 1.0, x), fl.forward(m.arch, m.w_fair, x)[0]))

    def details(self, parts):
        predicts, sweeps = parts.get("predict", []), parts.get("sweep", [])
        predict, sweep = tail(predicts), tail(sweeps)
        total = sum(predicts) + sum(sweeps)
        return {
            "predict_p50_us": _times(predict["p50"], 1e6),
            "predict_tail_us": _times(predict["tail"], 1e6),
            "predict_tail_pct": predict["tail_pct"], "predict_samples": predict["n"],
            "sweep_p50_s": sweep["p50"], "sweep_samples": sweep["n"],
            # The sweeps' share of the summed op time: their weight in op_mean_ref.
            "sweep_time_share": sum(sweeps) / total if total else None,
        }


class CliRoundtrip(Workload):
    """`fairline synth`, then `train --test-fraction 0.25 --test-out`, then
    `sweep` on the held-out split, all through fairline.cli.main."""

    def setup(self):
        _log_cli_to(self.workdir / "fairline.log")
        w = self.workdir
        self.steps = [
            ("synth", ["synth", "--n", self.size.n, "--d", 6, "--group-fraction", 0.5,
                       "--gap", 0.4, "--noise", 1.0, "--seed", self.seed,
                       "--out", w / "data.csv"]),
            ("train", ["train", "--data", w / "data.csv", "--out", w / "line.ckpt",
                       "--epochs", self.size.epochs, "--batch-size", 512,
                       "--seed", self.seed, "--test-fraction", TEST_FRACTION,
                       "--test-out", w / "test.csv"]),
            ("sweep", ["sweep", "--checkpoint", w / "line.ckpt", "--test", w / "test.csv",
                       "--out", w / "sweep.csv"]),
        ]
        codes = self.call(0)[1]
        if any(codes):
            raise RuntimeError(f"fairline exited {codes}")
        self.ref = (w / "sweep.csv").read_bytes()

    def call(self, i):
        times, codes = {}, []
        for name, argv in self.steps:
            t0 = perf_counter()
            code, _ = run_cli(argv)
            times[name] = perf_counter() - t0
            codes.append(code)
        return times, codes

    def check(self, i, out):
        return not any(out) and (self.workdir / "sweep.csv").read_bytes() == self.ref

    def details(self, parts):
        return {f"cli_{k}_p50_s": _median(parts[k]) for k in ("synth", "train", "sweep")}


WORKLOADS = {
    "train-line": TrainLine,
    "compare-grid": CompareGrid,
    "serve-line": ServeLine,
    "cli-roundtrip": CliRoundtrip,
}
