#!/usr/bin/env python3
"""fairline benchmark: one workload, one process, a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; fairline is imported from its src/
directory and called in-process, timed from outside. With --trace 0 the last
stdout line is a JSON object with the end-to-end metrics. With --trace 1 the
run alternates one-second blocks of untraced ops and of ops traced through
span wrappers on fairline's public functions, and the JSON carries the
per-layer metrics and the tracing overhead. Details, the environment and
(traced) the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
TRACE_BLOCK_S = 1.0

# name -> unit, in BENCHMARK.json order. The op timings are in units of
# the reference kernel's median time in the same run ("ref"); see
# reference_s.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ref": "ref",
    "op_mean_ref": "ref",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "frac",
}

_PER_CALL = ["tensor.matmul", "tensor.relu", "tensor.relu_grad", "tensor.sigmoid",
             "tensor.sigmoid_grad", "model.forward", "model.backward",
             "subspace.interpolate", "subspace.batch_gradients",
             "subspace.AdamState.apply", "subspace.predict"]
PER_LAYER = {
    **{f"{f}.{stat}": unit for f in _PER_CALL
       for stat, unit in (("self_s", "s"), ("calls", "count"))},
    "tensor.elementwise.bytes": "B",
    "model.forward.minor_faults": "count",
    "model.forward.flops": "flop",
    "model.backward.minor_faults": "count",
    "model.backward.flops": "flop",
    "model.init_params.total_s": "s",
    "losses.bce.self_s": "s",
    "losses.fairness_loss.self_s": "s",
    "losses.squared_cosine.self_s": "s",
    "losses.fairness_loss.applied_ratio": "frac",
    "subspace.train_subspace.self_s": "s",
    "baseline.train_fixed.self_s": "s",
    "baseline.fixed_batch_gradients.self_s": "s",
    "baseline.sweep_fixed.total_s": "s",
    "baseline.predict_fixed.self_s": "s",
    "evaluation.alpha_sweep.self_s": "s",
    "evaluation.evaluate_predictions.self_s": "s",
    "evaluation.pareto_frontier.total_s": "s",
    "evaluation.frontier_gap.total_s": "s",
    "evaluation.write_report.total_s": "s",
    "data.synth_biased.total_s": "s",
    "data.load_csv.total_s": "s",
    "data.load_csv.rows": "count",
    "data.split.total_s": "s",
    "data.batches.total_s": "s",
    "checkpoint.write_checkpoint.total_s": "s",
    "checkpoint.read_checkpoint.total_s": "s",
    "checkpoint.bytes": "B",
    "cli.cmd_synth.self_s": "s",
    "cli.cmd_train.self_s": "s",
    "cli.cmd_sweep.self_s": "s",
    "cli.cmd_compare.self_s": "s",
    "proc.minor_faults": "count",
    "proc.sys_cpu_s": "s",
    "proc.user_cpu_s": "s",
    "trace.overhead_frac": "frac",
    "trace.root_coverage": "frac",
}
# The host this benchmark was developed on alternates between a fast and a
# slow state about 1.6x apart, each lasting seconds to minutes, on both CPUs
# at once and without steal time. Raw op times then split across runs by
# state. A fixed yardstick timed next to each op slows down with the host,
# so an op's time in yardstick units follows the code, not the state.
REF_EVERY_S = 0.2
_REF_VECTOR = np.random.default_rng(0).standard_normal(4096)
# setup_s is each set-up's time in ref units times this, about the
# reference kernel's median time on a 2-vCPU Intel Xeon VM: seconds at a
# fixed host speed. The raw set-up seconds stay in the run's details.
REF_NOMINAL_S = 0.0005


def reference_s() -> float:
    """Wall time of one fixed mix of interpreter work and small elementwise
    numpy kernels, the fastest of three back-to-back runs (about 0.5 ms
    each). It calls no BLAS, whose helper threads may still be busy with
    the op before."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        total = 0
        for i in range(2000):
            total += i * i
        for _ in range(50):
            total += float(np.maximum(_REF_VECTOR, 0.0).sum())
        best = min(best, perf_counter() - t0)
    return best


COUNTERS = {"tensor.elementwise.bytes", "model.forward.flops", "model.backward.flops",
            "data.load_csv.rows", "checkpoint.bytes"}


@dataclass
class Loop:
    """What one kind of op (untraced or traced) saw. Times are kept for the
    ops that passed their check only; a failed op counts in `attempted` and
    `failed` and nowhere else. Start and end times are kept for traced ops
    only, and durations as float32, so that the bookkeeping barely moves peak
    RSS. The rusage totals cover whole blocks, the benchmark's own checks and
    any child processes fairline waited for included."""

    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    walls: array = field(default_factory=lambda: array("f"))
    refs: array = field(default_factory=lambda: array("d"))
    scaled: array = field(default_factory=lambda: array("f"))  # walls in ref units
    parts: dict[str, array] = field(default_factory=dict)
    user_s: float = 0.0
    sys_s: float = 0.0
    minor_faults: int = 0
    attempted: int = 0
    failed: int = 0


def _run_op(workload, i: int, loop: Loop, tracer) -> None:
    """One op: the timed calls into fairline, inside a root span when a
    tracer is given, then the op's check."""
    loop.attempted += 1
    try:
        if tracer is None:
            t0 = perf_counter()
            parts, out = workload.call(i)
            t1 = perf_counter()
        else:
            tracer.on = True
            try:
                with tracer.span(spans.ROOT_NAME, faults=True):
                    t0 = perf_counter()
                    parts, out = workload.call(i)
                    t1 = perf_counter()
            finally:
                tracer.on = False
        ok = workload.check(i, out)
    except Exception:  # a failing op is counted, and the loop goes on
        traceback.print_exc()
        ok = False
    if not ok:
        loop.failed += 1
        return
    if tracer is not None:
        loop.starts.append(t0)
        loop.ends.append(t1)
    loop.walls.append(t1 - t0)
    for label, secs in parts.items():
        if label not in loop.parts:
            loop.parts[label] = array("f")
        loop.parts[label].append(secs)


def _rusage() -> tuple[float, float, int]:
    """User and system CPU seconds and minor faults of this process and of
    the child processes it has waited for."""
    a, b = (resource.getrusage(who) for who in
            (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return a.ru_utime + b.ru_utime, a.ru_stime + b.ru_stime, a.ru_minflt + b.ru_minflt


def peak_rss_mb() -> float:
    """The larger of this process's peak RSS and that of its largest
    waited-for child, so that work moved into child processes still shows."""
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def run(workload, seconds: float, tracer=None) -> tuple[Loop, Loop]:
    """Run ops back to back until `seconds` have passed; returns the untraced
    and the traced ops. With a tracer, blocks of at least TRACE_BLOCK_S
    alternate between untraced ops and traced ones, so that both see the
    same machine state; otherwise every op is untraced. The reference kernel
    runs at the start and end of each block and after an op whenever
    REF_EVERY_S has passed since it last ran; each op is scaled by the mean
    of the reference times measured just before and just after it."""
    plain, traced = Loop(), Loop()
    blocks = [(plain, None)] if tracer is None else [(plain, None), (traced, tracer)]
    block_s = seconds if tracer is None else TRACE_BLOCK_S
    deadline = perf_counter() + seconds
    i = 0
    while True:
        for loop, active in blocks:
            with spans.installed(active) if active else contextlib.nullcontext():
                r0 = _rusage()
                before = reference_s()
                loop.refs.append(before)
                block_end = perf_counter() + block_s
                next_ref = perf_counter() + REF_EVERY_S
                while True:
                    _run_op(workload, i, loop, active)
                    i += 1
                    done = perf_counter() >= block_end
                    if done or perf_counter() >= next_ref:
                        after = reference_s()
                        loop.refs.append(after)
                        unit = (before + after) / 2
                        loop.scaled.extend(w / unit for w in loop.walls[len(loop.scaled):])
                        before = after
                        next_ref = perf_counter() + REF_EVERY_S
                    if done:
                        break
                r1 = _rusage()
            loop.user_s += r1[0] - r0[0]
            loop.sys_s += r1[1] - r0[1]
            loop.minor_faults += r1[2] - r0[2]
        if perf_counter() >= deadline:
            return plain, traced


def timed_setups(workload, repeats: int) -> tuple[list[float], list[float]]:
    """Run the workload's set-up `repeats` times; returns the wall seconds
    and the ref units (wall over the mean of the reference times just
    before and just after) of each."""
    walls, refs = [], []
    for _ in range(repeats):
        before = reference_s()
        t0 = perf_counter()
        workload.setup()
        wall = perf_counter() - t0
        walls.append(wall)
        refs.append(wall / ((before + reference_s()) / 2))
    return walls, refs


def end_to_end(setup_refs: list[float], loop: Loop, rss_mb: float) -> dict:
    scaled = np.asarray(loop.scaled, dtype=np.float64)
    return {
        "setup_s": statistics.median(setup_refs) * REF_NOMINAL_S,
        "op_p50_ref": float(np.median(scaled)),
        "op_mean_ref": float(scaled.mean()),
        "peak_rss_mb": rss_mb,
        "ops_ok_frac": 1.0 - loop.failed / loop.attempted,
    }


def raw_timings(loop: Loop) -> dict:
    walls = np.asarray(loop.walls, dtype=np.float64)
    return {
        "op_p50_ms": float(np.median(walls)) * 1e3,
        "ops_per_s": len(walls) / float(walls.sum()),
        "ref_p50_ms": float(np.median(loop.refs)) * 1e3,
        "ref_samples": len(loop.refs),
    }


def per_layer(plain: Loop, traced: Loop, tracer, table: dict) -> dict[str, float]:
    """Per-op averages of the traced ops; proc.* come from the untraced ones."""
    n = traced.attempted
    out = {}
    for name in PER_LAYER:
        if name in COUNTERS:
            out[name] = tracer.counters.get(name, 0.0) / n
            continue
        func, _, stat = name.rpartition(".")
        if func in table and stat in table[func]:
            out[name] = table[func][stat] / n
    calls = table.get("losses.fairness_loss", {}).get("calls", 0)
    out["losses.fairness_loss.applied_ratio"] = (
        (calls - tracer.errors.get("losses.fairness_loss", 0)) / calls if calls else 0.0)
    out["proc.minor_faults"] = plain.minor_faults / plain.attempted
    out["proc.sys_cpu_s"] = plain.sys_s / plain.attempted
    out["proc.user_cpu_s"] = plain.user_s / plain.attempted
    plain_mean = sum(plain.walls) / len(plain.walls)
    out["trace.overhead_frac"] = (sum(traced.walls) / len(traced.walls) - plain_mean) / plain_mean
    roots = table.get(spans.ROOT_NAME)
    out["trace.root_coverage"] = (
        (roots["total_s"] - roots["self_s"]) / roots["total_s"] if roots else 0.0)
    return {name: float(out.get(name, 0.0)) for name in PER_LAYER}


def root_problems(arrays, root_id: int, traced: Loop) -> list[str]:
    """Span-tree problems, plus any op whose measured wall time its root span
    does not cover. Coverage is checked when no traced op failed, since a
    failed op keeps its root span but not its wall time."""
    problems = spans.check_roots(arrays, root_id)
    roots = arrays["name"] == root_id
    starts, ends = arrays["start"][roots], arrays["end"][roots]
    if len(starts) != traced.attempted:
        problems.append(f"{len(starts)} root spans for {traced.attempted} ops")
    elif not traced.failed:
        t0, t1 = np.asarray(traced.starts), np.asarray(traced.ends)
        uncovered = int(np.count_nonzero((starts > t0) | (ends < t1)))
        if uncovered:
            problems.append(f"{uncovered} ops not covered by their root span")
    return problems


def _blas_threads() -> dict:
    """OpenBLAS thread count and build string, read from numpy's bundled
    library; empty when numpy links another BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            try:
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
            return {"blas_threads": threads(), "blas_config": config().decode()}
    return {}


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        **_blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
    }


def _import_fairline() -> None:
    """Import fairline from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "fairline" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'fairline'} not found; run from a fairline checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import fairline

    if Path(fairline.__file__).resolve().parent != (src / "fairline").resolve():
        sys.exit(f"error: imported fairline from {fairline.__file__}, not {src}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs (400 rows, 1 epoch), for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    _import_fairline()
    from workloads import ACCEPTANCE, TINY, WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    try:
        workload = WORKLOADS[args.workload](args.seed, TINY if args.tiny else ACCEPTANCE,
                                            workdir)
        setup_walls, setup_refs = timed_setups(workload, SETUP_REPEATS)

        tracer = spans.Tracer() if args.trace else None
        plain, traced = run(workload, args.seconds, tracer)
        if not plain.walls or (tracer and not traced.walls):
            sys.exit("error: every op failed; nothing was measured")
        report = {"end_to_end": end_to_end(setup_refs, plain, peak_rss_mb()),
                  "details": {**raw_timings(plain), "setup_wall_p50_s":
                              statistics.median(setup_walls),
                              **workload.details(plain.parts)}}
        np.savez_compressed(f"{stem}-ops.npz", wall=np.asarray(plain.walls),
                            **{f"part_{k}": np.asarray(v) for k, v in plain.parts.items()})
        metrics, units, problems = report["end_to_end"], END_TO_END, []
        attempted, failed = plain.attempted, plain.failed
        if args.trace:
            arrays = tracer.to_arrays()
            np.savez_compressed(f"{stem}-spans.npz", **arrays)
            table = spans.aggregate(arrays)
            problems = root_problems(arrays, tracer.name_id(spans.ROOT_NAME), traced)
            metrics, units = per_layer(plain, traced, tracer, table), PER_LAYER
            attempted, failed = attempted + traced.attempted, failed + traced.failed
            report.update({"traced_ops": traced.attempted, "per_layer": metrics,
                           "per_layer_computed": sorted(COUNTERS),
                           "spans_by_name": table, "root_problems": problems})
        report.update({"workload": args.workload, "seconds": args.seconds,
                       "tiny": args.tiny, "setup_wall_s_samples": setup_walls,
                       "setup_ref_samples": setup_refs,
                       "attempted": attempted, "failed": failed,
                       "environment": environment(args.seed)})
        Path(f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"trace: {problem}", file=sys.stderr)
    for key, value in report["details"].items():
        print(f"{key}={value}")
    print("environment=" + json.dumps(report["environment"]))
    print(f"details: {Path(f'{stem}.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
