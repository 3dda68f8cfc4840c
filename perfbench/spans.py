"""Outside-in tracing of fairline's public functions.

A Tracer records one span per call of a wrapped function: its name, start,
end and parent span. Wrappers are installed from here, without touching the
package source: every fairline module namespace that binds a traced function
gets the wrapper, because ``from .model import forward`` copies the name into
``subspace`` and ``baseline``. Functions the package reaches through a module
or class at call time (``tensor.matmul``, ``AdamState.apply``) need only the
one binding.

Spans are kept in flat in-memory arrays while the run lasts and written out
when it ends; self time is a span's duration minus the union of its
children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

ROOT_NAME = "bench.op"


def _dense_flops(arch, rows: int) -> int:
    dims = arch.layer_dims
    return sum(2 * rows * fi * fo for fi, fo in zip(dims[:-1], dims[1:]))


def _backward_flops(args, result) -> int:
    # Weight gradients for every layer plus the hidden-activation gradients
    # of every layer but the first: the forward matmul work, twice, minus
    # the first layer's dh.
    arch, _, cache, _ = args[:4]
    rows = cache.inputs.shape[0]
    dims = arch.layer_dims
    return 2 * _dense_flops(arch, rows) - 2 * rows * dims[0] * dims[1]


def _elementwise_bytes(args, result):
    return "tensor.elementwise.bytes", 16 * args[0].size


# (module, attribute, counter) for every traced function. A counter maps
# (positional args, result) to (counter name, amount). The byte and flop
# counters are computed from array shapes, not measured: elementwise bytes
# are one float64 read and one written per element.
TARGETS = [
    ("tensor", "matmul", None),
    ("tensor", "relu", _elementwise_bytes),
    ("tensor", "relu_grad", _elementwise_bytes),
    ("tensor", "sigmoid", _elementwise_bytes),
    ("tensor", "sigmoid_grad", _elementwise_bytes),
    ("model", "forward", lambda a, r: ("model.forward.flops", _dense_flops(a[0], a[2].shape[0]))),
    ("model", "backward", lambda a, r: ("model.backward.flops", _backward_flops(a, r))),
    ("model", "init_params", None),
    ("losses", "bce", None),
    ("losses", "fairness_loss", None),
    ("losses", "squared_cosine", None),
    ("subspace", "interpolate", None),
    ("subspace", "batch_gradients", None),
    ("subspace", "AdamState.apply", None),
    ("subspace", "predict", None),
    ("subspace", "train_subspace", None),
    ("baseline", "train_fixed", None),
    ("baseline", "fixed_batch_gradients", None),
    ("baseline", "sweep_fixed", None),
    ("baseline", "predict_fixed", None),
    ("evaluation", "alpha_sweep", None),
    ("evaluation", "evaluate_predictions", None),
    ("evaluation", "pareto_frontier", None),
    ("evaluation", "frontier_gap", None),
    ("evaluation", "write_report", None),
    ("data", "synth_biased", None),
    ("data", "load_csv", lambda a, r: ("data.load_csv.rows", r.n)),
    ("data", "split", None),
    ("data", "batches", None),
    ("checkpoint", "write_checkpoint", lambda a, r: ("checkpoint.bytes", os.path.getsize(a[0]))),
    ("checkpoint", "read_checkpoint", lambda a, r: ("checkpoint.bytes", os.path.getsize(a[0]))),
    ("cli", "cmd_synth", None),
    ("cli", "cmd_train", None),
    ("cli", "cmd_sweep", None),
    ("cli", "cmd_compare", None),
]

# Spans that also record the minor page faults taken inside them.
FAULT_SPANS = {"model.forward", "model.backward", ROOT_NAME}


class Tracer:
    """In-memory span store. Records only while ``on`` is true."""

    def __init__(self):
        self.on = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.faults: dict[int, int] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, faults: bool = False):
        """Record one span around a block; used for root spans."""
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt if faults else 0
        idx = self.open(self.name_id(name))
        try:
            yield idx
        finally:
            self.close(idx)
            if faults:
                self.faults[idx] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0

    def to_arrays(self) -> dict[str, np.ndarray]:
        faults = np.zeros(len(self.name), dtype=np.int64)
        for idx, n in self.faults.items():
            faults[idx] = n
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "minor_faults": faults,
        }


def _wrap(tracer: Tracer, name: str, fn, counter):
    nid = tracer.name_id(name)
    faults = name in FAULT_SPANS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt if faults else 0
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            tracer.close(idx)
            tracer.errors[name] += 1
            raise
        tracer.close(idx)
        if faults:
            tracer.faults[idx] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
        if counter is not None:
            key, amount = counter(args, result)
            tracer.counters[key] += amount
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Install span wrappers on every fairline binding of each target,
    and restore the original bindings on exit."""
    modules = [m for key, m in list(sys.modules.items())
               if key == "fairline" or key.startswith("fairline.")]
    undo = []
    try:
        for module_name, attr, counter in TARGETS:
            owner = importlib.import_module(f"fairline.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, _wrap(tracer, f"{module_name}.{attr}", original, counter))
                undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = _wrap(tracer, f"{module_name}.{attr}", original, counter)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))
        yield tracer
    finally:
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    out = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    start, end = list(map(float, start)), list(map(float, end))
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(map(int, parent)):
        if p >= 0:
            children[p].append(i)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        run_lo = run_hi = None
        for k in sorted(kids, key=lambda k: start[k]):
            a, b = max(start[k], lo), min(end[k], hi)
            if b <= a:
                continue
            if run_hi is None or a > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = a, b
            else:
                run_hi = max(run_hi, b)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[p] -= covered
    return out


def aggregate(arrays: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s, self_s and minor_faults."""
    names = arrays["names"]
    self_s = self_times(arrays["start"], arrays["end"], arrays["parent"])
    dur = arrays["end"] - arrays["start"]
    ids = arrays["name"]
    out = {}
    for nid, name in enumerate(names):
        sel = ids == nid
        out[str(name)] = {
            "calls": int(np.count_nonzero(sel)),
            "total_s": float(dur[sel].sum()),
            "self_s": float(self_s[sel].sum()),
            "minor_faults": int(arrays["minor_faults"][sel].sum()),
        }
    return out


def check_roots(arrays: dict[str, np.ndarray], root_id: int) -> list[str]:
    """Problems with the span tree: every span must descend from a root span
    and lie inside its root's interval."""
    start, end, ids = arrays["start"], arrays["end"], arrays["name"]
    problems = []
    root_of = []
    for i, p in enumerate(arrays["parent"].tolist()):  # parents precede children
        if p < 0 and ids[i] != root_id:
            problems.append(f"span {i} ({arrays['names'][ids[i]]}) has no root")
        root_of.append(i if p < 0 else root_of[p])
    r = np.array(root_of, dtype=np.int64)
    inside = (start >= start[r]) & (end <= end[r])
    if not np.all(inside):
        problems.append(f"{int(np.count_nonzero(~inside))} spans lie outside their root")
    return problems
