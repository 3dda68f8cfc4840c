"""Every function the benchmark's traced run wraps must still exist and
still record its spans and counters.

perfbench/spans.py installs span wrappers on fairline functions by module
and attribute name, and its flop counters read the wrapped functions'
positional arguments; a rename or a signature change in src/ would
otherwise break only the traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import fairline as fl

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402


def _resolves(module_name: str, attr: str) -> bool:
    obj = importlib.import_module(f"fairline.{module_name}")
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return callable(obj)


def test_every_trace_target_resolves():
    missing = [f"{m}.{a}" for m, a, _ in spans.TARGETS if not _resolves(m, a)]
    assert "subspace.AdamState.apply" in {f"{m}.{a}" for m, a, _ in spans.TARGETS}
    assert missing == []


def test_traced_training_and_sweep_record_spans_and_counters():
    train, test = fl.split(fl.synth_biased(120, 3, 0.5, 0.4, 1.0, seed=0), 0.25, seed=0)
    arch = fl.MlpArchitecture(3, (6, 4))
    config = fl.TrainConfig(epochs=1, batch_size=32, seed=0)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        tracer.on = True
        line = fl.train_subspace(train, config, arch=arch)
        fl.train_fixed(train, config, 0.5, arch=arch)
        fl.alpha_sweep(line, test, [0.0, 0.5, 1.0])
        tracer.on = False
    assert dict(tracer.errors) == {}
    assert tracer.counters["model.forward.flops"] > 0
    assert tracer.counters["model.backward.flops"] > 0
    table = spans.aggregate(tracer.to_arrays())
    assert table["subspace.batch_gradients"]["calls"] > 0
    assert table["baseline.fixed_batch_gradients"]["calls"] > 0
