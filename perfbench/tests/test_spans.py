"""Self time, span-tree checks and wrapper installation of the tracer."""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

import fairline as fl  # noqa: E402
import spans  # noqa: E402


def _arrays(rows, names):
    """rows: (name, parent, start, end)."""
    return {
        "names": np.array(names),
        "name": np.array([names.index(r[0]) for r in rows]),
        "parent": np.array([r[1] for r in rows]),
        "start": np.array([r[2] for r in rows], dtype=float),
        "end": np.array([r[3] for r in rows], dtype=float),
        "minor_faults": np.zeros(len(rows), dtype=np.int64),
    }


def test_self_time_subtracts_union_of_overlapping_children():
    start = [0.0, 1.0, 2.0, 7.0, 9.0, 1.5]
    end = [10.0, 3.0, 5.0, 8.0, 12.0, 2.0]
    parent = [-1, 0, 0, 0, 0, 1]
    # Children of span 0 cover [1, 5] (two overlapping spans), [7, 8] and,
    # clipped to the parent, [9, 10]: 6 of its 10 seconds.
    got = spans.self_times(start, end, parent)
    np.testing.assert_allclose(got, [4.0, 1.5, 3.0, 1.0, 3.0, 0.5])


def test_self_time_without_children_is_duration():
    np.testing.assert_allclose(spans.self_times([2.0, 5.0], [3.5, 5.25], [-1, -1]),
                               [1.5, 0.25])


def test_aggregate_sums_per_name():
    names = ["bench.op", "model.forward"]
    arrays = _arrays([("bench.op", -1, 0.0, 4.0), ("model.forward", 0, 1.0, 2.0),
                      ("model.forward", 0, 2.5, 3.0)], names)
    table = spans.aggregate(arrays)
    assert table["model.forward"]["calls"] == 2
    assert table["model.forward"]["total_s"] == pytest.approx(1.5)
    assert table["bench.op"]["self_s"] == pytest.approx(2.5)


def test_check_roots_flags_orphans_and_escapes():
    names = ["bench.op", "model.forward"]
    good = _arrays([("bench.op", -1, 0.0, 4.0), ("model.forward", 0, 1.0, 2.0)], names)
    assert spans.check_roots(good, 0) == []
    orphan = _arrays([("model.forward", -1, 0.0, 1.0)], names)
    assert "no root" in spans.check_roots(orphan, 0)[0]
    escaped = _arrays([("bench.op", -1, 0.0, 1.0), ("model.forward", 0, 0.5, 2.0)], names)
    assert "outside" in spans.check_roots(escaped, 0)[0]


def test_installed_wraps_every_binding_and_restores():
    ds = fl.synth_biased(200, 3, 0.5, 0.4, 1.0, seed=0)
    model = fl.train_subspace(ds, fl.TrainConfig(epochs=1, seed=0))
    original = fl.model.forward
    tracer = spans.Tracer()
    with spans.installed(tracer):
        for module in (fl.model, fl.subspace, fl.baseline, fl):
            assert module.forward is not original
        fl.predict(model, 0.3, ds.features)  # not recorded: tracer is off
        tracer.on = True
        with tracer.span(spans.ROOT_NAME):
            fl.predict(model, 0.3, ds.features)
        tracer.on = False
    for module in (fl.model, fl.subspace, fl.baseline, fl):
        assert module.forward is original
    table = spans.aggregate(tracer.to_arrays())
    assert table["subspace.predict"]["calls"] == 1
    assert table["model.forward"]["calls"] == 1
    assert table["tensor.matmul"]["calls"] == 2
    assert tracer.counters["model.forward.flops"] == 2 * 200 * (3 * 256 + 256)
