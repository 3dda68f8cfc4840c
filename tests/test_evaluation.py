import os
import platform
import resource
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairline import baseline, evaluation
from fairline.baseline import FixedModel, predict_fixed, sweep_fixed
from fairline.data import split, synth_biased
from fairline.errors import (
    EmptyGroupError, FairlineError, FrontierRangeError, NumericError, ParameterError)
from fairline.evaluation import (
    DEFAULT_ALPHA_GRID,
    HARD_THRESHOLD,
    REPORT_HEADER,
    MetricsRecord,
    _score,
    alpha_sweep,
    check_alpha_grid,
    compare_to_grid,
    evaluate_predictions,
    frontier_gap,
    pareto_frontier,
    read_report,
    relaxed_field,
    write_report,
)
from fairline.losses import FAIRNESS_METRICS, METRIC_GAPS, fairness_loss
from fairline.model import CHUNK, MlpArchitecture, forward, init_params
from fairline.subspace import SubspaceModel, TrainConfig, interpolate, predict, train_subspace


def rec(error_rate, fairness, **kwargs):
    base = dict(alpha=None, fairness_weight=None, error_rate=error_rate,
                dp_relaxed=fairness, dp_hard=fairness, eo_relaxed=fairness,
                eodd_relaxed=fairness)
    base.update(kwargs)
    return MetricsRecord(**base)


# ------------------------------------------------------- evaluate

FULL_Y = np.array([1.0, 0.0, 1.0, 0.0])
FULL_S = np.array([0.0, 0.0, 1.0, 1.0])


def test_evaluate_perfect_predictions():
    out = evaluate_predictions(np.array([0.9, 0.1, 0.9, 0.1]), FULL_Y, FULL_S)
    assert out.error_rate == 0.0


def test_evaluate_dp_hard_extreme():
    out = evaluate_predictions(np.array([1.0, 1.0, 0.0, 0.0]), FULL_Y, FULL_S)
    assert out.dp_hard == 1.0


def test_evaluate_dp_zero_case():
    out = evaluate_predictions(np.array([0.6, 0.4, 0.6, 0.4]), FULL_Y, FULL_S)
    assert out.dp_hard == 0.0
    assert abs(out.dp_relaxed) < 1e-12


def test_evaluate_threshold_is_inclusive():
    out = evaluate_predictions(np.array([0.5, 0.4, 0.5, 0.4]), FULL_Y, FULL_S)
    assert out.error_rate == 0.0  # 0.5 counts as a positive prediction


def test_evaluate_empty_group_errors():
    with pytest.raises(EmptyGroupError):
        evaluate_predictions(np.array([0.5, 0.5]), np.array([1.0, 0.0]),
                             np.array([0.0, 0.0]))


@pytest.mark.parametrize("metric", FAIRNESS_METRICS)
def test_evaluate_gaps_are_the_fairness_loss_values(metric):
    rng = np.random.default_rng(3)
    pred = rng.uniform(0.0, 1.0, 501)
    y = rng.integers(0, 2, 501).astype(np.float64)
    s = rng.integers(0, 2, 501).astype(np.float64)
    out = evaluate_predictions(pred, y, s)
    hard = (pred >= HARD_THRESHOLD).astype(np.float64)
    assert out.dp_hard == fairness_loss("dp", hard, y, s).value
    assert getattr(out, relaxed_field(metric)) == fairness_loss(metric, pred, y, s).value


def test_every_metric_has_a_relaxed_report_field():
    names = {f.name for f in fields(MetricsRecord)}
    assert FAIRNESS_METRICS == tuple(METRIC_GAPS)
    for metric in FAIRNESS_METRICS:
        assert relaxed_field(metric) == f"{metric}_relaxed"
        assert relaxed_field(metric) in names


@pytest.mark.parametrize("y, s, row_set", [
    ([1.0, 0.0], [0.0, 0.0], "all"),
    ([1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], "negative"),
    ([0.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0], "positive"),
], ids=["no-group-1", "no-negative-in-group-1", "no-positive-in-group-0"])
def test_evaluate_empty_cell_names_its_row_set(y, s, row_set):
    with pytest.raises(EmptyGroupError, match=f"^{row_set} rows: a group cell"):
        evaluate_predictions(np.full(len(y), 0.5), np.array(y), np.array(s))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=8, max_size=8))
def test_dp_hard_invariant_under_monotone_transform(vals):
    pred = np.array(vals)
    y = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=np.float64)
    s = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.float64)
    base = evaluate_predictions(pred, y, s).dp_hard
    # strictly increasing map fixing the threshold-crossing set at 0.5
    transformed = evaluate_predictions(0.25 + pred / 2, y, s).dp_hard
    assert base == transformed


# ----------------------------------------------------- alpha sweep

def _sweep_fixture():
    ds = synth_biased(300, 3, 0.5, 0.3, 1.0, seed=0)
    arch = MlpArchitecture(3, (4,))
    model = train_subspace(ds, TrainConfig(epochs=1, batch_size=64, seed=9), arch=arch)
    return model, ds


def test_alpha_sweep_endpoints_reproduce_direct_forward():
    model, ds = _sweep_fixture()
    records = alpha_sweep(model, ds, [0.0, 1.0])
    direct0 = evaluate_predictions(forward(model.arch, model.w_acc, ds.features)[0],
                                   ds.labels, ds.sensitive)
    direct1 = evaluate_predictions(forward(model.arch, model.w_fair, ds.features)[0],
                                   ds.labels, ds.sensitive)
    assert records[0].error_rate == direct0.error_rate
    assert records[0].dp_relaxed == direct0.dp_relaxed
    assert records[1].error_rate == direct1.error_rate
    assert records[1].eodd_relaxed == direct1.eodd_relaxed


def test_alpha_sweep_default_grid_21_points():
    model, ds = _sweep_fixture()
    records = alpha_sweep(model, ds)
    assert len(records) == 21
    assert [r.alpha for r in records] == list(DEFAULT_ALPHA_GRID)
    assert all(r.seed == 9 for r in records)
    assert all(r.wall_time_s is None for r in records)


def test_alpha_sweep_grid_order_irrelevant():
    model, ds = _sweep_fixture()
    fwd = alpha_sweep(model, ds, [0.0, 0.5, 1.0])
    rev = alpha_sweep(model, ds, [1.0, 0.5, 0.0])
    assert fwd[0] == rev[2] and fwd[1] == rev[1] and fwd[2] == rev[0]


def test_alpha_sweep_rejects_out_of_range():
    model, ds = _sweep_fixture()
    with pytest.raises(ParameterError):
        alpha_sweep(model, ds, [0.0, 1.2])


@pytest.mark.parametrize("grid", [[], [float("nan")], [0.5, float("inf")], [-0.1], ["a"],
                                  ["0.5"], [10**400]],
                         ids=["empty", "nan", "inf", "negative", "not-a-number", "text",
                              "beyond-float"])
def test_alpha_grid_rule(grid):
    with pytest.raises(ParameterError) as exc:
        check_alpha_grid(grid)
    assert exc.value.param == "alpha_grid"
    model, ds = _sweep_fixture()
    with pytest.raises(ParameterError):
        alpha_sweep(model, ds, grid)
    assert check_alpha_grid((0, 1)) == [0.0, 1.0]
    assert check_alpha_grid((np.int64(1), np.float32(0.25))) == [1.0, 0.25]


@pytest.mark.parametrize("grids", [dict(alpha_grid=[float("nan")]),
                                   dict(fairness_grid=[0.0, float("inf")]),
                                   dict(jobs=0)],
                         ids=["alpha-nan", "fairness-inf", "jobs-zero"])
def test_compare_to_grid_checks_grids_before_training(grids):
    # no datasets: training the line first would fail with another error
    with pytest.raises(ParameterError):
        compare_to_grid(None, None, TrainConfig(epochs=1), **grids)


# ---------------------------------------------------------- pareto

def test_pareto_single_point():
    p = rec(0.1, 0.3)
    assert pareto_frontier([p], "dp_relaxed") == [p]


def test_pareto_hand_case():
    pts = [rec(0.1, 0.3), rec(0.2, 0.1), rec(0.2, 0.3)]
    got = pareto_frontier(pts, "dp_relaxed")
    assert got == [pts[0], pts[1]]


def test_pareto_idempotent():
    rng = np.random.default_rng(0)
    pts = [rec(float(e), float(f)) for e, f in rng.random((30, 2))]
    front = pareto_frontier(pts, "dp_relaxed")
    assert pareto_frontier(front, "dp_relaxed") == front


def test_pareto_exact_ties_keep_first_occurrence():
    a, b = rec(0.1, 0.3, seed=1), rec(0.1, 0.3, seed=2)
    assert pareto_frontier([a, b], "dp_relaxed") == [a]
    assert pareto_frontier([b, a], "dp_relaxed") == [b]


def brute_force_frontier(pts, field):
    out = []
    seen = set()
    for i, p in enumerate(pts):
        key = (p.error_rate, getattr(p, field))
        dominated = any(
            q.error_rate <= p.error_rate and getattr(q, field) <= key[1]
            and (q.error_rate < p.error_rate or getattr(q, field) < key[1])
            for q in pts
        )
        if not dominated and key not in seen:
            seen.add(key)
            out.append(p)
    return sorted(out, key=lambda r: r.error_rate)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                min_size=1, max_size=25))
def test_pareto_matches_brute_force_oracle(coords):
    # small integer coordinates force plenty of exact ties
    pts = [rec(e / 10, f / 10) for e, f in coords]
    assert pareto_frontier(pts, "dp_relaxed") == brute_force_frontier(pts, "dp_relaxed")


def test_pareto_sorted_and_strictly_improving():
    rng = np.random.default_rng(3)
    pts = [rec(float(e), float(f)) for e, f in rng.random((100, 2))]
    front = pareto_frontier(pts, "eo_relaxed")
    errs = [p.error_rate for p in front]
    fairs = [p.eo_relaxed for p in front]
    assert errs == sorted(errs)
    assert all(a > b for a, b in zip(fairs[:-1], fairs[1:]))


# ----------------------------------------------------- frontier gap

def test_frontier_gap_identical_zero():
    f = [rec(0.1, 0.5), rec(0.2, 0.3)]
    assert frontier_gap(f, f, "dp_relaxed") == 0.0


def test_frontier_gap_constant_shift():
    f1 = [rec(0.1, 0.5), rec(0.2, 0.3), rec(0.3, 0.1)]
    f2 = [rec(0.1, 0.55), rec(0.2, 0.35), rec(0.3, 0.15)]
    assert abs(frontier_gap(f1, f2, "dp_relaxed") - 0.05) < 1e-12


def test_frontier_gap_hand_integrated():
    # F1 steps: 0.9 on [0.1, 0.2), 0.5 on [0.2, 0.4); F2: 0.8 on [0.15, 0.3).
    # Overlap [0.15, 0.3]: |0.9-0.8|*0.05 + |0.5-0.8|*0.10 = 0.035 over 0.15.
    f1 = [rec(0.1, 0.9), rec(0.2, 0.5), rec(0.4, 0.2)]
    f2 = [rec(0.15, 0.8), rec(0.3, 0.4)]
    assert abs(frontier_gap(f1, f2, "dp_relaxed") - 7.0 / 30.0) < 1e-12


def test_frontier_gap_single_point_overlap():
    f1 = [rec(0.1, 0.5), rec(0.2, 0.3)]
    f2 = [rec(0.2, 0.4), rec(0.5, 0.2)]
    assert abs(frontier_gap(f1, f2, "dp_relaxed") - 0.1) < 1e-12


def test_frontier_gap_disjoint_ranges():
    f1 = [rec(0.1, 0.5)]
    f2 = [rec(0.4, 0.2)]
    with pytest.raises(FrontierRangeError):
        frontier_gap(f1, f2, "dp_relaxed")


# --------------------------------------------------------- reports

def full_record(i):
    return MetricsRecord(alpha=i / 20, fairness_weight=None,
                         error_rate=0.1 + i / 1000, dp_relaxed=0.3 - i / 100,
                         dp_hard=0.25, eo_relaxed=0.2, eodd_relaxed=0.4,
                         wall_time_s=None, seed=7)


def test_report_line_count(tmp_path):
    path = tmp_path / "report.csv"
    write_report([full_record(i) for i in range(21)], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 22
    assert lines[0] == ("alpha,A,error_rate,dp_relaxed,dp_hard,eo_relaxed,"
                        "eodd_relaxed,wall_time_s,seed")


def test_report_reemit_byte_identical(tmp_path):
    records = [full_record(i) for i in range(5)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report(records, p1)
    write_report(records, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_report_round_trip(tmp_path):
    records = [full_record(i) for i in range(5)]
    path = tmp_path / "r.csv"
    write_report(records, path)
    parsed = read_report(path)
    for a, b in zip(records, parsed):
        assert abs(a.error_rate - b.error_rate) < 1e-9
        assert abs(a.dp_relaxed - b.dp_relaxed) < 1e-9
        assert a.seed == b.seed and b.fairness_weight is None
        assert b.wall_time_s is None


def test_report_empty_fields(tmp_path):
    path = tmp_path / "r.csv"
    write_report([rec(0.5, 0.25, fairness_weight=0.4)], path)
    row = path.read_text().splitlines()[1].split(",")
    assert row[0] == ""  # alpha missing for a fixed-training record
    assert row[1] == "0.4"
    assert row[7] == "" and row[8] == ""


@pytest.mark.parametrize("row, match", [
    ("0.5,,0.1,0.2,0.3,0.4,0.5,", "expected 9 cells, got 8"),
    ("0.5,,0.1,0.2,0.3,0.4,0.5,,x", "seed"),
    ("0.5,,,0.2,0.3,0.4,0.5,,", "error_rate"),
], ids=["short-row", "unparsable-seed", "empty-error-rate"])
def test_read_report_bad_row_is_parameter_error(tmp_path, row, match):
    path = tmp_path / "r.csv"
    path.write_text(REPORT_HEADER + "\n" + row + "\n")
    with pytest.raises(ParameterError, match=match):
        read_report(path)


@pytest.mark.parametrize("text", ["", "a,label,group\n1,1,0\n"], ids=["empty", "data-csv"])
def test_read_report_of_another_file_is_parameter_error(tmp_path, text):
    path = tmp_path / "r.csv"
    path.write_text(text)
    with pytest.raises(ParameterError, match="not a report file"):
        read_report(path)


def test_read_report_accepts_a_byte_order_mark(tmp_path):
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    write_report([full_record(i) for i in range(3)], plain)
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read_report(bom) == read_report(plain)


def test_read_report_not_utf8_is_parameter_error(tmp_path):
    path = tmp_path / "r.csv"
    path.write_bytes(b"alpha,A\n\xe9\n")
    with pytest.raises(ParameterError, match="not UTF-8 text"):
        read_report(path)


# ------------------------------------------------- chunked serving

@pytest.fixture()
def scored(monkeypatch):
    """The bytes of every prediction vector _score evaluates, in order. Each
    record is a placeholder, so a split too small for the metrics scores."""
    preds = []

    def record(pred, y, cells):
        preds.append(pred.tobytes())
        return rec(0.0, 0.0)

    monkeypatch.setattr(evaluation, "_evaluate", record)
    return preds


# (rows, piece bounds): pieces start at multiples of CHUNK, and a lone last
# row joins the piece before it
_PIECES = {"one-row": (1, [0, 1]), "under-chunk": (100, [0, 100]),
           "one-chunk": (CHUNK, [0, CHUNK]), "chunk-and-a-row": (CHUNK + 1, [0, CHUNK + 1]),
           "chunks-and-rest": (2 * CHUNK + 37, [0, CHUNK, 2 * CHUNK, 2 * CHUNK + 37])}


def _forward_pieces(arch, params, x, bounds) -> bytes:
    """The bytes of one allocating forward per piece, concatenated."""
    return np.concatenate([forward(arch, params, x[lo:hi])[0]
                           for lo, hi in zip(bounds, bounds[1:])]).tobytes()


@pytest.mark.parametrize("n, bounds", _PIECES.values(), ids=_PIECES)
@pytest.mark.parametrize("hidden", [(256,), (32, 16)], ids=["256", "32-16"])
def test_serve_is_byte_equal_to_one_allocating_forward(n, bounds, hidden, scored):
    # one allocating forward per piece: a row's bits may depend on the row
    # count of its GEMM (they do under OpenBLAS's Haswell kernel), so the
    # pieces are part of the identity
    arch = MlpArchitecture(6, hidden)
    x = np.random.default_rng(n).standard_normal((n, 6))
    weights = [init_params(arch, 0), init_params(arch, 1), init_params(arch, 0)]
    # the workspace is reused across the points
    records = _score(arch, x, np.zeros(n), np.zeros(n),
                     [(i, w, {"seed": i}) for i, w in enumerate(weights)])
    assert scored == [_forward_pieces(arch, w, x, bounds) for w in weights]
    assert [r.seed for r in records] == [0, 1, 2]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_serve_refuses_predictions_that_are_not_finite(scored):
    arch = MlpArchitecture(6, (32,))
    n = CHUNK + 1
    x = np.random.default_rng(0).standard_normal((n, 6))
    points = [("A=0.0", init_params(arch, 0), {}), ("A=0.5", init_params(arch, 1) * 1e300, {})]
    with pytest.raises(NumericError, match="predictions at A=0.5 are not finite"):
        _score(arch, x, np.zeros(n), np.zeros(n), points)
    assert len(scored) == 1 and np.isfinite(np.frombuffer(scored[0])).all()


def test_compare_to_grid_trains_the_grid_at_the_lines_architecture(monkeypatch):
    train, test = split(synth_biased(400, 3, 0.5, 0.3, 1.0, seed=0), 0.25, 0)
    config = TrainConfig(epochs=1, batch_size=64, seed=0)
    arch = MlpArchitecture(3, (8,))
    model = train_subspace(train, config, arch=arch)
    archs, train_fixed = [], baseline.train_fixed

    def spy(*args, **kwargs):
        fm = train_fixed(*args, **kwargs)
        archs.append(fm.arch)
        return fm

    monkeypatch.setattr(baseline, "train_fixed", spy)
    compare_to_grid(train, test, config, alpha_grid=[0.0, 1.0], fairness_grid=[0.0, 1.0],
                    model=model)
    assert archs == [arch, arch]


def test_alpha_sweep_and_compare_to_grid_equal_a_predict_loop():
    # a 600-row test split: one full CHUNK and a shorter rest
    train, test = split(synth_biased(2400, 3, 0.5, 0.3, 1.0, seed=0), 0.25, 0)
    assert CHUNK < test.n < 2 * CHUNK
    config = TrainConfig(epochs=1, batch_size=256, seed=4)
    grid = [0.0, 0.3, 0.5, 1.0]
    model = train_subspace(train, config)

    def evaluate(pred, **fields):
        return replace(evaluate_predictions(pred, test.labels, test.sensitive), **fields)

    assert alpha_sweep(model, test, grid) == [
        evaluate(predict(model, a, test.features), alpha=a, seed=4) for a in grid]
    _, fixed_records, _, _ = compare_to_grid(train, test, config, alpha_grid=[0.0, 1.0],
                                             fairness_grid=[0.0, 1.0], model=model)
    assert fixed_records == [
        evaluate(predict_fixed(fm, test.features), fairness_weight=fm.fairness_weight,
                 seed=int(fm.train_meta["config.seed"]))
        for fm in sweep_fixed(train, config, [0.0, 1.0])]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_alpha_sweep_serves_a_lone_last_row_in_a_multi_row_chunk(seed, monkeypatch):
    # 513 rows: a last CHUNK of one row would take BLAS's matrix-vector
    # kernel, whose sums differ in the last bits from the same row's in a
    # multi-row forward; predict serves the same pieces, so the rule itself
    # is pinned by test_serve_is_byte_equal_to_one_allocating_forward.
    test = synth_biased(CHUNK + 1, 6, 0.5, 0.4, 1.0, seed=seed)
    arch = MlpArchitecture(6)
    model = SubspaceModel(arch, init_params(arch, seed), init_params(arch, seed + 1))
    preds, evaluate = [], evaluation._evaluate

    def spy(pred, y, cells):
        preds.append(pred.copy())
        return evaluate(pred, y, cells)

    monkeypatch.setattr(evaluation, "_evaluate", spy)
    alpha_sweep(model, test)
    assert len(preds) == len(DEFAULT_ALPHA_GRID)
    for a, pred in zip(DEFAULT_ALPHA_GRID, preds):
        assert pred.tobytes() == predict(model, a, test.features).tobytes(), a


@pytest.mark.parametrize("n, bounds", _PIECES.values(), ids=_PIECES)
def test_predict_and_predict_fixed_forward_in_the_sweeps_pieces(n, bounds):
    arch = MlpArchitecture(6, (32, 16))
    x = np.random.default_rng(n).standard_normal((n, 6))
    model = SubspaceModel(arch, init_params(arch, 0), init_params(arch, 1))
    fixed = FixedModel(arch, init_params(arch, 2), 0.5)
    theta = interpolate(model.w_acc, model.w_fair, 0.3)
    assert predict(model, 0.3, x).tobytes() == _forward_pieces(arch, theta, x, bounds)
    assert predict_fixed(fixed, x).tobytes() == _forward_pieces(arch, fixed.weights, x, bounds)


# Run in a child process under OpenBLAS's Haswell kernels, whose GEMM gives a
# row other bits in a call with another row count: alpha_sweep equals predict
# only because both forward the same pieces. Prints the kernel, then the
# number of (architecture, seed, alpha) vectors that differ.
_SWEEP_EQUALS_PREDICT = """
from fairline import evaluation
from fairline.data import synth_biased
from fairline.model import MlpArchitecture, init_params
from fairline.subspace import SubspaceModel, predict
from bits import blas_core

preds, evaluate = [], evaluation._evaluate
evaluation._evaluate = lambda pred, y, cells: preds.append(pred.copy()) or evaluate(pred, y, cells)
grid, differ = [k / 10 for k in range(11)], 0
for hidden in [(256,), (32, 16), (64, 64), (16, 8, 4)]:
    arch = MlpArchitecture(6, hidden)
    for seed in range(4):
        test = synth_biased(1500, 6, 0.5, 0.4, 1.0, seed=seed)
        model = SubspaceModel(arch, init_params(arch, seed), init_params(arch, seed + 1))
        preds.clear()
        evaluation.alpha_sweep(model, test, grid)
        differ += sum(p.tobytes() != predict(model, a, test.features).tobytes()
                      for a, p in zip(grid, preds, strict=True))
print(blas_core(), differ)
"""


def _dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(sys.platform != "linux"
                    or platform.machine().lower() not in ("x86_64", "amd64")
                    or not _dynamic_openblas(),
                    reason="needs Linux (bits.blas_core reads /proc/self/maps) and an "
                           "x86-64 OpenBLAS built with DYNAMIC_ARCH")
def test_alpha_sweep_equals_predict_under_the_haswell_kernel():
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(str(root / d) for d in ("src", "scripts"))
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", _SWEEP_EQUALS_PREDICT], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["Haswell", "0"]


def _small_compare():
    train, test = split(synth_biased(1200, 3, 0.5, 0.3, 1.0, seed=0), 0.25, 0)
    return train, test, TrainConfig(epochs=1, batch_size=256, seed=4), dict(
        alpha_grid=[0.0, 0.5, 1.0], fairness_grid=[0.0, 0.5, 1.0])


def test_compare_to_grid_trains_the_line_in_the_pool_with_the_same_records():
    train, test, config, grids = _small_compare()
    line, fixed, gap, _ = compare_to_grid(train, test, config, **grids, jobs=1)
    pooled = compare_to_grid(train, test, config, **grids, jobs=2)
    assert pooled[:3] == (line, fixed, gap)
    assert pooled[3] is not None and pooled[3] > 0


def test_compare_to_grid_dead_line_worker_raises_fairline_error(monkeypatch):
    # a line trained in this process would end the test run here instead
    def dies(*args, **kwargs):
        os._exit(9)

    monkeypatch.setattr(baseline, "train_subspace", dies)  # forked workers inherit it
    train, test, config, grids = _small_compare()
    with pytest.raises(FairlineError, match="worker process died"):
        compare_to_grid(train, test, config, **grids, jobs=2)


def test_a_warm_alpha_sweep_takes_few_page_faults():
    # A forward that allocated a (2000, 256) pre-activation and activation per
    # layer made a warm 21-alpha sweep take about 41k minor faults: the heap
    # handed the two freed 4 MB arrays back after every alpha.
    test = synth_biased(2000, 6, 0.5, 0.4, 1.0, seed=0)
    arch = MlpArchitecture(test.features.shape[1], (256,))
    model = SubspaceModel(arch, init_params(arch, 0), init_params(arch, 1))
    alpha_sweep(model, test)  # warm-up: features, allocator pools
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    alpha_sweep(model, test)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 2000, f"a warm 21-alpha sweep took {faults} minor faults"


def test_alpha_sweep_memory_does_not_grow_with_the_split():
    # one allocating forward over these 8000 rows holds a 16 MB activation;
    # the CHUNK-row workspace is 2 MB whatever the split
    test = synth_biased(8000, 6, 0.5, 0.4, 1.0, seed=0)
    arch = MlpArchitecture(test.features.shape[1], (256,))
    model = SubspaceModel(arch, init_params(arch, 0), init_params(arch, 1))
    tracemalloc.start()
    try:
        alpha_sweep(model, test, [0.0, 0.5, 1.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"a sweep of 8000 rows peaked at {peak / 2**20:.1f} MB"
