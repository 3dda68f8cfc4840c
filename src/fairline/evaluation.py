"""Held-out metrics, alpha sweeps, Pareto frontiers, CSV reports, and the
line-versus-grid comparison.

Relaxed metrics are computed in one global pass over the full prediction
vector (no batching). Hard metrics threshold at HARD_THRESHOLD, inclusive.

alpha_sweep and compare_to_grid score a whole split per alpha or per fixed
model through _score. It serves the split through model._serve, in
model.CHUNK-row pieces through one model Workspace reused for every point,
so a sweep allocates no split-sized activations. predict and predict_fixed
serve through model._serve too: the same chunks, so the same bits, on any
BLAS whose GEMM is deterministic for a given shape. The split's group
cells are taken once, and each point's record equals evaluate_predictions'
on the same predictions. Overflow in a served model raises NumericError
after numpy's default RuntimeWarnings; the CLI turns those warnings off.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, fields, replace
from typing import get_args, get_type_hints

import numpy as np

from .baseline import (
    DEFAULT_FAIRNESS_GRID, _grid_tasks, _train_runs, check_fairness_grid, check_jobs, sweep_fixed)
from .data import Dataset, FeatureTransform, open_text
from .errors import CheckpointError, FrontierRangeError, NumericError, ParameterError, check_grid
from .losses import METRIC_GAPS, Cells, check_lengths, group_cells, group_gap
from .model import MlpArchitecture, _serve, _serve_workspace
from .subspace import SubspaceModel, TrainConfig, interpolate

logger = logging.getLogger(__name__)

DEFAULT_ALPHA_GRID = tuple(k / 20 for k in range(21))

# A prediction at or above this counts as positive in the hard metrics.
HARD_THRESHOLD = 0.5


def check_alpha_grid(grid) -> list[float]:
    """The alpha-grid rule: errors.check_grid in [0, 1]."""
    return check_grid(grid, "alpha_grid", 0.0, 1.0)


@dataclass(frozen=True)
class MetricsRecord:
    """Metrics of one evaluated point; alpha is set for subspace sweeps,
    fairness_weight (the report's A column) for fixed-training points."""

    alpha: float | None
    fairness_weight: float | None
    error_rate: float
    dp_relaxed: float
    dp_hard: float
    eo_relaxed: float
    eodd_relaxed: float
    wall_time_s: float | None = None
    seed: int | None = None


# Report column -> MetricsRecord field, in field order.
_COLUMNS = {"A" if f.name == "fairness_weight" else f.name: f.name
            for f in fields(MetricsRecord)}
REPORT_HEADER = ",".join(_COLUMNS)


def relaxed_field(metric: str) -> str:
    """The MetricsRecord field that measures a METRIC_GAPS metric."""
    return f"{metric}_relaxed"


def evaluate_predictions(pred: np.ndarray, y: np.ndarray, s: np.ndarray) -> MetricsRecord:
    """Error rate, dp_hard (dp of the predictions thresholded at
    HARD_THRESHOLD) and each METRIC_GAPS metric's relaxed value, which equals
    its fairness_loss value.

    Raises EmptyGroupError, naming the row set, when a group cell a metric
    compares has no samples.
    """
    check_lengths(pred, y, s)
    return _evaluate(pred, y, _row_set_cells(y, s))


def _row_set_cells(y: np.ndarray, s: np.ndarray) -> dict[str, Cells]:
    """Every METRIC_GAPS row set's group cells on one split, each taken once."""
    row_sets = dict.fromkeys(r for rows in METRIC_GAPS.values() for r in rows)
    return {r: group_cells(r, y, s) for r in row_sets}


def _evaluate(pred: np.ndarray, y: np.ndarray, cells: dict[str, Cells]) -> MetricsRecord:
    """evaluate_predictions over a split's _row_set_cells: each row set's gap
    is computed once, and no gradient is built."""
    hard = (pred >= HARD_THRESHOLD).astype(np.float64)
    gaps = {r: abs(group_gap(pred, c, f"{r} rows")) for r, c in cells.items()}
    return MetricsRecord(
        None, None, error_rate=float(np.mean(hard != y)),
        dp_hard=sum(abs(group_gap(hard, cells[r], f"{r} rows")) for r in METRIC_GAPS["dp"]),
        **{relaxed_field(m): sum(gaps[r] for r in rows) for m, rows in METRIC_GAPS.items()})


def _meta_seed(meta: dict[str, str]) -> int | None:
    raw = meta.get("config.seed", "")
    try:
        return int(raw) if raw else None
    except ValueError:
        raise CheckpointError(f"config.seed is not an integer: {raw!r}") from None


def _score(arch: MlpArchitecture, x: np.ndarray, y: np.ndarray, s: np.ndarray,
           points) -> list[MetricsRecord]:
    """The MetricsRecord on rows (x, y, s) of each (name, params, values)
    point, with the fields in values set. Predictions that are not all
    finite raise NumericError naming the point."""
    workspace = _serve_workspace(arch, x.shape[0])
    cells = _row_set_cells(y, s)
    records = []
    for name, params, values in points:
        pred = _serve(arch, params, x, workspace)
        if not np.isfinite(pred).all():
            raise NumericError(f"the served model's predictions at {name} are not finite")
        records.append(replace(_evaluate(pred, y, cells), **values))
    return records


def alpha_sweep(model: SubspaceModel, test: Dataset,
                grid=DEFAULT_ALPHA_GRID) -> list[MetricsRecord]:
    """Evaluate the single checkpoint at every grid alpha on identical data.

    Each alpha's predictions equal predict(model, alpha, test.features): the
    same chunks, so the same bits, on any BLAS whose GEMM is deterministic
    for a given shape. Non-finite predictions raise NumericError, naming the alpha.
    """
    grid = check_alpha_grid(grid)
    seed = _meta_seed(model.train_meta)
    return _score(model.arch, test.features, test.labels, test.sensitive,
                  ((f"alpha={a!r}", interpolate(model.w_acc, model.w_fair, a),
                    {"alpha": a, "seed": seed}) for a in grid))


def pareto_frontier(points: list[MetricsRecord], fairness_field: str
                    ) -> list[MetricsRecord]:
    """Maximal non-dominated subset under minimization of
    (error_rate, fairness_field), sorted by error_rate ascending.

    A point is dominated when another is <= on both coordinates and < on one.
    Exact ties on both coordinates keep the first occurrence.
    """
    if not points:
        raise ParameterError("pareto_frontier: empty point list")
    keyed = sorted(
        ((p.error_rate, getattr(p, fairness_field), i, p) for i, p in enumerate(points)),
        key=lambda t: (t[0], t[1], t[2]),
    )
    frontier = []
    best_fair = np.inf
    for _, fair, _, p in keyed:
        if fair < best_fair:
            frontier.append(p)
            best_fair = fair
    return frontier


def _step_value(errors: np.ndarray, fairness: np.ndarray, e: float) -> float:
    """Fairness of the last frontier point with error <= e (step curve)."""
    ix = int(np.searchsorted(errors, e, side="right")) - 1
    return float(fairness[max(ix, 0)])


def frontier_gap(f1: list[MetricsRecord], f2: list[MetricsRecord],
                 fairness_field: str) -> float:
    """Mean absolute vertical gap between two step-interpolated frontiers
    over their overlapping error-rate range, in fairness-metric units."""
    if not f1 or not f2:
        raise ParameterError("frontier_gap: empty frontier")
    e1 = np.array([p.error_rate for p in f1])
    v1 = np.array([getattr(p, fairness_field) for p in f1])
    e2 = np.array([p.error_rate for p in f2])
    v2 = np.array([getattr(p, fairness_field) for p in f2])
    lo = max(e1[0], e2[0])
    hi = min(e1[-1], e2[-1])
    if lo > hi:
        raise FrontierRangeError(
            f"error-rate ranges [{e1[0]}, {e1[-1]}] and [{e2[0]}, {e2[-1]}] do not overlap")
    if lo == hi:
        return abs(_step_value(e1, v1, lo) - _step_value(e2, v2, lo))
    cuts = np.unique(np.concatenate(
        [[lo, hi], e1[(e1 > lo) & (e1 < hi)], e2[(e2 > lo) & (e2 < hi)]]))
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        total += abs(_step_value(e1, v1, a) - _step_value(e2, v2, a)) * (b - a)
    return total / (hi - lo)


def _check_model(model: SubspaceModel, metric: str, transform: FeatureTransform) -> None:
    """CheckpointError unless model records metric as its fairness metric and
    records transform (compared key by key in its checkpoint form)."""
    key = "config.fairness_metric"
    if model.train_meta.get(key) != metric:
        raise CheckpointError(f"the model's '{key}' is {model.train_meta.get(key)!r}, "
                              f"not the grid's fairness metric {metric!r}")
    recorded = FeatureTransform.from_meta(model.train_meta, model.arch.input_dim)
    want, got = (json.loads(t.to_meta()[FeatureTransform.META_KEY])
                 for t in (recorded, transform))
    for key in want:
        if want[key] != got.get(key):
            raise CheckpointError(f"the model's feature transform differs from the "
                                  f"training split's in '{key}'")


def compare_to_grid(train: Dataset, test: Dataset, config: TrainConfig,
                    alpha_grid=DEFAULT_ALPHA_GRID,
                    fairness_grid=DEFAULT_FAIRNESS_GRID,
                    model: SubspaceModel | None = None, jobs: int = 1):
    """One line against a grid of fixed-penalty models on the same split.

    Trains the line on train unless model is given, sweeps it over
    alpha_grid, trains one fixed model per fairness_grid value (sweep_fixed
    with its seeding and jobs, at the line's architecture), and evaluates
    everything on test. With jobs > 1 a line to train is the first task of
    the fixed grid's worker pool, so that both cores stay busy; with
    jobs = 1 it trains in this process ahead of the grid. A given model
    must record config.fairness_metric and train's feature transform, else
    CheckpointError names the metric it records, says it records no
    transform or names the first transform key that differs, before any
    fixed model is trained; it is swept before the grid trains too.
    Returns (line_records, fixed_records, gap, ratio):

    - fixed_records carry A (fairness_weight) and each model's seed;
    - gap is the frontier gap over all points in the report field of
      config.fairness_metric, or None when the frontiers' error ranges do
      not overlap;
    - ratio is the line's wall time over the mean fixed-run wall time, or
      None when the model carries no wall time (loaded from a checkpoint).
      Under jobs > 1 the line and the fixed runs all time themselves in
      workers that share the cores; jobs = 1 times each run alone.
    """
    alpha_grid = check_alpha_grid(alpha_grid)
    fairness_grid = check_fairness_grid(fairness_grid)
    jobs = check_jobs(jobs)
    if model is None:
        model, *fixed_models = _train_runs(
            train, [config, *_grid_tasks(config, fairness_grid)], jobs)
        logger.info("subspace training: %.3fs", model.wall_time_s)
        line_records = alpha_sweep(model, test, alpha_grid)
    else:
        _check_model(model, config.fairness_metric, train.transform)
        line_records = alpha_sweep(model, test, alpha_grid)
        fixed_models = sweep_fixed(train, config, fairness_grid, arch=model.arch, jobs=jobs)
    fixed_records = _score(
        fixed_models[0].arch, test.features, test.labels, test.sensitive,
        ((f"A={fm.fairness_weight!r}", fm.weights,
          {"fairness_weight": fm.fairness_weight, "seed": _meta_seed(fm.train_meta)})
         for fm in fixed_models))
    fixed_total_s = sum(fm.wall_time_s for fm in fixed_models)
    logger.info("fixed training: %d models, %.3fs total", len(fixed_models),
                fixed_total_s)

    field = relaxed_field(config.fairness_metric)
    try:
        gap = frontier_gap(pareto_frontier(line_records, field),
                           pareto_frontier(fixed_records, field), field)
    except FrontierRangeError as exc:
        logger.warning("frontier gap undefined: %s", exc)
        gap = None
    ratio = (None if model.wall_time_s is None
             else model.wall_time_s / (fixed_total_s / len(fixed_models)))
    return line_records, fixed_records, gap, ratio


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.9g}"


def write_report(records: list[MetricsRecord], path) -> None:
    """CSV report, one row per record in the given order, 9 significant
    digits, missing fields empty. Byte-identical for identical records."""
    lines = [REPORT_HEADER]
    for r in records:
        lines.append(",".join(_fmt(getattr(r, name)) for name in _COLUMNS.values()))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_report(path) -> list[MetricsRecord]:
    """Parse a report written by write_report, also when re-saved with a
    UTF-8 byte-order mark. A file that is not UTF-8 text, a wrong cell count,
    or a cell that does not parse as its field's type or None, raises
    ParameterError."""
    with open_text(path, lambda exc: ParameterError(
            f"{path}: not UTF-8 text ({exc.reason})")) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines or lines[0] != REPORT_HEADER:
        raise ParameterError(f"{path}: not a report file")
    types = get_type_hints(MetricsRecord)
    records = []
    for row, ln in enumerate(lines[1:], start=1):
        cells = ln.split(",")
        if len(cells) != len(_COLUMNS):
            raise ParameterError(
                f"{path}: row {row}: expected {len(_COLUMNS)} cells, got {len(cells)}")
        values = {}
        for (column, name), cell in zip(_COLUMNS.items(), cells):
            kinds = get_args(types[name]) or (types[name],)  # e.g. (int, NoneType)
            try:
                values[name] = None if cell == "" and type(None) in kinds else kinds[0](cell)
            except ValueError:
                raise ParameterError(
                    f"{path}: row {row}: cannot parse {column}={cell!r}") from None
        records.append(MetricsRecord(**values))
    return records
