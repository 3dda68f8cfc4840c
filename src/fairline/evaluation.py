"""Held-out metrics, alpha sweeps, Pareto frontiers, CSV reports, and the
line-versus-grid comparison.

Relaxed metrics are computed in one global pass over the full prediction
vector (no batching). Hard metrics threshold at HARD_THRESHOLD, inclusive.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, fields, replace
from typing import get_args, get_type_hints

import numpy as np

from .baseline import (
    DEFAULT_FAIRNESS_GRID, check_fairness_grid, check_jobs, predict_fixed, sweep_fixed)
from .data import Dataset, FeatureTransform
from .errors import CheckpointError, FrontierRangeError, ParameterError
from .losses import demographic_parity_gap, equal_opportunity_gap, equalized_odds_gap
from .subspace import SubspaceModel, TrainConfig, predict, train_subspace

logger = logging.getLogger(__name__)

DEFAULT_ALPHA_GRID = tuple(k / 20 for k in range(21))

# A prediction at or above this counts as positive in the hard metrics.
HARD_THRESHOLD = 0.5


def check_alpha_grid(grid) -> list[float]:
    """The alpha-grid rule: non-empty, every alpha in [0, 1]; returns floats."""
    grid = [float(a) for a in grid]
    if not grid:
        raise ParameterError("must be non-empty", param="alpha_grid")
    for a in grid:
        if not 0.0 <= a <= 1.0:
            raise ParameterError(f"value {a} must be in [0, 1]", param="alpha_grid")
    return grid


# Report field that measures each training fairness metric.
_METRIC_FIELD = {"dp": "dp_relaxed", "eo": "eo_relaxed", "eodd": "eodd_relaxed"}


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


def evaluate_predictions(pred: np.ndarray, y: np.ndarray, s: np.ndarray) -> MetricsRecord:
    """Error rate plus the hard (thresholded at HARD_THRESHOLD) and relaxed
    group-gap metrics.

    Raises EmptyGroupError when a group (or group/label cell needed by the
    EO/Eodd metrics) has no samples.
    """
    hard = (pred >= HARD_THRESHOLD).astype(np.float64)
    error_rate = float(np.mean(hard != y))
    dp_hard = demographic_parity_gap(hard, s).value
    dp_relaxed = demographic_parity_gap(pred, s).value
    eo_relaxed = equal_opportunity_gap(pred, y, s).value
    eodd_relaxed = equalized_odds_gap(pred, y, s).value
    return MetricsRecord(None, None, error_rate, dp_relaxed, dp_hard,
                         eo_relaxed, eodd_relaxed)


def _meta_seed(meta: dict[str, str]) -> int | None:
    raw = meta.get("config.seed", "")
    try:
        return int(raw) if raw else None
    except ValueError:
        raise CheckpointError(f"config.seed is not an integer: {raw!r}") from None


def alpha_sweep(model: SubspaceModel, test: Dataset,
                grid=DEFAULT_ALPHA_GRID) -> list[MetricsRecord]:
    """Evaluate the single checkpoint at every grid alpha on identical data."""
    grid = check_alpha_grid(grid)
    seed = _meta_seed(model.train_meta)
    records = []
    for a in grid:
        pred = predict(model, a, test.features)
        rec = evaluate_predictions(pred, test.labels, test.sensitive)
        records.append(replace(rec, alpha=a, seed=seed))
    return records


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


def _check_transform(model: SubspaceModel, transform: FeatureTransform) -> None:
    """CheckpointError unless model records transform (compared key by key in
    its checkpoint form)."""
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
    with its seeding and jobs), and evaluates everything on test. A
    given model must record train's feature transform, else CheckpointError
    says it records none or names the first key that differs, before any
    fixed model is trained. Returns (line_records, fixed_records, gap, ratio):

    - fixed_records carry A (fairness_weight) and each model's seed;
    - gap is the frontier gap over all points in the report field of
      config.fairness_metric, or None when the frontiers' error ranges do
      not overlap;
    - ratio is the line's wall time over the mean fixed-run wall time, or
      None when the model carries no wall time (loaded from a checkpoint).
      Under jobs > 1 the fixed runs time themselves while sharing cores.
    """
    alpha_grid = check_alpha_grid(alpha_grid)
    fairness_grid = check_fairness_grid(fairness_grid)
    check_jobs(jobs)
    if model is None:
        model = train_subspace(train, config)
        logger.info("subspace training: %.3fs", model.wall_time_s)
    else:
        _check_transform(model, train.transform)
    line_records = alpha_sweep(model, test, alpha_grid)

    fixed_models = sweep_fixed(train, config, fairness_grid, jobs=jobs)
    fixed_records = []
    for fm in fixed_models:
        pred = predict_fixed(fm, test.features)
        rec = evaluate_predictions(pred, test.labels, test.sensitive)
        fixed_records.append(replace(
            rec, fairness_weight=fm.fairness_weight, seed=_meta_seed(fm.train_meta)))
    fixed_total_s = sum(fm.wall_time_s for fm in fixed_models)
    logger.info("fixed training: %d models, %.3fs total", len(fixed_models),
                fixed_total_s)

    field = _METRIC_FIELD[config.fairness_metric]
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
    """Parse a report written by write_report. A wrong cell count, or a cell
    that does not parse as its field's type or None, raises ParameterError."""
    with open(path, "r", encoding="utf-8") as fh:
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
