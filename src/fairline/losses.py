"""Loss values and their gradients.

bce and fairness_loss (the relaxed group-gap metrics of METRIC_GAPS) return
a gradient with respect to the predictions (to be routed through
model.backward); squared_cosine is a function of two raw weight vectors and
returns analytic gradients for both.
Gradients of |x| use the zero subgradient at x = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyGroupError, ParameterError, ShapeError

BCE_CLAMP = 1e-12
NORM_GUARD = 1e-12


@dataclass
class LossValue:
    value: float
    grad_pred: np.ndarray | None = None
    grad_w1: np.ndarray | None = None
    grad_w2: np.ndarray | None = None


def check_lengths(*vectors: np.ndarray) -> int:
    """The common length of 1-D vectors; ShapeError unless they share it."""
    n = vectors[0].shape[0]
    for v in vectors:
        if v.shape != (n,):
            raise ShapeError(f"length mismatch: {[v.shape for v in vectors]}")
    return n


def bce(pred: np.ndarray, y: np.ndarray) -> LossValue:
    """Mean binary cross-entropy with predictions clamped to
    [1e-12, 1 - 1e-12]; the gradient is evaluated at the clamped values."""
    n = check_lengths(pred, y)
    p = np.clip(pred, BCE_CLAMP, 1.0 - BCE_CLAMP)
    value = -float(np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
    grad = (p - y) / (p * (1.0 - p)) / n
    return LossValue(value, grad_pred=grad)


Cells = tuple[np.ndarray, np.ndarray]

# Each relaxed fairness metric is the sum, in this order, of |group_gap| over
# its row sets: "all" rows, the "positive" rows (y == 1) or the "negative"
# rows (every other y).
METRIC_GAPS = {"dp": ("all",), "eo": ("positive",), "eodd": ("positive", "negative")}
FAIRNESS_METRICS = tuple(METRIC_GAPS)


def group_cells(row_set: str, y: np.ndarray, s: np.ndarray) -> Cells:
    """Row indices of group 0 and of group 1 (s == 0 and s == 1) within one
    METRIC_GAPS row set."""
    g0, g1 = s == 0.0, s == 1.0
    if row_set != "all":
        pos = y == 1.0
        rows = pos if row_set == "positive" else ~pos
        g0 &= rows
        g1 &= rows
    return np.flatnonzero(g0), np.flatnonzero(g1)


def group_gap(pred: np.ndarray, cells: Cells, what: str) -> float:
    """mean(pred[cells[0]]) - mean(pred[cells[1]]), signed, each mean a sum
    over its count: the one formula behind every group-gap metric, loss and
    held-out evaluation alike. Raises EmptyGroupError, naming what, when a
    cell has no rows."""
    i0, i1 = cells
    if len(i0) == 0 or len(i1) == 0:
        raise EmptyGroupError(f"{what}: a group cell has no samples")
    return float(np.sum(pred[i0]) / len(i0) - np.sum(pred[i1]) / len(i1))


def _mean_gap(pred: np.ndarray, cells: Cells, what: str) -> tuple[float, np.ndarray]:
    """|group_gap| and its prediction gradient."""
    delta = group_gap(pred, cells, what)
    sgn = float(np.sign(delta))
    i0, i1 = cells
    grad = np.zeros_like(pred)
    grad[i0] = sgn / len(i0)
    grad[i1] = -sgn / len(i1)
    return abs(delta), grad


def fairness_loss(metric: str, pred: np.ndarray, y: np.ndarray, s: np.ndarray) -> LossValue:
    """The relaxed fairness metric (a METRIC_GAPS key) and its prediction
    gradient. dp is in [0, 1], as is eo; eodd is in [0, 2]. Raises
    EmptyGroupError, naming the metric and the row set, when a group cell
    has no rows."""
    if metric not in METRIC_GAPS:
        raise ParameterError(f"unknown fairness metric '{metric}', "
                             f"expected one of {FAIRNESS_METRICS}")
    check_lengths(pred, y, s)
    gaps = [_mean_gap(pred, group_cells(r, y, s), f"{metric}, {r} rows")
            for r in METRIC_GAPS[metric]]
    # Summed onto the first gradient, not onto zeros: 0.0 + -0.0 is 0.0.
    grad = gaps[0][1]
    for _, g in gaps[1:]:
        grad += g
    return LossValue(sum(v for v, _ in gaps), grad_pred=grad)


def squared_cosine(w1: np.ndarray, w2: np.ndarray) -> LossValue:
    """Squared cosine similarity of two flat weight vectors, with analytic
    gradients for both. Minimizing it pushes the vectors toward orthogonality.

    A 1e-12 guard is added to each squared norm, so zero vectors are safe.
    """
    if w1.shape != w2.shape or w1.ndim != 1:
        raise ShapeError(f"squared_cosine: shape mismatch {w1.shape} vs {w2.shape}")
    d = float(np.dot(w1, w2))
    a = float(np.dot(w1, w1)) + NORM_GUARD
    b = float(np.dot(w2, w2)) + NORM_GUARD
    value = d * d / (a * b)
    common = 2.0 * d / (a * b)
    grad_w1 = common * (w2 - (d / a) * w1)
    grad_w2 = common * (w1 - (d / b) * w2)
    return LossValue(value, grad_w1=grad_w1, grad_w2=grad_w2)
