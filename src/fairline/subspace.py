"""Training an accuracy/fairness endpoint pair and serving the line between.

Per batch: one mixing ratio alpha is drawn uniformly from [0, 1] (shared by
the whole batch), the interpolated weights theta = (1 - alpha) * w_acc +
alpha * w_fair are evaluated, the batch loss is

    bce + fairness_weight * alpha * fairness_gap + diversity_weight * sq_cosine

and the theta-gradient of the task part is routed to the endpoints with
factors (1 - alpha) and alpha; the diversity regularizer contributes its own
analytic gradients directly. The endpoints train as the two rows of one
(2, m) weight array under one Adam state. At inference time any alpha in
[0, 1] picks a point on the learned line.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import checkpoint as ckpt
from .data import Dataset, batches
from .errors import (
    EmptyGroupError, NumericError, ParameterError, ShapeError, check_integer, check_real)
from .losses import FAIRNESS_METRICS, bce, fairness_loss, squared_cosine
from .model import MlpArchitecture, Workspace, backward, forward, init_params

logger = logging.getLogger(__name__)

# Entropy tag separating the per-batch alpha stream from the permutation
# streams (which are seeded with two-element sequences).
_ALPHA_STREAM = (271828, 0)

SKIP_WARN_FRACTION = 0.2


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 512
    learning_rate: float = 0.001
    fairness_weight: float = 1.0  # penalty strength at the fairness endpoint
    diversity_weight: float = 1.0  # weight of the endpoint-diversity regularizer
    fairness_metric: str = "dp"
    seed: int = 0
    fixed_alpha: float | None = None  # None: sample uniformly per batch
    shuffle_seed: int | None = None  # None: reuse seed

    def __post_init__(self):
        if check_integer(self.epochs, "epochs") < 1:
            raise ParameterError("must be >= 1", param="epochs")
        if check_integer(self.batch_size, "batch_size") < 2:
            raise ParameterError("must be >= 2", param="batch_size")
        # Real fields are kept as the Python float check_real returns, so a
        # numpy-typed value trains and is recorded as an equal float would be.
        lr = check_real(self.learning_rate, "learning_rate")
        if not (np.isfinite(lr) and lr > 0):
            raise ParameterError("must be positive and finite", param="learning_rate")
        object.__setattr__(self, "learning_rate", lr)
        for name in ("fairness_weight", "diversity_weight"):
            v = check_real(getattr(self, name), name)
            if not (np.isfinite(v) and v >= 0):
                raise ParameterError("must be >= 0 and finite", param=name)
            object.__setattr__(self, name, v)
        if self.fairness_metric not in FAIRNESS_METRICS:
            raise ParameterError(f"must be one of {FAIRNESS_METRICS}",
                                 param="fairness_metric")
        if check_integer(self.seed, "seed") < 0:
            raise ParameterError("must be non-negative", param="seed")
        if self.fixed_alpha is not None:
            object.__setattr__(self, "fixed_alpha", check_real(self.fixed_alpha, "fixed_alpha"))
            if not 0.0 <= self.fixed_alpha <= 1.0:
                raise ParameterError("must be in [0, 1]", param="fixed_alpha")
        if self.shuffle_seed is not None and check_integer(self.shuffle_seed, "shuffle_seed") < 0:
            raise ParameterError("must be non-negative", param="shuffle_seed")

    def meta_snapshot(self) -> dict[str, str]:
        """Deterministic key=value view of the config for checkpoint metadata:
        one config.<field> key per field, floats by repr, None as empty."""
        return {f"config.{f.name}": _meta_text(getattr(self, f.name))
                for f in fields(self)}


def _meta_text(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


@dataclass
class AdamState:
    """Adam moments of one weight array of any shape; beta1=0.9,
    beta2=0.999, eps=1e-8. Every operation is elementwise, so one state over
    a (k, m) array steps each row exactly as a state of its own would."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    # Two scratch arrays of the moments' shape, so that a step allocates
    # only its result.
    _scratch: np.ndarray = field(init=False, repr=False, compare=False)

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __post_init__(self):
        self._scratch = np.empty((2, *self.m.shape))

    @classmethod
    def zeros(cls, shape) -> "AdamState":
        return cls(np.zeros(shape), np.zeros(shape))

    def apply(self, w: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        """One Adam step: the updated weights, as a new array of w's shape.
        The moments update in place and every intermediate goes to a scratch
        array, in the order of the textbook form m = b1 * m + (1 - b1) * g;
        v = b2 * v + (1 - b2) * g * g; w - lr * m_hat / (sqrt(v_hat) + eps),
        so the result is bit-identical to it. Updating w in place too read
        slower end to end, so the result keeps its own array."""
        self.step += 1
        term, denom = self._scratch
        self.m *= self.BETA1
        self.m += np.multiply(1.0 - self.BETA1, grad, out=term)
        self.v *= self.BETA2
        np.multiply(1.0 - self.BETA2, grad, out=term)
        self.v += np.multiply(term, grad, out=term)
        np.divide(self.v, 1.0 - self.BETA2 ** self.step, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.EPS
        np.divide(self.m, 1.0 - self.BETA1 ** self.step, out=term)
        np.multiply(lr, term, out=term)
        return np.subtract(w, np.divide(term, denom, out=term))


@dataclass
class SubspaceModel:
    arch: MlpArchitecture
    w_acc: np.ndarray  # accuracy-optimum endpoint (alpha = 0)
    w_fair: np.ndarray  # fairness-optimum endpoint (alpha = 1)
    train_meta: dict[str, str] = field(default_factory=dict)
    # Measured training time; runtime diagnostic only, never serialized, so
    # checkpoints stay bit-identical across same-seed runs.
    wall_time_s: float | None = field(default=None, compare=False)

    def __post_init__(self):
        m = self.arch.param_count
        if self.w_acc.shape != (m,) or self.w_fair.shape != (m,):
            raise ShapeError("endpoint lengths do not match the architecture")


def interpolate(w1: np.ndarray, w2: np.ndarray, alpha: float) -> np.ndarray:
    """Componentwise (1 - alpha) * w1 + alpha * w2 for alpha in [0, 1].

    Evaluated in the branched lerp form (anchor + factor * difference,
    anchored at the nearer endpoint) so that alpha = 0 returns w1 exactly,
    alpha = 1 returns w2 exactly, and w1 == w2 returns that vector exactly
    for every alpha; the naive two-product form misses the last identity by
    one ulp for some (alpha, w) pairs.
    """
    if w1.shape != w2.shape:
        raise ShapeError(f"interpolate: length mismatch {w1.shape} vs {w2.shape}")
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"must be in [0, 1], got {alpha}", param="alpha")
    # One allocation, then in place: the same bits as w1 + alpha * (w2 - w1),
    # since IEEE multiplication and addition commute.
    if alpha <= 0.5:
        d = np.subtract(w2, w1)
        d *= alpha
        d += w1
    else:
        d = np.subtract(w1, w2)
        d *= 1.0 - alpha
        d += w2
    return d


@dataclass
class BatchGradients:
    """Gradients and loss parts of one training batch of a (k, m) weight
    array: k = 2 for the endpoint pair, k = 1 for a fixed model."""

    g_theta: np.ndarray  # d(task loss)/d(theta), shape (m,)
    task: np.ndarray  # (k, m): g_theta routed to each row, (1 - alpha) and alpha
    grads: np.ndarray  # (k, m): task + diversity parts; what Adam applies
    loss_ce: float
    loss_fair: float | None  # None when the batch lacked a required group cell
    loss_reg: float | None  # None for k = 1: no diversity regularizer


def _task_gradient(arch: MlpArchitecture, theta: np.ndarray, x: np.ndarray,
                   y: np.ndarray, s: np.ndarray, metric: str, penalty: float,
                   workspace: Workspace | None = None
                   ) -> tuple[np.ndarray, float, float | None]:
    """Gradient of bce + penalty * fairness_gap at theta and the loss parts.

    A batch lacking a group cell the metric needs contributes no fairness
    term; its fairness loss comes back as None. The workspace, if given,
    holds the forward and backward activations (see fairline.model).
    """
    pred, cache = forward(arch, theta, x, workspace=workspace)
    ce = bce(pred, y)
    dpred = ce.grad_pred  # a new array, so it takes the fairness term in place
    loss_fair: float | None = None
    try:
        fl = fairness_loss(metric, pred, y, s)
        loss_fair = fl.value
        dpred += penalty * fl.grad_pred
    except EmptyGroupError:
        pass
    return backward(arch, theta, cache, dpred), ce.value, loss_fair


def batch_gradients(arch: MlpArchitecture, w_acc: np.ndarray, w_fair: np.ndarray,
                    alpha: float, x: np.ndarray, y: np.ndarray, s: np.ndarray,
                    config: TrainConfig, workspace: Workspace | None = None
                    ) -> BatchGradients:
    """One batch of the subspace objective: loss parts, theta-gradient, and
    the (2, m) endpoint gradients, routed task part plus the directly-added
    regularizer gradients. Each row is written in place, with the products
    and the sum of the textbook form, so the bits are the same."""
    theta = interpolate(w_acc, w_fair, alpha)
    g_theta, loss_ce, loss_fair = _task_gradient(
        arch, theta, x, y, s, config.fairness_metric, config.fairness_weight * alpha,
        workspace=workspace)
    task = np.empty((2, g_theta.shape[0]))
    np.multiply(1.0 - alpha, g_theta, out=task[0])
    np.multiply(alpha, g_theta, out=task[1])
    reg = squared_cosine(w_acc, w_fair)
    grads = np.empty_like(task)
    np.multiply(config.diversity_weight, reg.grad_w1, out=grads[0])
    np.multiply(config.diversity_weight, reg.grad_w2, out=grads[1])
    grads += task
    return BatchGradients(g_theta, task, grads, loss_ce, loss_fair, reg.value)


def _train_loop(train: Dataset, config: TrainConfig, arch: MlpArchitecture | None,
                seeds: tuple[int, ...], step, label: str = ""
                ) -> tuple[MlpArchitecture, np.ndarray, dict[str, str], float]:
    """The epoch/batch loop shared by the subspace and the fixed trainer.

    The weights are one (k, m) array W, row i initialized from seeds[i],
    under one Adam state, and one model Workspace for the run's batch size
    serves every batch. Each epoch takes the rows in the order of its
    data.batches once, so each batch's x, y and s are contiguous slices:
    the rows, in order, of indexing by the batch's indices.
    step(arch, W, x, y, s, workspace) returns the batch's BatchGradients,
    whose grads Adam applies to W; a batch whose loss_fair is None counts as
    a fairness skip. Returns the architecture, the trained W, the metadata
    shared by both checkpoint kinds (the config, train's feature transform
    and the batch counters), and the wall time.
    """
    t0 = time.perf_counter()
    if arch is None:
        arch = MlpArchitecture(train.dim)
    if arch.input_dim != train.dim:
        raise ShapeError("architecture input_dim does not match the dataset")
    W = np.stack([init_params(arch, seed) for seed in seeds])
    adam = AdamState.zeros(W.shape)
    shuffle_seed = config.seed if config.shuffle_seed is None else config.shuffle_seed
    workspace = Workspace(arch, min(config.batch_size, train.n))

    total_batches = 0
    skipped_batches = 0
    for epoch in range(config.epochs):
        ce_sum = fair_sum = 0.0
        epoch_skips = 0
        order = batches(train, config.batch_size, shuffle_seed, epoch)
        perm = np.concatenate(order)
        xs, ys, ss = train.features[perm], train.labels[perm], train.sensitive[perm]
        hi = 0
        for idx in order:
            lo, hi = hi, hi + len(idx)
            bg = step(arch, W, xs[lo:hi], ys[lo:hi], ss[lo:hi], workspace)
            if not all(math.isfinite(v) for v in (bg.loss_ce, bg.loss_fair, bg.loss_reg)
                       if v is not None):
                raise NumericError(f"non-finite loss at epoch {epoch}: ce={bg.loss_ce} "
                                   f"fair={bg.loss_fair} reg={bg.loss_reg}")
            W = adam.apply(W, bg.grads, config.learning_rate)
            ce_sum += bg.loss_ce
            if bg.loss_fair is None:
                epoch_skips += 1
            else:
                fair_sum += bg.loss_fair
        fair_n = len(order) - epoch_skips
        total_batches += len(order)
        skipped_batches += epoch_skips
        if not np.all(np.isfinite(W)):
            raise NumericError(f"non-finite weights after epoch {epoch}")
        reg_text = "" if bg.loss_reg is None else f" reg={bg.loss_reg:.6f}"
        logger.info(
            "%sepoch %d: mean_ce=%.6f mean_fair=%.6f%s fairness_skips=%d",
            label, epoch, ce_sum / len(order),
            fair_sum / fair_n if fair_n else float("nan"), reg_text, epoch_skips,
        )

    meta = config.meta_snapshot()
    meta.update(train.transform.to_meta())
    meta.update({
        "epochs_completed": str(config.epochs),
        "batches_total": str(total_batches),
        "fairness_skipped_batches": str(skipped_batches),
    })
    return arch, W, meta, time.perf_counter() - t0


def train_subspace(train: Dataset, config: TrainConfig,
                   arch: MlpArchitecture | None = None) -> SubspaceModel:
    """Train the endpoint pair on one dataset.

    The accuracy endpoint initializes from config.seed, the fairness endpoint
    from config.seed + 1. Batches missing a group cell required by the
    fairness metric contribute no fairness term; the occurrence count lands in
    train_meta and a warning fires if more than 20% of batches skipped.
    """
    alpha_rng = np.random.default_rng([config.seed, *_ALPHA_STREAM])

    def step(arch, W, x, y, s, workspace):
        alpha = (config.fixed_alpha if config.fixed_alpha is not None
                 else float(alpha_rng.uniform()))
        return batch_gradients(arch, W[0], W[1], alpha, x, y, s, config,
                               workspace=workspace)

    arch, W, meta, wall_time_s = _train_loop(
        train, config, arch, (config.seed, config.seed + 1), step)
    total = int(meta["batches_total"])
    skipped = int(meta["fairness_skipped_batches"])
    skip_warning = total > 0 and skipped > SKIP_WARN_FRACTION * total
    if skip_warning:
        logger.warning("fairness term skipped in %d of %d batches", skipped, total)
    meta["skip_warning"] = "1" if skip_warning else "0"
    return SubspaceModel(arch, W[0], W[1], meta, wall_time_s=wall_time_s)


def predict(model: SubspaceModel, alpha: float, x: np.ndarray) -> np.ndarray:
    """Forward pass at the interpolated weights for the chosen trade-off.

    A row's prediction can differ by a few ulp with the number of rows in
    x: BLAS multiplies one row by a matrix-vector kernel and more rows by a
    matrix-matrix one, which sum in another order. So predict(model, a,
    x[i:i + 1]) need not equal predict(model, a, x)[i] bit for bit."""
    theta = interpolate(model.w_acc, model.w_fair, alpha)
    pred, _ = forward(model.arch, theta, x)
    return pred


def save_checkpoint(model: SubspaceModel, path) -> None:
    ckpt.write_checkpoint(path, ckpt.KIND_PAIR, model.arch,
                          [model.w_acc, model.w_fair], model.train_meta)


def load_checkpoint(path) -> SubspaceModel:
    arch, arrays, meta = ckpt.read_checkpoint(path)
    return SubspaceModel(arch, arrays[0], arrays[1], meta)
