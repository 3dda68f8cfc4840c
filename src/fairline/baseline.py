"""Fixed-penalty training: one weight vector per fairness strength.

train_fixed minimizes bce + fairness_weight * fairness_gap through the
subspace trainer's own epoch/batch loop with a single endpoint: no mixing
ratio, no diversity regularizer, one Adam state. fairness_weight = 0 is plain
empirical risk minimization. sweep_fixed trains one independently
initialized model per grid value, which is the multi-model competitor the
single subspace run replaces; with jobs > 1 it trains them in forked worker
processes, with bit-identical results in grid order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from numbers import Integral

import numpy as np

from . import checkpoint as ckpt
from .data import Dataset
from .errors import CheckpointError, ParameterError, ShapeError
from .model import MlpArchitecture, Workspace, forward
from .subspace import TrainConfig, _task_gradient, _train_loop
from .tensor import limit_blas_threads

# Grid of penalty strengths 0.05 .. 1.00 in steps of 0.05, plus 0 for the
# empirical-risk-minimization anchor.
DEFAULT_FAIRNESS_GRID = tuple(k / 20 for k in range(21))


def check_fairness_grid(grid, param: str = "fairness_grid") -> list[float]:
    """The fairness-grid rule: non-empty, every value finite and >= 0; returns
    floats. param names the values in the error."""
    grid = [float(a) for a in grid]
    if not grid:
        raise ParameterError("must be non-empty", param=param)
    for a in grid:
        if not (np.isfinite(a) and a >= 0):
            raise ParameterError(f"value {a} must be >= 0 and finite", param=param)
    return grid


def check_jobs(jobs) -> int:
    """The worker-count rule: an integer >= 1."""
    if not (isinstance(jobs, Integral) and jobs >= 1):
        raise ParameterError(f"must be an integer >= 1, got {jobs!r}", param="jobs")
    return int(jobs)


@dataclass
class FixedModel:
    arch: MlpArchitecture
    weights: np.ndarray
    fairness_weight: float
    train_meta: dict[str, str] = field(default_factory=dict)
    wall_time_s: float | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.weights.shape != (self.arch.param_count,):
            raise ShapeError("weight length does not match the architecture")


@dataclass
class FixedBatchGradients:
    g_theta: np.ndarray
    loss_ce: float
    loss_fair: float | None
    fairness_skipped: bool


def fixed_batch_gradients(arch: MlpArchitecture, weights: np.ndarray,
                          x: np.ndarray, y: np.ndarray, s: np.ndarray,
                          fairness_weight: float, metric: str,
                          workspace: Workspace | None = None) -> FixedBatchGradients:
    g, loss_ce, loss_fair = _task_gradient(arch, weights, x, y, s, metric,
                                           fairness_weight, workspace=workspace)
    return FixedBatchGradients(g, loss_ce, loss_fair, loss_fair is None)


def train_fixed(train: Dataset, config: TrainConfig, fairness_weight: float,
                arch: MlpArchitecture | None = None, probe=None) -> FixedModel:
    """Train a single weight vector at one fixed penalty strength.

    fairness_weight overrides config.fairness_weight. The run is the
    one-endpoint case of the subspace training loop: same batching, seeding,
    Adam settings and empty-group skip policy, one weight vector initialized
    from config.seed. probe, if given, is called as probe(epoch, batch_index,
    bg) with the FixedBatchGradients of every batch before the update.
    """
    check_fairness_grid([fairness_weight], param="fairness_weight")

    def step(arch, weights, x, y, s, workspace):
        bg = fixed_batch_gradients(arch, weights[0], x, y, s, fairness_weight,
                                   config.fairness_metric, workspace=workspace)
        return bg, (bg.g_theta,), (bg,)

    arch, (weights,), meta, wall_time_s = _train_loop(
        train, config, arch, (config.seed,), step, probe,
        label=f"fixed A={fairness_weight:g} ")
    meta["fixed.fairness_weight"] = repr(float(fairness_weight))
    return FixedModel(arch, weights, float(fairness_weight), meta,
                      wall_time_s=wall_time_s)


def sweep_fixed(train: Dataset, config: TrainConfig,
                grid=DEFAULT_FAIRNESS_GRID,
                arch: MlpArchitecture | None = None, jobs: int = 1) -> list[FixedModel]:
    """One independently trained model per grid value, seeded base + index.

    Results are ordered by grid index. jobs = 1 trains them one after
    another in this process. jobs > 1 trains them in min(jobs, len(grid))
    forked worker processes, which inherit train and arch instead of
    receiving them pickled and run their BLAS on one thread each; each task
    sends its seeded config and grid value, and each model comes back
    bit-identical to the in-process run. An error in a worker is raised
    here, the first in grid order.
    """
    grid = check_fairness_grid(grid)
    workers = min(check_jobs(jobs), len(grid))
    tasks = [(replace(config, seed=config.seed + i), a) for i, a in enumerate(grid)]
    if workers == 1:
        return [train_fixed(train, cfg, a, arch=arch) for cfg, a in tasks]
    # Imported here: the pool machinery adds about 2 MB to every process that
    # imports fairline, and only a pooled sweep needs it.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_inherit, initargs=(train, arch)) as pool:
        return list(pool.map(_train_task, tasks))


# The training set and architecture of a sweep_fixed worker process.
_worker_data: tuple[Dataset, MlpArchitecture | None] | None = None


def _inherit(train: Dataset, arch: MlpArchitecture | None) -> None:
    global _worker_data
    _worker_data = (train, arch)
    limit_blas_threads(1)


def _train_task(task: tuple[TrainConfig, float]) -> FixedModel:
    train, arch = _worker_data
    config, fairness_weight = task
    return train_fixed(train, config, fairness_weight, arch=arch)


def predict_fixed(model: FixedModel, x: np.ndarray) -> np.ndarray:
    pred, _ = forward(model.arch, model.weights, x)
    return pred


def save_fixed_checkpoint(model: FixedModel, path) -> None:
    ckpt.write_checkpoint(path, ckpt.KIND_SINGLE, model.arch, [model.weights],
                          model.train_meta)


def load_fixed_checkpoint(path) -> FixedModel:
    arch, arrays, meta = ckpt.read_checkpoint(path, ckpt.KIND_SINGLE)
    raw = meta.get("fixed.fairness_weight")
    try:
        (fairness_weight,) = check_fairness_grid([float(raw)], param="fixed.fairness_weight")
    except (TypeError, ValueError, ParameterError):
        raise CheckpointError("fixed.fairness_weight is not a finite number >= 0: "
                              f"{raw!r}") from None
    return FixedModel(arch, arrays[0], fairness_weight, meta)
