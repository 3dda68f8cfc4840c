"""Fixed-penalty training: one weight vector per fairness strength.

train_fixed minimizes bce + fairness_weight * fairness_gap through the
subspace trainer's own epoch/batch loop with a (1, m) weight array: no
mixing ratio, no diversity regularizer. fairness_weight = 0 is plain
empirical risk minimization. sweep_fixed trains one independently
initialized model per grid value, which is the multi-model competitor the
single subspace run replaces; with jobs > 1 it trains them in forked worker
processes, with bit-identical results in grid order. The same pool also
takes the line itself when evaluation.compare_to_grid trains it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import checkpoint as ckpt
from .data import Dataset
from .errors import FairlineError, ParameterError, ShapeError, check_integer, check_real
from .model import MlpArchitecture, Workspace, _serve, forward
from .subspace import (
    BatchGradients, TrainConfig, _task_gradient, _train_loop, train_subspace)
from .tensor import blas_threads, limit_blas_threads

# Grid of penalty strengths 0.05 .. 1.00 in steps of 0.05, plus 0 for the
# empirical-risk-minimization anchor.
DEFAULT_FAIRNESS_GRID = tuple(k / 20 for k in range(21))


def check_fairness_grid(grid, param: str = "fairness_grid") -> list[float]:
    """The fairness-grid rule: non-empty, every value a number, finite and
    >= 0; returns floats. param names the values in the error."""
    grid = [check_real(a, param) for a in grid]
    if not grid:
        raise ParameterError("must be non-empty", param=param)
    for a in grid:
        if not (np.isfinite(a) and a >= 0):
            raise ParameterError(f"value {a} must be >= 0 and finite", param=param)
    return grid


def check_jobs(jobs) -> int:
    """The worker-count rule: an integer >= 1."""
    if check_integer(jobs, "jobs") < 1:
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


def fixed_batch_gradients(arch: MlpArchitecture, weights: np.ndarray,
                          x: np.ndarray, y: np.ndarray, s: np.ndarray,
                          fairness_weight: float, metric: str,
                          workspace: Workspace | None = None) -> BatchGradients:
    """The k = 1 BatchGradients of one batch: grads is the task loss's
    gradient at weights as a (1, m) view, and loss_reg is None."""
    g, loss_ce, loss_fair = _task_gradient(arch, weights, x, y, s, metric,
                                           fairness_weight, workspace=workspace)
    return BatchGradients(g[None], loss_ce, loss_fair, None)


def train_fixed(train: Dataset, config: TrainConfig, fairness_weight: float,
                arch: MlpArchitecture | None = None) -> FixedModel:
    """Train a single weight vector at one fixed penalty strength.

    fairness_weight overrides config.fairness_weight. The run is the
    one-endpoint case of the subspace training loop: same batching, seeding,
    Adam settings and empty-group skip policy, with a (1, m) weight array
    initialized from config.seed.
    """
    (fairness_weight,) = check_fairness_grid([fairness_weight], param="fairness_weight")

    def step(arch, W, x, y, s, workspace):
        return fixed_batch_gradients(arch, W[0], x, y, s, fairness_weight,
                                     config.fairness_metric, workspace=workspace)

    arch, (weights,), meta, wall_time_s = _train_loop(
        train, config, arch, (config.seed,), step,
        label=f"fixed A={fairness_weight:g} ")
    meta["fixed.fairness_weight"] = repr(fairness_weight)
    return FixedModel(arch, weights, fairness_weight, meta,
                      wall_time_s=wall_time_s)


def sweep_fixed(train: Dataset, config: TrainConfig,
                grid=DEFAULT_FAIRNESS_GRID,
                arch: MlpArchitecture | None = None, jobs: int = 1) -> list[FixedModel]:
    """One independently trained model per grid value, seeded base + index.

    Results are ordered by grid index. jobs = 1 trains them one after
    another in this process. jobs > 1 trains them in min(jobs, len(grid))
    forked worker processes, which inherit train and arch instead of
    receiving them pickled. This process caps its BLAS at one thread while
    the pool runs, so the workers inherit the cap and start no BLAS helper
    thread, then restores its own count. Each task sends its seeded config
    and grid value, and each model comes back bit-identical to the
    in-process run. An error in a worker is raised here, the first in grid
    order; a worker that dies raises FairlineError.
    """
    grid = check_fairness_grid(grid)
    return _train_runs(train, _grid_tasks(config, grid), check_jobs(jobs), arch)


def _grid_tasks(config: TrainConfig, grid: list[float]) -> list[tuple[TrainConfig, float]]:
    """sweep_fixed's tasks: per grid value, its config seeded base + index."""
    return [(replace(config, seed=config.seed + i), a) for i, a in enumerate(grid)]


def _train_runs(train: Dataset, tasks: list, jobs: int,
                arch: MlpArchitecture | None = None) -> list:
    """Train every task, in order: a TrainConfig is a line (train_subspace),
    a (config, fairness_weight) pair a fixed model (train_fixed). Runs in
    this process when min(jobs, len(tasks)) == 1, else in a fork pool of
    that many workers (see sweep_fixed); the results are the same."""
    workers = min(jobs, len(tasks))
    if workers == 1:
        return [_train_run(train, arch, task) for task in tasks]
    # Imported here: the pool machinery adds about 2 MB to every process that
    # imports fairline, and only a pooled run needs it.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # A worker that sets its own BLAS thread count starts a helper thread,
    # which spins against the other workers; one forked from a process
    # capped at one thread starts none.
    threads = blas_threads()
    limit_blas_threads(1)
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_inherit, initargs=(train, arch)) as pool:
            return list(pool.map(_pooled_run, tasks))
    except BrokenProcessPool:
        raise FairlineError("a training worker process died before returning its model") from None
    finally:
        if threads is not None:
            limit_blas_threads(threads)


def _train_run(train: Dataset, arch: MlpArchitecture | None, task):
    if isinstance(task, TrainConfig):
        return train_subspace(train, task, arch=arch)
    config, fairness_weight = task
    return train_fixed(train, config, fairness_weight, arch=arch)


# The training set and architecture of a _train_runs worker process.
_worker_data: tuple[Dataset, MlpArchitecture | None] | None = None


def _inherit(train: Dataset, arch: MlpArchitecture | None) -> None:
    global _worker_data
    _worker_data = (train, arch)


def _pooled_run(task):
    return _train_run(*_worker_data, task)


def predict_fixed(model: FixedModel, x: np.ndarray) -> np.ndarray:
    """The model's predictions on x, served in model.CHUNK-row pieces as
    compare's grid scoring serves them; a 1-row x goes straight to forward,
    as in predict. Outside tests only the benchmark's trace list
    (perfbench/spans.py) names it; compare scores grid models through
    evaluation._score."""
    if x.ndim == 2 and len(x) == 1:
        return forward(model.arch, model.weights, x)[0]
    return _serve(model.arch, model.weights, x)


def save_fixed_checkpoint(model: FixedModel, path) -> None:
    """Write the model as a kind-1 checkpoint, which nothing reads back.
    Outside tests only the benchmark's train-line check (perfbench/
    workloads.py) calls it, to compare a fixed model's bytes run to run."""
    ckpt.write_checkpoint(path, ckpt.KIND_SINGLE, model.arch, [model.weights],
                          model.train_meta)
