import os
import statistics
import time

import numpy as np
import pytest

from fairline import baseline
from fairline.baseline import (
    DEFAULT_FAIRNESS_GRID,
    check_fairness_grid,
    predict_fixed,
    save_fixed_checkpoint,
    sweep_fixed,
    train_fixed,
)
from fairline.data import split, synth_biased
from fairline.errors import CheckpointError, FairlineError, NumericError, ParameterError
from fairline.evaluation import evaluate_predictions
from fairline.model import MlpArchitecture
from fairline.subspace import TrainConfig, train_subspace
from fairline.tensor import blas_threads

ARCH = MlpArchitecture(3, (8,))


def quick_data(seed=0, noise=1.0, n=1200):
    ds = synth_biased(n, 3, 0.5, 0.4, noise, seed=seed)
    return split(ds, 0.25, seed=seed)


def test_erm_learns_separable_data():
    train, test = quick_data(seed=1, noise=0.2)
    cfg = TrainConfig(epochs=6, batch_size=64, learning_rate=0.01, seed=1)
    model = train_fixed(train, cfg, 0.0, arch=ARCH)
    rec = evaluate_predictions(predict_fixed(model, test.features),
                               test.labels, test.sensitive)
    assert rec.error_rate < 0.05


def test_penalty_reduces_group_gap_median_over_seeds():
    diffs = []
    for seed in range(5):
        train, test = quick_data(seed=seed)
        cfg = TrainConfig(epochs=6, batch_size=64, learning_rate=0.01, seed=seed)
        erm = train_fixed(train, cfg, 0.0, arch=ARCH)
        fair = train_fixed(train, cfg, 1.0, arch=ARCH)
        dp_erm = evaluate_predictions(predict_fixed(erm, test.features),
                                      test.labels, test.sensitive).dp_relaxed
        dp_fair = evaluate_predictions(predict_fixed(fair, test.features),
                                       test.labels, test.sensitive).dp_relaxed
        diffs.append(dp_erm - dp_fair)
    assert statistics.median(diffs) > 0.0


def test_train_fixed_deterministic():
    train, _ = quick_data()
    cfg = TrainConfig(epochs=2, batch_size=128, seed=4)
    a = train_fixed(train, cfg, 0.5, arch=ARCH)
    b = train_fixed(train, cfg, 0.5, arch=ARCH)
    assert np.array_equal(a.weights, b.weights)
    assert a.train_meta == b.train_meta


def test_train_fixed_rejects_bad_weight():
    train, _ = quick_data()
    cfg = TrainConfig(epochs=1, seed=0)
    with pytest.raises(ParameterError):
        train_fixed(train, cfg, -0.5, arch=ARCH)


@pytest.mark.parametrize("grid", [[], [float("nan")], [0.0, float("inf")], [-0.5], ["a"]],
                         ids=["empty", "nan", "inf", "negative", "not-a-number"])
def test_fairness_grid_rule_runs_before_any_training(grid):
    with pytest.raises(ParameterError) as exc:
        check_fairness_grid(grid)
    assert exc.value.param == "fairness_grid"
    # no dataset: a check that ran after the first model's training would not
    # raise ParameterError
    with pytest.raises(ParameterError):
        sweep_fixed(None, TrainConfig(epochs=1, seed=0), grid, arch=ARCH)
    if grid:
        with pytest.raises(ParameterError) as exc:
            train_fixed(None, TrainConfig(epochs=1, seed=0), grid[-1], arch=ARCH)
        assert exc.value.param == "fairness_weight"


def test_default_grid_has_21_points():
    assert len(DEFAULT_FAIRNESS_GRID) == 21
    assert DEFAULT_FAIRNESS_GRID[0] == 0.0
    assert DEFAULT_FAIRNESS_GRID[-1] == 1.0


def test_sweep_counts_seeds_and_meta():
    train, _ = quick_data(n=400)
    cfg = TrainConfig(epochs=1, batch_size=128, seed=100)
    models = sweep_fixed(train, cfg, [0.0, 0.5, 1.0], arch=ARCH)
    assert len(models) == 3
    assert [m.fairness_weight for m in models] == [0.0, 0.5, 1.0]
    assert [m.train_meta["config.seed"] for m in models] == ["100", "101", "102"]
    assert [m.train_meta["fixed.fairness_weight"] for m in models] == ["0.0", "0.5", "1.0"]


def test_sweep_rejects_empty_grid():
    train, _ = quick_data(n=400)
    with pytest.raises(ParameterError):
        sweep_fixed(train, TrainConfig(epochs=1, seed=0), [], arch=ARCH)


def test_sweep_in_worker_processes_matches_in_process():
    train, _ = quick_data(n=400)
    cfg = TrainConfig(epochs=2, batch_size=64, seed=7)
    grid = [0.0, 0.25, 0.5, 1.0]
    local = sweep_fixed(train, cfg, grid, arch=ARCH)
    pooled = sweep_fixed(train, cfg, grid, arch=ARCH, jobs=2)
    assert [m.fairness_weight for m in pooled] == grid
    for a, b in zip(local, pooled):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.train_meta == b.train_meta
        assert a.fairness_weight == b.fairness_weight
        assert b.wall_time_s > 0
    # more workers than grid values: one worker per value
    wide = sweep_fixed(train, cfg, grid[:3], arch=ARCH, jobs=8)
    assert [m.weights.tobytes() for m in wide] == [m.weights.tobytes() for m in local[:3]]


@pytest.mark.parametrize("jobs", [0, 1.5, -1, "2", 2.0])
def test_jobs_rule_runs_before_any_training(jobs):
    # no dataset: a check that ran after training started would fail otherwise
    with pytest.raises(ParameterError) as exc:
        sweep_fixed(None, TrainConfig(epochs=1, seed=0), [0.0, 1.0], arch=ARCH, jobs=jobs)
    assert exc.value.param == "jobs"


def test_worker_divergence_raises_numeric_error():
    # the same error type as the in-process run, raised in the caller
    train, _ = quick_data(n=400)
    cfg = TrainConfig(epochs=3, batch_size=16, seed=0, learning_rate=1e308)
    with pytest.raises(NumericError):
        sweep_fixed(train, cfg, [0.0, 1.0], arch=ARCH, jobs=2)


def test_dead_worker_raises_fairline_error(monkeypatch):
    # a worker that exits without a result (as an OOM kill does) is a package
    # error, not concurrent.futures' BrokenProcessPool
    def dies_at_half(train, config, fairness_weight, **kwargs):
        if fairness_weight == 0.5:
            os._exit(9)
        return train_fixed(train, config, fairness_weight, **kwargs)

    monkeypatch.setattr(baseline, "train_fixed", dies_at_half)  # forked workers inherit it
    train, _ = quick_data(n=400)
    with pytest.raises(FairlineError, match="a training worker process died"):
        sweep_fixed(train, TrainConfig(epochs=1, seed=0), [0.0, 0.5, 1.0], arch=ARCH, jobs=2)


def _thread_count_after_training(train, config, fairness_weight, **kwargs):
    train_fixed(train, config, fairness_weight, **kwargs)
    return len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(blas_threads() is None, reason="no OpenBLAS thread setter found")
def test_grid_workers_run_on_one_thread(monkeypatch):
    # A worker that set its own BLAS thread count started an OpenBLAS helper
    # thread, which spun against the other worker; a worker forked while
    # this process is capped at one thread starts none.
    monkeypatch.setattr(baseline, "train_fixed", _thread_count_after_training)
    train, _ = quick_data(n=400)
    counts = sweep_fixed(train, TrainConfig(epochs=1, seed=0), [0.0, 0.5, 1.0], arch=ARCH,
                         jobs=2)
    assert counts == [1, 1, 1]


@pytest.mark.skipif(blas_threads() is None, reason="no OpenBLAS thread setter found")
def test_pooled_sweep_restores_this_process_blas_threads():
    train, _ = quick_data(n=400)
    before = blas_threads()
    sweep_fixed(train, TrainConfig(epochs=1, seed=0), [0.0, 1.0], arch=ARCH, jobs=2)
    assert blas_threads() == before


def test_sweep_total_time_tracks_per_run_time():
    train, _ = quick_data(n=800)
    cfg = TrainConfig(epochs=2, batch_size=128, seed=0)
    train_fixed(train, cfg, 0.5, arch=ARCH)  # warm caches
    t0 = time.perf_counter()
    models = sweep_fixed(train, cfg, [0.2, 0.5, 0.8], arch=ARCH)
    total = time.perf_counter() - t0
    per_run = sum(m.wall_time_s for m in models)
    # total ~ grid size x single-run time: the sweep adds no hidden work
    assert 0.4 * per_run < total < 2.5 * per_run


def test_fixed_vs_subspace_batch0_gradient_agreement(line_batches, fixed_batches):
    # fixed training at A=1 and subspace training pinned at alpha=1 with the
    # diversity term off follow the same loss expression; giving the fixed run
    # the fairness endpoint's init seed and a shared shuffle seed makes the
    # batch-0 gradients comparable, and the alpha=1 routing factor is 1.
    train, _ = quick_data()
    seed = 11
    cfg_sub = TrainConfig(epochs=1, batch_size=128, seed=seed, fixed_alpha=1.0,
                          diversity_weight=0.0, shuffle_seed=seed)
    cfg_fix = TrainConfig(epochs=1, batch_size=128, seed=seed + 1, shuffle_seed=seed)
    train_subspace(train, cfg_sub, arch=ARCH)
    train_fixed(train, cfg_fix, 1.0, arch=ARCH)
    g_sub = line_batches[0][1].task[1]
    g_fix = fixed_batches[0].g_theta
    denom = np.maximum(np.abs(g_fix), 1e-12)
    assert np.max(np.abs(g_sub - g_fix) / denom) < 1e-10


def test_fixed_training_batches_carry_the_one_row_record(fixed_batches):
    train, _ = quick_data(n=400)
    train_fixed(train, TrainConfig(epochs=1, batch_size=128, seed=2), 0.5, arch=ARCH)
    assert fixed_batches
    for bg in fixed_batches:
        assert bg.task.shape == bg.grads.shape == (1, ARCH.param_count)
        assert np.array_equal(bg.task[0], bg.g_theta)
        assert np.array_equal(bg.grads[0], bg.g_theta)
        assert bg.loss_reg is None


def test_subspace_overhead_bounded():
    train, _ = quick_data(n=4000)
    cfg = TrainConfig(epochs=3, seed=0)
    train_fixed(train, cfg, 1.0)  # warm caches for both code paths
    train_subspace(train, cfg)
    # Each side is the min of 3 runs, as in criterion 5: one scheduling
    # stall on a loaded machine must not decide the ratio.
    t_fixed = min(timed(lambda: train_fixed(train, cfg, 1.0)) for _ in range(3))
    t_sub = min(timed(lambda: train_subspace(train, cfg)) for _ in range(3))
    assert t_sub <= 2.0 * t_fixed, f"{t_sub:.3f}s vs {t_fixed:.3f}s"


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_checkpoint_kinds_not_interchangeable(tmp_path):
    train, _ = quick_data(n=400)
    cfg = TrainConfig(epochs=1, batch_size=128, seed=2)
    fixed_path = tmp_path / "fixed.ckpt"
    save_fixed_checkpoint(train_fixed(train, cfg, 0.3, arch=ARCH), fixed_path)
    from fairline.subspace import load_checkpoint
    with pytest.raises(CheckpointError, match="kind 1, expected 0"):
        load_checkpoint(fixed_path)
