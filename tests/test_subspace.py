import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairline.data import Dataset, FeatureTransform, batches, synth_biased
from fairline.errors import (
    CheckpointError,
    NumericError,
    ParameterError,
    ShapeError,
)
from fairline.model import MlpArchitecture, forward, init_params
from fairline.subspace import (
    AdamState,
    BatchGradients,
    SubspaceModel,
    TrainConfig,
    batch_gradients,
    interpolate,
    load_checkpoint,
    predict,
    save_checkpoint,
    train_subspace,
    _train_loop,
)

ARCH = MlpArchitecture(3, (4,))


def small_dataset(n=64, seed=0):
    return synth_biased(max(n, 40), 3, 0.5, 0.3, 1.0, seed=seed).take(np.arange(n))


# ------------------------------------------------------ interpolate

def test_interpolate_endpoints_exact():
    w1 = np.random.default_rng(0).standard_normal(20)
    w2 = np.random.default_rng(1).standard_normal(20)
    assert np.array_equal(interpolate(w1, w2, 0.0), w1)
    assert np.array_equal(interpolate(w1, w2, 1.0), w2)


def test_interpolate_midpoint():
    got = interpolate(np.array([1.0, 0.0]), np.array([0.0, 2.0]), 0.5)
    assert np.array_equal(got, [0.5, 1.0])


@given(st.floats(min_value=0.0, max_value=1.0),
       st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=6))
def test_interpolate_degenerate_identity(alpha, vals):
    w = np.array(vals)
    assert np.array_equal(interpolate(w, w, alpha), w)


def test_interpolate_range_check():
    w = np.zeros(3)
    for a in (-0.1, 1.1):
        with pytest.raises(ParameterError):
            interpolate(w, w, a)
    with pytest.raises(ShapeError):
        interpolate(np.zeros(3), np.zeros(4), 0.5)


# ------------------------------------------------------ TrainConfig

@pytest.mark.parametrize("kwargs", [
    dict(epochs=0), dict(batch_size=1), dict(learning_rate=0.0),
    dict(learning_rate=float("nan")), dict(fairness_weight=-1.0),
    dict(diversity_weight=-0.5), dict(fairness_metric="nope"),
    dict(seed=-1), dict(fixed_alpha=1.5), dict(shuffle_seed=-2),
])
def test_train_config_validation(kwargs):
    base = dict(epochs=1)
    base.update(kwargs)
    with pytest.raises(ParameterError) as exc:
        TrainConfig(**base)
    assert exc.value.param == next(iter(kwargs))  # the name the CLI maps to a flag


def test_meta_snapshot_pinned():
    # every checkpoint carries these keys: a new config field changes them all
    assert TrainConfig(epochs=1).meta_snapshot() == {
        "config.epochs": "1", "config.batch_size": "512",
        "config.learning_rate": "0.001", "config.fairness_weight": "1.0",
        "config.diversity_weight": "1.0", "config.fairness_metric": "dp",
        "config.seed": "0", "config.fixed_alpha": "", "config.shuffle_seed": "",
    }
    cfg = TrainConfig(epochs=3, batch_size=128, learning_rate=0.1 + 0.2,
                      fairness_weight=0.5, diversity_weight=2.0,
                      fairness_metric="eodd", seed=5, fixed_alpha=0.3,
                      shuffle_seed=17)
    assert cfg.meta_snapshot() == {
        "config.epochs": "3", "config.batch_size": "128",
        "config.learning_rate": "0.30000000000000004",
        "config.fairness_weight": "0.5", "config.diversity_weight": "2.0",
        "config.fairness_metric": "eodd", "config.seed": "5",
        "config.fixed_alpha": "0.3", "config.shuffle_seed": "17",
    }


# ------------------------------------------------- gradient routing

def test_routing_factors_applied_exactly():
    ds = small_dataset()
    cfg = TrainConfig(epochs=1, batch_size=16, seed=3)
    seen = []
    train_subspace(ds, cfg, arch=ARCH,
                   probe=lambda e, b, a, bg: seen.append((a, bg)))
    assert len(seen) == 4
    for alpha, bg in seen:
        assert np.array_equal(bg.task[0], (1.0 - alpha) * bg.g_theta)
        assert np.array_equal(bg.task[1], alpha * bg.g_theta)
        assert (1.0 - alpha) + alpha == 1.0


def test_degenerate_alpha_zeroes_task_gradients():
    ds = small_dataset()
    for alpha, row in ((0.0, 1), (1.0, 0)):
        cfg = TrainConfig(epochs=1, batch_size=16, seed=3, fixed_alpha=alpha)
        seen = []
        train_subspace(ds, cfg, arch=ARCH,
                       probe=lambda e, b, a, bg: seen.append(bg))
        for bg in seen:
            assert np.all(bg.task[row] == 0.0)


def test_fixed_alpha_zero_without_regularizer_freezes_fairness_endpoint():
    ds = small_dataset()
    cfg = TrainConfig(epochs=2, batch_size=16, seed=5, fixed_alpha=0.0,
                      diversity_weight=0.0)
    model = train_subspace(ds, cfg, arch=ARCH)
    assert np.array_equal(model.w_fair, init_params(ARCH, cfg.seed + 1))
    assert not np.array_equal(model.w_acc, init_params(ARCH, cfg.seed))


def test_fixed_alpha_one_without_regularizer_freezes_accuracy_endpoint():
    ds = small_dataset()
    cfg = TrainConfig(epochs=2, batch_size=16, seed=5, fixed_alpha=1.0,
                      diversity_weight=0.0)
    model = train_subspace(ds, cfg, arch=ARCH)
    assert np.array_equal(model.w_acc, init_params(ARCH, cfg.seed))
    assert not np.array_equal(model.w_fair, init_params(ARCH, cfg.seed + 1))


def test_fixed_alpha_zero_with_regularizer_moves_fairness_endpoint_by_reg_only():
    ds = small_dataset()
    cfg = TrainConfig(epochs=1, batch_size=16, seed=5, fixed_alpha=0.0,
                      diversity_weight=1.0)
    seen = []
    model = train_subspace(ds, cfg, arch=ARCH,
                           probe=lambda e, b, a, bg: seen.append(bg))
    for bg in seen:
        assert np.all(bg.task[1] == 0.0)
        assert np.any(bg.grads[1] != 0.0)  # regularizer gradient is all that remains
    assert not np.array_equal(model.w_fair, init_params(ARCH, cfg.seed + 1))


def test_one_adam_state_over_two_rows_steps_each_row_as_its_own_state():
    # the training loop's (2, m) state against one state per endpoint; at
    # alpha = 0 without the regularizer the fairness row's gradient is zero
    rng = np.random.default_rng(7)
    m = ARCH.param_count
    W = rng.standard_normal((2, m))
    rows = [W[0].copy(), W[1].copy()]
    pair, singles = AdamState.zeros(W.shape), [AdamState.zeros(m), AdamState.zeros(m)]
    for _ in range(4):
        grads = np.stack((rng.standard_normal(m) * 10.0 ** rng.integers(-6, 3),
                          np.zeros(m)))
        W = pair.apply(W, grads, 0.001)
        rows = [a.apply(w, g, 0.001) for a, w, g in zip(singles, rows, grads)]
        assert W.shape == (2, m)
        assert W[0].tobytes() == rows[0].tobytes()
        assert W[1].tobytes() == rows[1].tobytes()


# ----------------------------------------------------- determinism

def test_training_deterministic_checkpoints(tmp_path):
    ds = small_dataset(n=80)
    cfg = TrainConfig(epochs=2, batch_size=16, seed=11)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(train_subspace(ds, cfg), p1)
    save_checkpoint(train_subspace(ds, cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_predict_matches_direct_forward():
    ds = small_dataset()
    cfg = TrainConfig(epochs=1, batch_size=16, seed=2)
    model = train_subspace(ds, cfg, arch=ARCH)
    x = ds.features[:10]
    assert np.array_equal(predict(model, 0.0, x), forward(ARCH, model.w_acc, x)[0])
    assert np.array_equal(predict(model, 1.0, x), forward(ARCH, model.w_fair, x)[0])
    assert np.array_equal(predict(model, 0.3, x), predict(model, 0.3, x))
    with pytest.raises(ParameterError):
        predict(model, 1.2, x)


# ------------------------------------------------ empty-group skips

def _skewed_dataset(n=40, n_group1=2):
    rng = np.random.default_rng(0)
    features = rng.standard_normal((n, 3))
    labels = (rng.random(n) < 0.5).astype(np.float64)
    sensitive = np.zeros(n)
    sensitive[:n_group1] = 1.0
    return Dataset(features, labels, sensitive, FeatureTransform.numeric(["x1", "x2", "x3"]))


def test_fairness_skips_counted_and_warned():
    ds = _skewed_dataset()
    cfg = TrainConfig(epochs=2, batch_size=4, seed=0)
    model = train_subspace(ds, cfg)
    total = int(model.train_meta["batches_total"])
    skipped = int(model.train_meta["fairness_skipped_batches"])
    assert total == 20
    assert skipped > 0.2 * total
    assert model.train_meta["skip_warning"] == "1"


def test_no_skips_on_balanced_data():
    ds = small_dataset(n=64)
    cfg = TrainConfig(epochs=1, batch_size=32, seed=0)
    model = train_subspace(ds, cfg)
    assert model.train_meta["skip_warning"] == "0"


def test_skipped_batch_contributes_no_fairness_gradient():
    ds = _skewed_dataset(n=40, n_group1=2)
    x = ds.features[:8]
    y = ds.labels[:8]
    s = np.zeros(8)  # single-group batch
    cfg = TrainConfig(epochs=1, batch_size=8, seed=0, diversity_weight=0.0)
    w1, w2 = init_params(ARCH, 0), init_params(ARCH, 1)
    bg = batch_gradients(ARCH, w1, w2, 0.5, x, y, s, cfg)
    assert bg.fairness_skipped and bg.loss_fair is None
    # gradient equals the pure cross-entropy route
    from fairline.losses import bce
    from fairline.model import backward
    theta = interpolate(w1, w2, 0.5)
    pred, cache = forward(ARCH, theta, x)
    g_ce = backward(ARCH, theta, cache, bce(pred, y).grad_pred)
    assert np.array_equal(bg.g_theta, g_ce)


# ------------------------------------------------- numeric failure

@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_divergence_raises_numeric_error():
    ds = small_dataset()
    cfg = TrainConfig(epochs=3, batch_size=16, seed=0, learning_rate=1e308)
    with pytest.raises(NumericError):
        train_subspace(ds, cfg, arch=ARCH)


# ----------------------------------------------------- diagnostics

def test_epoch_log_lines(caplog):
    import logging

    ds = small_dataset(n=64)
    with caplog.at_level(logging.INFO, logger="fairline.subspace"):
        train_subspace(ds, TrainConfig(epochs=2, batch_size=16, seed=0), arch=ARCH)
    lines = [r.getMessage() for r in caplog.records]
    epoch_lines = [ln for ln in lines if ln.startswith("epoch ")]
    assert len(epoch_lines) == 2
    for ln in epoch_lines:
        for token in ("mean_ce=", "mean_fair=", "reg=", "fairness_skips="):
            assert token in ln


def test_held_out_gap_shrinks_toward_fairness_end():
    # 5-seed median: the fairness endpoint beats the accuracy endpoint on the
    # relaxed demographic-parity gap of held-out data
    import statistics

    diffs = []
    for seed in range(5):
        ds = synth_biased(4000, 4, 0.5, 0.4, 1.0, seed=seed)
        train, test = split_quarter(ds, seed)
        cfg = TrainConfig(epochs=4, batch_size=256, seed=seed)
        model = train_subspace(train, cfg)
        from fairline.losses import fairness_loss
        dp0 = fairness_loss("dp", predict(model, 0.0, test.features), test.labels,
                            test.sensitive).value
        dp1 = fairness_loss("dp", predict(model, 1.0, test.features), test.labels,
                            test.sensitive).value
        diffs.append(dp0 - dp1)
    assert statistics.median(diffs) > 0.0


def split_quarter(ds, seed):
    from fairline.data import split

    return split(ds, 0.25, seed)


# -------------------------------------------------- checkpoint I/O

def trained_model(seed=1):
    return train_subspace(small_dataset(), TrainConfig(epochs=1, batch_size=16, seed=seed),
                          arch=ARCH)


def test_checkpoint_round_trip_exact(tmp_path):
    model = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.arch == model.arch
    assert loaded.w_acc.tobytes() == model.w_acc.tobytes()
    assert loaded.w_fair.tobytes() == model.w_fair.tobytes()
    assert loaded.train_meta == model.train_meta


def test_checkpoint_corrupted_checksum_rejected(tmp_path):
    model = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    blob[30] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_checkpoint_truncation_rejected(tmp_path):
    model = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_version_mismatch_rejected(tmp_path):
    import struct
    import zlib

    model = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())[:-4]
    struct.pack_into("<I", blob, 4, 99)
    body = bytes(blob)
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_arch_array_mismatch_rejected(tmp_path):
    import struct
    import zlib

    # craft a valid-CRC file whose dims disagree with the stored array length
    arch = MlpArchitecture(3, (4,))
    w = init_params(arch, 0)
    parts = [b"YODO", struct.pack("<I", 1), struct.pack("<I", 0)]
    dims = (3, 4, 1)
    parts.append(struct.pack("<I", len(dims)))
    parts.extend(struct.pack("<I", d) for d in dims)
    for arr in (w, w):
        parts.append(struct.pack("<I", arr.size + 1))  # wrong length prefix
        parts.append(np.append(arr, 0.0).astype("<f8").tobytes())
    body = b"".join(parts)
    path = tmp_path / "bad.ckpt"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CheckpointError, match="length"):
        load_checkpoint(path)


def test_subspace_model_validates_lengths():
    with pytest.raises(ShapeError):
        SubspaceModel(ARCH, np.zeros(3), np.zeros(ARCH.param_count))


# -------------------------------- end-to-end gradient sanity check

def test_routed_gradient_matches_finite_differences_end_to_end():
    rng = np.random.default_rng(0)
    arch = MlpArchitecture(3, (4,))
    cfg = TrainConfig(epochs=1, batch_size=8, seed=0, fairness_weight=0.8,
                      diversity_weight=0.5)
    w1 = init_params(arch, 0)
    w2 = init_params(arch, 1)
    x = rng.standard_normal((8, 3))
    y = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=np.float64)
    s = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.float64)
    alpha = 0.3

    from fairline.losses import bce, fairness_loss, squared_cosine

    def total_loss(a, b):
        theta = interpolate(a, b, alpha)
        pred, _ = forward(arch, theta, x)
        return (bce(pred, y).value
                + cfg.fairness_weight * alpha * fairness_loss("dp", pred, y, s).value
                + cfg.diversity_weight * squared_cosine(a, b).value)

    bg = batch_gradients(arch, w1, w2, alpha, x, y, s, cfg)
    h = 1e-5
    for target, grad in enumerate(bg.grads):
        for k in range(w1.size):
            up = [w1.copy(), w2.copy()]
            up[target][k] += h
            down = [w1.copy(), w2.copy()]
            down[target][k] -= h
            fd = (total_loss(*up) - total_loss(*down)) / (2 * h)
            assert abs(grad[k] - fd) <= max(1e-4 * max(abs(fd), abs(grad[k])), 1e-7)


def test_each_batch_holds_the_rows_of_its_indices_in_order():
    # the loop gathers each epoch's rows once and slices its batches from
    # them; a batch must still be exactly train's rows at its indices
    train = small_dataset(n=70)
    config = TrainConfig(epochs=2, batch_size=16, seed=3)
    m = ARCH.param_count
    seen = []

    def step(arch, W, x, y, s, workspace):
        seen.append((x.copy(), y.copy(), s.copy()))
        zeros = np.zeros((1, m))
        return BatchGradients(zeros[0], zeros, zeros, 0.0, None, None, True), ()

    _train_loop(train, config, ARCH, (config.seed,), step, None)
    want = [idx for epoch in range(2) for idx in batches(train, 16, config.seed, epoch)]
    assert len(want[-1]) == 70 % 16  # a short last batch
    assert len(seen) == len(want)
    for (x, y, s), idx in zip(seen, want):
        assert x.tobytes() == train.features[idx].tobytes()
        assert y.tobytes() == train.labels[idx].tobytes()
        assert s.tobytes() == train.sensitive[idx].tobytes()
