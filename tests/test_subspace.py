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


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_interpolate_returns_a_fresh_array_and_leaves_the_endpoints(alpha):
    # the lerp works in place on its own array: it must never write through
    # w1 or w2, nor hand back one of them at alpha 0 or 1
    w1 = np.random.default_rng(0).standard_normal(20)
    w2 = np.random.default_rng(1).standard_normal(20)
    before1, before2 = w1.tobytes(), w2.tobytes()
    got = interpolate(w1, w2, alpha)
    assert got is not w1 and got is not w2
    assert not np.shares_memory(got, w1) and not np.shares_memory(got, w2)
    assert w1.tobytes() == before1 and w2.tobytes() == before2
    got[:] = 7.0
    assert w1.tobytes() == before1 and w2.tobytes() == before2


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
    dict(seed=-1), dict(seed=True),
    dict(epochs=2.0), dict(batch_size=16.0), dict(seed=1.5),
    dict(learning_rate="0.1"), dict(fairness_weight=None), dict(learning_rate=True),
    dict(learning_rate=10**400), dict(fairness_weight="0.5"),
])
def test_train_config_validation(kwargs):
    base = dict(epochs=1)
    base.update(kwargs)
    with pytest.raises(ParameterError) as exc:
        TrainConfig(**base)
    assert exc.value.param == next(iter(kwargs))  # the name the CLI maps to a flag


def test_numpy_integers_train_like_python_integers():
    i = np.int64
    ds = synth_biased(i(100), i(3), 0.5, 0.4, 1.0, seed=i(1))
    cfg = TrainConfig(epochs=i(1), batch_size=i(32), seed=np.uint8(2))
    assert all(type(getattr(cfg, name)) is int for name in ("epochs", "batch_size", "seed"))
    got = train_subspace(ds, cfg, arch=MlpArchitecture(i(3), (np.int32(4),)))
    want = train_subspace(synth_biased(100, 3, 0.5, 0.4, 1.0, seed=1),
                          TrainConfig(epochs=1, batch_size=32, seed=2),
                          arch=ARCH)
    assert got.arch == ARCH
    assert got.w_acc.tobytes() == want.w_acc.tobytes()
    assert got.w_fair.tobytes() == want.w_fair.tobytes()
    assert got.train_meta == want.train_meta


def test_meta_snapshot_pinned():
    # every checkpoint carries these keys: a new config field changes them all
    assert TrainConfig(epochs=1).meta_snapshot() == {
        "config.epochs": "1", "config.batch_size": "512",
        "config.learning_rate": "0.001", "config.fairness_weight": "1.0",
        "config.diversity_weight": "1.0", "config.fairness_metric": "dp",
        "config.seed": "0",
    }
    cfg = TrainConfig(epochs=3, batch_size=128, learning_rate=0.1 + 0.2,
                      fairness_weight=0.5, diversity_weight=2.0,
                      fairness_metric="eodd", seed=5)
    assert cfg.meta_snapshot() == {
        "config.epochs": "3", "config.batch_size": "128",
        "config.learning_rate": "0.30000000000000004",
        "config.fairness_weight": "0.5", "config.diversity_weight": "2.0",
        "config.fairness_metric": "eodd", "config.seed": "5",
    }


def test_numpy_reals_record_the_metadata_of_equal_python_floats():
    # a float32 0.3 is the float 0.30000001192092896, which training uses
    typed = TrainConfig(epochs=1, learning_rate=np.float64(0.01),
                        fairness_weight=np.float32(0.3), diversity_weight=np.int64(2))
    plain = TrainConfig(epochs=1, learning_rate=0.01, fairness_weight=0.30000001192092896,
                        diversity_weight=2.0)
    assert typed.meta_snapshot() == plain.meta_snapshot()
    assert typed.meta_snapshot()["config.fairness_weight"] == "0.30000001192092896"
    assert all(type(getattr(typed, name)) is float for name in
               ("learning_rate", "fairness_weight", "diversity_weight"))


# ------------------------------------------------- gradient routing

def test_routing_factors_applied_exactly(line_batches, line_parts):
    # what Adam applies is the textbook form, bit for bit: the theta-gradient
    # times (1 - alpha) and alpha, plus diversity_weight times each
    # endpoint's squared-cosine gradient
    ds = small_dataset()
    for weight in (0.0, 0.37, 1.0):
        line_batches.clear()
        train_subspace(ds, TrainConfig(epochs=1, batch_size=16, seed=3,
                                       diversity_weight=weight), arch=ARCH)
        assert len(line_batches) == 4
        for args, bg in line_batches:
            alpha = args[3]
            g, reg = line_parts(*args)
            want = np.stack(((1.0 - alpha) * g + weight * reg.grad_w1,
                             alpha * g + weight * reg.grad_w2))
            assert bg.grads.tobytes() == want.tobytes()
            if weight == 0.0:
                assert np.array_equal(bg.grads[0], (1.0 - alpha) * g)
                assert np.array_equal(bg.grads[1], alpha * g)
            assert (1.0 - alpha) + alpha == 1.0


def test_degenerate_alpha_zeroes_task_gradients(line_batches, line_parts, force_alpha):
    ds = small_dataset()
    cfg = TrainConfig(epochs=1, batch_size=16, seed=3)
    for alpha, row in ((0.0, 1), (1.0, 0)):
        force_alpha(alpha)
        line_batches.clear()
        train_subspace(ds, cfg, arch=ARCH)
        assert [args[3] for args, _ in line_batches] == [alpha] * 4
        for args, bg in line_batches:
            _, reg = line_parts(*args)
            reg_row = (reg.grad_w1, reg.grad_w2)[row]
            assert np.array_equal(bg.grads[row], cfg.diversity_weight * reg_row)


def test_fixed_alpha_zero_without_regularizer_freezes_fairness_endpoint(force_alpha):
    ds = small_dataset()
    cfg = TrainConfig(epochs=2, batch_size=16, seed=5, diversity_weight=0.0)
    force_alpha(0.0)
    model = train_subspace(ds, cfg, arch=ARCH)
    assert np.array_equal(model.w_fair, init_params(ARCH, cfg.seed + 1))
    assert not np.array_equal(model.w_acc, init_params(ARCH, cfg.seed))


def test_fixed_alpha_one_without_regularizer_freezes_accuracy_endpoint(force_alpha):
    ds = small_dataset()
    cfg = TrainConfig(epochs=2, batch_size=16, seed=5, diversity_weight=0.0)
    force_alpha(1.0)
    model = train_subspace(ds, cfg, arch=ARCH)
    assert np.array_equal(model.w_acc, init_params(ARCH, cfg.seed))
    assert not np.array_equal(model.w_fair, init_params(ARCH, cfg.seed + 1))


def test_fixed_alpha_zero_with_regularizer_moves_fairness_endpoint_by_reg_only(
        line_batches, line_parts, force_alpha):
    ds = small_dataset()
    cfg = TrainConfig(epochs=1, batch_size=16, seed=5, diversity_weight=1.0)
    force_alpha(0.0)
    model = train_subspace(ds, cfg, arch=ARCH)
    for args, bg in line_batches:
        _, reg = line_parts(*args)
        assert np.array_equal(bg.grads[1], reg.grad_w2)  # the regularizer's alone
        assert np.any(bg.grads[1] != 0.0)
    assert not np.array_equal(model.w_fair, init_params(ARCH, cfg.seed + 1))


def test_adam_step_is_the_textbook_update():
    # Kingma & Ba's update, written out: every step's weights and moments
    # match it bit for bit, over gradients scaled from 1e-9 to 1e5
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.001
    rng = np.random.default_rng(29)
    for shape in ((1, ARCH.param_count), (2, ARCH.param_count)):
        adam = AdamState.zeros(shape)
        w = rng.standard_normal(shape)
        m, v = np.zeros(shape), np.zeros(shape)
        want = w.copy()
        for t in range(1, 61):
            g = rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 6)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            want = want - lr * m_hat / (np.sqrt(v_hat) + eps)
            w = adam.apply(w, g, lr)
            assert adam.step == t
            assert w.tobytes() == want.tobytes()
            assert adam.m.tobytes() == m.tobytes() and adam.v.tobytes() == v.tobytes()


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
    # any Real is served as the float it equals
    for alpha, same in ((np.float64(0.3), 0.3), (np.float32(0.25), 0.25), (1, 1.0)):
        assert predict(model, alpha, x).tobytes() == predict(model, same, x).tobytes()
    # a bool or an array is not a number, whatever its size: as alpha_sweep
    for alpha in (1.2, float("nan"), "0.5", None, [0.5], True, False, np.True_,
                  np.array(0.5), np.array([0.5]), np.array([0.2, 0.7])):
        with pytest.raises(ParameterError) as exc:
            predict(model, alpha, x)
        assert exc.value.param == "alpha"


def test_one_row_predict_is_forward_at_the_interpolated_weights():
    model = train_subspace(small_dataset(), TrainConfig(epochs=1, batch_size=16, seed=2),
                           arch=ARCH)
    rng = np.random.default_rng(5)
    x = small_dataset().features
    for alpha, row in zip(rng.uniform(size=200), rng.integers(len(x), size=200)):
        one = x[row:row + 1]
        got = predict(model, alpha, one)
        want = forward(ARCH, interpolate(model.w_acc, model.w_fair, alpha), one)[0]
        assert got.shape == (1,)
        assert got.tobytes() == want.tobytes()



def test_one_row_predict_is_within_a_few_ulp_of_the_multi_row_predict():
    # BLAS multiplies one row by a matrix-vector kernel and several rows by a
    # matrix-matrix one, which sum in another order, so row i of a multi-row
    # predict and a 1-row predict of row i need not be the same bits. At this
    # size (400 rows, 2 epochs, hidden width 256, 100 rows x 11 alphas), seeds
    # 0-23 read at most 5 ulp apart, mostly 2, on OpenBLAS 0.3.31 (SkylakeX).
    for seed in (0, 1, 2):
        ds = synth_biased(400, 6, 0.5, 0.4, 1.0, seed=seed)
        model = train_subspace(ds, TrainConfig(epochs=2, batch_size=64, seed=seed))
        x = ds.features[:100]
        for alpha in np.linspace(0.0, 1.0, 11):
            rows = predict(model, alpha, x)
            one = np.concatenate([predict(model, alpha, x[i:i + 1]) for i in range(len(x))])
            ulp = np.spacing(np.maximum(rows, one))
            assert np.all(np.abs(one - rows) <= 16 * ulp)


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
    assert bg.loss_fair is None
    # gradient equals the pure cross-entropy route
    from fairline.losses import bce
    from fairline.model import backward
    theta = interpolate(w1, w2, 0.5)
    pred, cache = forward(ARCH, theta, x)
    g_ce = backward(ARCH, theta, cache, bce(pred, y).grad_pred)
    assert np.array_equal(bg.grads[0], 0.5 * g_ce)
    assert np.array_equal(bg.grads[1], 0.5 * g_ce)


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
        return BatchGradients(np.zeros((1, m)), 0.0, None, None)

    _train_loop(train, config, ARCH, (config.seed,), step)
    want = [idx for epoch in range(2) for idx in batches(train, 16, config.seed, epoch)]
    assert len(want[-1]) == 70 % 16  # a short last batch
    assert len(seen) == len(want)
    for (x, y, s), idx in zip(seen, want):
        assert x.tobytes() == train.features[idx].tobytes()
        assert y.tobytes() == train.labels[idx].tobytes()
        assert s.tobytes() == train.sensitive[idx].tobytes()
