import numpy as np
import pytest

from fairline.errors import ShapeError
from fairline.losses import bce
from fairline.model import (
    MlpArchitecture,
    Workspace,
    backward,
    forward,
    init_params,
    layer_views,
)

# sigmoid(0.4), frozen from a 50-digit mpmath evaluation
SIGMOID_0_4 = 0.598687660112452


def test_param_count():
    arch = MlpArchitecture(4, (256,))
    assert arch.param_count == 4 * 256 + 256 + 256 * 1 + 1


def test_init_biases_zero_and_weights_bounded():
    arch = MlpArchitecture(4, (256,))
    params = init_params(arch, seed=0)
    (w1, b1), (w2, b2) = layer_views(arch, params)
    assert np.all(b1 == 0.0) and np.all(b2 == 0.0)
    bound1 = np.sqrt(6.0 / (4 + 256))
    bound2 = np.sqrt(6.0 / (256 + 1))
    assert np.all(np.abs(w1) <= bound1)
    assert np.all(np.abs(w2) <= bound2)


def test_init_deterministic():
    arch = MlpArchitecture(5, (16,))
    assert np.array_equal(init_params(arch, 7), init_params(arch, 7))
    assert not np.array_equal(init_params(arch, 7), init_params(arch, 8))


def test_pack_unpack_bijective():
    arch = MlpArchitecture(3, (8, 4))
    params = init_params(arch, 1)
    views = layer_views(arch, params)
    repacked = np.concatenate([np.concatenate([w.ravel(), b]) for w, b in views])
    assert np.array_equal(repacked, params)


def test_zero_params_give_half():
    arch = MlpArchitecture(3, (8,))
    pred, _ = forward(arch, np.zeros(arch.param_count), np.random.default_rng(0).standard_normal((5, 3)))
    assert np.all(pred == 0.5)


def test_toy_net_hand_computed():
    # 2 -> 1 -> 1 net: z1 = 0.3 - 0.1 + 0.5 = 0.7, relu -> 0.7,
    # logit = 1.4 - 1 = 0.4, prediction = sigmoid(0.4)
    arch = MlpArchitecture(2, (1,))
    params = np.array([1.0, -1.0, 0.5, 2.0, -1.0])
    pred, _ = forward(arch, params, np.array([[0.3, 0.1]]))
    assert abs(pred[0] - SIGMOID_0_4) < 1e-12


def test_identical_rows_identical_predictions():
    arch = MlpArchitecture(4, (8,))
    params = init_params(arch, 3)
    x = np.tile(np.array([[0.5, -1.0, 2.0, 0.0]]), (6, 1))
    pred, _ = forward(arch, params, x)
    assert np.all(pred == pred[0])


def test_forward_pure():
    arch = MlpArchitecture(4, (8,))
    params = init_params(arch, 3)
    x = np.random.default_rng(1).standard_normal((5, 4))
    a, _ = forward(arch, params, x)
    b, _ = forward(arch, params, x)
    assert np.array_equal(a, b)


def test_forward_shape_errors():
    arch = MlpArchitecture(4, (8,))
    params = init_params(arch, 0)
    with pytest.raises(ShapeError):
        forward(arch, params, np.zeros((3, 5)))
    with pytest.raises(ShapeError):
        forward(arch, params[:-1], np.zeros((3, 4)))
    # a workspace with too few rows, or built for other hidden widths
    with pytest.raises(ShapeError):
        forward(arch, params, np.zeros((9, 4)), workspace=Workspace(arch, 8))
    with pytest.raises(ShapeError):
        forward(arch, params, np.zeros((2, 4)),
                workspace=Workspace(MlpArchitecture(4, (6,)), 8))


def test_backward_zero_cotangent():
    arch = MlpArchitecture(3, (6,))
    params = init_params(arch, 2)
    x = np.random.default_rng(2).standard_normal((4, 3))
    _, cache = forward(arch, params, x)
    grad = backward(arch, params, cache, np.zeros(4))
    assert np.all(grad == 0.0)


def test_backward_linearity():
    arch = MlpArchitecture(3, (6,))
    params = init_params(arch, 2)
    x = np.random.default_rng(3).standard_normal((4, 3))
    _, cache = forward(arch, params, x)
    g = np.random.default_rng(4).standard_normal(4)
    assert np.allclose(backward(arch, params, cache, 3.0 * g),
                       3.0 * backward(arch, params, cache, g), rtol=1e-12)


def test_backward_shape_error():
    arch = MlpArchitecture(3, (6,))
    params = init_params(arch, 2)
    _, cache = forward(arch, params, np.zeros((4, 3)))
    with pytest.raises(ShapeError):
        backward(arch, params, cache, np.zeros(5))


def _fd_gradient(loss_of_params, params, h=1e-5):
    grad = np.zeros_like(params)
    for k in range(params.size):
        up = params.copy()
        up[k] += h
        down = params.copy()
        down[k] -= h
        grad[k] = (loss_of_params(up) - loss_of_params(down)) / (2 * h)
    return grad


def _assert_close(analytic, fd, rel=1e-4, abs_floor=1e-7):
    denom = np.maximum(np.abs(fd), np.abs(analytic))
    bad = np.abs(analytic - fd) > np.maximum(rel * denom, abs_floor)
    assert not bad.any(), f"{bad.sum()} coordinates disagree"


@pytest.mark.parametrize("seed,workspace_rows", [
    pytest.param(0, None, id="0"),
    pytest.param(1, None, id="1"),
    pytest.param(2, None, id="2"),
    pytest.param(0, 8, id="workspace"),  # 6-row batch in an 8-row workspace
])
def test_backward_matches_finite_differences(seed, workspace_rows):
    rng = np.random.default_rng(seed)
    arch = MlpArchitecture(3, (5,))
    params = init_params(arch, seed)
    x = rng.standard_normal((6, 3))
    y = (rng.random(6) < 0.5).astype(np.float64)
    ws = None if workspace_rows is None else Workspace(arch, workspace_rows)

    def loss(p):
        pred, _ = forward(arch, p, x)
        return bce(pred, y).value

    pred, cache = forward(arch, params, x, workspace=ws)
    analytic = backward(arch, params, cache, bce(pred, y).grad_pred, workspace=ws)
    _assert_close(analytic, _fd_gradient(loss, params))


def test_backward_matches_fd_for_composite_loss():
    # bce plus a group-mean-gap term, end to end through the network
    from fairline.losses import demographic_parity_gap

    rng = np.random.default_rng(10)
    arch = MlpArchitecture(4, (7,))
    params = init_params(arch, 11)
    x = rng.standard_normal((8, 4))
    y = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=np.float64)
    s = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.float64)
    a = 0.7

    def loss(p):
        pred, _ = forward(arch, p, x)
        return bce(pred, y).value + a * demographic_parity_gap(pred, s).value

    pred, cache = forward(arch, params, x)
    dpred = bce(pred, y).grad_pred + a * demographic_parity_gap(pred, s).grad_pred
    analytic = backward(arch, params, cache, dpred)
    _assert_close(analytic, _fd_gradient(loss, params))


# ------------------------------------------------------------ workspace

@pytest.mark.parametrize("rows", [6, 9])  # a full batch, and a short one
def test_workspace_bit_identical_to_allocating_path(rows):
    arch = MlpArchitecture(4, (5, 4))
    params = init_params(arch, 5)
    rng = np.random.default_rng(6)
    ws = Workspace(arch, rows)
    # an earlier batch leaves stale values in every workspace row
    forward(arch, params, rng.standard_normal((rows, 4)), workspace=ws)
    x = rng.standard_normal((6, 4))
    g = rng.standard_normal(6)

    pred, cache = forward(arch, params, x)
    grad = backward(arch, params, cache, g)
    pred_ws, cache_ws = forward(arch, params, x, workspace=ws)
    grad_ws = backward(arch, params, cache_ws, g, workspace=ws)
    assert pred_ws.tobytes() == pred.tobytes()
    assert grad_ws.tobytes() == grad.tobytes()


def test_workspace_holds_the_cached_activations():
    arch = MlpArchitecture(4, (5, 4))
    params = init_params(arch, 5)
    x = np.random.default_rng(7).standard_normal((3, 4))
    ws = Workspace(arch, 8)
    _, cache = forward(arch, params, x, workspace=ws)
    # two buffers per hidden layer, activation then activation gradient; the
    # pre-activation is computed into the activation buffer, never kept
    assert [[buf.shape for buf in bufs] for bufs in ws.layers] == [[(8, 5)] * 2, [(8, 4)] * 2]
    assert not hasattr(cache, "pre_acts")
    for li, (h_buf, _) in enumerate(ws.layers):
        assert np.shares_memory(cache.hidden[li], h_buf)
    grad = backward(arch, params, cache, np.ones(3), workspace=ws)
    assert not any(np.shares_memory(grad, buf) for bufs in ws.layers for buf in bufs)