import numpy as np
import pytest

import fairline.subspace
from fairline import tensor
from fairline.baseline import train_fixed
from fairline.data import synth_biased
from fairline.errors import ParameterError, ShapeError
from fairline.losses import bce
from fairline.model import (
    MlpArchitecture,
    Workspace,
    backward,
    forward,
    init_params,
    layer_views,
)
from fairline.subspace import TrainConfig, train_subspace

# sigmoid(0.4), frozen from a 50-digit mpmath evaluation
SIGMOID_0_4 = 0.598687660112452


def test_param_count():
    arch = MlpArchitecture(4, (256,))
    assert arch.param_count == 4 * 256 + 256 + 256 * 1 + 1


@pytest.mark.parametrize("hidden_dims", [(5,), (5, 4), (5, 4, 3)])
def test_layer_spans_tile_the_parameter_vector(hidden_dims):
    arch = MlpArchitecture(3, hidden_dims)
    dims = arch.layer_dims
    spans = arch.layer_spans
    assert arch.param_count == spans[-1][1]
    assert arch.param_count == sum(fi * fo + fo for fi, fo in zip(dims[:-1], dims[1:]))
    assert spans[0][0] == 0
    assert all(prev[1] == nxt[0] for prev, nxt in zip(spans, spans[1:]))
    assert [shape for _, _, shape in spans] == [(fi + 1, fo)
                                                for fi, fo in zip(dims[:-1], dims[1:])]
    assert all(stop - start == rows * cols for start, stop, (rows, cols) in spans)


@pytest.mark.parametrize("input_dim,hidden_dims,param", [
    pytest.param(0, (4,), "input_dim", id="zero-input"),
    pytest.param(3, (0,), "hidden_dims", id="zero-width"),
    pytest.param(3.0, (4,), "input_dim", id="float-input"),
    pytest.param(3, (4.5,), "hidden_dims", id="float-width"),
])
def test_architecture_rejects_bad_widths(input_dim, hidden_dims, param):
    with pytest.raises(ParameterError) as exc:
        MlpArchitecture(input_dim, hidden_dims)
    assert exc.value.param == param


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
    analytic = backward(arch, params, cache, bce(pred, y).grad_pred)
    _assert_close(analytic, _fd_gradient(loss, params))


def test_backward_matches_fd_for_composite_loss():
    # bce plus a group-mean-gap term, end to end through the network
    from fairline.losses import fairness_loss

    rng = np.random.default_rng(10)
    arch = MlpArchitecture(4, (7,))
    params = init_params(arch, 11)
    x = rng.standard_normal((8, 4))
    y = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=np.float64)
    s = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.float64)
    a = 0.7

    def loss(p):
        pred, _ = forward(arch, p, x)
        return bce(pred, y).value + a * fairness_loss("dp", pred, y, s).value

    pred, cache = forward(arch, params, x)
    dpred = bce(pred, y).grad_pred + a * fairness_loss("dp", pred, y, s).grad_pred
    analytic = backward(arch, params, cache, dpred)
    _assert_close(analytic, _fd_gradient(loss, params))


# ------------------------------------------------------------ workspace

@pytest.mark.parametrize("rows,hidden_dims", [
    # a full batch, and a short one
    pytest.param(6, (5, 4), id="6"),
    pytest.param(9, (5, 4), id="9"),
    pytest.param(6, (5,), id="6-one-hidden-layer"),
    pytest.param(9, (5,), id="9-one-hidden-layer"),
    pytest.param(6, (), id="6-no-hidden-layer"),
    pytest.param(9, (), id="9-no-hidden-layer"),
])
def test_workspace_bit_identical_to_allocating_path(rows, hidden_dims):
    arch = MlpArchitecture(4, hidden_dims)
    params = init_params(arch, 5)
    rng = np.random.default_rng(6)
    ws = Workspace(arch, rows)
    # an earlier batch leaves stale values in every workspace row, and each
    # step's backward leaves the top mask in the activation buffer that the
    # next step's forward writes
    _, cache_stale = forward(arch, params, rng.standard_normal((rows, 4)), workspace=ws)
    backward(arch, params, cache_stale, rng.standard_normal(rows))
    for b in (6, rows, 6):
        x = rng.standard_normal((b, 4))
        g = rng.standard_normal(b)
        pred, cache = forward(arch, params, x)
        grad = backward(arch, params, cache, g)
        pred_ws, cache_ws = forward(arch, params, x, workspace=ws)
        grad_ws = backward(arch, params, cache_ws, g)
        assert pred_ws.tobytes() == pred.tobytes()
        assert grad_ws.tobytes() == grad.tobytes()


@pytest.mark.parametrize("hidden_dims", [(5, 4), (5,), ()], ids=["5x4", "5", "none"])
def test_backward_without_a_workspace_leaves_the_cache(hidden_dims):
    arch = MlpArchitecture(4, hidden_dims)
    params = init_params(arch, 5)
    rng = np.random.default_rng(8)
    _, cache = forward(arch, params, rng.standard_normal((6, 4)))
    before = [a.tobytes() for a in (cache.inputs, *cache.hidden, cache.pred)]
    backward(arch, params, cache, rng.standard_normal(6))
    assert [a.tobytes() for a in (cache.inputs, *cache.hidden, cache.pred)] == before


def test_workspace_holds_the_cached_activations():
    for hidden_dims in ((5, 4), (6, 5, 4), (5,), ()):
        _check_workspace_buffers(hidden_dims)


def _check_workspace_buffers(hidden_dims):
    arch = MlpArchitecture(4, hidden_dims)
    params = init_params(arch, 5)
    rng = np.random.default_rng(7)
    ws = Workspace(arch, 8)
    # an [x | 1] input buffer and per hidden layer a [h | 1] activation
    # buffer; the pre-activation is computed into the activation buffer,
    # never kept. Nothing else is held
    assert (ws.inputs.shape, ws.inputs.dtype) == ((8, 5), np.float64)
    assert [(buf.shape, buf.dtype) for buf in ws.hidden] == \
        [((8, width + 1), np.float64) for width in hidden_dims]
    assert set(vars(ws)) == {"arch", "rows", "inputs", "hidden"}
    # an earlier full batch leaves stale values in every workspace row
    _, stale = forward(arch, params, rng.standard_normal((8, 4)), workspace=ws)
    backward(arch, params, stale, rng.standard_normal(8))
    x = rng.standard_normal((3, 4))
    _, cache = forward(arch, params, x, workspace=ws)
    assert not hasattr(cache, "pre_acts")
    assert np.shares_memory(cache.inputs, ws.inputs)
    assert cache.inputs[:, :-1].tobytes() == x.tobytes()
    for h, h_buf in zip(cache.hidden, ws.hidden):
        assert np.shares_memory(h, h_buf)
    if hidden_dims:
        mask = (cache.hidden[-1] > 0.0).astype(np.float64)
    # backward writes no buffer but the top activation: the input and every
    # lower activation keep forward's bytes, in every row
    kept = [buf.tobytes() for buf in (ws.inputs, *ws.hidden[:-1])]
    g = rng.standard_normal(3)
    grad = backward(arch, params, cache, g)
    assert not any(np.shares_memory(grad, buf) for buf in (ws.inputs, *ws.hidden))
    assert [buf.tobytes() for buf in (ws.inputs, *ws.hidden[:-1])] == kept
    # every ones column still reads 1.0, in every row
    for buf in (ws.inputs, *ws.hidden):
        assert np.all(buf[:, -1] == 1.0)
    if not hidden_dims:
        return
    # the top activation buffer now holds its float 0/1 ReLU mask, ones
    # column included
    assert ws.hidden[-1][:3].tobytes() == mask.tobytes()


# ------------------------------------------- backward against a reference

def _reference_backward(arch, params, cache, dloss_dpred):
    """The backward pass that builds every hidden layer's dz_l: the outer
    product dz w_out^T under the output, the mask multiply, h_in.T @ dz_l
    and the row sum. Allocates, and leaves the cache as it was."""
    layers = layer_views(arch, params)
    grads = np.empty_like(params)
    grad_layers = layer_views(arch, grads)
    dz = dloss_dpred * tensor.sigmoid_grad(cache.pred)
    # the cached arrays without their ones columns
    hidden = [h[:, :-1] for h in cache.hidden]
    inputs = [cache.inputs[:, :-1], *hidden]
    gw, gb = grad_layers[-1]
    gw[...] = inputs[-1].T @ dz[:, None]
    gb[...] = np.sum(dz, keepdims=True)
    for li in range(len(hidden) - 1, -1, -1):
        if li == len(hidden) - 1:
            dh = np.multiply(dz[:, None], layers[-1][0][:, 0])
        else:
            dh = dz_l @ layers[li + 1][0].T
        dz_l = dh * (hidden[li] > 0.0)
        gw, gb = grad_layers[li]
        gw[...] = inputs[li].T @ dz_l
        gb[...] = np.sum(dz_l, axis=0)
    return grads


def _assert_matches_reference(arch, params, x, g, workspace_rows):
    ws = None if workspace_rows is None else Workspace(arch, workspace_rows)
    _, cache = forward(arch, params, x)
    ref = _reference_backward(arch, params, cache, g)
    _, cache = forward(arch, params, x, workspace=ws)
    got = backward(arch, params, cache, g)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(got))
    return got


REFERENCE_DIMS = [pytest.param((256,), id="256"), pytest.param((5,), id="5"),
                  pytest.param((32, 16), id="32x16"), pytest.param((), id="no-hidden-layer")]


def _reference_forward(arch, params, x):
    """relu(h @ W + b) per hidden layer from layer_views, then the sigmoid
    of the output unit's h @ w + b: the bias added apart from the matmul."""
    layers = layer_views(arch, params)
    h = x
    for w, b in layers[:-1]:
        h = np.maximum(h @ w + b, 0.0)
    w, b = layers[-1]
    return tensor.sigmoid((h @ w + b)[:, 0])


@pytest.mark.parametrize("workspace_rows", [None, 40], ids=["allocating", "workspace"])
@pytest.mark.parametrize("batch", [33, 1])
@pytest.mark.parametrize("hidden_dims", REFERENCE_DIMS)
def test_forward_matches_reference(hidden_dims, batch, workspace_rows):
    rng = np.random.default_rng(26)
    arch = MlpArchitecture(6, hidden_dims)
    params = init_params(arch, 27)
    for _, b in layer_views(arch, params):
        b[...] = rng.normal(0.0, 0.5, size=b.shape)  # init leaves them 0
    x = rng.standard_normal((batch, 6))
    ws = None if workspace_rows is None else Workspace(arch, workspace_rows)
    pred, _ = forward(arch, params, x, workspace=ws)
    assert np.max(np.abs(pred - _reference_forward(arch, params, x))) <= 1e-15


@pytest.mark.parametrize("workspace_rows", [None, 40], ids=["allocating", "workspace"])
@pytest.mark.parametrize("batch", [33, 1])
@pytest.mark.parametrize("hidden_dims", REFERENCE_DIMS)
def test_backward_matches_reference(hidden_dims, batch, workspace_rows):
    rng = np.random.default_rng(20)
    arch = MlpArchitecture(6, hidden_dims)
    params = init_params(arch, 21)
    _assert_matches_reference(arch, params, rng.standard_normal((batch, 6)),
                              rng.standard_normal(batch), workspace_rows)


@pytest.mark.parametrize("workspace_rows", [None, 40], ids=["allocating", "workspace"])
@pytest.mark.parametrize("hidden_dims", REFERENCE_DIMS)
def test_backward_matches_reference_with_zero_rows_of_dz(hidden_dims, workspace_rows):
    rng = np.random.default_rng(22)
    arch = MlpArchitecture(6, hidden_dims)
    params = init_params(arch, 23)
    g = rng.standard_normal(33)
    g[::3] = 0.0
    _assert_matches_reference(arch, params, rng.standard_normal((33, 6)), g, workspace_rows)


@pytest.mark.parametrize("workspace_rows", [None, 40], ids=["allocating", "workspace"])
@pytest.mark.parametrize("hidden_dims,dead", [
    pytest.param((256,), 0, id="256"),
    pytest.param((5,), 0, id="5"),
    pytest.param((32, 16), 0, id="32x16-lower"),
    pytest.param((32, 16), 1, id="32x16-top"),
])
def test_backward_of_a_dead_layer_is_zero(hidden_dims, dead, workspace_rows):
    rng = np.random.default_rng(24)
    arch = MlpArchitecture(6, hidden_dims)
    params = init_params(arch, 25)
    layers = layer_views(arch, params)
    for _, b in layers[:-1]:
        b[...] = 0.1  # so that only the dead layer is dead
    layers[dead][1][...] = -100.0  # no unit of the layer fires
    got = _assert_matches_reference(arch, params, rng.standard_normal((33, 6)),
                                    rng.standard_normal(33), workspace_rows)
    gw, gb = layer_views(arch, got)[dead]
    assert np.all(gw == 0.0) and np.all(gb == 0.0)


def test_training_drift_against_reference_backward(monkeypatch):
    # The top hidden layer's gradient sums in another order than the
    # reference's, and every bias gradient sums inside its layer's GEMM, so
    # trained weights may differ by rounding only; the bound is fixed in
    # advance at 1e-12 of the largest weight.
    train = synth_biased(2000, 6, 0.5, 0.4, 1.0, seed=0)
    config = TrainConfig(epochs=3, seed=0)

    def run():
        line = train_subspace(train, config)
        return line.w_acc, line.w_fair, train_fixed(train, config, 0.5).weights

    real = run()
    monkeypatch.setattr(fairline.subspace, "backward", _reference_backward)
    reference = run()
    for w, w_ref in zip(real, reference):
        assert np.max(np.abs(w - w_ref)) <= 1e-12 * np.max(np.abs(w_ref))
