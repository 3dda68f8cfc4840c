"""MLP with a single sigmoid output: packing, init, forward, hand-written backward.

All trainable weights live in one flat float64 parameter vector with a fixed
canonical layout: layer 1 weights row-major (fan_in x fan_out), layer 1
biases, layer 2 weights, ... So each layer is one (fan_in + 1) x fan_out
row-major block, W's rows and then b. _layer_blocks is the only code that
knows this layout and the only check that a vector fits the architecture;
layer_views splits its blocks into (W, b) pairs. init_params fills the
views of one flat vector, backward the blocks of another. The forward pass
is X @ W + b per layer with ReLU on hidden layers and sigmoid on the single
output unit.

Each hidden layer's pre-activation is computed into the array that then
holds its activation: matmul, the bias added in place, ReLU in place. So no
pre-activation is kept; backward takes the ReLU mask from the activation,
which is positive exactly where the pre-activation is.

backward fills the top hidden layer's block (the layer under the single
output unit) with one matmul. With dz = d(loss)/d(logit), dh = dz w_out^T,
M the layer's ReLU mask as float64 0/1, and * elementwise and broadcast:

    [gW; gb] = [h_in | 1]^T (dh * M) = (([h_in | 1] * dz)^T M) * w_out^T

so the (batch, width) back-projection dh is never built for it. Only when a
hidden layer lies below is dz_l = dh * M built; each layer below takes
dz_l @ W^T back from the layer above, then h_in^T dz_l and the row sum of
dz_l for its own gradient.

forward and backward take an optional Workspace: per-hidden-layer
(rows, width) buffers that a training run allocates once and reuses for every
batch. With a workspace each activation and activation gradient is written
into the workspace's first b rows; without one the same operations allocate
their outputs. The results are bit-identical either way.
A ForwardCache from a workspace call points into the workspace, so it is
valid only until the next forward or backward call on that workspace. The
gradient vector backward returns is always a new array, so a caller may keep
it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor
from .errors import ParameterError, ShapeError


@dataclass(frozen=True)
class MlpArchitecture:
    input_dim: int
    hidden_dims: tuple[int, ...] = (256,)

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1 or any(h < 1 for h in self.hidden_dims):
            raise ParameterError("all layer widths must be >= 1")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, 1)

    @property
    def param_count(self) -> int:
        dims = self.layer_dims
        return sum(fi * fo + fo for fi, fo in zip(dims[:-1], dims[1:]))


@dataclass
class ForwardCache:
    """Per-layer intermediates of one forward pass, consumed by backward.

    From a forward call with a workspace, the hidden-layer arrays are views
    into it (see the module docstring for how long they stay valid).
    """

    inputs: np.ndarray  # (b, d)
    hidden: list[np.ndarray]  # post-ReLU hidden activations
    pred: np.ndarray  # sigmoid output (b,)


class Workspace:
    """Reusable forward/backward buffers for one architecture and batch size.

    Per hidden layer: the activation and the gradient with respect to the
    activation, each (rows, width) float64. A batch of b <= rows rows uses
    the first b rows of each buffer. The top hidden layer's gradient buffer
    first holds its float 0/1 ReLU mask for backward's matmul; when a hidden
    layer lies below, backward then scales it in place to the gradient with
    respect to the pre-activation.
    """

    def __init__(self, arch: MlpArchitecture, rows: int):
        self.hidden_dims = arch.hidden_dims
        self.rows = rows
        self.layers = [tuple(np.empty((rows, h)) for _ in range(2))
                       for h in arch.hidden_dims]


def _layer_buffers(arch: MlpArchitecture, workspace: Workspace | None, b: int
                   ) -> list[tuple]:
    """Per hidden layer, the (activation, activation gradient) out= targets
    for a b-row batch: the workspace's first b rows, or Nones so that each
    operation allocates."""
    if workspace is None:
        return [(None, None)] * len(arch.hidden_dims)
    if workspace.hidden_dims != arch.hidden_dims or b > workspace.rows:
        raise ShapeError(
            f"workspace for hidden dims {workspace.hidden_dims} and "
            f"{workspace.rows} rows does not fit hidden dims {arch.hidden_dims} "
            f"and {b} rows"
        )
    return [tuple(buf[:b] for buf in bufs) for bufs in workspace.layers]


def _layer_blocks(arch: MlpArchitecture, params: np.ndarray) -> list[np.ndarray]:
    """Per layer, the (fan_in + 1, fan_out) view of params holding W's rows
    and then b. No copies.

    The one owner of the canonical layout; raises ShapeError when params is
    not a flat vector of arch.param_count entries.
    """
    if params.ndim != 1 or params.shape[0] != arch.param_count:
        raise ShapeError(
            f"parameter vector length {params.shape} does not match "
            f"architecture ({arch.param_count} parameters)"
        )
    out = []
    dims = arch.layer_dims
    pos = 0
    for fi, fo in zip(dims[:-1], dims[1:]):
        out.append(params[pos:pos + (fi + 1) * fo].reshape(fi + 1, fo))
        pos += (fi + 1) * fo
    return out


def layer_views(arch: MlpArchitecture, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views into the flat vector, one pair per layer. No copies.

    Raises ShapeError when params does not fit the architecture.
    """
    return [(block[:-1], block[-1]) for block in _layer_blocks(arch, params)]


def init_params(arch: MlpArchitecture, seed: int) -> np.ndarray:
    """Glorot-uniform weights (+-sqrt(6 / (fan_in + fan_out))), zero biases."""
    if seed < 0:
        raise ParameterError("must be non-negative", param="seed")
    rng = np.random.default_rng(seed)
    params = np.zeros(arch.param_count)
    for w, _ in layer_views(arch, params):
        bound = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def forward(arch: MlpArchitecture, params: np.ndarray, x: np.ndarray,
            workspace: Workspace | None = None) -> tuple[np.ndarray, ForwardCache]:
    """Batch forward pass; returns predictions in (0, 1) and the cache."""
    blocks = _layer_blocks(arch, params)
    if x.ndim != 2 or x.shape[1] != arch.input_dim:
        raise ShapeError(f"input shape {x.shape} does not match input_dim={arch.input_dim}")
    bufs = _layer_buffers(arch, workspace, x.shape[0])
    hidden: list[np.ndarray] = []
    h = x
    for block, (h_out, _) in zip(blocks[:-1], bufs):
        h = tensor.matmul(h, block[:-1], out=h_out)
        h += block[-1]
        tensor.relu(h, out=h)
        hidden.append(h)
    out = blocks[-1]
    logits = (tensor.matmul(h, out[:-1]) + out[-1])[:, 0]
    pred = tensor.sigmoid(logits)
    return pred, ForwardCache(x, hidden, pred)


def backward(arch: MlpArchitecture, params: np.ndarray, cache: ForwardCache,
             dloss_dpred: np.ndarray, workspace: Workspace | None = None
             ) -> np.ndarray:
    """Full parameter gradient for a scalar loss with the given d(loss)/d(pred).

    Returns a new flat vector in the same canonical layout as params.

    The top hidden layer's gradient is one matmul over its float ReLU mask
    M: with dh = dz w_out^T, [gW; gb] = (([h_in | 1] * dz)^T M) * w_out^T
    (see the module docstring). dh * M is built only for a layer below it.
    """
    blocks = _layer_blocks(arch, params)
    b = cache.inputs.shape[0]
    if dloss_dpred.shape != (b,):
        raise ShapeError(
            f"dloss_dpred shape {dloss_dpred.shape} does not match batch size {b}"
        )
    bufs = _layer_buffers(arch, workspace, b)
    grads = np.empty_like(params)
    grad_blocks = _layer_blocks(arch, grads)
    layer_inputs = [cache.inputs, *cache.hidden]

    dz = dloss_dpred * tensor.sigmoid_grad(cache.pred)  # (b,)
    g = grad_blocks[-1]
    tensor.matmul(layer_inputs[-1].T, dz[:, None], out=g[:-1])
    np.sum(dz, keepdims=True, out=g[-1])
    if not cache.hidden:
        return grads

    top = len(cache.hidden) - 1
    h_in, h = layer_inputs[top], cache.hidden[top]
    w_out = blocks[-1][:-1, 0]
    mask_out = bufs[top][1]
    mask = tensor.relu_grad(h, out=np.empty_like(h) if mask_out is None else mask_out)
    lhs = np.empty((b, h_in.shape[1] + 1))  # [h_in | 1] * dz
    np.multiply(h_in, dz[:, None], out=lhs[:, :-1])
    lhs[:, -1] = dz
    g = tensor.matmul(lhs.T, mask, out=grad_blocks[top])
    g *= w_out
    if top == 0:
        return grads

    dz_l = np.multiply(mask, dz[:, None], out=mask)
    dz_l *= w_out
    for li in range(top - 1, -1, -1):
        dh = tensor.matmul(dz_l, blocks[li + 1][:-1].T, out=bufs[li][1])
        dz_l = np.multiply(dh, tensor.relu_grad(cache.hidden[li]), out=dh)
        g = grad_blocks[li]
        tensor.matmul(layer_inputs[li].T, dz_l, out=g[:-1])
        np.sum(dz_l, axis=0, out=g[-1])
    return grads
