"""MLP with a single sigmoid output: packing, init, forward, hand-written backward.

All trainable weights live in one flat float64 parameter vector with a fixed
canonical layout: layer 1 weights row-major (fan_in x fan_out), layer 1
biases, layer 2 weights, ... So each layer is one (fan_in + 1) x fan_out
row-major block, W's rows and then b. MlpArchitecture.layer_spans is the
only code that computes this layout, and _layer_blocks, which slices a vector
at those spans, the only check that a vector fits the architecture;
layer_views splits its blocks into (W, b) pairs. init_params fills the
views of one flat vector, backward the blocks of another.

Every layer input carries a trailing ones column: the input is [x | 1] and
each hidden activation is [h | 1]. A layer's block is then exactly the matrix
that multiplies its input, so every layer is one GEMM against its block,
[h_in | 1] @ [W; b] = h_in W + b, with no separate bias pass. Each hidden
layer's GEMM writes the activation's first width columns in place, and ReLU
runs over the whole activation, ones column included: relu(1) = 1, so the
column stays. No pre-activation is kept; backward takes the ReLU mask from
the activation, which is positive exactly where the pre-activation is. The
output unit's logit is [h_top | 1] @ [w_out; b_out], and the prediction its
sigmoid.

backward uses the same rule in reverse. With a_l = [h_l | 1] a layer's input
and dz_l the gradient with respect to its pre-activation, the layer's whole
block gradient is one GEMM, [gW; gb] = a_l^T dz_l: the ones column sums the
bias gradient. For the output unit dz is d(loss)/d(logit), a vector, so that
GEMM is a matvec. For the top hidden layer (the one under the output unit),
with M its ReLU mask as float64 0/1 and * elementwise and broadcast,

    [gW; gb] = a_l^T ((dz w_out^T) * M) = ((a_l * dz)^T M) * w_out^T

so the (batch, width) back-projection dz w_out^T is never built for it.
M is the last use of the top activation, so for a workspace cache backward
writes M over it; relu_grad(1) = 1, so the ones column stays for the next
forward. Only with a hidden layer below is the top layer's dz_l built, as a
new (batch, width) array M * dz * w_out^T; each layer below takes dz_l W^T
back from the layer above, times its own mask, then one GEMM for its block.

forward takes an optional Workspace: the [x | 1] input buffer and
per-hidden-layer (rows, width + 1) activation buffers, which a training run
allocates once and reuses for every batch. With a workspace each of these
arrays is written into the workspace's first b rows, and the ForwardCache
records the workspace; without one they are allocated. The results are
bit-identical either way.
A ForwardCache from a workspace call points into the workspace, so it is
valid only until the next forward or backward call on that workspace, and
backward consumes it: its top hidden array then holds the float ReLU mask.
backward writes nothing else, and leaves an allocating cache as it was.
The gradient vector backward returns is always a new array, so a caller
may keep it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tensor
from .errors import ParameterError, ShapeError, check_integer


@dataclass(frozen=True)
class MlpArchitecture:
    input_dim: int
    hidden_dims: tuple[int, ...] = (256,)

    def __post_init__(self):
        object.__setattr__(self, "input_dim", check_integer(self.input_dim, "input_dim"))
        object.__setattr__(self, "hidden_dims",
                           tuple(check_integer(h, "hidden_dims") for h in self.hidden_dims))
        if self.input_dim < 1 or any(h < 1 for h in self.hidden_dims):
            raise ParameterError("all layer widths must be >= 1")

    # Computed once per architecture: forward and backward read them on
    # every call.
    @cached_property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, 1)

    @cached_property
    def layer_spans(self) -> tuple[tuple[int, int, tuple[int, int]], ...]:
        """Per layer, (start, stop, shape): where its (fan_in + 1, fan_out)
        block lies in the flat parameter vector. The canonical layout."""
        spans, start = [], 0
        dims = self.layer_dims
        for fi, fo in zip(dims[:-1], dims[1:]):
            stop = start + (fi + 1) * fo
            spans.append((start, stop, (fi + 1, fo)))
            start = stop
        return tuple(spans)

    @cached_property
    def param_count(self) -> int:
        return self.layer_spans[-1][1]


@dataclass
class ForwardCache:
    """Per-layer intermediates of one forward pass, consumed by backward.

    Each layer input carries its trailing ones column: inputs is [x | 1] and
    each hidden array is [h | 1]. From a forward call with a workspace, the
    arrays are views into it (see the module docstring for how long they
    stay valid), and backward writes the top hidden layer's float 0/1 ReLU
    mask over hidden[-1].
    """

    inputs: np.ndarray  # (b, d + 1): [x | 1]
    hidden: list[np.ndarray]  # post-ReLU hidden activations, (b, width + 1) each
    pred: np.ndarray  # sigmoid output (b,)
    workspace: Workspace | None  # the one forward wrote into, None if it allocated


def _with_ones(rows: int, width: int) -> np.ndarray:
    """A (rows, width + 1) float64 array whose last column is 1.0; the other
    columns are left for the caller to write."""
    a = np.empty((rows, width + 1))
    a[:, -1] = 1.0
    return a


class Workspace:
    """Reusable forward buffers for one architecture and batch size.

    inputs is the (rows, input_dim + 1) buffer for [x | 1], and hidden holds
    per hidden layer the (rows, width + 1) activation [h | 1], all float64;
    the ones columns are written here and never again. A batch of b <= rows
    rows uses the first b rows of each buffer. backward writes the top
    hidden layer's float 0/1 ReLU mask over its activation (relu_grad(1) = 1
    keeps the ones column) and writes no other buffer.
    """

    def __init__(self, arch: MlpArchitecture, rows: int):
        self.arch = arch
        self.rows = rows
        self.inputs = _with_ones(rows, arch.input_dim)
        self.hidden = [_with_ones(rows, h) for h in arch.hidden_dims]


def _layer_blocks(arch: MlpArchitecture, params: np.ndarray) -> list[np.ndarray]:
    """Per layer, the (fan_in + 1, fan_out) view of params holding W's rows
    and then b, sliced at arch.layer_spans. No copies.

    Raises ShapeError when params is not a flat vector of arch.param_count
    entries.
    """
    if params.ndim != 1 or params.shape[0] != arch.param_count:
        raise ShapeError(
            f"parameter vector length {params.shape} does not match "
            f"architecture ({arch.param_count} parameters)"
        )
    return [params[start:stop].reshape(shape) for start, stop, shape in arch.layer_spans]


def layer_views(arch: MlpArchitecture, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views into the flat vector, one pair per layer. No copies.

    Raises ShapeError when params does not fit the architecture.
    """
    return [(block[:-1], block[-1]) for block in _layer_blocks(arch, params)]


def init_params(arch: MlpArchitecture, seed: int) -> np.ndarray:
    """Glorot-uniform weights (+-sqrt(6 / (fan_in + fan_out))), zero biases."""
    if check_integer(seed, "seed") < 0:
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
    b = x.shape[0]
    if workspace is None:
        inputs = _with_ones(b, arch.input_dim)
        hidden = [_with_ones(b, h) for h in arch.hidden_dims]
    else:
        if workspace.arch != arch or b > workspace.rows:
            raise ShapeError(f"workspace for {workspace.arch} and {workspace.rows} rows "
                             f"does not fit {arch} and {b} rows")
        inputs = workspace.inputs[:b]
        hidden = [buf[:b] for buf in workspace.hidden]
    inputs[:, :-1] = x
    a = inputs
    for block, a_out in zip(blocks[:-1], hidden):
        tensor.matmul(a, block, out=a_out[:, :-1])
        a = tensor.relu(a_out, out=a_out)
    pred = tensor.sigmoid(tensor.matmul(a, blocks[-1])[:, 0])
    return pred, ForwardCache(inputs, hidden, pred, workspace)


# Rows per forward call when many rows are served. 512 timed fastest for a
# 256-wide hidden layer (256 read the same); a workspace of CHUNK + 1 rows is
# then about 1.1 MB: the [x | 1] input and the (513, 257) activation buffer.
# predict, predict_fixed and the sweeps all serve through _serve: the same
# chunks, so the same bits, on any BLAS whose GEMM is deterministic for a
# given shape.
CHUNK = 512


def _serve(arch: MlpArchitecture, params: np.ndarray, x: np.ndarray,
           workspace: Workspace | None = None) -> np.ndarray:
    """The predictions of params on the rows of x, forwarded in pieces that
    start at multiples of CHUNK. A lone last row joins the piece before it:
    BLAS serves a 1-row product with another kernel, whose bits differ from
    those of the same row in a multi-row product. Each piece goes through
    workspace, made by _serve_workspace for x's row count, or allocates
    without one."""
    if x.ndim != 2 or x.shape[0] <= CHUNK + 1:  # one piece, or forward refuses x
        return forward(arch, params, x, workspace)[0]
    n = x.shape[0]
    bounds = [*range(0, n - 1, CHUNK), n]
    pred = np.empty(n)
    for lo, hi in zip(bounds, bounds[1:]):
        pred[lo:hi] = forward(arch, params, x[lo:hi], workspace)[0]
    return pred


def _serve_workspace(arch: MlpArchitecture, rows: int) -> Workspace:
    """A workspace that holds _serve's largest piece of a rows-row x."""
    return Workspace(arch, min(CHUNK + 1, rows))


def backward(arch: MlpArchitecture, params: np.ndarray, cache: ForwardCache,
             dloss_dpred: np.ndarray) -> np.ndarray:
    """Full parameter gradient for a scalar loss with the given d(loss)/d(pred).

    Returns a new flat vector in the same canonical layout as params.

    Each layer's block gradient is one GEMM, a_l^T dz_l with a_l = [h_l | 1]
    the cached layer input; the top hidden layer's is ((a_l * dz)^T M) * w_out^T
    over its float ReLU mask M (see the module docstring). For a cache that
    names a workspace, M is written over cache.hidden[-1], so the cache
    serves one backward; nothing else in the cache, and nothing in an
    allocating cache, is written.
    """
    blocks = _layer_blocks(arch, params)
    b = cache.inputs.shape[0]
    if dloss_dpred.shape != (b,):
        raise ShapeError(
            f"dloss_dpred shape {dloss_dpred.shape} does not match batch size {b}"
        )
    grads = np.empty_like(params)
    grad_blocks = _layer_blocks(arch, grads)
    acts = [cache.inputs, *cache.hidden]

    dz = dloss_dpred * tensor.sigmoid_grad(cache.pred)  # (b,)
    tensor.matmul(acts[-1].T, dz[:, None], out=grad_blocks[-1])
    if not cache.hidden:
        return grads

    top = len(cache.hidden) - 1
    out = blocks[-1][:, 0]  # w_out, then b_out
    # Nothing reads the top activation after this, so a workspace cache takes
    # the mask over it; relu_grad(1) = 1 keeps its ones column for the next
    # forward. An allocating cache is left as it was.
    mask = tensor.relu_grad(acts[-1], out=acts[-1] if cache.workspace is not None
                            else np.empty_like(acts[-1]))
    g = tensor.matmul((acts[top] * dz[:, None]).T, mask[:, :-1], out=grad_blocks[top])
    g *= out[:-1]
    if top == 0:
        return grads

    dz_l = mask[:, :-1] * dz[:, None]
    dz_l *= out[:-1]
    for li in range(top - 1, -1, -1):
        dz_l = (tensor.matmul(dz_l, blocks[li + 1][:-1].T)
                * tensor.relu_grad(acts[li + 1][:, :-1]))
        tensor.matmul(acts[li].T, dz_l, out=grad_blocks[li])
    return grads
