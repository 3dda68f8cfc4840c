"""Dense float64 array primitives used by the model, the losses and the
metrics: a shape-checked matmul, the sigmoid and ReLU activations with their
derivatives, and a masked mean. matmul and relu take an optional out= buffer
so the training step can reuse its activation memory.

Conventions: a Matrix is a 2-D float64 ndarray in batch-rows layout (each
row one sample), a Vector is a 1-D float64 ndarray.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyGroupError, ShapeError

Matrix = np.ndarray
Vector = np.ndarray


def matmul(a: Matrix, b: Matrix, out: Matrix | None = None) -> Matrix:
    """a @ b, written into out when given (out=None allocates)."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: operands must be 2-D, got {a.ndim}-D and {b.ndim}-D")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    return np.matmul(a, b, out=out)


# Smallest positive double and the largest double below 1: sigmoid output is
# clamped into this open interval so downstream logs and group means never
# see an exact 0 or 1 even for extreme logits.
_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


def sigmoid(t):
    """Numerically stable logistic function, output strictly inside (0, 1).

    Branches on the sign of t so exp() is only ever called on non-positive
    values; large |t| cannot overflow.
    """
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return np.clip(out, _SIG_LO, _SIG_HI)


def sigmoid_grad(sig_out):
    """Derivative of sigmoid expressed through its output: s * (1 - s)."""
    return sig_out * (1.0 - sig_out)


def relu(t, out=None):
    """max(t, 0), written into out when given (out=None allocates)."""
    return np.maximum(t, 0.0, out=out)


def relu_grad(t):
    """Subgradient of relu as a boolean mask; defined as 0 at t == 0.

    Multiplying a float64 array by the mask gives the same bits as
    multiplying it by the mask's float64 0/1 copy.
    """
    return t > 0.0


def masked_mean(v: Vector, mask: np.ndarray) -> float:
    """Mean of the entries of v selected by the boolean mask."""
    if v.shape != mask.shape:
        raise ShapeError(f"masked_mean: shape mismatch {v.shape} vs {mask.shape}")
    n = int(np.count_nonzero(mask))
    if n == 0:
        raise EmptyGroupError("masked_mean: mask selects no entries")
    return float(np.sum(v[mask]) / n)
