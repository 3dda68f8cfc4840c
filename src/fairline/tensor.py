"""Dense float64 array primitives of the model: a shape-checked matmul and
the sigmoid and ReLU activations with their derivatives. matmul, relu and
relu_grad take an optional out= buffer so the training step can reuse its
activation memory. limit_blas_threads caps the threads matmul's BLAS may use.

Conventions: a Matrix is a 2-D float64 ndarray in batch-rows layout (each
row one sample).
"""

from __future__ import annotations

import ctypes

import numpy as np

from .errors import ShapeError

Matrix = np.ndarray


def matmul(a: Matrix, b: Matrix, out: Matrix | None = None) -> Matrix:
    """a @ b, written into out when given (out=None allocates)."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: operands must be 2-D, got {a.ndim}-D and {b.ndim}-D")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    return np.matmul(a, b, out=out)


# The thread-count setters of OpenBLAS builds: numpy's bundled one, others.
_BLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")


def limit_blas_threads(n: int) -> bool:
    """Let every OpenBLAS loaded in this process use at most n threads, as a
    worker process that shares the cores with others should: its BLAS
    threads would otherwise spin against the other workers'. Returns False,
    and changes nothing, where no OpenBLAS setter is found (another BLAS, or
    no /proc/self/maps)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            # fields: address, perms, offset, dev, inode, then the path
            paths = {fields[5].strip() for fields in (line.split(maxsplit=5) for line in fh)
                     if len(fields) == 6 and "openblas" in fields[5]}
    except OSError:
        return False
    done = False
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a library file deleted since it was loaded
            continue
        setter = next((getattr(lib, name) for name in _BLAS_SET_THREADS
                       if hasattr(lib, name)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(n)
            done = True
    return done


# Smallest positive double and the largest double below 1: sigmoid output is
# clamped into this open interval so downstream logs and group means never
# see an exact 0 or 1 even for extreme logits.
_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


def sigmoid(t):
    """Numerically stable logistic function, output strictly inside (0, 1).

    exp() is only ever called on -|t| <= 0, so large |t| cannot overflow;
    with e = exp(-|t|), the sign of t picks the numerator, 1 or e, over
    1 + e. The sum, the quotient and the clamp into (0, 1) are computed in
    place.
    """
    t = np.asarray(t, dtype=np.float64)
    e = np.exp(-np.abs(t))
    s = np.where(t >= 0, 1.0, e)
    e += 1.0
    s /= e
    np.maximum(s, _SIG_LO, out=s)
    return np.minimum(s, _SIG_HI, out=s)


def sigmoid_grad(sig_out):
    """Derivative of sigmoid expressed through its output: s * (1 - s)."""
    return sig_out * (1.0 - sig_out)


def relu(t, out=None):
    """max(t, 0), written into out when given (out=None allocates)."""
    return np.maximum(t, 0.0, out=out)


def relu_grad(h, out=None):
    """Subgradient of relu as a 0/1 mask, applied to relu's output h: a
    boolean array, or written into out when given (a float64 out holds
    1.0 and 0.0).

    h > 0 exactly where relu's input was > 0: an input of 0, -0 or NaN gives
    0 either way, so the subgradient is defined as 0 at an input of 0.

    Multiplying a float64 array by the boolean mask gives the same bits as
    multiplying it by the float64 mask. The float mask is for a matmul,
    which sums over the mask's rows: the backward pass's top hidden layer,
    whose block gradient is ((a_in * dz)^T M) * w_out^T. With a workspace,
    backward writes that mask over the activation it is taken from
    (out=h); relu_grad(1) = 1, so an activation's ones column stays. Every
    layer below multiplies its back-projected gradient by the boolean mask,
    then takes its block gradient as one matmul, a_in^T dz_l (see
    fairline.model).
    """
    return np.greater(h, 0.0, out=out)
