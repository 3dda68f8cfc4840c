"""Dense float64 array primitives of the model: a shape-checked matmul and
the sigmoid and ReLU activations with their derivatives. matmul, relu and
relu_grad take an optional out= buffer so the training step can reuse its
activation memory. limit_blas_threads caps the threads matmul's BLAS may use,
and blas_threads reads the cap.

Conventions: a Matrix is a 2-D float64 ndarray in batch-rows layout (each
row one sample).
"""

from __future__ import annotations

import ctypes
import functools

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


# The thread-count setter and getter of OpenBLAS builds: numpy's bundled
# one, others.
_BLAS_THREAD_FUNCS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"))


@functools.cache
def _openblas_libs() -> tuple:
    """Every OpenBLAS loaded in this process that ctypes can open, found by
    path in /proc/self/maps, looked up once per process (a forked child
    inherits the lookup). Empty for another BLAS, or no /proc/self/maps."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            # fields: address, perms, offset, dev, inode, then the path
            paths = {fields[5].strip() for fields in (line.split(maxsplit=5) for line in fh)
                     if len(fields) == 6 and "openblas" in fields[5]}
    except OSError:
        return ()
    libs = []
    for path in sorted(paths):
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:  # e.g. a library file deleted since it was loaded
            pass
    return tuple(libs)


@functools.cache
def _openblas_threads() -> tuple:
    """(setter, getter) of every OpenBLAS of _openblas_libs that has both."""
    found = []
    for lib in _openblas_libs():
        names = next((pair for pair in _BLAS_THREAD_FUNCS
                      if all(hasattr(lib, name) for name in pair)), None)
        if names is not None:
            setter, getter = (getattr(lib, name) for name in names)
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            found.append((setter, getter))
    return tuple(found)


def limit_blas_threads(n: int) -> bool:
    """Let every OpenBLAS loaded in this process use at most n threads.
    Returns False, and changes nothing, where no OpenBLAS is found.

    A forked worker inherits its parent's cap. Called in the worker instead,
    it starts a BLAS helper thread that spins against the other workers."""
    libs = _openblas_threads()
    for setter, _ in libs:
        setter(n)
    return bool(libs)


def blas_threads() -> int | None:
    """The thread count the first OpenBLAS found in this process may use, or
    None where none is found."""
    libs = _openblas_threads()
    return libs[0][1]() if libs else None


# sigmoid's constants are read-only 0-d arrays: a ufunc converts a Python
# float or numpy scalar operand on every call, which costs about 0.2 us of
# the 0.5 us a 1-element ufunc takes, and a 0-d array operand it does not.
def _constant(value: float) -> np.ndarray:
    a = np.array(value)
    a.flags.writeable = False
    return a


# Smallest positive double and the largest double below 1: sigmoid output is
# clamped into this open interval so downstream logs and group means never
# see an exact 0 or 1 even for extreme logits.
_SIG_LO = _constant(np.nextafter(0.0, 1.0))
_SIG_HI = _constant(np.nextafter(1.0, 0.0))
_ZERO, _ONE, _MINUS_ONE = _constant(0.0), _constant(1.0), _constant(-1.0)


def sigmoid(t):
    """Numerically stable logistic function, output strictly inside (0, 1).

    exp() is only ever called on arguments <= 0, so large |t| cannot
    overflow: the numerator exp(fmin(t, 0)) is 1 for t >= 0 and exp(-|t|)
    for t < 0, over the denominator 1 + exp(-|t|); the quotient is clamped
    into (0, 1). fmin, unlike minimum, gives 0 for a NaN, so a NaN's result
    is the denominator's NaN, signed by -|t| as in the two-branch form.

    Every step allocates its result instead of writing in place or through
    out=: on a 1-element array, as a 1-row predict passes, an in-place
    ufunc costs about 1 us more than the allocating form, while on the
    512-row arrays of training and sweep chunks the two cost the same.
    """
    t = np.asarray(t, dtype=np.float64)
    s = np.exp(np.fmin(t, _ZERO)) / (np.exp(np.copysign(t, _MINUS_ONE)) + _ONE)
    return np.minimum(np.maximum(s, _SIG_LO), _SIG_HI)


def sigmoid_grad(sig_out):
    """Derivative of sigmoid expressed through its output: s * (1 - s)."""
    return sig_out * (1.0 - sig_out)


def relu(t, out=None):
    """max(t, 0), written into out when given (out=None allocates)."""
    return np.maximum(t, 0.0, out=out)


def relu_grad(h, out=None):
    """Subgradient of relu as a 0/1 mask, applied to relu's output h: a
    boolean array, or written into a float64 out when given, as 1.0 and 0.0.

    h > 0 exactly where relu's input was > 0: an input of 0, -0 or NaN gives
    0 either way, so the subgradient is defined as 0 at an input of 0.

    Multiplying a float64 array by the boolean mask gives the same bits as
    multiplying it by the float64 mask. The float mask is for a matmul,
    which sums over the mask's rows: the backward pass's top hidden layer,
    whose block gradient is ((a_in * dz)^T M) * w_out^T. For a forward
    cache in a workspace, backward writes that mask over the activation it
    is taken from (out=h); relu_grad(1) = 1, so an activation's ones column
    stays. Every layer below multiplies its back-projected gradient by the
    boolean mask of its activation without the ones column, then takes its
    block gradient as one matmul, a_in^T dz_l (see fairline.model).

    A float out is filled by a copy of the boolean mask, which reads faster
    than a compare that casts each element to float64; the bits are the same.
    """
    if out is None:
        return np.greater(h, 0.0)
    np.copyto(out, np.greater(h, 0.0))
    return out
