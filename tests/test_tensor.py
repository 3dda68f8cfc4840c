import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairline import tensor
from fairline.errors import ShapeError


def naive_matmul(a, b):
    m, k = a.shape
    n = b.shape[1]
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def test_matmul_identity():
    i2 = np.eye(2)
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(tensor.matmul(i2, a), a)
    out = np.full((2, 2), np.nan)
    assert tensor.matmul(i2, a, out=out) is out
    assert np.array_equal(out, a)


def test_matmul_hand_product():
    a = np.array([[1.0, 2.0]])
    b = np.array([[3.0], [4.0]])
    assert np.array_equal(tensor.matmul(a, b), [[11.0]])


def test_matmul_vs_naive_oracle_exact():
    # Integer-valued entries keep every intermediate below 2**53, so the BLAS
    # result and the triple loop agree bit for bit regardless of summation order.
    rng = np.random.default_rng(42)
    a = rng.integers(-1000, 1000, size=(3, 4)).astype(np.float64)
    b = rng.integers(-1000, 1000, size=(4, 2)).astype(np.float64)
    assert np.array_equal(tensor.matmul(a, b), naive_matmul(a, b))


@settings(max_examples=50, deadline=None)
@given(
    m=st.integers(1, 8), k=st.integers(1, 8), n=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
)
def test_matmul_exact_on_integer_values(m, k, n, seed):
    # products bounded by 2**50 and sums by 2**53: float64 arithmetic is exact
    rng = np.random.default_rng(seed)
    a = rng.integers(-2**25, 2**25, size=(m, k)).astype(np.float64)
    b = rng.integers(-2**25, 2**25, size=(k, n)).astype(np.float64)
    assert np.array_equal(tensor.matmul(a, b), naive_matmul(a, b))


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        tensor.matmul(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        tensor.matmul(np.zeros((2, 3)), np.zeros((2, 3)), out=np.zeros((2, 3)))


def test_sigmoid_at_zero():
    assert tensor.sigmoid(np.array([0.0]))[0] == 0.5


def test_relu_values():
    assert np.array_equal(tensor.relu(np.array([-3.0, 3.0])), [0.0, 3.0])
    out = np.full(2, np.nan)
    assert tensor.relu(np.array([-3.0, 3.0]), out=out) is out
    assert np.array_equal(out, [0.0, 3.0])
    assert np.array_equal(tensor.relu_grad(np.array([-3.0, 0.0, 3.0])), [0.0, 0.0, 1.0])
    # the boolean mask multiplies to the same bits as its float64 0/1 copy,
    # signed zeros and NaN included
    t = np.array([-3.0, -0.0, 0.0, 2.0, np.inf])
    d = np.array([-1.5, 2.0, -2.0, -0.25, np.nan])
    mask = tensor.relu_grad(t)
    assert mask.dtype == np.bool_
    assert (d * mask).tobytes() == (d * mask.astype(np.float64)).tobytes()
    # written into a float64 out, the same mask as 1.0 and +0.0
    out = np.full(5, np.nan)
    assert tensor.relu_grad(t, out=out) is out
    assert out.tobytes() == mask.astype(np.float64).tobytes()
    # and written over its own input, as backward does with the top activation
    h = t.copy()
    assert tensor.relu_grad(h, out=h) is h
    assert h.tobytes() == out.tobytes()


def test_relu_grad_of_the_output_is_the_mask_of_the_input():
    # backward takes the mask from the activation, not the pre-activation
    t = np.array([-np.inf, -3.0, -5e-324, -0.0, 0.0, 5e-324, 2.0, np.inf, np.nan, -np.nan])
    assert np.array_equal(tensor.relu_grad(tensor.relu(t)), tensor.relu_grad(t))


def test_sigmoid_extreme_negative_no_underflow_to_nan():
    v = tensor.sigmoid(np.array([-745.0]))[0]
    assert 0.0 < v <= 1e-300
    assert np.isfinite(v)


def test_sigmoid_against_high_precision_oracle():
    mpmath.mp.dps = 50
    ts = np.array([-700.0, -30.0, -2.5, -0.4, 0.0, 0.4, 2.5, 30.0, 700.0])
    got = tensor.sigmoid(ts)
    for t, g in zip(ts, got):
        want = float(1 / (1 + mpmath.e ** mpmath.mpf(-t)))
        assert math.isclose(g, want, rel_tol=1e-14), (t, g, want)


@given(st.floats(min_value=-1e308, max_value=1e308, allow_nan=False))
def test_sigmoid_strictly_inside_unit_interval(t):
    v = tensor.sigmoid(np.array([t]))[0]
    assert 0.0 < v < 1.0


@given(st.floats(min_value=-700, max_value=700, allow_nan=False))
def test_sigmoid_symmetry(t):
    a = tensor.sigmoid(np.array([t]))[0]
    b = tensor.sigmoid(np.array([-t]))[0]
    assert abs(a + b - 1.0) <= 1e-15


def test_sigmoid_grad_matches_product_form():
    s = tensor.sigmoid(np.array([-2.0, 0.0, 1.5]))
    assert np.array_equal(tensor.sigmoid_grad(s), s * (1.0 - s))


def _two_branch_sigmoid(t):
    """Reference: the masked form, exp() of -t where t >= 0 and of t elsewhere."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def test_sigmoid_bit_identical_to_two_branch_form():
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = np.array([0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, -746.0, 800.0, -800.0,
                      tiny, -tiny, 1e-310, -1e-310, 2.2e-308, -2.2e-308])
    sample = np.random.default_rng(20240611).normal(0.0, 40.0, size=100_000)
    for t in (edges, sample, sample.reshape(400, 250), np.array(-3.5)):
        assert tensor.sigmoid(t).tobytes() == _two_branch_sigmoid(t).tobytes()
    assert np.isnan(tensor.sigmoid(np.array([np.nan, -np.nan]))).all()


def test_sigmoid_nan_bytes_match_the_where_form():
    # the where form: e = exp(-|t|), numerator 1 where t >= 0, else e
    t = np.array([np.nan, -np.nan])
    e = np.exp(-np.abs(t))
    want = np.minimum(np.maximum(np.where(t >= 0, 1.0, e) / (e + 1.0), tensor._SIG_LO),
                      tensor._SIG_HI)
    assert tensor.sigmoid(t).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 512])
def test_sigmoid_of_a_vector_is_a_vector_of_its_shape(n):
    t = np.linspace(-3.0, 3.0, n)
    s = tensor.sigmoid(t)
    assert isinstance(s, np.ndarray)
    assert s.shape == (n,) and s.dtype == np.float64
    assert not np.shares_memory(s, t)


def _matmul_on_one_blas_thread(a, b):
    return tensor.limit_blas_threads(1), tensor.matmul(a, b).tobytes()


def test_limit_blas_threads_keeps_matmul_bits():
    # in a forked child, so this process keeps its BLAS threads; the fixed
    # grid's workers rely on one thread giving the same bits as several
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2000, 64)), rng.standard_normal((64, 64))
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        limited, got = pool.submit(_matmul_on_one_blas_thread, a, b).result(timeout=60)
    assert isinstance(limited, bool)
    assert got == tensor.matmul(a, b).tobytes()
