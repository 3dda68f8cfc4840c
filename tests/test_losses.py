import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairline.errors import EmptyGroupError, ParameterError, ShapeError
from fairline.losses import FAIRNESS_METRICS, bce, fairness_loss, squared_cosine

unit_floats = st.floats(min_value=0.01, max_value=0.99)


def fd(scalar_of_vec, v, h=1e-6):
    grad = np.zeros_like(v)
    for k in range(v.size):
        up, down = v.copy(), v.copy()
        up[k] += h
        down[k] -= h
        grad[k] = (scalar_of_vec(up) - scalar_of_vec(down)) / (2 * h)
    return grad


def dp(pred, s):
    """fairness_loss for dp, which reads no labels."""
    return fairness_loss("dp", pred, np.zeros_like(pred), s)


# ---------------------------------------------------------------- bce

def test_bce_hand_value():
    lv = bce(np.array([0.5]), np.array([1.0]))
    assert abs(lv.value - math.log(2.0)) < 1e-12


def test_bce_at_clamp_bound():
    assert bce(np.array([1.0 - 1e-12]), np.array([1.0])).value <= 1e-11
    assert bce(np.array([1e-12]), np.array([0.0])).value <= 1e-11


def test_bce_length_mismatch():
    with pytest.raises(ShapeError):
        bce(np.array([0.5, 0.5]), np.array([1.0]))


def test_bce_gradient_matches_fd():
    rng = np.random.default_rng(0)
    pred = rng.uniform(0.05, 0.95, size=8)
    y = (rng.random(8) < 0.5).astype(np.float64)
    analytic = bce(pred, y).grad_pred
    numeric = fd(lambda p: bce(p, y).value, pred)
    assert np.all(np.abs(analytic - numeric) < 1e-6)


# ------------------------------------------- demographic parity gap

def test_dp_equal_means_zero():
    assert dp(np.array([0.8, 0.8]), np.array([0.0, 1.0])).value == 0.0


def test_dp_extremes():
    assert dp(np.array([1.0, 0.0]), np.array([0.0, 1.0])).value == 1.0


def test_dp_hand_value():
    lv = dp(np.array([0.9, 0.5, 0.3, 0.7]), np.array([0.0, 0.0, 1.0, 1.0]))
    assert abs(lv.value - 0.2) < 1e-12


def test_dp_empty_group():
    with pytest.raises(EmptyGroupError, match="^dp, all rows: a group cell"):
        dp(np.array([0.5, 0.5]), np.array([0.0, 0.0]))


def test_dp_zero_subgradient_at_tie():
    lv = dp(np.array([0.4, 0.4]), np.array([0.0, 1.0]))
    assert np.all(lv.grad_pred == 0.0)


def test_dp_gradient_matches_fd():
    rng = np.random.default_rng(1)
    pred = rng.uniform(0.1, 0.9, size=10)
    s = np.array([0, 0, 0, 1, 1, 1, 0, 1, 0, 1], dtype=np.float64)
    analytic = dp(pred, s).grad_pred
    numeric = fd(lambda p: dp(p, s).value, pred)
    assert np.all(np.abs(analytic - numeric) < 1e-4 * np.maximum(np.abs(numeric), 1e-3))


# ------------------------------------------ equal opportunity gap

def test_eo_missing_positives_errors():
    pred = np.array([0.5, 0.5, 0.5, 0.5])
    y = np.array([1.0, 1.0, 0.0, 0.0])
    s = np.array([0.0, 0.0, 1.0, 1.0])  # group 1 has no positives
    with pytest.raises(EmptyGroupError, match="^eo, positive rows: a group cell"):
        fairness_loss("eo", pred, y, s)


def test_eo_identical_groups_zero():
    pred = np.array([0.7, 0.2, 0.7, 0.2])
    y = np.array([1.0, 0.0, 1.0, 0.0])
    s = np.array([0.0, 0.0, 1.0, 1.0])
    assert fairness_loss("eo", pred, y, s).value == 0.0


def test_eo_hand_value():
    lv = fairness_loss("eo", np.array([0.9, 0.1, 0.6, 0.2]),
                       np.array([1.0, 0.0, 1.0, 0.0]),
                       np.array([0.0, 0.0, 1.0, 1.0]))
    assert abs(lv.value - 0.3) < 1e-12


def test_eo_gradient_zero_on_negatives():
    pred = np.array([0.9, 0.1, 0.6, 0.2])
    y = np.array([1.0, 0.0, 1.0, 0.0])
    s = np.array([0.0, 0.0, 1.0, 1.0])
    grad = fairness_loss("eo", pred, y, s).grad_pred
    assert grad[1] == 0.0 and grad[3] == 0.0
    numeric = fd(lambda p: fairness_loss("eo", p, y, s).value, pred)
    assert np.all(np.abs(grad - numeric) < 1e-6)


# --------------------------------------------- equalized odds gap

def _eodd_batch(rng, n=12):
    pred = rng.uniform(0.05, 0.95, size=n)
    y = np.array([1, 0] * (n // 2), dtype=np.float64)
    s = np.array([0] * (n // 2) + [1] * (n // 2), dtype=np.float64)
    return pred, y, s


def test_eodd_constant_predictions_zero():
    pred, y, s = _eodd_batch(np.random.default_rng(0))
    assert fairness_loss("eodd", np.full_like(pred, 0.4), y, s).value == 0.0


def test_eodd_hand_value():
    lv = fairness_loss("eodd", np.array([1.0, 0.0, 0.0, 1.0]),
                       np.array([1.0, 0.0, 1.0, 0.0]),
                       np.array([0.0, 0.0, 1.0, 1.0]))
    assert abs(lv.value - 2.0) < 1e-12


def test_eodd_missing_cell_errors():
    pred = np.array([0.5, 0.5, 0.5, 0.5])
    y = np.array([1.0, 1.0, 1.0, 0.0])
    s = np.array([0.0, 0.0, 1.0, 1.0])  # group 0 has no negatives
    with pytest.raises(EmptyGroupError, match="^eodd, negative rows: a group cell"):
        fairness_loss("eodd", pred, y, s)


@settings(max_examples=50, deadline=None)
@given(st.lists(unit_floats, min_size=12, max_size=12))
def test_eodd_value_in_range(vals):
    pred = np.array(vals)
    y = np.array([1, 0] * 6, dtype=np.float64)
    s = np.array([0] * 6 + [1] * 6, dtype=np.float64)
    assert 0.0 <= fairness_loss("eodd", pred, y, s).value <= 2.0


def test_eodd_gradient_matches_fd():
    rng = np.random.default_rng(5)
    pred, y, s = _eodd_batch(rng)
    analytic = fairness_loss("eodd", pred, y, s).grad_pred
    numeric = fd(lambda p: fairness_loss("eodd", p, y, s).value, pred)
    assert np.all(np.abs(analytic - numeric) < 1e-6)


# -------------------------------------- invariances of all metrics

@settings(max_examples=40, deadline=None)
@given(st.lists(unit_floats, min_size=8, max_size=8), st.randoms(use_true_random=False))
def test_fairness_metrics_permutation_and_swap_invariant(vals, pyrandom):
    pred = np.array(vals)
    y = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=np.float64)
    s = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.float64)
    perm = np.array(pyrandom.sample(range(8), 8))
    for metric in FAIRNESS_METRICS:
        base = fairness_loss(metric, pred, y, s).value
        permuted = fairness_loss(metric, pred[perm], y[perm], s[perm]).value
        swapped = fairness_loss(metric, pred, y, 1.0 - s).value
        assert abs(base - permuted) < 1e-12
        assert abs(base - swapped) < 1e-12
        assert 0.0 <= base <= (2.0 if metric == "eodd" else 1.0)


def test_fairness_loss_unknown_metric_is_parameter_error():
    v = np.array([0.2, 0.8])
    with pytest.raises(ParameterError, match="gini"):
        fairness_loss("gini", v, v, np.array([0.0, 1.0]))


# -------------------------------------------------- squared cosine

def test_cosine_orthogonal():
    assert squared_cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])).value == 0.0


def test_cosine_identical():
    w = np.array([1.0, 2.0, -3.0])
    assert abs(squared_cosine(w, w).value - 1.0) < 1e-9


def test_cosine_hand_value():
    lv = squared_cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    assert abs(lv.value - 0.5) < 1e-9


def test_cosine_zero_vector_guarded():
    lv = squared_cosine(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert lv.value == 0.0 and np.all(np.isfinite(lv.grad_w1))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=-5, max_value=5), min_size=4, max_size=4),
    st.lists(st.floats(min_value=-5, max_value=5), min_size=4, max_size=4),
    st.floats(min_value=0.2, max_value=50).flatmap(
        lambda c: st.sampled_from([c, -c])),
)
def test_cosine_scale_invariant(a, b, c):
    # weight-vector-like norms (>= 1); the 1e-12 norm guard would visibly
    # break the invariance for near-zero vectors scaled by tiny c
    w1 = np.array(a)
    w1[0] = max(abs(w1[0]), 1.0)
    w2 = np.array(b)
    w2[0] = max(abs(w2[0]), 1.0)
    base = squared_cosine(w1, w2).value
    scaled = squared_cosine(c * w1, w2).value
    assert abs(base - scaled) < 1e-10


def test_cosine_gradients_match_fd():
    rng = np.random.default_rng(7)
    w1 = rng.standard_normal(6)
    w2 = rng.standard_normal(6)
    lv = squared_cosine(w1, w2)
    num1 = fd(lambda v: squared_cosine(v, w2).value, w1)
    num2 = fd(lambda v: squared_cosine(w1, v).value, w2)
    assert np.all(np.abs(lv.grad_w1 - num1) < 1e-4 * np.maximum(np.abs(num1), 1e-3))
    assert np.all(np.abs(lv.grad_w2 - num2) < 1e-4 * np.maximum(np.abs(num2), 1e-3))


def test_gradient_shapes():
    pred = np.array([0.2, 0.8, 0.5, 0.6])
    y = np.array([1.0, 0.0, 1.0, 0.0])
    s = np.array([0.0, 0.0, 1.0, 1.0])
    assert bce(pred, y).grad_pred.shape == pred.shape
    assert dp(pred, s).grad_pred.shape == pred.shape
    w = np.ones(5)
    lv = squared_cosine(w, 2.0 * w)
    assert lv.grad_w1.shape == w.shape and lv.grad_w2.shape == w.shape
    assert lv.grad_pred is None
