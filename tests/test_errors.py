"""The two number-parameter rules, errors.check_integer and errors.check_real,
and every range-checked parameter of the library through its public caller."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairline.baseline import check_fairness_grid, check_jobs, train_fixed
from fairline.data import batches, split, synth_biased
from fairline.errors import ParameterError, ValidationError, check_integer, check_real
from fairline.evaluation import check_alpha_grid
from fairline.model import MlpArchitecture, init_params
from fairline.subspace import SubspaceModel, TrainConfig, predict

# the interval shapes in use: (low, high, exclusive, as printed)
INTERVALS = [(0.0, 1.0, False, "[0, 1]"), (0.0, 1.0, True, "(0, 1)"),
             (0.0, math.inf, False, "[0, inf)"), (0.0, math.inf, True, "(0, inf)")]
MINIMUMS = [0, 1, 2, 40]

VALUES = st.one_of(
    st.integers(), st.sampled_from([10**400, -10**400]),
    st.floats(),  # nan and +-inf included
    st.booleans(), st.booleans().map(np.bool_),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(0, 255).map(np.uint8),
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.fractions(), st.text(max_size=3), st.none())


def _refusal(call, param, prefix):
    with pytest.raises(ParameterError) as exc:
        call()
    assert exc.value.param == param
    assert str(exc.value).startswith(f"{param} {prefix}, got ")


@given(VALUES, st.sampled_from(MINIMUMS))
def test_check_integer_accepts_exactly_an_integer_in_range(value, minimum):
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if integer and int(value) >= minimum:
        result = check_integer(value, "p", minimum)
        assert type(result) is int and result == value
    else:
        _refusal(lambda: check_integer(value, "p", minimum), "p",
                 f"must be an integer >= {minimum}")


@given(VALUES, st.sampled_from(INTERVALS))
def test_check_real_accepts_exactly_a_finite_number_in_range(value, interval):
    low, high, exclusive, printed = interval
    number = (isinstance(value, (int, float, Fraction, np.integer, np.floating))
              and not isinstance(value, bool))
    try:
        x = float(value) if number else None
    except OverflowError:  # an integer too large for a float
        x = None
    inside = x is not None and math.isfinite(x) and (
        low < x < high if exclusive else low <= x <= high)
    if inside:
        result = check_real(value, "p", low, high, exclusive=exclusive)
        assert type(result) is float and result == x
    else:
        _refusal(lambda: check_real(value, "p", low, high, exclusive=exclusive), "p",
                 f"must be a number in {printed}")


# ------------------------------------------ every range-checked parameter

# Python floats, so that predict's alpha takes the path of a plain float
BELOW_ZERO = float(np.nextafter(0.0, -1.0))
ABOVE_ZERO = float(np.nextafter(0.0, 1.0))
BELOW_ONE = float(np.nextafter(1.0, 0.0))
ABOVE_ONE = float(np.nextafter(1.0, 2.0))
LARGEST = float(np.finfo(np.float64).max)


def _dataset():
    return synth_biased(40, 2, 0.5, 0.4, 1.0, seed=0)


def _config(**kw):
    return TrainConfig(**{"epochs": 1, "batch_size": 16, **kw})


def _model():
    arch = MlpArchitecture(2, (3,))
    return SubspaceModel(arch, init_params(arch, 0), init_params(arch, 1))


def _synth(**kw):
    args = {"n": 40, "d": 2, "group_fraction": 0.5, "base_rate_gap": 0.4, "noise": 1.0,
            "seed": 0, **kw}
    return synth_biased(**args)


# (param, call of the value, minimum): each integer parameter
INTEGERS = [
    pytest.param("input_dim", lambda v: MlpArchitecture(v, (4,)), 1,
                 id="MlpArchitecture.input_dim"),
    pytest.param("hidden_dims", lambda v: MlpArchitecture(3, (4, v)), 1,
                 id="MlpArchitecture.hidden_dims"),
    pytest.param("seed", lambda v: init_params(MlpArchitecture(2, (3,)), v), 0,
                 id="init_params.seed"),
    pytest.param("epochs", lambda v: _config(epochs=v), 1, id="TrainConfig.epochs"),
    pytest.param("batch_size", lambda v: _config(batch_size=v), 2, id="TrainConfig.batch_size"),
    pytest.param("seed", lambda v: _config(seed=v), 0, id="TrainConfig.seed"),
    pytest.param("jobs", check_jobs, 1, id="check_jobs"),
    pytest.param("n", lambda v: _synth(n=v), 40, id="synth_biased.n"),
    pytest.param("d", lambda v: _synth(d=v), 2, id="synth_biased.d"),
    pytest.param("seed", lambda v: _synth(seed=v), 0, id="synth_biased.seed"),
    pytest.param("seed", lambda v: split(_dataset(), 0.25, v), 0, id="split.seed"),
    pytest.param("batch_size", lambda v: batches(_dataset(), v, 0, 0), 2,
                 id="batches.batch_size"),
    pytest.param("shuffle_seed", lambda v: batches(_dataset(), 2, v, 0), 0,
                 id="batches.shuffle_seed"),
    pytest.param("epoch", lambda v: batches(_dataset(), 2, 0, v), 0, id="batches.epoch"),
]


@pytest.mark.parametrize("param, call, minimum", INTEGERS)
def test_integer_parameter_refuses_one_below_its_minimum(param, call, minimum):
    _refusal(lambda: call(minimum - 1), param, f"must be an integer >= {minimum}")
    call(minimum)


# A value the rule lets through that a later check of the caller refuses:
# (error type, message pattern). split keeps both groups in both parts, which
# a test part of one row cannot; synth_biased's groups come out empty at a
# group fraction next to 0 or 1, and its columns overflow at the largest noise.
ONE_ROW_PART = (ValidationError, "could not retain both groups")
EMPTY_GROUP = (ParameterError, "too extreme")
OVERFLOW = (ParameterError, "too large")

# (param, call of the value, interval as printed, values outside, values
# inside, the later refusal of the inside values or None)
REALS = [
    pytest.param("learning_rate", lambda v: _config(learning_rate=v), "(0, inf)",
                 [0.0, math.inf], [ABOVE_ZERO, LARGEST], None, id="TrainConfig.learning_rate"),
    pytest.param("fairness_weight", lambda v: _config(fairness_weight=v), "[0, inf)",
                 [BELOW_ZERO, math.inf], [0.0, LARGEST], None, id="TrainConfig.fairness_weight"),
    pytest.param("diversity_weight", lambda v: _config(diversity_weight=v), "[0, inf)",
                 [BELOW_ZERO, math.inf], [0.0, LARGEST], None,
                 id="TrainConfig.diversity_weight"),
    pytest.param("fairness_weight", lambda v: train_fixed(_dataset(), _config(), v), "[0, inf)",
                 [BELOW_ZERO, math.inf], [0.0], None, id="train_fixed.fairness_weight"),
    pytest.param("alpha", lambda v: predict(_model(), v, np.ones((1, 2))), "[0, 1]",
                 [BELOW_ZERO, ABOVE_ONE], [0.0, 1.0], None, id="predict.alpha"),
    pytest.param("fairness_grid", lambda v: check_fairness_grid([0.5, v]), "[0, inf)",
                 [BELOW_ZERO, math.inf], [0.0, LARGEST], None, id="check_fairness_grid"),
    pytest.param("alpha_grid", lambda v: check_alpha_grid([0.5, v]), "[0, 1]",
                 [BELOW_ZERO, ABOVE_ONE], [0.0, 1.0], None, id="check_alpha_grid"),
    pytest.param("group_fraction", lambda v: _synth(group_fraction=v), "(0, 1)",
                 [0.0, 1.0], [ABOVE_ZERO, BELOW_ONE], EMPTY_GROUP,
                 id="synth_biased.group_fraction"),
    pytest.param("base_rate_gap", lambda v: _synth(base_rate_gap=v), "[0, 1]",
                 [BELOW_ZERO, ABOVE_ONE], [0.0, 1.0], None, id="synth_biased.base_rate_gap"),
    pytest.param("noise", lambda v: _synth(noise=v), "(0, inf)",
                 [0.0, math.inf], [ABOVE_ZERO], None, id="synth_biased.noise"),
    pytest.param("noise", lambda v: _synth(noise=v), "(0, inf)",
                 [], [LARGEST], OVERFLOW, id="synth_biased.noise-largest"),
    pytest.param("test_fraction", lambda v: split(_dataset(), v, 0), "(0, 1)",
                 [0.0, 1.0], [ABOVE_ZERO, BELOW_ONE], ONE_ROW_PART, id="split.test_fraction"),
]


@pytest.mark.parametrize("param, call, printed, outside, inside, later", REALS)
def test_real_parameter_refuses_outside_and_accepts_inside(param, call, printed, outside,
                                                          inside, later):
    for value in outside:
        _refusal(lambda: call(value), param, f"must be a number in {printed}")
    for value in inside:
        if later is None:
            call(value)
        else:
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(later[0], match=later[1]):
                call(value)
