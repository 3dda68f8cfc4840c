import pytest

import fairline.baseline
import fairline.subspace
from fairline.losses import squared_cosine


def _record(monkeypatch, module, name):
    """Wraps module.name so that every call appends (args, result) to the
    returned list, in call order; args are the call's positional arguments."""
    seen = []
    real = getattr(module, name)

    def recording(*args, **kwargs):
        bg = real(*args, **kwargs)
        seen.append((args, bg))
        return bg

    monkeypatch.setattr(module, name, recording)
    return seen


@pytest.fixture
def line_batches(monkeypatch):
    """(args, BatchGradients) of every batch a line trains on, in order:
    args are batch_gradients' (arch, w_acc, w_fair, alpha, x, y, s, config)."""
    return _record(monkeypatch, fairline.subspace, "batch_gradients")


@pytest.fixture
def line_parts():
    """parts(*args): for one batch_gradients call's args, the task loss's
    theta-gradient g at interpolate(w_acc, w_fair, alpha), recomputed from
    _task_gradient, and the endpoints' squared_cosine LossValue."""
    def parts(arch, w_acc, w_fair, alpha, x, y, s, config):
        theta = fairline.subspace.interpolate(w_acc, w_fair, alpha)
        g, _, _ = fairline.subspace._task_gradient(
            arch, theta, x, y, s, config.fairness_metric, config.fairness_weight * alpha)
        return g, squared_cosine(w_acc, w_fair)

    return parts


@pytest.fixture
def force_alpha(monkeypatch, line_batches):
    """force(alpha): every later batch a line trains on uses alpha in place
    of its own draw, and line_batches records that alpha in its args."""
    recording = fairline.subspace.batch_gradients

    def force(alpha):
        def forced(arch, w_acc, w_fair, _drawn, *args, **kwargs):
            return recording(arch, w_acc, w_fair, alpha, *args, **kwargs)

        monkeypatch.setattr(fairline.subspace, "batch_gradients", forced)

    return force


@pytest.fixture
def fixed_batches(monkeypatch):
    """(args, BatchGradients) of every batch a fixed model trains on, in
    order: args are fixed_batch_gradients' (arch, weights, x, y, s,
    fairness_weight, metric)."""
    return _record(monkeypatch, fairline.baseline, "fixed_batch_gradients")
