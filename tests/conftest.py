import pytest

import fairline.baseline
import fairline.subspace


def _record(monkeypatch, module, name, entry):
    """Wraps module.name so that every call appends entry(args, result) to
    the returned list, in call order."""
    seen = []
    real = getattr(module, name)

    def recording(*args, **kwargs):
        bg = real(*args, **kwargs)
        seen.append(entry(args, bg))
        return bg

    monkeypatch.setattr(module, name, recording)
    return seen


@pytest.fixture
def line_batches(monkeypatch):
    """(alpha, BatchGradients) of every batch a line trains on, in order."""
    return _record(monkeypatch, fairline.subspace, "batch_gradients",
                   lambda args, bg: (args[3], bg))


@pytest.fixture
def force_alpha(monkeypatch, line_batches):
    """force(alpha): every later batch a line trains on uses alpha in place
    of its own draw, and line_batches records that alpha."""
    recording = fairline.subspace.batch_gradients

    def force(alpha):
        def forced(arch, w_acc, w_fair, _drawn, *args, **kwargs):
            return recording(arch, w_acc, w_fair, alpha, *args, **kwargs)

        monkeypatch.setattr(fairline.subspace, "batch_gradients", forced)

    return force


@pytest.fixture
def fixed_batches(monkeypatch):
    """The BatchGradients of every batch a fixed model trains on, in order."""
    return _record(monkeypatch, fairline.baseline, "fixed_batch_gradients",
                   lambda args, bg: bg)
