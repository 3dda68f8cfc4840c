import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairline.errors import CheckpointError, ParameterError
from fairline.model import MlpArchitecture, init_params
from fairline.subspace import SubspaceModel, load_checkpoint, save_checkpoint

ARCH = MlpArchitecture(2, (3,))
META = {"config.seed": "5", "fixed.fairness_weight": "0.5", "note": "a=b"}


def _crc_tail(body: bytes) -> bytes:
    return struct.pack("<I", zlib.crc32(body))


# str.splitlines() also breaks lines on these; the format uses "\n" only
OTHER_LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                     "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", OTHER_LINE_BREAKS,
                         ids=[f"U+{ord(c):04X}" for c in OTHER_LINE_BREAKS])
def test_metadata_with_other_line_breaks_round_trips(tmp_path, sep):
    meta = {"note": f"left{sep}right", f"key{sep}": "v", "tail": sep}
    model = SubspaceModel(ARCH, init_params(ARCH, 0), init_params(ARCH, 1), meta)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    assert load_checkpoint(path).train_meta == meta


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("array", ["w_acc", "w_fair"])
def test_non_finite_weight_is_checkpoint_error(tmp_path, array, value):
    w = init_params(ARCH, 0)
    w[3] = value
    path = tmp_path / "m.ckpt"
    other = init_params(ARCH, 1)
    pair = (w, other) if array == "w_acc" else (other, w)
    save_checkpoint(SubspaceModel(ARCH, *pair, META), path)
    with pytest.raises(CheckpointError, match=f"array {array} holds non-finite values"):
        load_checkpoint(path)


@pytest.mark.parametrize("meta", [{"note": "\ud800"}, {"\ud800": "v"}], ids=["value", "key"])
def test_metadata_not_utf8_encodable_is_parameter_error(tmp_path, meta):
    model = SubspaceModel(ARCH, init_params(ARCH, 0), init_params(ARCH, 1), meta)
    path = tmp_path / "m.ckpt"
    with pytest.raises(ParameterError, match="UTF-8"):
        save_checkpoint(model, path)
    assert not path.exists()


def _pair_blob(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("pair") / "m.ckpt"
    save_checkpoint(SubspaceModel(ARCH, init_params(ARCH, 0), init_params(ARCH, 1), META), path)
    return path.read_bytes()


@st.composite
def mutations(draw, blob: bytes) -> bytes:
    """Bit flips or a truncation under the original CRC, or byte rewrites
    with the CRC recomputed so that the parser behind the CRC check runs."""
    mode = draw(st.sampled_from(["flip", "truncate", "rewrite"]))
    if mode == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if mode == "flip":
        out = bytearray(blob)
        for bit in draw(st.lists(st.integers(0, 8 * len(blob) - 1),
                                 min_size=1, max_size=4, unique=True)):
            out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    body = bytearray(blob[:-4])
    for pos, value in draw(st.lists(st.tuples(st.integers(0, len(body) - 1),
                                              st.integers(0, 255)),
                                    min_size=1, max_size=4)):
        body[pos] = value
    return bytes(body) + _crc_tail(bytes(body))


@pytest.mark.parametrize("make_blob, load", [(_pair_blob, load_checkpoint)], ids=["pair"])
def test_mutated_checkpoint_raises_only_checkpoint_error(tmp_path_factory, make_blob, load):
    blob = make_blob(tmp_path_factory)
    path = tmp_path_factory.mktemp("fuzz") / "x.ckpt"

    @settings(max_examples=400, deadline=None)
    @given(mutations(blob))
    def check(mutated):
        path.write_bytes(mutated)
        try:
            load(path)
        except CheckpointError:
            pass

    check()
