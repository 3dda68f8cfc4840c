"""Every function the benchmark's traced run wraps must still exist.

perfbench/spans.py installs span wrappers on fairline functions by module
and attribute name; a rename in src/ would otherwise break only the traced
benchmark run.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402


def _resolves(module_name: str, attr: str) -> bool:
    obj = importlib.import_module(f"fairline.{module_name}")
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return callable(obj)


def test_every_trace_target_resolves():
    missing = [f"{m}.{a}" for m, a, _ in spans.TARGETS if not _resolves(m, a)]
    assert "subspace.AdamState.apply" in {f"{m}.{a}" for m, a, _ in spans.TARGETS}
    assert missing == []
