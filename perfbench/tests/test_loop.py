"""The closed loop: failed ops count as failed and add no time."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
from workloads import tail  # noqa: E402


class Flaky:
    """Of every three ops, one raises and one fails its check."""

    def call(self, i):
        if i % 3 == 1:
            raise RuntimeError("boom")
        return {"op": 1e-4}, i

    def check(self, i, out):
        return out % 3 == 0


def test_failed_ops_leave_no_time():
    plain, traced = run.run(Flaky(), 0.3)
    assert traced.attempted == 0
    assert plain.attempted >= 3
    assert plain.failed == plain.attempted - len(plain.walls)
    assert len(plain.walls) == len(plain.scaled) == len(plain.parts["op"])
    assert min(plain.walls) > 0
    result = run.end_to_end([1.0], plain, 1.0)
    assert result["ops_ok_frac"] == 1.0 - plain.failed / plain.attempted


def test_tail_needs_21_samples():
    assert tail(range(20))["tail"] is None
    got = tail(range(21))
    assert got["tail"] == 10 and got["p50"] == 10
