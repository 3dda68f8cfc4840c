"""scripts/bench_ingest.py's memory case must still run and report its
keys: tier-1 runs no script, so a change to write_csv or to the script would
otherwise break only a bench session."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import bench_ingest  # noqa: E402


def test_write_csv_peak_reports_rows_and_a_traced_peak():
    case = bench_ingest.write_csv_peak(40)
    assert set(case) == {"rows", "traced_peak_mb"}
    assert case["rows"] == 40
    assert 0 < case["traced_peak_mb"] < 1
