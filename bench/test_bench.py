"""Self-test of the benchmark harness on tiny cases.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``;
the repository's own test run (``testpaths = tests``) does not collect it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_spectrum, check_verify, content_sum_spectrum  # noqa: E402
from run import ROOT, report_path, run_operation, tail  # noqa: E402
from tracing import self_times  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


def test_content_sum_oracle_matches_known_spectra():
    assert content_sum_spectrum(4, 2) == [(0, 2), (2, 9), (6, 5)]
    assert content_sum_spectrum(2, 3) == [(-1, 3), (1, 6)]
    # Multiplicities add up to the spin-sector dimension m**nu.
    assert sum(mult for _, mult in content_sum_spectrum(7, 3)) == 3**7


def test_tail_keeps_ten_samples_beyond():
    values = [float(i) for i in range(34)]
    p, value = tail(values)
    assert p == 70 and sum(v > value for v in values) == 10
    assert tail(values[:20]) == (50, 9.0) and tail(values[:19]) is None


def test_self_times_subtract_direct_children():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None], ["c", 2.0, 3.0, 1, None]]
    assert self_times(spans) == [7.0, 2.0, 1.0]


def spectrum_op(trace):
    argv = ["spectrum", "--compare", "--no-timestamp", "--nu", "2", "--m", "2", "--n", "1",
            "--out", report_path("selftest")]
    flags = REFERENCE["spectrum_matched"]["n1-m2-nu2"]
    return run_operation("selftest", "n1-m2-nu2", argv,
                         lambda r: check_spectrum(r, 1, 2, 2, flags), trace)


def test_spectrum_operation_passes_its_check():
    record = spectrum_op(trace=False)
    assert record["ok"], record["problems"]
    assert record["setup_s"] > 0 and record["work_s"] > 0 and record["peak_rss_mb"] > 0
    assert "spans" not in record


def test_traced_operation_records_nested_spans():
    record = spectrum_op(trace=True)
    assert record["ok"], record["problems"]
    names = [span[0] for span in record["spans"]]
    assert names[0] == "cli.main" and record["spans"][0][3] == -1
    class_sum = record["spans"][names.index("operators.class_sum")]
    assert class_sum[3] >= 0 and class_sum[4]["dim"] == 16 and class_sum[4]["nnz"] > 0
    assert "heisenberg.spectrum_report" in names and "reporting.atomic_write" in names
    assert record["cache"]["operators.class_sum"] == [0, 1]


def test_one_point_verify_grid_against_reference():
    point = [row for row in REFERENCE["verify_dense"]
             if row[1:5] == [1, 2, 2, "full"]]
    argv = ["verify", "--n", "1", "--nu", "2", "--m", "2", "--subspace", "full",
            "--no-timestamp", "--out", report_path("selftest")]
    record = run_operation("selftest", "verify-point", argv,
                           lambda r: check_verify(r, point, "dense"), False)
    assert record["ok"], record["problems"]
    report = json.loads((ROOT / report_path("selftest")).read_text())
    broken = [row[:7] + [(row[7] or 0.0) + 1e-6] for row in point]
    assert check_verify(report, broken, "dense")
    assert check_verify(report, point[1:], "dense")
    sampled = run_operation("selftest", "verify-point", argv + ["--mode", "sampled", "--k", "32"],
                            lambda r: check_verify(r, point, "sampled"), False)
    assert sampled["ok"], sampled["problems"]
    report = json.loads((ROOT / report_path("selftest")).read_text())
    lowered = [row[:7] + [None if row[7] is None else row[7] / 2] for row in point]
    assert any(row[7] for row in point) and check_verify(report, lowered, "sampled")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify-dense",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
