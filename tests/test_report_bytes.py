"""Report-bytes oracle: fixed CLI runs must reproduce the committed goldens.

Each case runs ``gentile <command> ... --no-timestamp`` in a scratch working
directory with a relative ``--out`` (reports echo the output path), then
compares the file byte for byte with ``tests/golden/<name>``.

A change that moves a number on purpose regenerates the goldens with
``PYTHONPATH=src python tests/test_report_bytes.py`` and says in its
description which values changed and why.
"""

from pathlib import Path

import pytest

from gentile.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify_default.json": ["verify"],
    "verify_default.csv": ["verify", "--format", "csv"],
    "spectrum_compare.json": ["spectrum", "--compare", "--nu", "2..4", "--m", "2", "--n", "1..3"],
    "spectrum_compare.csv": [
        "spectrum", "--compare", "--nu", "2..4", "--m", "2", "--n", "1..3", "--format", "csv",
    ],
    "partitions_6_3.json": ["partitions", "--N", "6", "--m", "3"],
    "partitions_6_3.csv": ["partitions", "--N", "6", "--m", "3", "--format", "csv"],
}


def _report(name: str) -> bytes:
    """Run one case in the working directory and return the report bytes."""
    assert main(CASES[name] + ["--no-timestamp", "--out", name]) == 0
    return Path(name).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _report(name) == (GOLDEN / name).read_bytes()
    capsys.readouterr()


if __name__ == "__main__":
    import os

    GOLDEN.mkdir(exist_ok=True)
    os.chdir(GOLDEN)
    for case in sorted(CASES):
        _report(case)
