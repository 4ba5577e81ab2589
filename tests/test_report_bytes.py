"""Report-bytes oracle: fixed CLI runs must reproduce the committed goldens.

Each case runs ``gentile <command> ... --no-timestamp`` in a scratch working
directory with a relative ``--out`` (reports echo the output path), then
compares the file byte for byte with ``tests/golden/<name>``.  The run's
standard output, the summary that echoes the same relative path, is held to
its ``### <name>`` section of ``tests/golden/cli_stdout.txt``.

The text of the help screens, of ``--version`` and of argparse's errors,
at a terminal width of 80 columns, is held to ``tests/golden/cli_text.txt``
the same way: the parser is built anew on every call, and how it is built
must not show.

A change that moves a number on purpose regenerates the goldens with
``PYTHONPATH=src python tests/test_report_bytes.py`` and says in its
description which values changed and why.
"""

import contextlib
import io
import os
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
    "spectrum_m3.csv": [
        "spectrum", "--compare", "--nu", "2..3", "--m", "3", "--n", "1..2", "--format", "csv",
    ],
    "verify_sampled_m3.json": [
        "verify", "--mode", "sampled", "--k", "32", "--seed", "3", "--n", "1..2", "--nu", "2",
        "--m", "3", "--subspace", "full,sector:2",
    ],
    "partitions_6_3.json": ["partitions", "--N", "6", "--m", "3"],
    "partitions_6_3.csv": ["partitions", "--N", "6", "--m", "3", "--format", "csv"],
}


#: Each screen's argv: the top-level and subcommand help, the version, an
#: unknown option and a missing ``--nu``; then no argument, an unknown
#: command, help before the command, the version after it, a stray argument,
#: an ambiguous abbreviation, a value that is not a number and a top-level
#: option before the command.
SCREENS = [["--help"], ["verify", "--help"], ["spectrum", "--help"], ["partitions", "--help"],
           ["--version"], ["spectrum", "--nu", "2", "--bogus"], ["spectrum", "--m", "2"],
           [], ["bogus"], ["-h", "spectrum"], ["spectrum", "--nu", "2", "--version"],
           ["verify", "--nu", "2", "extra"], ["spectrum", "--nu", "2", "--c"],
           ["partitions", "--N", "x"], ["--no-timestamp", "spectrum", "--nu", "2"]]


def _screens() -> str:
    """Each screen's argv, exit code, standard output and standard error."""
    text = []
    for argv in SCREENS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        text.append(f"### {' '.join(argv)} exit {code}\n--- stdout\n{out.getvalue()}"
                    f"--- stderr\n{err.getvalue()}")
    return "".join(text)


def test_cli_text_matches_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _screens() == (GOLDEN / "cli_text.txt").read_text()


def _report(name: str) -> tuple[bytes, str]:
    """Run one case in the working directory and return the report bytes and
    the standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(CASES[name] + ["--no-timestamp", "--out", name]) == 0
    return Path(name).read_bytes(), out.getvalue()


def _stdout_sections() -> dict[str, str]:
    """The golden standard output of each case, by case name."""
    text = (GOLDEN / "cli_stdout.txt").read_text()
    return dict(section.split("\n", 1) for section in text.split("### ")[1:])


def test_stdout_golden_holds_every_case():
    assert list(_stdout_sections()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report, stdout = _report(name)
    assert report == (GOLDEN / name).read_bytes()
    assert stdout == _stdout_sections()[name]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    os.chdir(GOLDEN)
    Path("cli_stdout.txt").write_text(
        "".join(f"### {case}\n{_report(case)[1]}" for case in sorted(CASES)))
    os.environ["COLUMNS"] = "80"
    Path("cli_text.txt").write_text(_screens())
