"""Bit-stable JSON/CSV emission for verification grids, spectra, tables.

Numbers serialize as Python's shortest round-trip decimal in both formats,
so the JSON and CSV views of one run carry identical values.  The CSV rows
of ``verify`` and ``partitions`` are the JSON records' values under a header
of their keys (a partition reads as its label); ``spectrum`` flattens its
nested records into rows of its own.  Files are written atomically (temp
file in the target directory, then rename).  Row and key order are fixed,
so reruns with the same inputs are byte-identical apart from the optional
timestamp field.
"""

from __future__ import annotations

import csv
import io
import json
import os
import uuid
from typing import Iterable, Optional, Sequence

from .heisenberg import SpectrumReport
from .partitions import casimir_sp, casimir_value, weight, weyl_dimension

SPECTRUM_HEADER = ["nu", "m", "n", "source", "eigenvalue", "multiplicity", "partition", "flag"]


def float_repr(value: Optional[float]) -> str:
    """Shortest round-trip decimal; empty string for a missing value."""
    if value is None:
        return ""
    return repr(float(value))


def partition_label(partition: Sequence[int]) -> str:
    return "(" + ",".join(str(p) for p in partition) + ")"


def json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, allow_nan=False) + "\n").encode("utf-8")


def csv_bytes(header: Sequence[str], rows: Iterable[Sequence]) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue().encode("utf-8")


def record_table(records: Sequence[dict]) -> tuple[list[str], Iterable[list]]:
    """CSV header and rows of flat records: the first record's keys, then each
    record's values, with a ``partition`` rendered by :func:`partition_label`.
    """
    return list(records[0]), (
        [partition_label(v) if k == "partition" else v for k, v in r.items()] for r in records
    )


def report_payload(config: dict, version: str, key: str, records: Sequence[dict],
                   timestamp: Optional[str]) -> dict:
    """JSON report: config, version, optional timestamp, then ``key: records``."""
    payload: dict = {"config": config, "version": version}
    if timestamp is not None:
        payload["generated_at"] = timestamp
    payload[key] = list(records)
    return payload


def atomic_write(path: str, data: bytes) -> None:
    """Write-temp-then-rename so readers never observe a partial file.  The
    temp file is created as ``open`` creates one, with mode 0o666 under the
    process umask."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    tmp_path = os.path.join(directory, f".tmp-report-{uuid.uuid4().hex}")
    fd = os.open(tmp_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


# -- spectrum ----------------------------------------------------------------


def spectrum_report_dict(report: SpectrumReport) -> dict:
    return {
        "nu": report.nu,
        "m": report.m,
        "n": report.n,
        "constant_convention": report.constant,
        "ed": [
            {"eigenvalue": value, "multiplicity": mult}
            for value, mult in report.ed_spectrum
        ],
        "casimir": [
            {
                "variant": variant,
                "form": form,
                "levels": [
                    {
                        "partition": list(level.partition),
                        "eigenvalue": level.energy,
                        "weyl_dimension": level.weyl_dim,
                    }
                    for level in levels
                ],
            }
            for variant, form, levels in report.casimir
        ],
        "singular": [
            {"variant": variant, "form": form, "flag": "singular"}
            for variant, form in report.singular_forms
        ],
        "matches": [
            {
                "variant": match.variant,
                "form": match.form,
                "sign": match.sign,
                "max_deviation": match.max_deviation,
                "factors": {
                    partition_label(part): factor
                    for part, factor in sorted(match.factors.items(), reverse=True)
                },
                "matched": match.matched,
            }
            for match in report.matches
        ],
    }


def spectrum_rows(reports: Sequence[SpectrumReport]) -> list[list]:
    rows = []
    for report in reports:
        base = [report.nu, report.m, report.n]
        for value, mult in report.ed_spectrum:
            rows.append(base + ["ed", float_repr(value), mult, "", ""])
        for variant, form, levels in report.casimir:
            source = f"casimir:{variant}:{form}"
            for level in levels:
                rows.append(
                    base
                    + [
                        source,
                        float_repr(level.energy),
                        level.weyl_dim,
                        partition_label(level.partition),
                        "",
                    ]
                )
        for variant, form in report.singular_forms:
            rows.append(base + [f"casimir:{variant}:{form}", "", "", "", "singular"])
    return rows


# -- partitions ---------------------------------------------------------------


def partition_table(total: int, m: int) -> list[dict]:
    from .partitions import partitions_of

    table = []
    for part in partitions_of(total, m):
        table.append(
            {
                "partition": list(part),
                "weight": weight(part),
                "s1": casimir_sp(1, part, m),
                "s2": casimir_sp(2, part, m),
                "casimir2_raw": casimir_value(2, part, m, "raw"),
                "casimir2_shifted": casimir_value(2, part, m, "shifted"),
                "weyl_dimension": weyl_dimension(part, m),
            }
        )
    return table
