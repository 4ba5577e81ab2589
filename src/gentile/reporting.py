"""Bit-stable JSON/CSV emission for verification grids, spectra, tables.

Numbers serialize as Python's shortest round-trip decimal in both formats,
so the JSON and CSV views of one run carry identical values.  The JSON is
written by one recursive writer, :func:`json_bytes`, which gives exactly the
bytes of the json module's ``dumps(payload, indent=2, allow_nan=False)``
plus a newline; with an indent, ``dumps`` runs the json module's
pure-Python encoder, which took longer than the writer on every report.
The CSV rows of ``verify`` and ``partitions`` are the JSON records' values
under a header of their keys (a partition reads as its label); ``spectrum``
flattens its nested records into rows of its own.  The module writes the
records it is given and imports no product module: a spectrum record is
described once, by :mod:`gentile.heisenberg`, which builds it, and is read
here by key.  Files are written atomically (temp file in the target
directory, then rename).  Row and key order are fixed, so reruns with the
same inputs are byte-identical apart from the optional timestamp field.
"""

from __future__ import annotations

import csv
import io
import math
import os
import uuid
from json.encoder import encode_basestring_ascii
from typing import Iterable, Optional, Sequence

from .partitions import (
    casimir_sp,
    casimir_value,
    partition_label,
    partitions_of,
    weight,
    weyl_dimension,
)

SPECTRUM_HEADER = ["nu", "m", "n", "source", "eigenvalue", "multiplicity", "partition", "flag"]


def float_repr(value: float) -> str:
    """Shortest round-trip decimal."""
    return repr(float(value))


def _write(value, indent: str, out: list[str]) -> None:
    """Append ``value`` to ``out`` as the json module's ``dumps(value,
    indent=2, allow_nan=False)`` writes it, its nested lines indented by
    ``indent`` and two spaces a level.  Tuples are written as lists and
    dicts in their order; NaN and infinities raise ``ValueError`` with
    json's message, and any other type, or a key that is not a ``str``,
    raises ``TypeError``."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("Out of range float values are not JSON compliant: " + repr(value))
        out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        inner = indent + "  "
        opening = "[\n" + inner
        for item in value:
            out.append(opening)
            opening = ",\n" + inner
            _write(item, inner, out)
        out.append("\n" + indent + "]" if value else "[]")
    elif isinstance(value, dict):
        inner = indent + "  "
        opening = "{\n" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(opening + encode_basestring_ascii(key) + ": ")
            opening = ",\n" + inner
            _write(item, inner, out)
        out.append("\n" + indent + "}" if value else "{}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_bytes(payload: dict) -> bytes:
    """The json module's ``dumps(payload, indent=2, allow_nan=False)`` and a
    newline, encoded."""
    out: list[str] = []
    _write(payload, "", out)
    out.append("\n")
    return "".join(out).encode("utf-8")


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


def spectrum_rows(reports: Sequence[dict]) -> list[list]:
    """CSV rows of spectrum records: ED clusters, predicted levels, singular forms."""
    rows = []
    for report in reports:
        base = [report["nu"], report["m"], report["n"]]
        for cluster in report["ed"]:
            rows.append(base + ["ed", float_repr(cluster["eigenvalue"]),
                                cluster["multiplicity"], "", ""])
        for block in report["casimir"]:
            source = f"casimir:{block['variant']}:{block['form']}"
            for level in block["levels"]:
                rows.append(base + [source, float_repr(level["eigenvalue"]),
                                    level["weyl_dimension"],
                                    partition_label(level["partition"]), ""])
        for skipped in report["singular"]:
            rows.append(base + [f"casimir:{skipped['variant']}:{skipped['form']}",
                                "", "", "", skipped["flag"]])
    return rows


# -- partitions ---------------------------------------------------------------


def partition_table(total: int, m: int) -> list[dict]:
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
