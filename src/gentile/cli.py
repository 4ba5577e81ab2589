"""Command-line surface: ``gentile verify | spectrum | partitions``.

Exit codes: 0 on success (contested residuals never fail a run), 2 when a
guaranteed identity misses its tolerance, 3 on sizing or configuration
errors, which covers every ``ValueError`` the library raises, a report that
cannot be written, a ``verify`` worker that ends without a result (killed by
a signal, say: ``ChildProcessError``), and every ``verify`` verdict with
``status="error"`` (whose report is still written).
Reports land in ``--out`` or, by default, in the directory named by the
``GENTILE_OUTPUT_DIR`` environment variable (falling back to the working
directory).
"""

from __future__ import annotations

import argparse
import gc
# argparse's gettext imports locale when it builds the first parser, and every
# call builds one, so it loads here with the other modules, at start-up.
import locale  # noqa: F401
import os
import shutil
import sys
from collections import Counter
from datetime import datetime, timezone
from functools import partial
from itertools import product
from typing import Callable, Optional, Sequence

from . import __version__
from .basis import DEFAULT_DIMENSION_CAP, DENSE_EIG_CAP, check_dimension, subspace_label
from .heisenberg import CONSTANT_CONVENTION, FORMS, spectrum_report
from .partitions import partition_count, partition_label
from .reporting import (
    SPECTRUM_HEADER,
    atomic_write,
    csv_bytes,
    float_repr,
    json_bytes,
    partition_table,
    record_table,
    report_payload,
    spectrum_rows,
)
from .scalars import GentileOrder
from .verifier import (
    CONTESTED,
    INTERPRETATIONS,
    MAX_TASKS,
    IdentityId,
    expand_tasks,
    run_grid,
    tolerance_for,
)

#: Largest rows x m**2 a partition table may take; the default --N 32 takes 8.5e6.
MAX_PARTITION_WORK = 10**7

OUTPUT_DIR_ENV = "GENTILE_OUTPUT_DIR"


class CliError(Exception):
    """Configuration problem; maps to exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract says 3
        self.exit(3, f"gentile: error: {message}\n")


def _no_repeats(values: list, flag: str, label=str) -> list:
    """Refuse a repeated grid value; the config echo stays what was typed."""
    repeated = [value for value, count in Counter(values).items() if count > 1]
    if repeated:
        raise CliError(f"{flag} repeats {label(repeated[0])}")
    return values


def _parse_int_list(text: str, name: str) -> list[int]:
    """Accept ``5``, ``1..3``, and comma lists like ``1,2,5``, no value twice.

    A range is measured before it is built: no list may hold more than
    ``MAX_TASKS`` values.
    """
    values: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            lo, _, hi = chunk.partition("..")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError:
                raise CliError(f"bad range {chunk!r} for --{name}") from None
            if hi_i < lo_i:
                raise CliError(f"empty range {chunk!r} for --{name}")
            if len(values) + hi_i - lo_i + 1 > MAX_TASKS:
                raise CliError(f"--{name} holds more than {MAX_TASKS} values at range {chunk!r}")
            values.extend(range(lo_i, hi_i + 1))
        else:
            try:
                values.append(int(chunk))
            except ValueError:
                raise CliError(f"bad value {chunk!r} for --{name}") from None
    if not values:
        raise CliError(f"--{name} expanded to nothing")
    return _no_repeats(values, f"--{name}")


def _parse_subspaces(text: str) -> list[Optional[int]]:
    out: list[Optional[int]] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if chunk == "both":
            out.extend([None, 1])
        elif chunk == "full":
            out.append(None)
        elif chunk.startswith("sector:"):
            try:
                out.append(int(chunk.split(":", 1)[1]))
            except ValueError:
                raise CliError(f"bad sector spec {chunk!r}") from None
        else:
            raise CliError(f"subspace must be full, sector:T, or both; got {chunk!r}")
    return _no_repeats(out, "--subspace", subspace_label)


def _parse_interpretations(text: str) -> list[str]:
    mapping = {"entrywise": "entrywise_real", "hermitian": "hermitian_part"}
    if text == "both":
        return list(INTERPRETATIONS)
    if text in mapping:
        return [mapping[text]]
    if text in INTERPRETATIONS:
        return [text]
    raise CliError(f"interpretation must be entrywise, hermitian, or both; got {text!r}")


def _default_out(command: str, fmt: str, given: Optional[str]) -> str:
    if given:
        return given
    base = os.environ.get(OUTPUT_DIR_ENV, ".")
    return os.path.join(base, f"{command}_report.{fmt}")


def _write_report(args, out_path: str, config: dict, key: str, records: Sequence[dict],
                  table: Optional[Callable[[], tuple]] = None) -> None:
    """Write the JSON payload or the CSV table ``table()`` (by default the records'
    keys and values, built for CSV only), per ``--format``, atomically."""
    if args.format == "json":
        timestamp = (
            None if args.no_timestamp
            else datetime.now(timezone.utc).isoformat(timespec="seconds")
        )
        data = json_bytes(report_payload(config, __version__, key, records, timestamp))
    else:
        data = csv_bytes(*(table() if table else record_table(records)))
    try:
        atomic_write(out_path, data)
    except OSError as exc:
        raise CliError(f"cannot write report {out_path}: {exc}") from None


def _verify_options(verify: argparse.ArgumentParser) -> None:
    verify.add_argument("--n", default="1..3", help="orders, e.g. 2 or 1..3 or 1,3")
    verify.add_argument("--nu", default="2..3", help="particle counts")
    verify.add_argument("--m", default="2", help="internal state counts")
    verify.add_argument("--subspace", default="both", help="full, sector:T, or both")
    verify.add_argument("--interpretation", default="both",
                        help="entrywise, hermitian, or both (class-sum relation)")
    verify.add_argument("--mode", default="dense", choices=["dense", "sampled"],
                        help="echoed in the report only, for the benchmark's verify-sampled "
                        "workload; changes no residual")
    verify.add_argument("--k", type=int, default=64,
                        help="echoed in the report only; at least 32 with --mode sampled")
    verify.add_argument("--seed", type=int, default=42, help="echoed in the report only")
    verify.add_argument("--format", default="json", choices=["json", "csv"])
    verify.add_argument("--out", default=None)
    verify.add_argument("--no-timestamp", action="store_true")
    verify.add_argument("--cap", type=int, default=DEFAULT_DIMENSION_CAP)
    verify.add_argument("--dense-cap", type=int, default=DENSE_EIG_CAP,
                        help="largest weight block casimir_spectrum_match may solve densely")


def _spectrum_options(spectrum: argparse.ArgumentParser) -> None:
    spectrum.add_argument("--nu", required=True, help="particle counts")
    spectrum.add_argument("--m", default="2", help="internal state counts")
    spectrum.add_argument("--n", default="1", help="orders")
    spectrum.add_argument("--sector", type=int, default=1)
    spectrum.add_argument("--compare", action="store_true",
                          help="include the partition-route predictions")
    spectrum.add_argument("--variant", default="both", choices=["raw", "shifted", "both"])
    spectrum.add_argument("--format", default="json", choices=["json", "csv"])
    spectrum.add_argument("--out", default=None)
    spectrum.add_argument("--no-timestamp", action="store_true")
    spectrum.add_argument("--cap", type=int, default=DEFAULT_DIMENSION_CAP)


def _partitions_options(partitions: argparse.ArgumentParser) -> None:
    partitions.add_argument("--N", type=int, required=True, help="integer to partition")
    partitions.add_argument("--m", type=int, default=None, help="max parts (default N)")
    partitions.add_argument("--format", default="json", choices=["json", "csv"])
    partitions.add_argument("--out", default=None)
    partitions.add_argument("--no-timestamp", action="store_true")


#: Each subcommand's help line and the function that adds its options.
_COMMANDS = {
    "verify": ("run the identity grid", _verify_options),
    "spectrum": ("exchange-model spectra", _spectrum_options),
    "partitions": ("partition/eigenvalue tables", _partitions_options),
}


def _build_parser(argv: Sequence[str]) -> tuple[_Parser, Sequence[str]]:
    """The parser that reads ``argv``, and the arguments it reads.

    When ``argv`` starts with a subcommand, that subcommand's parser alone
    reads the rest: the parser the full one would hand them to, with the
    command set as a default.  Otherwise, as for ``--help``, ``--version`` or
    no argument, the full parser, with every subcommand and its options,
    reads all of ``argv``.  Every ``_Parser`` error is one ``gentile: error:``
    line, so either parser prints the same screens.  Every help formatter
    takes one terminal width, read once here, the value argparse would read
    afresh for each of them."""
    formatter = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    if argv and argv[0] in _COMMANDS:
        name = argv[0]
        parser = _Parser(prog=f"gentile {name}", formatter_class=formatter)
        _COMMANDS[name][1](parser)
        parser.set_defaults(command=name)
        return parser, argv[1:]
    parser = _Parser(prog="gentile", description=__doc__, formatter_class=formatter)
    parser.add_argument("--version", action="version", version=f"gentile {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_options) in _COMMANDS.items():
        add_options(sub.add_parser(name, help=help_line, formatter_class=formatter))
    return parser, argv


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    ns = _parse_int_list(args.n, "n")
    nus = _parse_int_list(args.nu, "nu")
    ms = _parse_int_list(args.m, "m")
    subspaces = _parse_subspaces(args.subspace)
    interpretations = _parse_interpretations(args.interpretation)
    # Sizing is per task: a task over a cap becomes an error verdict, which
    # exits 3 with the report written.
    tasks = expand_tasks(ns=ns, nus=nus, ms=ms, subspaces=subspaces,
                         interpretations=interpretations)
    if args.mode == "sampled" and args.k < 32:
        raise CliError(f"sampled mode requires k >= 32, got {args.k}")
    verdicts = run_grid(tasks, dimension_cap=args.cap, dense_cap=args.dense_cap)

    fmt = args.format
    out_path = _default_out("verify", fmt, args.out)
    config = {
        "command": "verify",
        "n": ns,
        "nu": nus,
        "m": ms,
        "subspace": [subspace_label(s) for s in subspaces],
        "interpretation": interpretations,
        "mode": args.mode,
        "k": args.k,
        "seed": args.seed,
        "format": fmt,
        "output": out_path,
        "timestamp": not args.no_timestamp,
        "dimension_cap": args.cap,
        "dense_cap": args.dense_cap,
        "tolerances": {i.value: tolerance_for(i) for i in IdentityId},
        "contested": sorted(i.value for i in CONTESTED),
    }
    # Echoed after each record's six task keys: the benchmark's verify-sampled check reads them.
    echo = [("mode", args.mode), ("k", args.k), ("seed", args.seed)]
    records = [dict(items[:6] + echo + items[6:])
               for items in (list(v.record().items()) for v in verdicts)]
    _write_report(args, out_path, config, "verdicts", records)

    # stdout summary: one line per identity.
    print(f"gentile verify — {len(verdicts)} verdicts — report: {out_path}")
    print(f"{'identity':<34} {'tasks':>5} {'pass':>5} {'fail':>5} {'report':>6} "
          f"{'error':>5} {'max residual':>14}")
    for identity in sorted(IdentityId, key=lambda i: i.value):
        group = [v for v in verdicts if v.task.identity is identity]
        if not group:
            continue
        counts = Counter(v.status for v in group)
        residuals = [v.residual for v in group if v.residual is not None]
        worst = float_repr(max(residuals)) if residuals else "n/a"
        print(f"{identity.value:<34} {len(group):>5} {counts['pass']:>5} {counts['fail']:>5} "
              f"{counts['report_only']:>6} {counts['error']:>5} {worst:>14}")
    errors = [v for v in verdicts if v.status == "error"]
    if errors:
        e, t = errors[0], errors[0].task
        print(f"gentile: error: {len(errors)} of {len(verdicts)} tasks are task errors; "
              f"first {t.identity.value} (n={t.n}, nu={t.nu}, m={t.m}, {t.subspace_label}): "
              f"{e.detail}", file=sys.stderr)
        return 3
    return 2 if any(v.status == "fail" for v in verdicts) else 0


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def _cmd_spectrum(args) -> int:
    nus = _parse_int_list(args.nu, "nu")
    ms = _parse_int_list(args.m, "m")
    ns = _parse_int_list(args.n, "n")
    if min(nus) < 2:
        raise CliError("spectra need at least two particles (--nu >= 2)")
    variants = ("shifted", "raw") if args.variant == "both" else (args.variant,)
    forms = FORMS if args.compare else ()

    if min(ms) < 1:
        raise CliError("--m must be >= 1")
    orders = [GentileOrder(n) for n in ns]
    # Size every point before solving any; nothing is enumerated here.
    for nu, m, order in product(nus, ms, orders):
        check_dimension(order.n, nu, m, args.sector, args.cap, DENSE_EIG_CAP)

    reports = [
        spectrum_report(
            nu, m, order, sector=args.sector,
            variants=variants if args.compare else (),
            forms=forms, cap=args.cap,
        )
        for nu, m, order in product(nus, ms, orders)
    ]

    fmt = args.format
    out_path = _default_out("spectrum", fmt, args.out)
    config = {
        "command": "spectrum",
        "nu": nus,
        "m": ms,
        "n": ns,
        "sector": args.sector,
        "compare": args.compare,
        "variants": list(variants),
        "forms": list(forms),
        "format": fmt,
        "output": out_path,
        "timestamp": not args.no_timestamp,
        "dimension_cap": args.cap,
        "constant_convention": CONSTANT_CONVENTION,
    }
    _write_report(args, out_path, config, "spectra", reports,
                  lambda: (SPECTRUM_HEADER, spectrum_rows(reports)))

    print(f"gentile spectrum — {len(reports)} runs — report: {out_path}")
    for report in reports:
        clusters = ", ".join(
            f"{float_repr(c['eigenvalue'])} (x{c['multiplicity']})" for c in report["ed"]
        )
        print(f"nu={report['nu']} m={report['m']} n={report['n']}: ED {clusters}")
        for match in report["matches"]:
            print(
                f"  casimir:{match['variant']}:{match['form']} sign={match['sign']:+d} "
                f"max_dev={float_repr(match['max_deviation'])} matched={match['matched']}"
            )
        for skipped in report["singular"]:
            print(f"  casimir:{skipped['variant']}:{skipped['form']} singular prefactor (skipped)")
    return 0


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def _cmd_partitions(args) -> int:
    if args.N < 0:
        raise CliError("--N must be nonnegative")
    m = args.m if args.m is not None else max(args.N, 1)
    if m < 1:
        raise CliError("--m must be >= 1")
    # Counted first; the closed form for <= 3 parts bounds it below, so a huge N runs no loop.
    rows = partition_count(args.N, min(m, 3))
    if rows <= MAX_TASKS:
        rows = partition_count(args.N, m)
    if rows > MAX_TASKS:
        raise CliError(f"partition table for N={args.N}, m={m} holds more than {MAX_TASKS} rows")
    # Each row is padded to m parts, and its Weyl dimension loops over m*(m-1)/2 pairs.
    if rows * m * m > MAX_PARTITION_WORK:
        raise CliError(f"partition table for N={args.N}, m={m} needs {rows} rows x m**2 = "
                       f"{rows * m * m} steps > limit {MAX_PARTITION_WORK}")
    table = partition_table(args.N, m)

    fmt = args.format
    out_path = _default_out("partitions", fmt, args.out)
    config = {
        "command": "partitions",
        "N": args.N,
        "m": m,
        "format": fmt,
        "output": out_path,
        "timestamp": not args.no_timestamp,
    }
    _write_report(args, out_path, config, "partitions", table)

    print(f"gentile partitions — N={args.N}, m={m} — report: {out_path}")
    print(f"{'partition':<16} {'s1':>4} {'s2':>4} {'c2_raw':>7} {'c2_shifted':>11} {'weyl':>5}")
    for entry in table:
        print(
            f"{partition_label(entry['partition']):<16} {entry['s1']:>4} {entry['s2']:>4} "
            f"{entry['casimir2_raw']:>7} {entry['casimir2_shifted']:>11} "
            f"{entry['weyl_dimension']:>5}"
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    # A call is in practice one short-lived process, and what exists before
    # it (the imported modules) outlives it.  Freezing that for the call means
    # a collection during the call scans only what the call made, so the
    # call's time does not hinge on where the imports left the collector's
    # counters; unfreezing hands it back to the collector afterwards.
    gc.freeze()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        parser, arguments = _build_parser(argv)
        args = parser.parse_args(arguments)
        try:
            if args.command == "verify":
                return _cmd_verify(args)
            if args.command == "spectrum":
                return _cmd_spectrum(args)
            if args.command == "partitions":
                return _cmd_partitions(args)
            raise CliError(f"unknown command {args.command!r}")
        except (CliError, ValueError, ChildProcessError) as exc:
            print(f"gentile: error: {exc}", file=sys.stderr)
            return 3
    finally:
        gc.unfreeze()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
