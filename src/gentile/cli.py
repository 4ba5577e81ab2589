"""Command-line surface: ``gentile verify | spectrum | partitions``.

Exit codes: 0 on success (contested residuals never fail a run), 2 when a
guaranteed identity misses its tolerance, 3 on sizing or configuration
errors, which covers every ``ValueError`` the library raises.  Reports land
in ``--out`` or, by default, in the directory named by the
``GENTILE_OUTPUT_DIR`` environment variable (falling back to the working
directory).
"""

from __future__ import annotations

import argparse
import os
import sys
from datetime import datetime, timezone
from typing import Optional, Sequence

from . import __version__
from .basis import DEFAULT_DIMENSION_CAP, check_full_dimension, check_sector
from .heisenberg import spectrum_report
from .operators import DENSE_EIG_CAP
from .reporting import (
    PARTITION_HEADER,
    SPECTRUM_HEADER,
    VERDICT_HEADER,
    atomic_write,
    csv_bytes,
    float_repr,
    json_bytes,
    partition_label,
    partition_table,
    partitions_rows,
    report_payload,
    spectrum_report_dict,
    spectrum_rows,
    verdict_rows,
)
from .scalars import GentileOrder
from .verifier import (
    CONTESTED,
    GUARANTEED,
    INTERPRETATIONS,
    IdentityId,
    expand_tasks,
    run_grid,
    tolerance_for,
)

MAX_TASKS = 10**4

OUTPUT_DIR_ENV = "GENTILE_OUTPUT_DIR"


class CliError(Exception):
    """Configuration problem; maps to exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract says 3
        self.exit(3, f"{self.prog}: error: {message}\n")


def _parse_int_list(text: str, name: str) -> list[int]:
    """Accept ``5``, ``1..3``, and comma lists like ``1,2,5``."""
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
            values.extend(range(lo_i, hi_i + 1))
        else:
            try:
                values.append(int(chunk))
            except ValueError:
                raise CliError(f"bad value {chunk!r} for --{name}") from None
    if not values:
        raise CliError(f"--{name} expanded to nothing")
    return values


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
    return out


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
                  header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write the JSON payload or the CSV table, per ``--format``, atomically."""
    if args.format == "json":
        timestamp = (
            None if args.no_timestamp
            else datetime.now(timezone.utc).isoformat(timespec="seconds")
        )
        data = json_bytes(report_payload(config, __version__, key, records, timestamp))
    else:
        data = csv_bytes(header, rows)
    atomic_write(out_path, data)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gentile", description=__doc__)
    parser.add_argument("--version", action="version", version=f"gentile {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the identity grid", parents=[])
    verify.add_argument("--n", default="1..3", help="orders, e.g. 2 or 1..3 or 1,3")
    verify.add_argument("--nu", default="2..3", help="particle counts")
    verify.add_argument("--m", default="2", help="internal state counts")
    verify.add_argument("--subspace", default="both", help="full, sector:T, or both")
    verify.add_argument("--interpretation", default="both",
                        help="entrywise, hermitian, or both (class-sum relation)")
    verify.add_argument("--mode", default="dense", choices=["dense", "sampled"])
    verify.add_argument("--k", type=int, default=64, help="sampled-mode vector count")
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--format", default="json", choices=["json", "csv"])
    verify.add_argument("--out", default=None)
    verify.add_argument("--no-timestamp", action="store_true")
    verify.add_argument("--cap", type=int, default=DEFAULT_DIMENSION_CAP)
    verify.add_argument("--dense-cap", type=int, default=DENSE_EIG_CAP)

    spectrum = sub.add_parser("spectrum", help="exchange-model spectra")
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

    partitions = sub.add_parser("partitions", help="partition/eigenvalue tables")
    partitions.add_argument("--N", type=int, required=True, help="integer to partition")
    partitions.add_argument("--m", type=int, default=None, help="max parts (default N)")
    partitions.add_argument("--format", default="json", choices=["json", "csv"])
    partitions.add_argument("--out", default=None)
    partitions.add_argument("--no-timestamp", action="store_true")
    return parser


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    ns = _parse_int_list(args.n, "n")
    nus = _parse_int_list(args.nu, "nu")
    ms = _parse_int_list(args.m, "m")
    subspaces = _parse_subspaces(args.subspace)
    interpretations = _parse_interpretations(args.interpretation)

    for n in ns:
        if n < 1:
            raise CliError(f"orders must be >= 1, got {n}")
    for value, name in ((min(nus), "nu"), (min(ms), "m")):
        if value < 1:
            raise CliError(f"--{name} must be >= 1")

    # Pre-flight: every sector must exist and every grid point must enumerate
    # under the cap and, in dense mode, evaluate under the dense cap.
    for n in ns:
        for m in ms:
            for sub in subspaces:
                if sub is not None:
                    check_sector(n, m, sub)
            for nu in nus:
                full_dim = check_full_dimension(n, nu, m, args.cap)
                if args.mode == "dense" and full_dim > args.dense_cap:
                    raise CliError(
                        f"(n={n}, nu={nu}, m={m}) dense evaluation needs dimension "
                        f"{full_dim} > dense cap {args.dense_cap}; use --mode sampled"
                    )

    tasks = expand_tasks(
        ns=ns, nus=nus, ms=ms, subspaces=subspaces,
        interpretations=interpretations, mode=args.mode, k=args.k, seed=args.seed,
    )
    if len(tasks) > MAX_TASKS:
        raise CliError(f"grid expands to {len(tasks)} tasks > limit {MAX_TASKS}")

    verdicts = run_grid(tasks, dimension_cap=args.cap, dense_cap=args.dense_cap)

    fmt = args.format
    out_path = _default_out("verify", fmt, args.out)
    config = {
        "command": "verify",
        "n": ns,
        "nu": nus,
        "m": ms,
        "subspace": ["full" if s is None else f"sector:{s}" for s in subspaces],
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
    _write_report(args, out_path, config, "verdicts", [v.record() for v in verdicts],
                  VERDICT_HEADER, verdict_rows(verdicts))

    # stdout summary: one line per identity.
    print(f"gentile verify — {len(verdicts)} verdicts — report: {out_path}")
    print(f"{'identity':<34} {'tasks':>5} {'pass':>5} {'fail':>5} {'report':>6} {'max residual':>14}")
    guaranteed_failed = 0
    for identity in sorted(IdentityId, key=lambda i: i.value):
        group = [v for v in verdicts if v.identity is identity]
        if not group:
            continue
        npass = sum(1 for v in group if v.status == "pass")
        nfail = sum(1 for v in group if v.status == "fail")
        nreport = sum(1 for v in group if v.status == "report_only")
        if identity in GUARANTEED:
            guaranteed_failed += nfail
        residuals = [v.residual for v in group if v.residual is not None]
        worst = float_repr(max(residuals)) if residuals else "n/a"
        print(f"{identity.value:<34} {len(group):>5} {npass:>5} {nfail:>5} {nreport:>6} {worst:>14}")
    return 2 if guaranteed_failed else 0


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
    forms = ("bose", "fermi", "gentile") if args.compare else ()

    reports = []
    for nu in nus:
        for m in ms:
            for n in ns:
                reports.append(
                    spectrum_report(
                        nu, m, GentileOrder(n), sector=args.sector,
                        variants=variants if args.compare else (),
                        forms=forms, cap=args.cap,
                    )
                )

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
        "constant_convention": 0.0,
    }
    _write_report(args, out_path, config, "spectra",
                  [spectrum_report_dict(r) for r in reports],
                  SPECTRUM_HEADER, spectrum_rows(reports))

    print(f"gentile spectrum — {len(reports)} runs — report: {out_path}")
    for report in reports:
        clusters = ", ".join(
            f"{float_repr(v)} (x{mult})" for v, mult in report.ed_spectrum
        )
        print(f"nu={report.nu} m={report.m} n={report.n}: ED {clusters}")
        for match in report.matches:
            print(
                f"  casimir:{match.variant}:{match.form} sign={match.sign:+d} "
                f"max_dev={float_repr(match.max_deviation)} matched={match.matched}"
            )
        for variant, form in report.singular_forms:
            print(f"  casimir:{variant}:{form} singular prefactor (skipped)")
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
    _write_report(args, out_path, config, "partitions", table,
                  PARTITION_HEADER, partitions_rows(table))

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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "spectrum":
            return _cmd_spectrum(args)
        if args.command == "partitions":
            return _cmd_partitions(args)
        raise CliError(f"unknown command {args.command!r}")
    except (CliError, ValueError) as exc:
        print(f"gentile: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
