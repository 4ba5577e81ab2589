"""Benchmark of the ``gentile`` CLI, end to end and layer by layer.

Usage (from the repository root)::

    python3 bench/run.py --workload verify-dense --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

An operation is one ``gentile.cli.main(argv)`` call in a fresh child process
(``bench/child.py``), because every real CLI call starts with empty lru
caches.  One client runs operations one after another (closed loop) in
whole passes over the workload's operation list, and starts another pass
only while it fits in ``--seconds``.  Every operation's report is checked
(``bench/checks.py``).  Set-up, the time from launching the child until
``gentile.cli`` is imported, is measured apart from work, the time of the
``main`` call.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate; the traced ones wrap
every public function of each layer module (``bench/tracing.py``) and give
the per-layer metrics, and the difference of the two pass times is the
tracing overhead.  The metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_spectrum, check_verify  # noqa: E402
from tracing import CACHED, LAYERS, self_times  # noqa: E402

#: Seconds after which a run kills the operation in flight, counts it and
#: every later one failed, and reports; a run must end within 180 s.
DEADLINE_S = 165

#: The ``spectrum-ladder`` points as (n, m, nu).
LADDER = ([(1, 2, nu) for nu in range(2, 10)] + [(2, 2, nu) for nu in range(2, 6)]
          + [(1, 3, nu) for nu in range(2, 6)] + [(3, 2, 4)])

#: Functions whose calls, self time and sizes the traced run reports.
TRACED = ("operators.class_sum", "basis.enumerate_basis", "operators.eigensolve_hermitian",
          "operators.restrict", "operators.occupation_diag", "verifier.run_task",
          "operators.exchange_op", "operators.unitary_generator", "operators.casimir_c1",
          "operators.casimir_c2", "operators.coupling_sum", "operators.as_operator",
          "heisenberg.spectrum_report")


def report_path(workload: str) -> str:
    return f".bench_run/{workload}.json"


def operations(workload: str, seed: int, reference: dict) -> list[tuple]:
    """``(label, argv, check)`` per operation; ``check(report)`` lists problems."""
    out = ["--out", report_path(workload)]
    if workload == "verify-dense":
        return [("default-grid", ["verify", "--no-timestamp", *out],
                 lambda r: check_verify(r, reference["verify_dense"], "dense"))]
    if workload == "verify-sampled":
        argv = ["verify", "--no-timestamp", "--mode", "sampled", "--k", "64",
                "--seed", str(seed), *out]
        return [("default-grid", argv,
                 lambda r: check_verify(r, reference["verify_dense"], "sampled"))]
    if workload == "spectrum-ladder":
        ops = []
        for n, m, nu in LADDER:
            label = f"n{n}-m{m}-nu{nu}"
            argv = ["spectrum", "--compare", "--no-timestamp", "--nu", str(nu),
                    "--m", str(m), "--n", str(n), *out]
            flags = reference["spectrum_matched"][label]
            ops.append((label, argv,
                        lambda r, n=n, m=m, nu=nu, f=flags: check_spectrum(r, n, m, nu, f)))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def run_operation(workload: str, label: str, argv: list[str], check, trace: bool,
                  timeout: float = DEADLINE_S) -> dict:
    """Run one operation in a child process and check its report."""
    report = ROOT / report_path(workload)
    report.parent.mkdir(exist_ok=True)
    report.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), repr(launched), str(int(trace)), *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 0.1),
        )
    except subprocess.TimeoutExpired:
        return {"label": label, "ok": False, "problems": [f"timed out after {timeout:.1f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"label": label, "ok": False,
                "problems": [f"child exited {proc.returncode}: {proc.stderr[-500:]}"]}
    problems = []
    if record["rc"] != 0:
        problems.append(f"exit code {record['rc']}: {record['error'] or record['stdout'][-300:]}")
    try:
        problems += check(json.loads(report.read_text()))
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable report: {exc}")
    record.update(label=label, ok=not problems, problems=problems)
    return record


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it (nearest rank).

    None when that percentile would be below the median (under 20 samples).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return None
    p = 100 * (n - 10) // n
    return p, ordered[math.ceil(p * n / 100) - 1]


def end_to_end(passes: list[list[dict]]) -> tuple[dict, list[str]]:
    """End-to-end values of the untraced passes, and lines to print.

    ``pass_s`` is the mean over passes, not the median: the machine's speed
    drifts in phases of tens of seconds, and a median over a run's passes
    jumps with whichever phase holds most of them, where a mean moves in
    proportion.  The operation percentiles are printed but not gated: each is
    one operation's time, and between runs it spread more than any bound the
    benchmark may set.
    """
    ops = [op for ops in passes for op in ops if "work_s" in op]
    works = [op["work_s"] for op in ops]
    values = {
        "setup_s": statistics.median(op["setup_s"] for op in ops),
        "pass_s": statistics.mean(sum(op.get("work_s", 0.0) for op in ops) for ops in passes),
        "peak_rss_mb": max(op["peak_rss_mb"] for op in ops),
    }
    attempted = sum(len(ops) for ops in passes)
    failed = sum(1 for ops in passes for op in ops if not op["ok"])
    slowest = max(ops, key=lambda op: op["work_s"])
    lines = [
        "pass work seconds: " + " ".join(
            f"{sum(op.get('work_s', 0.0) for op in ops):.3f}" for ops in passes),
        f"slowest operation: {slowest['label']} {slowest['work_s']:.4f} s",
        f"{'op_s_p50':<44} {statistics.median(works):>14.6g} s   (not gated; {len(works)} operations)",
        f"{'fail_ratio':<44} {failed / attempted:>14.6g} ratio   ({failed} of {attempted} operations)",
    ]
    found = tail(works)
    if found is None:
        lines.append(f"{'op_s_tail':<44} {'n/a':>14} s   ({len(works)} operations; a tail needs 20)")
    else:
        lines.append(f"{'op_s_tail':<44} {found[1]:>14.6g} s   (not gated; p{found[0]} of "
                     f"{len(works)} operations, 10 or more beyond it)")
    return values, lines


def layer_values(ops: list[dict]) -> dict:
    """Per-layer values of one traced pass."""
    values: dict = defaultdict(float)
    bases = set()
    for op in ops:
        spans = op.get("spans", [])
        for span, own in zip(spans, self_times(spans)):
            name, sizes = span[0], span[4] or {}
            values[f"{name.split('.')[0]}.self_s"] += own
            values[f"{name}.calls"] += 1
            values[f"{name}.self_s"] += own
            for size in ("states", "dim", "nnz"):
                if size in sizes:
                    values[f"{name}.{size}"] += sizes[size]
            if "key" in sizes:
                bases.add((op["label"], tuple(sizes["key"])))
            if sizes.get("error"):
                values["verifier.task_errors"] += 1
            values["reporting.bytes_written"] += sizes.get("bytes", 0)
        for name, (hits, attempts) in op.get("cache", {}).items():
            values[f"{name}.cache_hits"] += hits
            values[f"{name}.cache_calls"] += attempts
    # Distinct bases per operation: each operation is a fresh process.
    values["basis.enumerate_basis.distinct"] = len(bases)
    calls = values["basis.enumerate_basis.calls"]
    values["basis.enumerate_basis.reuse_ratio"] = (
        1 - values["basis.enumerate_basis.distinct"] / calls if calls else 0.0)
    hits = sum(values[f"{name}.cache_hits"] for name in CACHED)
    attempts = sum(values[f"{name}.cache_calls"] for name in CACHED)
    values["operators.cache_hit_ratio"] = hits / attempts if attempts else 0.0
    return values


def per_layer(untraced: list[list[dict]], traced: list[list[dict]]) -> tuple[dict, list[str]]:
    per_pass = [layer_values(ops) for ops in traced]
    names = {name for values in per_pass for name in values}
    values = {name: statistics.median(v.get(name, 0.0) for v in per_pass) for name in names}

    def pass_s(passes):
        return statistics.median(sum(op.get("work_s", 0.0) for op in ops) for ops in passes)

    values["trace.overhead_s"] = pass_s(traced) - pass_s(untraced)
    lines = [f"{kind} pass work seconds: " + " ".join(
        f"{sum(op.get('work_s', 0.0) for op in ops):.3f}" for ops in passes)
        for kind, passes in (("untraced", untraced), ("traced", traced))]
    lines.append(f"tracing overhead {values['trace.overhead_s']:+.4f} s per pass")
    lines.append(f"{'layer':<12} {'self_s':>10}")
    for layer in LAYERS:
        lines.append(f"{layer:<12} {values.get(layer + '.self_s', 0.0):>10.4f}")
    lines.append(f"{'function':<34} {'calls':>7} {'self_s':>10} {'dim/states':>10} {'nnz':>10}")
    for name in TRACED:
        lines.append(
            f"{name:<34} {values.get(name + '.calls', 0):>7.0f} "
            f"{values.get(name + '.self_s', 0.0):>10.4f} "
            f"{values.get(name + '.dim', values.get(name + '.states', 0)):>10.0f} "
            f"{values.get(name + '.nnz', 0):>10.0f}")
    for name in CACHED:
        hits, calls = values.get(name + ".cache_hits", 0), values.get(name + ".cache_calls", 0)
        lines.append(f"cache {name}: {hits:.0f} hits in {calls:.0f} calls")
    lines.append(f"basis reuse: 1 - {values['basis.enumerate_basis.distinct']:.0f} distinct / "
                 f"{values.get('basis.enumerate_basis.calls', 0):.0f} calls")
    lines += breakdown(max((op for ops in traced for op in ops if "work_s" in op),
                           key=lambda op: op["work_s"]))
    return values, lines


def breakdown(op: dict) -> list[str]:
    """Where the time of one traced operation went, largest self times first."""
    totals: dict = defaultdict(float)
    spans = op.get("spans", [])
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] += own
    top = sorted(totals.items(), key=lambda kv: -kv[1])[:6]
    lines = [f"slowest traced operation {op['label']}: {op['work_s']:.4f} s"]
    lines += [f"  {name:<34} {own:>9.4f} s {100 * own / op['work_s']:5.1f}%" for name, own in top]
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    reference = json.loads((HERE / "reference.json").read_text())
    ops = operations(workload, seed, reference)
    rng = random.Random(seed)
    passes: list[tuple[bool, list[dict], float]] = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        order = list(ops)
        if workload == "spectrum-ladder":
            rng.shuffle(order)
        began = time.monotonic()
        results = [run_operation(workload, label, argv, check, traced,
                                 start + DEADLINE_S - time.monotonic())
                   for label, argv, check in order]
        passes.append((traced, results, time.monotonic() - began))
        # Passes alternate when tracing, so the one two back predicts the next.
        next_wall = passes[-2][2] if trace and len(passes) >= 2 else passes[-1][2]
        if len(passes) >= 1 + trace and time.monotonic() - start + next_wall > seconds:
            break
    failed_ops = [op for _, results, _ in passes for op in results if not op["ok"]]
    if len(failed_ops) == sum(len(results) for _, results, _ in passes):
        sys.exit(f"bench: every {workload} operation failed: {failed_ops[0]['problems'][0]}")
    untraced = [results for kind, results, _ in passes if not kind]
    for op in failed_ops[:5]:
        print(f"FAILED {op['label']}: {'; '.join(op['problems'])[:500]}")
    if trace:
        values, lines = per_layer(untraced, [r for kind, r, _ in passes if kind])
        wanted = spec["per_layer"]
    else:
        values, lines = end_to_end(untraced)
        wanted = spec["end_to_end"]
    print(f"workload {workload}: seed {seed}, {len(passes)} passes in "
          f"{time.monotonic() - start:.1f} s, trace {int(trace)}")
    for line in lines:
        print(line)
    metrics = {}
    for metric in wanted:
        value = float(values.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:<44} {value:>14.6g} {metric['unit']}")
    attempted = sum(len(results) for _, results, _ in passes)
    return {"correct": not failed_ops, "attempted": attempted, "failed": len(failed_ops),
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "gentile" / "cli.py").is_file():
        print(f"bench: no gentile sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {names} or all")
    for workload in names if args.workload == "all" else [args.workload]:
        print(json.dumps(run(workload, args.seed, args.seconds, bool(args.trace), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
