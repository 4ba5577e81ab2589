"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 bench/steadiness.py --seeds 1..10 [--workload verify-dense] [--out FILE]

Runs ``bench/run.py`` once per seed and workload with tracing off, and
prints for each metric its median and its quartile spread, the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, beside the metric's bound from ``BENCHMARK.json``.
``--out`` writes the values and summaries as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1..10"))
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out")
    args = parser.parse_args()
    summary = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            rows[metric["name"]] = {"values": values, "median": statistics.median(values),
                                    "spread": spread, "bound": metric["bound"]}
            print(f"{workload:<16} {metric['name']:<12} median {statistics.median(values):>10.5g} "
                  f"{metric['unit']:<3} spread {spread:6.3f} bound {metric['bound']:.2f}"
                  + ("" if spread < metric["bound"] / 3 else "  (above a third of the bound)"))
        failed = sum(r["failed"] for r in runs)
        print(f"{workload:<16} failed operations: {failed} of {sum(r['attempted'] for r in runs)}")
        summary[workload] = {"seeds": args.seeds, "failed": failed, "metrics": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
