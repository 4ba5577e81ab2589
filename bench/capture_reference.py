"""Write ``bench/reference.json``, the expected outputs the benchmark checks.

Usage (from the repository root): ``python3 bench/capture_reference.py``.
It runs the CLI of the checked-out sources once for the default dense
``verify`` grid and once per ``spectrum-ladder`` point, and keeps each
verdict's key, status and residual and each spectrum's match flags.  Run it
only on a commit whose outputs are known good; the committed file was
captured when the benchmark was added.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import LADDER, ROOT  # noqa: E402


def cli(argv: list[str], out: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "gentile.cli", *argv, "--no-timestamp", "--out", out],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    return json.loads(Path(out).read_text())


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        verdicts = cli(["verify"], out)["verdicts"]
        rows = [[v["identity"], v["n"], v["nu"], v["m"], v["subspace"], v["interpretation"],
                 v["status"], v["residual"]] for v in verdicts]
        matched = {}
        for n, m, nu in LADDER:
            spec = cli(["spectrum", "--compare", "--nu", str(nu), "--m", str(m), "--n", str(n)],
                       out)["spectra"][0]
            matched[f"n{n}-m{m}-nu{nu}"] = [[x["variant"], x["form"], x["matched"]]
                                           for x in spec["matches"]]
    text = json.dumps({"verify_dense": rows, "spectrum_matched": matched}, indent=1)
    (HERE / "reference.json").write_text(text + "\n")


if __name__ == "__main__":
    main()
