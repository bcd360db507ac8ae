"""Record one untraced and one traced run of every workload as a result file.

Usage (from the repository root):

    python3 bench/record.py --label NAME [--seed N] [--seconds S]

writes ``bench/results/BENCH_<NAME>.json`` with, per workload, the result
line of each run, its printed report (metrics with units, error_frac,
failures, environment) and the wall time of the run.  Later changes record
their own file with the same seed and seconds on the same machine, so that
a claimed gain is a before/after pair of these files.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from run import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args()

    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=200, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            record["workloads"].setdefault(workload, {})["trace" if trace else "plain"] = {
                "result": json.loads(lines[-1]),
                "report": lines[:-1],
                "wall_s": time.monotonic() - start,
            }
            print(f"{workload} trace={trace} done", file=sys.stderr)
    out = BENCH / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
