"""Regenerate the reference figures: every workload in BENCHMARK.json, one
fresh process per seed, then each metric's median and quartile spread over
the seeds, printed to standard output.

    python3 perfbench/reference.py --seeds 0-9 --seconds 30 [--trace 0|1]

Runs one at a time, so the runs do not compete for the host.  The spread
is (Q3 - Q1) / median with quartiles from ``statistics.quantiles(n=4)``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=HERE.parent, timeout=900,
            )
            if proc.returncode != 0:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
        if not results:
            continue
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {len(results)} runs, failed share {sorted(shares)}, "
              f"all correct: {all(r['correct'] for r in results)}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            spread = float("nan")
            if len(values) >= 2 and median:
                q1, _q2, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
            print(f"  {name:32s} median {median:14.6g} {first['unit']:10s} "
                  f"spread {spread:7.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
