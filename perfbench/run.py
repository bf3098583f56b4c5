"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload fig7-grid --seed 0 --seconds 30 --trace 0

The run repeats whole rounds of the workload's seeded inputs until
``--seconds`` of host time are spent (at least three rounds), checks every
round's outputs, and prints the metrics by name and unit, a line with the
simulated outcome of the first round, then one JSON object as the last
line of standard output.  ``--trace 0`` reports the end-to-end metrics,
with host times scaled to the reference host (``calibration.py``);
``--trace 1`` runs one untraced round to compare
against, then traced rounds, and reports the per-layer metrics (see
``tracing.py``).  A failed check prints its problems to standard error
and exits with status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
MIN_ROUNDS = 3

#: (name, unit) of the end-to-end metrics, in BENCHMARK.json's order
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("peak_rss_mb", "MB"),
)


def end_to_end(rounds, scales, peak_rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics of an untraced run: the host times of each
    round scaled to the reference host (see ``calibration.py``), then
    medians over rounds; and the process's peak resident memory through
    its first round."""
    return {
        "wall_s": statistics.median(
            r.wall_s * k for r, k in zip(rounds, scales)
        ),
        "setup_s": statistics.median(
            r.setup_s * k for r, k in zip(rounds, scales)
        ),
        "ops_per_s": statistics.median(
            (r.attempted - r.failed) / (r.measured_s * k)
            for r, k in zip(rounds, scales)
        ),
        "peak_rss_mb": peak_rss_mb,
    }


def simulated_outcome(rnd) -> str:
    """One line that pins a round's simulated outcome: its signature and
    the simulated latencies behind it, identical for a fixed seed on any
    host and across changes meant only to make the simulator faster."""
    from checks import percentile

    figures = {
        "send_p50_ms": percentile(sorted(rnd.send_ms), 50),
        "send_p99_ms": percentile(sorted(rnd.send_ms), 99),
        "fetch_p50_ms": percentile(sorted(rnd.fetch_ms), 50),
        "bind_ms": statistics.fmean(rnd.bind_ms) if rnd.bind_ms else None,
    }
    for name, values in sorted(rnd.outcomes.items()):
        figures[name] = statistics.median(values) if values else None
    return "simulated " + " ".join(
        [f"signature={rnd.signature}"]
        + [f"{k}={v!r}" for k, v in figures.items()]
    )


def run_round(workload):
    """One round, after collecting the previous round's cyclic garbage, so
    no round pays for a collection of its predecessor's runtime."""
    gc.collect()
    return workload.run_round()


def run_rounds(workload, seconds: float):
    """Whole rounds until the next one would end past ``seconds``.

    Also returns each round's scale to the reference host, from the
    calibration kernel timed before and after it, and the peak resident
    size (MB) once the first round is done: later rounds raise the
    process's peak on some workloads (the mail crypto's bounded block
    caches fill over several rounds), so read at the end the figure would
    depend on how many rounds fit in the run."""
    from calibration import REFERENCE_S, host_seconds

    rounds = []
    kernel_s = [host_seconds()]
    start = time.perf_counter()
    peak_rss_mb = None
    while True:
        rounds.append(run_round(workload))
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        kernel_s.append(host_seconds())
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + elapsed / len(rounds) > seconds:
            scales = [
                2.0 * REFERENCE_S / (before + after)
                for before, after in zip(kernel_s, kernel_s[1:])
            ]
            return rounds, scales, peak_rss_mb


def problems_of(rounds) -> List[str]:
    out = []
    for i, rnd in enumerate(rounds):
        for check, problems in rnd.problems.items():
            out.extend(f"round {i}: {check}: {p}" for p in problems)
        if rnd.signature != rounds[0].signature:
            out.append(
                f"round {i}: simulated outcome {rnd.signature} differs from "
                f"round 0's {rounds[0].signature} on the same inputs"
            )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = HERE.parent / "src"
    if not (src / "repro").is_dir():
        # Measure the checkout's own source, never an installed copy.
        parser.error(f"no repro package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)

    if args.trace:
        from tracing import PER_LAYER, traced_run

        out = HERE.parent / ".perfbench" / f"trace-{args.workload}-{args.seed}.jsonl"
        rounds, metrics = traced_run(workload, args.seconds, out)
        units = dict(PER_LAYER)
    else:
        rounds, scales, peak_rss_mb = run_rounds(workload, args.seconds)
        metrics = end_to_end(rounds, scales, peak_rss_mb)
        units = dict(END_TO_END)

    problems = problems_of(rounds)
    for line in problems:
        print(line, file=sys.stderr)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"{args.workload} seed={args.seed} rounds={len(rounds)} "
          f"attempted={attempted} failed={failed} "
          f"checks={'ok' if not problems else 'FAILED'}")
    if not args.trace:
        print("rounds host setup_s/measured_s*scale " + " ".join(
            f"{r.setup_s:.4f}/{r.measured_s:.4f}*{k:.4f}"
            for r, k in zip(rounds, scales)))
    print(simulated_outcome(rounds[0]))
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
