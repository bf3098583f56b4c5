"""Host-throughput benchmark for the runtime hot path.

Not a paper figure: this file measures how fast the *host* machine
chews through simulated work, guarding the hot-path overhaul (kernel
dispatch loop, route-compiled transport, proxy fast path, batched
coherence, crypto memo caches).  Four workloads:

- **bare kernel** — a single ticker process scheduling 100k timeouts:
  pure event-dispatch overhead, no framework above the simulator.
- **deployed chain** — 10k sends through the planned
  MC -> VMS -> E -> D -> MS chain (scenario DS0): the full runtime
  steady state.
- **coherence flush fan-out** — DS500's count-policy sync storm plus a
  synthetic 64-replica invalidation broadcast.

``BENCH_throughput.json`` (checked in next to this file) records the
pre-overhaul baseline and the post-overhaul numbers; each test fails if
it runs more than ``REGRESSION_FACTOR``x slower than the committed
"current" numbers (a generous guard — CI machines vary, order-of-
magnitude regressions don't).  The simulated results of the kernel,
chain and flush workloads (event count, mean send latency, sync count)
must equal the committed ones exactly: the kernel has a single dispatch
loop and no slow twin to compare against, so the committed numbers are
its reference.  Refresh the file on a quiet machine with
``REPRO_WRITE_BENCH_BASELINE=1 pytest benchmarks/bench_throughput.py``.

``test_fast_path_speedup`` is machine-independent: it runs the same
chain workload with every hot-path knob on vs off *in the same process*
and asserts the ratio, pinning the overhaul's ≥3x claim.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.coherence import AttributeConflictMap, CoherenceDirectory, Update
from repro.experiments import run_scenario
from repro.obs import NULL_OBS
from repro.services.mail import crypto
from repro.sim import Simulator

BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_throughput.json"
#: fail when a workload runs this much slower than the committed number
REGRESSION_FACTOR = 2.0
_WRITE = os.environ.get("REPRO_WRITE_BENCH_BASELINE", "0") == "1"

KNOBS_OFF = {
    "compile_routes": False,
    "proxy_fast_path": False,
    "batch_coherence": False,
}


def _baseline() -> dict:
    return json.loads(BASELINE_PATH.read_text())


def _check_or_record(key: str, measured: dict, pins: tuple = ()) -> None:
    """Regression-guard ``measured['wall_s']`` against the committed
    numbers and require each simulated result named in ``pins`` to equal
    its committed value exactly, or refresh the numbers when
    REPRO_WRITE_BENCH_BASELINE=1."""
    data = _baseline()
    if _WRITE:
        data.setdefault("current", {})[key] = measured
        BASELINE_PATH.write_text(json.dumps(data, indent=2) + "\n")
        return
    for pin in pins:
        assert measured[pin] == data["current"][key][pin], (
            f"{key}: simulated {pin} {measured[pin]!r} differs from the "
            f"committed {data['current'][key][pin]!r}"
        )
    committed = data["current"][key]["wall_s"]
    assert measured["wall_s"] < committed * REGRESSION_FACTOR, (
        f"{key}: {measured['wall_s']:.3f}s is more than "
        f"{REGRESSION_FACTOR}x slower than the committed {committed:.3f}s "
        f"baseline — hot-path regression?"
    )


# -- workloads ---------------------------------------------------------------

def _run_bare_kernel(n_events: int = 100_000) -> dict:
    sim = Simulator(obs=NULL_OBS)

    def ticker():
        for _ in range(n_events):
            yield sim.timeout(1.0)

    sim.process(ticker(), name="ticker")
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return {
        "wall_s": round(wall, 4),
        "events": sim._seq,
        "events_per_s": round(sim._seq / wall),
    }


def _run_deployed_chain(n_sends: int = 10_000, **kwargs) -> dict:
    t0 = time.perf_counter()
    result = run_scenario(
        "DS0", 1, n_sends=n_sends, n_receives=0, obs=NULL_OBS, **kwargs
    )
    wall = time.perf_counter() - t0
    assert not result.errors
    return {
        "wall_s": round(wall, 4),
        "sends": n_sends,
        "msgs_per_s": round(n_sends / wall, 1),
        "mean_send_ms": result.mean_send_ms,
    }


def _run_coherence_flush(n_sends: int = 1000) -> dict:
    t0 = time.perf_counter()
    result = run_scenario(
        "DS500", 5, n_sends=n_sends, n_receives=0, obs=NULL_OBS
    )
    wall = time.perf_counter() - t0
    assert not result.errors
    return {
        "wall_s": round(wall, 4),
        "syncs": result.coherence_syncs,
        "mean_send_ms": result.mean_send_ms,
    }


def _run_broadcast_fanout(
    n_replicas: int = 64, n_updates: int = 500, rounds: int = 20
) -> dict:
    directory = CoherenceDirectory(
        AttributeConflictMap("sensitivity", "TrustLevel", "le"), obs=NULL_OBS
    )

    class _Host:
        def on_invalidate(self, updates):
            pass

    for i in range(n_replicas):
        directory.register_replica(
            family="MailServer",
            config=("ViewMailServer", (("TrustLevel", 1 + i % 5),)),
            host=_Host(),
        )
    batch = [
        Update(op="store_message", attributes={"sensitivity": 1 + i % 5})
        for i in range(n_updates)
    ]
    t0 = time.perf_counter()
    for _ in range(rounds):
        directory.broadcast_invalidations("MailServer", batch)
    wall = time.perf_counter() - t0
    return {
        "wall_s": round(wall, 4),
        "invalidations": directory.stats.invalidations,
        "deliveries_per_s": round(n_replicas * rounds / wall, 1),
    }


# -- benchmarks --------------------------------------------------------------

def test_bare_kernel_events(benchmark, report_lines):
    measured = benchmark.pedantic(_run_bare_kernel, rounds=1, iterations=1)
    benchmark.extra_info.update(measured)
    _check_or_record("bare_kernel", measured, pins=("events",))
    report_lines.append(
        f"Throughput: bare kernel {measured['events_per_s']:,} events/s "
        f"({measured['events']} events in {measured['wall_s']:.2f} s)"
    )


def test_deployed_chain_throughput(benchmark, report_lines):
    measured = benchmark.pedantic(_run_deployed_chain, rounds=1, iterations=1)
    benchmark.extra_info.update(measured)
    _check_or_record("deployed_chain_10k", measured, pins=("mean_send_ms",))
    report_lines.append(
        f"Throughput: deployed chain {measured['msgs_per_s']:,} sends/s "
        f"(10k sends in {measured['wall_s']:.2f} s)"
    )


def test_coherence_flush_throughput(benchmark, report_lines):
    measured = benchmark.pedantic(_run_coherence_flush, rounds=1, iterations=1)
    benchmark.extra_info.update(measured)
    _check_or_record(
        "coherence_flush", measured, pins=("syncs", "mean_send_ms")
    )
    report_lines.append(
        f"Throughput: DS500 flush workload in {measured['wall_s']:.2f} s "
        f"({measured['syncs']} syncs)"
    )


def test_broadcast_fanout_throughput(benchmark, report_lines):
    measured = benchmark.pedantic(_run_broadcast_fanout, rounds=1, iterations=1)
    benchmark.extra_info.update(measured)
    _check_or_record("broadcast_fanout", measured)
    report_lines.append(
        f"Throughput: 64-replica invalidation broadcast "
        f"{measured['deliveries_per_s']:,} deliveries/s"
    )


def test_fast_path_speedup(benchmark, report_lines):
    """All knobs on vs all knobs off, same process, same workload: ≥3x.

    The off-configuration also disables the crypto memo caches, so the
    comparison spans every layer of the overhaul.  2k sends keeps the
    slow arm affordable while staying deep in the steady state.
    """

    def compare():
        crypto.configure_cache(False)
        try:
            slow = _run_deployed_chain(n_sends=2000, **KNOBS_OFF)
        finally:
            crypto.configure_cache(True)
        fast = _run_deployed_chain(n_sends=2000)
        # Same simulated result either way — only the host time moves.
        assert fast["mean_send_ms"] == slow["mean_send_ms"]
        return {"fast": fast, "slow": slow,
                "speedup": round(slow["wall_s"] / fast["wall_s"], 2)}

    measured = benchmark.pedantic(compare, rounds=1, iterations=1)
    benchmark.extra_info.update(measured)
    assert measured["speedup"] >= 3.0, (
        f"hot-path overhaul promises >=3x; measured {measured['speedup']}x "
        f"(fast {measured['fast']['wall_s']:.2f}s vs "
        f"slow {measured['slow']['wall_s']:.2f}s)"
    )
    report_lines.append(
        f"Throughput: hot path on vs off -> {measured['speedup']:.1f}x "
        f"({measured['fast']['wall_s']:.2f}s vs {measured['slow']['wall_s']:.2f}s "
        f"for 2k sends)"
    )
