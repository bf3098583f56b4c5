"""Fast-path-on vs fast-path-off runs must be indistinguishable.

The runtime hot-path overhaul (route-compiled transport, proxy/server
fast paths, batched coherence fan-out, crypto memo caches) exists purely to cut host wall-clock: every knob promises
*bit-identical simulated results*.  These tests pin that promise on the
full mail scenario — same event schedule length, same simulated clock,
same per-send latencies to the last ulp, same coherence counters — for
each knob individually, all knobs together, and under a chaos schedule.
"""

from __future__ import annotations

import pytest

from repro.experiments.mail_setup import build_mail_testbed
from repro.experiments.scenarios_fig7 import _bind_clients, SCENARIOS
from repro.experiments.topology_fig5 import SITE_TRUST
from repro.faults import FaultInjector, FaultPlan
from repro.services.mail import WorkloadConfig, mail_workload
from repro.services.mail import crypto

#: every hot-path knob, each flipped to its "off" (slow-path) setting
KNOBS = {
    "compile_routes": False,     # route-compiled transport
    "proxy_fast_path": False,    # bind-time-resolved proxy path
    "batch_coherence": False,    # per-config coherence fan-out
}

N_CLIENTS = 3
N_SENDS = 120  # x cluster_size 10 = 3600 units: crosses the count:500 policy


def _run_mail(scenario_name: str, fault_specs=None, **testbed_kwargs):
    """One DS-style scenario run, returning a full determinism signature."""
    scenario = SCENARIOS[scenario_name]
    testbed = build_mail_testbed(
        flush_policy=scenario.flush_policy, **testbed_kwargs
    )
    runtime = testbed.runtime
    if fault_specs:
        FaultInjector(runtime, FaultPlan.parse(fault_specs, seed=7)).schedule()
    proxies = _bind_clients(testbed, scenario, N_CLIENTS)
    users = [p.user for p in proxies]
    site_trust = SITE_TRUST[scenario.site]
    procs = []
    for i, proxy in enumerate(proxies):
        cfg = WorkloadConfig(
            user=users[i],
            peers=[u for u in users if u != users[i]] or [users[i]],
            n_sends=N_SENDS,
            n_receives=5,
            max_sensitivity=site_trust,
            seed=i,
        )
        procs.append(
            runtime.sim.process(mail_workload(proxy, cfg), name=f"wl:{users[i]}")
        )
    runtime.sim.run()
    for proc in procs:
        assert not proc.failed, proc.value
    return _signature(runtime, procs)


def _signature(runtime, procs):
    """Everything a hot-path bug could perturb, captured exactly."""
    sim = runtime.sim
    transport = runtime.transport
    st = runtime.coherence.stats
    return {
        "now": sim.now,
        "events_scheduled": sim._seq,
        "send_latencies": tuple(
            tuple(p.value.send_latency.samples) for p in procs
        ),
        "receive_latencies": tuple(
            tuple(p.value.receive_latency.samples) for p in procs
        ),
        "errors": tuple(tuple(p.value.errors) for p in procs),
        "messages_sent": transport.messages_sent,
        "bytes_sent": transport.bytes_sent,
        "messages_dropped": transport.messages_dropped,
        "transport_samples": tuple(transport.stats.samples),
        "link_bytes": tuple(
            sorted((name, link.bytes_carried) for name, link in transport.links.items())
        ),
        "coherence": (
            st.local_updates, st.buffered_units, st.syncs,
            st.messages_propagated, st.bytes_propagated, st.invalidations,
            st.conflict_map_hits, st.stale_reads, st.lost_updates,
        ),
    }


@pytest.fixture()
def reference():
    """The all-fast-paths-on run every variant is compared against."""
    return _run_mail("DS500")


@pytest.mark.parametrize("knob", sorted(KNOBS))
def test_each_knob_off_is_identical(knob, reference):
    assert _run_mail("DS500", **{knob: KNOBS[knob]}) == reference


def test_all_knobs_off_is_identical(reference):
    assert _run_mail("DS500", **KNOBS) == reference


def test_crypto_cache_off_is_identical(reference):
    crypto.configure_cache(False)
    try:
        uncached = _run_mail("DS500")
    finally:
        crypto.configure_cache(True)
    assert uncached == reference


#: a chaos schedule over the San Diego leg: delay windows during the
#: steady state (drops would hang workload sends forever — the scenario
#: runs without a retry policy — so delays exercise the fault hook while
#: keeping the run comparable).
CHAOS = [
    "delay:sandiego-gw/newyork-gw:40@3000-20000",
    "delay:sandiego-client1/sandiego-gw:15@5000-25000",
]


def test_chaos_run_fast_vs_slow_identical():
    fast = _run_mail("DS500", fault_specs=CHAOS)
    slow = _run_mail("DS500", fault_specs=CHAOS, **KNOBS)
    assert fast == slow
