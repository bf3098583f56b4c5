"""Simulator observability: clock binding and the dispatched-event counter."""

from repro.obs import Observability
from repro.sim import Simulator


def _two_step_process(sim):
    yield sim.timeout(10.0)
    yield sim.timeout(5.0)


def test_sim_clock_binds_to_tracer():
    obs = Observability()
    sim = Simulator(obs=obs)
    span = obs.tracer.start_span("window")
    sim.process(_two_step_process(sim))
    sim.run()
    span.finish()
    rec = obs.recorder.spans("window")[0]
    assert rec["sim_start_ms"] == 0.0
    assert rec["sim_ms"] == 15.0


def test_events_dispatched_counter():
    obs = Observability()
    sim = Simulator(obs=obs)
    sim.process(_two_step_process(sim))
    sim.run()
    count = obs.metrics.counter("sim.events_dispatched").value
    assert count > 0


def test_no_dispatch_events_recorded():
    """The kernel emits no per-event trace records: tracing on records
    spans and explicit events only."""
    obs = Observability()
    sim = Simulator(obs=obs)
    sim.process(_two_step_process(sim))
    sim.run()
    assert obs.recorder.events("sim.dispatch") == []


def test_default_simulator_has_no_observability_overhead_paths():
    sim = Simulator()
    assert sim._evt_counter is None
