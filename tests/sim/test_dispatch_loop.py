"""The kernel's dispatch loop: event order and the dispatched-event count.

`Simulator.run` and `run_until_complete` each pop, check and dispatch
in one loop; with metrics on, ``sim.events_dispatched`` is brought up to
date when a loop exits.  These tests pin the FIFO order of equal-time
events and check the counter against an independent count of heap pops.
"""

import heapq

import pytest

from repro.obs import Observability
from repro.sim import Simulator


@pytest.fixture
def pops(monkeypatch):
    """Count every heap pop the kernel makes (the loops resolve
    ``heapq.heappop`` once per loop entry, so patch before running)."""
    count = [0]
    real = heapq.heappop

    def counting(heap):
        count[0] += 1
        return real(heap)

    monkeypatch.setattr(heapq, "heappop", counting)
    return count


def _dispatched(obs):
    return obs.metrics.counter("sim.events_dispatched").value


def test_heap_key_is_time_then_seq():
    sim = Simulator()
    sim.call_at(2.0, lambda: None)
    sim.call_at(1.0, lambda: None)
    assert sorted(entry[:2] for entry in sim._heap) == [(1.0, 2), (2.0, 1)]
    assert all(len(entry) == 3 for entry in sim._heap)


def test_sequential_fifo_order_unchanged():
    """Equal-time events dispatch first-in, first-out in schedule order,
    including events scheduled from a callback at the same instant: they
    queue behind everything already scheduled for that time."""
    sim = Simulator()
    order = []

    def first():
        order.append("a")
        sim.call_at(1.0, lambda: order.append("a-child"))
        ev = sim.event()
        ev.add_callback(lambda _e: order.append("a-event"))
        ev.succeed()

    sim.call_at(1.0, first)
    sim.call_at(1.0, lambda: order.append("b"))
    sim.call_at(1.0, lambda: order.append("c"))

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("p0", "p1"):
        sim.process(proc(tag))
    sim.run()
    assert order == ["a", "b", "c", "p0", "p1", "a-child", "a-event"]


def test_counter_run_until_stops_before_pending_event(pops):
    obs = Observability(tracing=False, metrics=True)
    sim = Simulator(obs=obs)
    for when in (1.0, 2.0, 3.0, 10.0):
        sim.call_at(when, lambda: None)
    sim.run(until=5.0)
    assert _dispatched(obs) == pops[0] == 3
    assert sim.peek() == 10.0


def test_counter_second_run_continues(pops):
    obs = Observability(tracing=False, metrics=True)
    sim = Simulator(obs=obs)
    for when in (1.0, 2.0, 3.0, 10.0):
        sim.call_at(when, lambda: None)

    def spawn():
        # events scheduled mid-run are counted when they are popped
        sim.call_after(1.0, lambda: None)
        sim.call_after(100.0, lambda: None)

    sim.call_at(4.0, spawn)
    sim.run(until=5.0)
    assert _dispatched(obs) == pops[0] == 4
    sim.run()
    assert _dispatched(obs) == pops[0] == 7
    assert sim.now == 104.0


def test_counter_run_until_complete(pops):
    obs = Observability(tracing=False, metrics=True)
    sim = Simulator(obs=obs)

    def proc():
        for _ in range(4):
            yield sim.timeout(5.0)
        return "done"

    sim.call_at(50.0, lambda: None)  # still pending when proc finishes
    assert sim.run_until_complete(sim.process(proc())) == "done"
    assert _dispatched(obs) == pops[0] > 0
    assert len(sim._heap) == 2  # proc's completion event and the 50 ms call
    sim.run()
    assert _dispatched(obs) == pops[0]


def test_counter_callback_raises_mid_run(pops):
    obs = Observability(tracing=False, metrics=True)
    sim = Simulator(obs=obs)

    def boom():
        raise RuntimeError("boom")

    sim.call_at(1.0, lambda: None)
    sim.call_at(2.0, boom)
    sim.call_at(3.0, lambda: None)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert _dispatched(obs) == pops[0] == 2
    sim.run()  # the loop exited cleanly: the kernel runs on
    assert _dispatched(obs) == pops[0] == 3


def test_no_counter_registered_when_metrics_off():
    obs = Observability(tracing=True, metrics=False)
    sim = Simulator(obs=obs)
    sim.call_at(1.0, lambda: None)
    sim.run()
    assert sim._evt_counter is None
    assert obs.metrics.snapshot()["counters"] == {}
