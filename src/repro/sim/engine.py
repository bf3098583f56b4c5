"""The discrete-event simulation kernel.

:class:`Simulator` owns the event list (a binary heap keyed on
``(time, seq)`` — a *total* deterministic order: equal-time events run
first-in, first-out in schedule order) and the simulated clock.  All
framework time is in **milliseconds** — the unit of the paper's
Figure 7.

This replaces the paper's physical testbed (Pentium III nodes + a Click
software router doing traffic shaping): simulated links impose latency
and bandwidth serialization, simulated nodes impose CPU service times,
and the clock is virtual, so experiments are fast and exactly
reproducible.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from ..obs import Observability, resolve_obs
from .events import AllOf, AnyOf, Event, SimulationError, Timeout
from .process import Process

__all__ = ["Simulator"]


class Simulator:
    """Event-list simulator with generator-process support.

    Typical use::

        sim = Simulator()
        sim.process(my_generator(sim))
        sim.run(until=10_000.0)

    Observability: the simulator binds its virtual clock to the
    tracer, so every span opened while this simulator exists records a
    simulated duration alongside its wall-clock one.  With metrics on,
    the ``sim.events_dispatched`` counter is brought up to date each time
    a dispatch loop exits; nothing watches the loop per event.
    """

    def __init__(self, obs: Optional[Observability] = None) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._running = False
        self.obs = resolve_obs(obs)
        if self.obs.tracer.enabled:
            self.obs.tracer.bind_sim_clock(lambda: self._now)
        self._evt_counter = (
            self.obs.metrics.counter("sim.events_dispatched")
            if self.obs.metrics.enabled
            else None
        )

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    # -- event construction -------------------------------------------------
    def event(self) -> Event:
        """A fresh pending event, triggered manually by the caller."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event triggering ``delay`` ms from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start ``generator`` as a process at the current time."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event: triggers when any child triggers."""
        return AnyOf(self, list(events))

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event: triggers when every child has triggered."""
        return AllOf(self, list(events))

    def call_at(self, when: float, fn: Callable[[], None]) -> Event:
        """Run plain callable ``fn`` at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(f"cannot schedule in the past: {when} < {self._now}")
        ev = Event(self)
        ev.add_callback(lambda _e: fn())
        ev._triggered = True
        self._schedule(when, ev)
        return ev

    def call_after(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run plain callable ``fn`` after ``delay`` ms."""
        return self.call_at(self._now + delay, fn)

    # -- kernel -------------------------------------------------------------
    def _schedule(self, when: float, event: Event) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, event))

    def _queue_event(self, event: Event) -> None:
        """Queue an already-triggered event for callback dispatch *now*."""
        self._schedule(self._now, event)

    def _enter(self) -> Tuple[int, int]:
        """Start a dispatch loop; the mark is what :meth:`_exit` counts
        from.  Loops do not nest: a nested loop's pops would be counted
        by both loops."""
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        return self._seq, len(self._heap)

    def _exit(self, mark: Tuple[int, int]) -> None:
        """Leave a dispatch loop, counting the events it popped.

        Every event enters the heap once, through :meth:`_schedule`, and
        leaves it once, through a loop's pop, so the pops since ``mark``
        are the pushes (Δseq) minus the growth of the heap.
        """
        self._running = False
        if self._evt_counter is not None:
            seq0, pending0 = mark
            self._evt_counter.inc(
                (self._seq - seq0) - (len(self._heap) - pending0)
            )

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event list drains or the clock passes ``until``.

        Returns the final simulated time.  ``until`` is exclusive: an
        event stamped exactly at ``until`` does not run, and the clock is
        left at ``until``.
        """
        mark = self._enter()
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                if until is not None and heap[0][0] >= until:
                    self._now = until
                    break
                when, _seq, event = pop(heap)
                if when < self._now:
                    raise SimulationError("event list corrupted: time went backwards")
                self._now = when
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    for fn in callbacks:
                        fn(event)
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._exit(mark)
        return self._now

    def run_until_complete(self, proc: Process, limit: float = float("inf")) -> Any:
        """Run until ``proc`` finishes; return its value (raise if it failed).

        A failing process re-raises its exception annotated with the
        process name and the simulated time of the failure — without
        this, a chaos-test stack trace says *what* broke but not *who*
        or *when* on the virtual clock.
        """
        mark = self._enter()
        heap = self._heap
        pop = heapq.heappop
        try:
            while not proc.triggered:
                if not heap:
                    raise SimulationError(
                        f"deadlock: event list empty but {proc!r} not finished"
                    )
                if heap[0][0] > limit:
                    raise SimulationError(
                        f"time limit {limit} exceeded waiting on {proc!r}"
                    )
                when, _seq, event = pop(heap)
                if when < self._now:
                    raise SimulationError("event list corrupted: time went backwards")
                self._now = when
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks:
                    for fn in callbacks:
                        fn(event)
        finally:
            self._exit(mark)
        if proc.failed:
            exc = proc.value
            failed_in = getattr(exc, "failed_process", proc.name)
            failed_at = getattr(exc, "failed_at_ms", self._now)
            note = f"in process {failed_in!r} at t={failed_at:.1f}ms"
            if hasattr(exc, "add_note"):  # Python >= 3.11
                exc.add_note(note)
            exc.sim_context = note  # type: ignore[attr-defined]
            raise exc
        return proc.value

    def peek(self) -> float:
        """Timestamp of the next event, or +inf if the list is empty."""
        return self._heap[0][0] if self._heap else float("inf")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now} pending={len(self._heap)}>"
