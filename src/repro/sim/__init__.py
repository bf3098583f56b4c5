"""Discrete-event simulation substrate.

Replaces the paper's physical testbed (Pentium III nodes, Click software
router) with a deterministic, seeded simulator.  Public surface:

- :class:`Simulator` — event kernel, virtual clock (milliseconds)
- :class:`Event`, :class:`Timeout`, :class:`Process`, :class:`Interrupt`
- :class:`Resource`, :class:`Store`, :class:`Monitor`
- :class:`SimNode` — host with CPU capacity + credentials
- :class:`SimLink` — latency/bandwidth link with security credential

The kernel is sequential: one heap, one clock, one dispatch loop.
Experiments that want more cores run independent cells in separate
processes (``run_load_sweep(parallel=N)``), never one cell across them.
"""

from .arrivals import (
    ArrivalProcess,
    ArrivalStream,
    DiurnalProcess,
    FlashCrowdProcess,
    PoissonProcess,
)
from .engine import Simulator
from .events import (
    AllOf,
    AnyOf,
    Event,
    FaultError,
    LinkDownError,
    NodeDownError,
    SimulationError,
    Timeout,
)
from .node import SimNode
from .process import Interrupt, Process
from .resources import Monitor, Resource, Store
from .transport import LOCALHOST_LINK_ID, SimLink, transfer_time_ms

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "SimulationError",
    "FaultError",
    "NodeDownError",
    "LinkDownError",
    "Process",
    "Interrupt",
    "Resource",
    "Store",
    "Monitor",
    "SimNode",
    "SimLink",
    "transfer_time_ms",
    "LOCALHOST_LINK_ID",
    "ArrivalProcess",
    "ArrivalStream",
    "PoissonProcess",
    "DiurnalProcess",
    "FlashCrowdProcess",
]
