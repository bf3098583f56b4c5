"""The benchmark's view of client operations: one :class:`OpRecord` per op.

- :class:`RecordingProxy` wraps a bound proxy and records every request
  it carries, so the repository's own
  :class:`~repro.load.driver.OpenLoopDriver` (arrival pump, Zipf-skewed
  users, :func:`~repro.services.mail.workload.open_loop_mail_ops` mix)
  can drive it unchanged.
- :func:`scripted_client`: the paper's closed-loop client (§4.2) paced
  across a fault window: sends, then fetches (a fifth of which probe
  above the site's trust bound), each followed by a think time.
- :func:`lookup_probe`: one re-lookup of the mail service while the
  lookup primary is down, as the repository's chaos harness runs it.

Every record keeps due time, completion time, outcome and, for sends, the
message id in the acknowledgement, so the checks can compare the service's
stores against the benchmark's own ledger of acks.  The scripted client's
sends also carry a unique benchmark id in their body: it runs under chaos,
where a failover retry may legitimately keep a different stored copy than
the one whose id was acknowledged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.chaos.harness import _reconnect_probe

#: scripted clients' fetches that probe above the site's trust bound
REMOTE_FETCH_FRACTION = 0.2
TOKEN_WIDTH = 10
#: simulated-time step for advancing runs whose event list never drains
#: (telemetry sampler, failure-detector heartbeats, lease renewals)
SLICE_MS = 5_000.0


@dataclass
class OpRecord:
    """One client operation as the benchmark saw it (simulated ms)."""

    op: str
    due_ms: float
    done_ms: Optional[float] = None
    ok: bool = False
    error: Optional[str] = None
    #: message id in a send's acknowledgement
    msg_id: Optional[int] = None
    #: benchmark id carried in the body (scripted clients only)
    token: Optional[int] = None
    recipient: Optional[str] = None
    sensitivity: int = 0
    #: client node of the binding that carried the op
    client: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return self.done_ms - self.due_ms


def make_body(size: int, token: Optional[int] = None) -> str:
    """A ``size``-byte body, led by benchmark id ``token`` if given."""
    if token is None:
        return "x" * size
    return f"{token:0{TOKEN_WIDTH}d}" + "x" * (size - TOKEN_WIDTH)


def body_token(plaintext: bytes) -> Optional[int]:
    """The benchmark id leading a decrypted body, or ``None``."""
    head = plaintext[:TOKEN_WIDTH]
    return int(head) if head.isdigit() else None


class RecordingProxy:
    """A bound proxy that appends one :class:`OpRecord` per request."""

    def __init__(self, proxy: Any, records: List[OpRecord]) -> None:
        self.proxy = proxy
        self.runtime = proxy.runtime
        self.records = records

    def request(self, op: str, payload: Dict[str, Any], size: int,
                user: Optional[str] = None):
        sim = self.runtime.sim
        rec = OpRecord(op, sim.now, client=self.proxy.client_node)
        if op == "send_mail":
            rec.recipient = payload["recipient"]
            rec.sensitivity = payload["sensitivity"]
            rec.token = body_token(payload["body"].encode())
        self.records.append(rec)
        resp = yield from self.proxy.request(op, payload, size, user=user)
        rec.done_ms = sim.now
        rec.ok = bool(resp.ok)
        rec.error = resp.error
        if rec.ok and op == "send_mail":
            rec.msg_id = resp.payload.get("msg_id")
        return resp


def scripted_client(proxy: RecordingProxy, token_base: int,
                    peers: Sequence[str], n_sends: int, n_receives: int,
                    max_sensitivity: int, body_bytes: int, think_ms: float,
                    seed: int):
    """Process generator: ``n_sends`` sends, each carrying benchmark id
    ``token_base + i``, then ``n_receives`` fetches, each op followed by
    ``think_ms`` of think time."""
    rng = random.Random(f"perfbench-client:{seed}:{proxy.proxy.user}")
    sim = proxy.runtime.sim
    for i in range(n_sends):
        body = make_body(body_bytes, token_base + i)
        payload = {
            "recipient": rng.choice(list(peers)),
            "sensitivity": rng.randint(1, max_sensitivity),
            "body": body,
            "multiplicity": 1,
        }
        yield from proxy.request("send_mail", payload, len(body) + 128)
        yield sim.timeout(think_ms)
    for _ in range(n_receives):
        max_s = 5 if rng.random() < REMOTE_FETCH_FRACTION else max_sensitivity
        payload = {"user": proxy.proxy.user, "max_sensitivity": max_s}
        yield from proxy.request("fetch_mail", payload, 256)
        yield sim.timeout(think_ms)


def lookup_probe(runtime: Any, node: str, start_ms: float,
                 deadline_ms: float, records: List[OpRecord]):
    """Process generator: re-look up the mail service from ``node`` from
    ``start_ms`` until it succeeds or ``deadline_ms`` passes (the chaos
    harness's reconnect probe); one ``lookup`` record."""
    rec = OpRecord("lookup", start_ms, client=node)
    records.append(rec)
    outcome: Dict[str, Any] = {}
    yield from _reconnect_probe(runtime, node, start_ms, deadline_ms, outcome)
    rec.done_ms = outcome["at_ms"]
    rec.ok = outcome["ok"]
    rec.error = outcome.get("error")
