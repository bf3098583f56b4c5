"""The benchmark workloads: three gated in ``BENCHMARK.json``, and
``surge-autonomic``, held back (see its docstring).

Each workload is built from the run's ``--seed`` (``chaos-control-plane``
ignores it: its inputs are fixed) and exposes
:meth:`run_round`: one whole pass of set-up (testbed build, spec parse,
initial binds) and measured phase (the client operations), timed apart
on the host clock.  Every round of one run repeats the same seeded inputs,
so its simulated outcome must repeat exactly; the runner checks that.

A round returns a :class:`Round`: host times, the per-op simulated
latencies, the problems the checks in :mod:`checks` found, a
simulated-outcome signature and the layers' own work counters (events
scheduled, messages sent, syncs, cache hits, autonomic decisions ...)
read off every runtime the round built, at no cost to the measured phase.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.harness import _final_sweep
from repro.chaos.plangen import generate_fault_plan
from repro.experiments.mail_setup import build_mail_testbed
from repro.experiments.scenarios_fig7 import SCENARIOS, _bind_clients
from repro.experiments.topology_fig5 import SITE_TRUST, SITES
from repro.faults import FaultInjector
from repro.network import NetworkError
from repro.faults.plan import FaultKind
from repro.load import LoadConfig, OpenLoopDriver
from repro.load.roster import generate_roster
from repro.obs import Observability, use_obs
from repro.services.mail import DEFAULT_USERS, WorkloadConfig, mail_workload
from repro.services.mail.crypto import CryptoError, KeyRing, decrypt
from repro.services.mail.workload import open_loop_mail_ops
from repro.sim.arrivals import FlashCrowdProcess, PoissonProcess
from repro.smock import LeaseConfig, RetryPolicy

from checks import (
    check_bindings, check_fig7, check_ledger, check_offered, check_ops,
    check_scaling, check_subset,
)
from clients import (
    SLICE_MS, OpRecord, RecordingProxy, body_token, lookup_probe,
    scripted_client,
)

#: simulated users behind the open-loop workloads' proxies
N_USERS = 1_000

@dataclass
class Round:
    """Everything one round measured and recorded."""

    setup_s: float = 0.0
    measured_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    send_ms: List[float] = field(default_factory=list)
    fetch_ms: List[float] = field(default_factory=list)
    #: simulated cost of each client connect (lookup + plan + deploy)
    bind_ms: List[float] = field(default_factory=list)
    #: workload-specific simulated outcomes (scale_out_ms, recovery_ms)
    outcomes: Dict[str, List[float]] = field(default_factory=dict)
    #: check name -> problems found (empty list = passed)
    problems: Dict[str, List[str]] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    signature: str = ""

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.measured_s

    def add_counters(self, counters: Dict[str, float]) -> None:
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def sign(self, *extra: Any) -> None:
        blob = repr((
            self.attempted, self.failed, self.send_ms, self.fetch_ms,
            self.bind_ms, sorted(self.outcomes.items()), extra,
        ))
        self.signature = hashlib.sha256(blob.encode()).hexdigest()[:16]


def runtime_counters(runtime: Any, proxies: Sequence[Any]) -> Dict[str, float]:
    """The layers' own work counters, read off a finished runtime."""
    st = runtime.coherence.stats
    planner = runtime.planner
    ctx = planner.ctx.cache_stats
    out: Dict[str, float] = {
        "sim.events": runtime.sim._seq,
        "smock.messages": runtime.transport.messages_sent,
        "smock.bytes": runtime.transport.bytes_sent,
        "smock.retries": sum(p.retries for p in proxies),
        "coherence.syncs": st.syncs,
        "coherence.invalidations": st.invalidations,
        "coherence.reconciled": st.recovered_updates,
        "planner.ctx_hits": ctx.compat_hits + ctx.install_hits,
        "planner.ctx_lookups": (
            ctx.compat_hits + ctx.compat_misses
            + ctx.install_hits + ctx.install_misses
        ),
        "smock.lookup_failovers": getattr(runtime.lookup, "failovers", 0),
    }
    cache = planner.plan_cache
    if cache is not None:
        out["planner.plan_hits"] = cache.stats.hits
        out["planner.plan_lookups"] = cache.stats.hits + cache.stats.misses
    replanner = getattr(runtime, "replanner", None)
    if replanner is not None:
        rounds = [e for e in replanner.events if not e.deferred]
        out["smock.replan_rounds"] = len(rounds)
        out["smock.rebinds"] = sum(len(e.rebound) for e in rounds)
    sampler = getattr(runtime, "sampler", None)
    if sampler is not None:
        out["obs.samples"] = sampler.ticks
    manager = runtime.autonomic
    if manager is not None:
        out["autonomic.signals"] = (
            len(manager.engine.signals) if manager.engine else 0
        )
        out["autonomic.actions"] = len(manager.events)
    return out


def _derive(seed: int, label: str) -> int:
    return random.Random(f"perfbench:{label}:{seed}").randrange(1 << 30)


def _bind_load_proxies(runtime, nodes, seed: int, timeout_ms: float,
                       max_retries: int):
    """Connect one retrying proxy per node; returns (proxies, bind sim ms)."""
    proxies, binds = [], []
    for i, node in enumerate(nodes):
        user = DEFAULT_USERS[i % len(DEFAULT_USERS)]
        t0 = runtime.sim.now
        proxy = runtime.run(
            runtime.client_connect(node, {"User": user}), f"connect:{user}"
        )
        binds.append(runtime.sim.now - t0)
        proxy.retry_policy = RetryPolicy(
            timeout_ms=timeout_ms, max_retries=max_retries, seed=seed + i
        )
        proxies.append(proxy)
    return proxies, binds


def _inbox_list(store) -> List[Tuple[str, Any]]:
    return [
        (user, msg)
        for user in store.users()
        for msg in store.mailbox(user).inbox
    ]


def _acked_ids(records) -> List[Tuple[int, str, int]]:
    return [
        (r.msg_id, r.recipient, r.sensitivity)
        for r in records if r.ok and r.op == "send_mail"
    ]


def _live_views(runtime) -> List[Any]:
    return [
        inst for inst in runtime.instances.values()
        if inst.unit.name == "ViewMailServer" and not inst.failed
    ]


def open_loop(runtime, proxies, arrival, window_ms: float, grace_ms: float,
              seed: int) -> List[OpRecord]:
    """Drive ``arrival`` through ``proxies`` with the repository's open-loop
    driver and mail mix; advance past the window until every op finished,
    or ``grace_ms`` after the window closes (in slices: a telemetry
    sampler keeps the event list from ever draining)."""
    records: List[OpRecord] = []
    driver = OpenLoopDriver(
        [RecordingProxy(p, records) for p in proxies],
        arrival,
        LoadConfig(duration_ms=window_ms, drain_ms=grace_ms,
                   n_users=N_USERS, seed=seed),
        open_loop_mail_ops(),
    )
    sim = runtime.sim
    deadline = sim.now + window_ms + grace_ms
    driver.start()
    while sim.now < deadline and not driver.drained:
        sim.run(until=min(sim.now + SLICE_MS, deadline))
    return records


def _tally(records, rnd: Round) -> None:
    """Count client ops into ``rnd`` and keep the ok ones' latencies."""
    for rec in records:
        rnd.attempted += 1
        if not rec.ok:
            rnd.failed += 1
            continue
        (rnd.send_ms if rec.op == "send_mail" else rnd.fetch_ms).append(
            rec.latency_ms
        )


class Fig7Grid:
    """Figure 7: nine scenarios x 1-5 clients, 100 sends + 10 fetches each.

    The seed draws the clients' workload seed (recipients, sensitivities,
    remote fetch probes).
    """

    name = "fig7-grid"
    client_counts = (1, 2, 3, 4, 5)
    n_sends = 100
    n_receives = 10

    def __init__(self, seed: int) -> None:
        self.cells = [
            (scenario, k) for scenario in SCENARIOS for k in self.client_counts
        ]
        self.workload_seed = _derive(seed, "fig7-workload")

    def run_round(self) -> Round:
        rnd = Round()
        cells: Dict[Tuple[str, int], Dict[str, Any]] = {}
        rtt_ms = None
        for scenario_name, k in self.cells:
            scenario = SCENARIOS[scenario_name]
            users = generate_roster(k)
            roster = list(DEFAULT_USERS) + users[len(DEFAULT_USERS):]
            t0 = time.perf_counter()
            testbed = build_mail_testbed(
                clients_per_site=5,
                flush_policy=scenario.flush_policy,
                users=roster,
            )
            runtime = testbed.runtime
            proxies = _bind_clients(testbed, scenario, k, users=users)
            bind_total = runtime.sim.now
            t1 = time.perf_counter()
            configs = [
                WorkloadConfig(
                    user=user,
                    peers=[u for u in users if u != user] or [user],
                    n_sends=self.n_sends,
                    n_receives=self.n_receives,
                    cluster_size=10,
                    max_sensitivity=SITE_TRUST[scenario.site],
                    seed=self.workload_seed + i,
                )
                for i, user in enumerate(users)
            ]
            procs = [
                runtime.sim.process(mail_workload(p, c), name=f"wl:{c.user}")
                for p, c in zip(proxies, configs)
            ]
            runtime.sim.run()
            t2 = time.perf_counter()
            rnd.setup_s += t1 - t0
            rnd.measured_s += t2 - t1

            sends: List[float] = []
            errors: List[str] = []
            for proc in procs:
                if proc.failed:
                    raise proc.value
                result = proc.value
                sends.extend(result.send_latency.samples)
                rnd.fetch_ms.extend(result.receive_latency.samples)
                errors.extend(result.errors)
            rnd.send_ms.extend(sends)
            rnd.attempted += k * (self.n_sends + self.n_receives)
            rnd.failed += len(errors)
            rnd.bind_ms.extend([bind_total / k] * k)
            chain = None
            if scenario.dynamic:
                topo = testbed.topology
                chain = [
                    (p.unit, topo.site_of(p.node))
                    for p in runtime.generic_server.accesses[0].plan.chain_from_root()
                ]
            cells[(scenario_name, k)] = {
                "mean_send_ms": sum(sends) / len(sends),
                "errors": errors,
                "chain": chain,
                "site": scenario.site,
            }
            if rtt_ms is None:
                link = testbed.topology.network.link("newyork-gw", "sandiego-gw")
                rtt_ms = 2.0 * link.latency_ms
            rnd.add_counters(runtime_counters(runtime, proxies))
        rnd.problems["fig7"] = check_fig7(cells, rtt_ms)
        rnd.sign()
        return rnd


class SteadyMail:
    """A long seeded Poisson stream just under the node_cpu=100 knee,
    overload protection on, retries armed, metrics on."""

    name = "steady-mail"
    rate_per_s = 100.0
    window_ms = 60_000.0
    grace_ms = 60_000.0

    def __init__(self, seed: int) -> None:
        self.seed = _derive(seed, "steady")

    def run_round(self) -> Round:
        rnd = Round()
        t0 = time.perf_counter()
        obs = Observability(tracing=False, metrics=True)
        with use_obs(obs):
            testbed = build_mail_testbed(
                clients_per_site=5,
                node_cpu=100.0,
                flush_policy="never",
                users=DEFAULT_USERS,
                overload_protection=True,
            )
            runtime = testbed.runtime
            proxies, rnd.bind_ms = _bind_load_proxies(
                runtime, testbed.client_nodes("sandiego"), self.seed,
                timeout_ms=2_000.0, max_retries=4,
            )
            t1 = time.perf_counter()
            records = open_loop(
                runtime, proxies,
                PoissonProcess(self.rate_per_s, seed=self.seed),
                self.window_ms, self.grace_ms, self.seed,
            )
            t2 = time.perf_counter()
        rnd.setup_s += t1 - t0
        rnd.measured_s += t2 - t1
        _tally(records, rnd)
        # Flush policy "never": each message lives in the store that acked
        # it, so across all stores every acked id is held exactly once.
        stores = [v.store for v in _live_views(runtime)]
        stores.append(runtime.instance_of("MailServer").store)
        held = [
            (m.msg_id, user, m.sensitivity)
            for store in stores for user, m in _inbox_list(store)
        ]
        rnd.problems["ops"] = check_ops(records)
        rnd.problems["offered"] = check_offered(
            len(records), self.rate_per_s, self.window_ms
        )
        rnd.problems["ledger"] = check_ledger(_acked_ids(records), held)
        rnd.add_counters(runtime_counters(runtime, proxies))
        rnd.sign()
        return rnd


class SurgeAutonomic:
    """A seeded 60 -> 150 req/s flash crowd through the knee (4 s ramp,
    12 s hold), overload protection on, with the autonomic loop closed
    (scale-out, drain, scale-in, rebind).

    Not among the gated workloads in ``BENCHMARK.json``: on some seeds
    (22 of 0-39) a scale-in round retires one view and installs another,
    so the view count never drops below its peak and the scaling check
    fails (see CHANGES.md).  Which seeds do depends on the traffic, so no
    set of seeded runs can be held correct.  It runs by name, traced or
    not, to measure the autonomic layers and to reproduce the fault.
    """

    name = "surge-autonomic"
    base_rate_per_s = 60.0
    peak_rate_per_s = 150.0
    at_ms = 5_000.0
    ramp_ms = 4_000.0
    hold_ms = 12_000.0
    decay_ms = 3_000.0
    window_ms = 60_000.0
    grace_ms = 60_000.0

    def __init__(self, seed: int) -> None:
        self.seed = _derive(seed, "surge")

    def run_round(self) -> Round:
        rnd = Round()
        t0 = time.perf_counter()
        obs = Observability(tracing=False, metrics=True)
        with use_obs(obs):
            testbed = build_mail_testbed(
                clients_per_site=5,
                node_cpu=100.0,
                flush_policy="never",
                users=DEFAULT_USERS,
                overload_protection=True,
                autonomic=True,
            )
            runtime = testbed.runtime
            proxies, rnd.bind_ms = _bind_load_proxies(
                runtime, testbed.client_nodes("sandiego"), self.seed,
                timeout_ms=2_000.0, max_retries=4,
            )
            manager = runtime.autonomic
            for proxy, access in zip(
                proxies, runtime.generic_server.accesses[-len(proxies):]
            ):
                manager.track_access(proxy, access)
            t1 = time.perf_counter()
            start_ms = runtime.sim.now
            records = open_loop(
                runtime, proxies,
                FlashCrowdProcess(
                    self.base_rate_per_s, self.peak_rate_per_s,
                    at_ms=self.at_ms, ramp_ms=self.ramp_ms,
                    hold_ms=self.hold_ms, decay_ms=self.decay_ms,
                    seed=self.seed,
                ),
                self.window_ms, self.grace_ms, self.seed,
            )
            t2 = time.perf_counter()
            # Converge the replicas the way the chaos harness does once a
            # schedule is over: flush every dirty live replica upstream.
            _final_sweep(runtime)
        rnd.setup_s += t1 - t0
        rnd.measured_s += t2 - t1
        _tally(records, rnd)
        events = [e.as_dict() for e in manager.events]
        scale_out = next(
            (e["time_ms"] for e in events
             if e["action"] == "scale_out" and e["installed"]),
            None,
        )
        if scale_out is not None:
            rnd.outcomes["scale_out_ms"] = [scale_out - (start_ms + self.at_ms)]
        primary = [
            (m.msg_id, user, m.sensitivity)
            for user, m in _inbox_list(runtime.instance_of("MailServer").store)
        ]
        views = _live_views(runtime)
        replicas = [
            (v.label, [m.msg_id for _u, m in _inbox_list(v.store)])
            for v in views
        ]
        rnd.problems["ops"] = check_ops(records)
        rnd.problems["scaling"] = check_scaling(
            events, manager.views_peak, len(views)
        )
        rnd.problems["ledger"] = check_ledger(_acked_ids(records), primary)
        rnd.problems["replicas"] = check_subset(
            [k for k, _u, _s in primary], replicas
        )
        rnd.add_counters(runtime_counters(runtime, proxies))
        rnd.sign(events)
        return rnd


#: how a send fails at a view that was retired while bindings still route
#: to it (``ViewMailServer.op_store_message`` asserts its replica id)
RETIRED_VIEW_ERROR = "AssertionError"


class ChaosControlPlane:
    """Fixed chaos cases with the control plane crashed under traffic.

    Each case binds one client per site and injects a fault plan over a
    60 s horizon in which the lookup primary's host and the
    coherence-directory host each crash and restart once, plus three
    more faults.  The paper's scripted clients (30 sends, then 5
    fetches) pace their operations across the whole horizon, so requests
    run into every fault; 1.5 s after the lookup primary dies, one
    re-lookup probe per site has 30 s to rebind through the surviving
    replica.

    The program fails some of these sends (a view retired while bindings
    still route to it; see CHANGES.md).  So that those failures repeat
    exactly and make the same share of every run, the inputs do not depend
    on the run's seed: the fault plans are a fixed list (plan seeds 0-11)
    and each case's client traffic (recipients, sensitivities, fetch
    probes, retry jitter) is drawn from its plan seed.  Those failures
    are counted, not flagged; any other failure, and every check on the
    operations that succeeded, still fails the run.
    """

    name = "chaos-control-plane"
    n_cases = 12
    n_sends = 30
    n_receives = 5
    horizon_ms = 60_000.0
    grace_ms = 120_000.0
    settle_ms = 30_000.0
    n_faults = 3
    probe_delay_ms = 1_500.0
    probe_window_ms = 30_000.0
    lookup_hosts = ["sandiego-gw", "seattle-gw"]
    directory_host = "seattle-gw"

    def __init__(self, seed: int) -> None:
        del seed  # the inputs are fixed; see the class docstring
        self.cases = [
            (plan_seed, _derive(plan_seed, "chaos-clients"))
            for plan_seed in range(self.n_cases)
        ]

    def run_round(self) -> Round:
        rnd = Round()
        for plan_seed, client_seed in self.cases:
            self._run_case(plan_seed, client_seed, rnd)
        rnd.sign()
        return rnd

    def _run_case(self, plan_seed: int, seed: int, rnd: Round) -> None:
        t0 = time.perf_counter()
        obs = Observability(tracing=False, metrics=True)
        with use_obs(obs):
            testbed = build_mail_testbed(
                clients_per_site=2,
                flush_policy="count:200",
                users=DEFAULT_USERS,
                lookup_replicas=2,
                lookup_hosts=self.lookup_hosts,
                lookup_leases=LeaseConfig(duration_ms=15_000.0),
                directory_journal=True,
                directory_host=self.directory_host,
            )
            runtime = testbed.runtime
            sim = runtime.sim
            replanner = runtime.enable_self_healing(
                heartbeat_interval_ms=250.0, miss_threshold=3
            )
            nodes = [testbed.client_nodes(site)[0] for site in SITES]
            proxies, binds = _bind_load_proxies(
                runtime, nodes, seed, timeout_ms=3_000.0, max_retries=15
            )
            rnd.bind_ms.extend(binds)
            for proxy, access in zip(
                proxies, runtime.generic_server.accesses[-len(proxies):]
            ):
                replanner.track_access(proxy, access)
            start_ms = sim.now
            plan = generate_fault_plan(
                plan_seed, testbed.topology, t0=start_ms,
                horizon_ms=self.horizon_ms, n_faults=self.n_faults,
                control_plane_hosts=[self.lookup_hosts[0], self.directory_host],
            )
            FaultInjector(runtime, plan).schedule()
            crashes = [
                a for a in plan.sorted_actions() if a.kind == FaultKind.CRASH
            ]
            # Which hosts each binding runs through just before each crash.
            chains: Dict[int, Dict[str, set]] = {}
            snapshots = [
                sim.process(
                    _snapshot_chains(sim, testbed.topology.network,
                                     crash.at_ms, proxies, chains, n),
                    name=f"perfbench-snapshot:{n}",
                )
                for n, crash in enumerate(crashes)
            ]
            t1 = time.perf_counter()

            records: List[OpRecord] = []
            users = [p.user for p in proxies]
            think_ms = self.horizon_ms / (self.n_sends + self.n_receives)
            procs = [
                sim.process(scripted_client(
                    RecordingProxy(proxy, records), i * self.n_sends,
                    [u for u in users if u != proxy.user],
                    self.n_sends, self.n_receives, SITE_TRUST[site],
                    256, think_ms, seed,
                ), name=f"perfbench-client:{site}")
                for i, (site, proxy) in enumerate(zip(SITES, proxies))
            ]
            lookup_crash = next(
                a.at_ms for a in crashes if a.node == self.lookup_hosts[0]
            )
            probe_at = lookup_crash + self.probe_delay_ms
            procs.extend(
                sim.process(lookup_probe(
                    runtime, node, probe_at, probe_at + self.probe_window_ms,
                    records,
                ), name=f"perfbench-probe:{node}")
                for node in nodes
            )

            quiesce_at = start_ms + self.horizon_ms + self.settle_ms
            deadline = start_ms + self.horizon_ms + self.grace_ms
            while sim.now < deadline and not (
                sim.now >= quiesce_at
                and all(p.triggered for p in procs)
            ):
                sim.run(until=min(sim.now + SLICE_MS, deadline))
            t2 = time.perf_counter()
            for proc in procs + snapshots:
                if proc.triggered and proc.failed:
                    raise proc.value
            runtime.failure_detector.stop()
            runtime.monitor.stop()
            runtime.lookup.stop()
            _final_sweep(runtime)
        rnd.setup_s += t1 - t0
        rnd.measured_s += t2 - t1
        _tally([r for r in records if r.op != "lookup"], rnd)
        rnd.attempted += sum(1 for r in records if r.op == "lookup")
        rnd.failed += sum(1 for r in records if r.op == "lookup" and not r.ok)
        rnd.outcomes.setdefault("recovery_ms", []).extend(
            _recoveries(crashes, chains, records)
        )
        acked = [
            (r.token, r.recipient, r.sensitivity)
            for r in records if r.ok and r.op == "send_mail"
        ]
        primary = _inbox_list(runtime.instance_of("MailServer").store)
        held = [(_token_of(m), user, m.sensitivity) for user, m in primary]
        replicas = [
            (v.label, [_token_of(m) for _u, m in _inbox_list(v.store)])
            for v in _live_views(runtime)
        ]
        for check, problems in (
            ("ops", check_ops(records, tolerated=RETIRED_VIEW_ERROR)),
            ("ledger", check_ledger(acked, held)),
            ("replicas", check_subset([k for k, _u, _s in held], replicas)),
            ("bindings", check_bindings(
                [(p.client_node, _chain_liveness(p.root)) for p in proxies]
            )),
        ):
            rnd.problems.setdefault(check, []).extend(
                f"plan {plan_seed}: {p}" for p in problems
            )
        rnd.add_counters(runtime_counters(runtime, proxies))
        rnd.add_counters({"faults.injected": len(plan.sorted_actions())})


def _snapshot_chains(sim, network, at_ms: float, proxies, chains, n: int):
    """Process generator: just before ``at_ms``, record under ``chains[n]``
    the hosts every proxy's binding runs through: its instances' hosts and
    the routers on the paths between them."""
    yield sim.timeout(max(0.0, at_ms - sim.now - 1e-3))
    chains[n] = {p.client_node: _binding_hosts(network, p) for p in proxies}


def _binding_hosts(network, proxy) -> set:
    hosts = {proxy.client_node}
    for inst in _chain_instances(proxy.root):
        hosts.add(inst.node.name)
        for stubs in inst.servers.values():
            for stub in stubs:
                try:
                    path = network.path(inst.node.name, stub.server.node.name)
                except NetworkError:
                    continue
                hosts.update(h for link in path.hops for h in link.endpoints())
    return hosts


def _recoveries(crashes, chains, records) -> List[float]:
    """Per crash and per binding that ran through the crashed host: the
    simulated time from the crash to that binding's first successful
    request completed after it."""
    out = []
    for n, crash in enumerate(crashes):
        for client, hosts in chains.get(n, {}).items():
            if crash.node not in hosts:
                continue
            done = [
                r.done_ms for r in records
                if r.client == client and r.op != "lookup" and r.ok
                and r.done_ms > crash.at_ms
            ]
            if done:
                out.append(min(done) - crash.at_ms)
    return out


def _token_of(msg) -> Optional[int]:
    """The benchmark id in a stored message, read by decrypting its body
    under the recipient's key (re-encrypted on store) or the sender's."""
    for user in (msg.recipient, msg.sender):
        try:
            plaintext = decrypt(KeyRing(user).key_for(msg.sensitivity), msg.body)
        except CryptoError:
            continue
        return body_token(plaintext)
    return None


def _chain_instances(root) -> List[Any]:
    """Every instance reachable from a proxy's root."""
    seen, out, todo = set(), [], [root]
    while todo:
        inst = todo.pop()
        if id(inst) in seen:
            continue
        seen.add(id(inst))
        out.append(inst)
        todo.extend(s.server for stubs in inst.servers.values() for s in stubs)
    return out


def _chain_liveness(root) -> List[Tuple[str, bool]]:
    """(label, alive) for every instance reachable from a proxy's root."""
    return [
        (inst.label, not inst.failed and inst.node.up)
        for inst in _chain_instances(root)
    ]





WORKLOADS = {
    w.name: w for w in (Fig7Grid, SteadyMail, SurgeAutonomic, ChaosControlPlane)
}
