"""Shared setup for the mail-service case study experiments.

Builds a ready :class:`SmockRuntime` over the Figure 5 topology with the
primary MailServer pre-installed in New York, component classes
registered, the service registered in the lookup namespace, and the
account roster provisioned — the state of the world just before the
paper's measurements begin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..coherence import AttributeConflictMap, FlushPolicy, NeverPolicy, policy_from_name
from ..smock import SmockRuntime
from ..services.mail import (
    DEFAULT_USERS,
    MAIL_COMPONENT_CLASSES,
    build_mail_spec,
    mail_translator,
)
from .topology_fig5 import Fig5Topology, build_fig5_network

__all__ = ["MailTestbed", "build_mail_testbed"]


@dataclass
class MailTestbed:
    """A fully provisioned case-study runtime."""

    runtime: SmockRuntime
    topology: Fig5Topology

    @property
    def sim(self):
        return self.runtime.sim

    def client_nodes(self, site: str):
        return self.topology.clients[site]


def build_mail_testbed(
    clients_per_site: int = 5,
    node_cpu: Optional[float] = None,
    flush_policy: str = "never",
    algorithm: str = "dp_chain",
    planning_work: float = 2000.0,
    users=DEFAULT_USERS,
    plan_cache=None,
    memoize: bool = True,
    compile_routes: bool = True,
    proxy_fast_path: bool = True,
    batch_coherence: bool = True,
    versioned_coherence: bool = True,
    telemetry_interval_ms: Optional[float] = None,
    flight=None,
    obs=None,
    overload_protection: Any = False,
    autonomic: Any = False,
    lookup_replicas: int = 1,
    lookup_hosts=None,
    lookup_leases: Any = False,
    directory_journal: bool = False,
    directory_host: Optional[str] = None,
) -> MailTestbed:
    """The standard case-study testbed.

    ``flush_policy`` is a :func:`policy_from_name` string applied to
    every deployed data-view replica ("never", "count:500",
    "count:1000", "time:<ms>", "write_through").

    ``algorithm`` defaults to the CANS-style DP planner: on the
    5-clients-per-site topology (19 nodes) it finds the same chains as
    the exhaustive planner in ~1% of the time (see the planner-scaling
    benchmark), which keeps the 45-cell Figure 7 sweep tractable.

    ``plan_cache`` / ``memoize`` pass through to
    :class:`~repro.planner.Planner` (``plan_cache=False`` disables plan
    caching; ``memoize=False`` disables validity-check memoization).

    ``compile_routes`` / ``proxy_fast_path`` / ``batch_coherence`` /
    ``versioned_coherence`` pass through to :class:`SmockRuntime` — the
    runtime hot-path knobs (see ARCHITECTURE.md), used by the
    determinism tests to pin fast-on vs fast-off equivalence.

    ``telemetry_interval_ms`` / ``flight`` pass through to
    :class:`SmockRuntime`'s continuous-telemetry knobs (``None`` = no
    sampler at all, ``0`` = constructed but disabled, ``> 0`` = sample
    every that-many simulated ms into ``runtime.sampler``).

    ``overload_protection`` passes through to :class:`SmockRuntime`:
    ``False`` (default) constructs nothing, ``True`` enables admission
    control / throttling / circuit breaking with default
    :class:`~repro.smock.OverloadConfig`, or pass a config instance.

    ``autonomic`` passes through to :class:`SmockRuntime`: ``False``
    (default) constructs nothing, ``True`` closes the telemetry →
    replanning loop (see :mod:`repro.autonomic`) with default
    :class:`~repro.autonomic.AutonomicConfig` — defaulting the sampler
    to 500 ms when ``telemetry_interval_ms`` is unset — or pass a
    config instance / kwargs dict.

    ``lookup_replicas`` / ``lookup_hosts`` / ``lookup_leases`` /
    ``directory_journal`` / ``directory_host`` pass through to
    :class:`SmockRuntime`'s control-plane availability knobs (see
    ARCHITECTURE.md "control-plane availability"): the defaults keep
    the singleton lookup on ``newyork-ms`` with immortal registrations
    and an unjournaled directory, byte-identical to before the feature.
    """
    spec = build_mail_spec()
    if node_cpu is None:
        topo = build_fig5_network(clients_per_site=clients_per_site)
    else:
        # Scaled-down node capacity (the load harness shrinks the
        # bottleneck so saturation cells stay event-count tractable).
        topo = build_fig5_network(clients_per_site=clients_per_site, node_cpu=node_cpu)

    def view_policy(view, instance) -> FlushPolicy:
        return policy_from_name(flush_policy)

    runtime = SmockRuntime(
        spec,
        topo.network,
        mail_translator(),
        algorithm=algorithm,
        lookup_node=topo.server_node,
        server_node=topo.server_node,
        code_base_node=topo.server_node,
        planning_work=planning_work,
        conflict_map=AttributeConflictMap("sensitivity", "TrustLevel", "le"),
        view_policy=view_policy,
        plan_cache=plan_cache,
        memoize=memoize,
        compile_routes=compile_routes,
        proxy_fast_path=proxy_fast_path,
        batch_coherence=batch_coherence,
        versioned_coherence=versioned_coherence,
        telemetry_interval_ms=telemetry_interval_ms,
        flight=flight,
        obs=obs,
        overload_protection=overload_protection,
        autonomic=autonomic,
        lookup_replicas=lookup_replicas,
        lookup_hosts=lookup_hosts,
        lookup_leases=lookup_leases,
        directory_journal=directory_journal,
        directory_host=directory_host,
    )
    runtime.service_state["mail_users"] = tuple(users)
    for name, cls in MAIL_COMPONENT_CLASSES.items():
        runtime.register_component(name, cls)
    runtime.register_service("mail", default_interface="ClientInterface")
    runtime.preinstall("MailServer", topo.server_node)
    return MailTestbed(runtime=runtime, topology=topo)
