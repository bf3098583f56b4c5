"""Each correctness check fires on a deliberately corrupted result.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

from checks import (  # noqa: E402
    FIG6_CHAINS, FIG7_GROUPS, check_bindings, check_fig7, check_ledger,
    check_offered, check_ops, check_scaling, check_subset, percentile,
)
from clients import OpRecord, body_token, make_body  # noqa: E402

RTT_MS = 400.0

#: a Figure 7 grid shaped like the paper's: group g's scenarios near 10^g ms
GROUP_MS = {0: 1.3, 1: 9.0, 2: 17.0, 3: 401.1}


def _grid():
    cells = {}
    for g, group in enumerate(FIG7_GROUPS):
        for name in group:
            site = "newyork" if name in ("DF", "SF") else "sandiego"
            for k in range(1, 6):
                cells[(name, k)] = {
                    "mean_send_ms": GROUP_MS[g] + 0.01 * k,
                    "errors": [],
                    "chain": list(FIG6_CHAINS[site]) if name.startswith("D") else None,
                    "site": site,
                }
    return cells


def test_fig7_accepts_the_papers_grouping():
    assert check_fig7(_grid(), RTT_MS) == []


def test_fig7_fires_on_a_swapped_group():
    cells = _grid()
    for k in range(1, 6):
        a, b = cells[("DS0", k)], cells[("DS500", k)]
        a["mean_send_ms"], b["mean_send_ms"] = b["mean_send_ms"], a["mean_send_ms"]
    problems = check_fig7(cells, RTT_MS)
    assert len(problems) >= 5 and "group 1" in problems[0]


def test_fig7_fires_when_ss_undercuts_the_slow_link():
    cells = _grid()
    cells[("SS", 3)]["mean_send_ms"] = RTT_MS - 1.0
    assert any("SS mean send" in p for p in check_fig7(cells, RTT_MS))


def test_fig7_fires_on_a_chain_other_than_figure_6s():
    cells = _grid()
    cells[("DS0", 2)]["chain"] = list(FIG6_CHAINS["newyork"])
    assert any("Figure 6" in p for p in check_fig7(cells, RTT_MS))


def test_fig7_fires_on_a_cell_error():
    cells = _grid()
    cells[("SF", 1)]["errors"] = ["send[3]: timeout"]
    assert any("SF/1" in p for p in check_fig7(cells, RTT_MS))


def _acked(n):
    return [(i, f"User{i % 7:03d}", 1 + i % 3) for i in range(n)]


def test_ledger_accepts_each_ack_held_once():
    acked = _acked(50)
    assert check_ledger(acked, list(reversed(acked))) == []


def test_ledger_fires_on_a_dropped_ack():
    acked = _acked(50)
    held = acked[:17] + acked[18:]
    assert any("not held" in p for p in check_ledger(acked, held))


def test_ledger_fires_on_a_duplicated_message():
    acked = _acked(50)
    held = acked + [acked[9]]
    assert any("more than once" in p for p in check_ledger(acked, held))


def test_ledger_fires_on_a_misdelivered_or_unacked_message():
    acked = _acked(50)
    key, _recipient, sensitivity = acked[4]
    held = acked[:4] + [(key, "Mallory", sensitivity)] + acked[5:]
    assert any("wrong recipient" in p for p in check_ledger(acked, held))
    assert any("never acked" in p for p in check_ledger(acked, acked + [(999, "Bob", 1)]))


def test_subset_fires_on_a_replica_holding_what_the_primary_lacks():
    assert check_subset([1, 2, 3], [("v1", [1, 2]), ("v2", [3])]) == []
    problems = check_subset([1, 2, 3], [("v1", [1, 4])])
    assert len(problems) == 1 and "v1" in problems[0]


def test_ops_fire_on_failed_or_unfinished_ops():
    done = OpRecord("send_mail", 0.0, done_ms=5.0, ok=True)
    assert check_ops([done]) == []
    failed = OpRecord("fetch_mail", 0.0, done_ms=5.0, ok=False, error="shed")
    stuck = OpRecord("send_mail", 3.0)
    problems = check_ops([done, failed, stuck])
    assert len(problems) == 2


def test_ops_count_a_tolerated_fault_but_flag_any_other():
    known = OpRecord("send_mail", 0.0, done_ms=5.0, ok=False,
                     error="ViewMailServer@c1: AssertionError: ")
    assert check_ops([known], tolerated="AssertionError") == []
    other = OpRecord("send_mail", 0.0, done_ms=5.0, ok=False, error="timeout")
    assert len(check_ops([known, other], tolerated="AssertionError")) == 1
    stuck = OpRecord("send_mail", 3.0)
    assert len(check_ops([known, stuck], tolerated="AssertionError")) == 1


def test_offered_count_within_four_sigma():
    # 100 req/s for 60 s: mean 6000, sigma ~77.5
    assert check_offered(6000, 100.0, 60_000.0) == []
    assert check_offered(6300, 100.0, 60_000.0) == []
    assert check_offered(6400, 100.0, 60_000.0) != []
    assert check_offered(5600, 100.0, 60_000.0) != []


def test_scaling_fires_without_scale_out_or_scale_in():
    out = {"action": "scale_out", "installed": ["v2"], "retired": []}
    into = {"action": "scale_in", "installed": [], "retired": ["v2"]}
    assert check_scaling([out, into], views_peak=2, views_final=1) == []
    assert len(check_scaling([into], views_peak=2, views_final=1)) == 1
    assert len(check_scaling([out], views_peak=2, views_final=2)) == 2


def test_bindings_fire_on_a_dead_instance():
    assert check_bindings([("c1", [("MailClient@c1", True)])]) == []
    problems = check_bindings([("c1", [("MailClient@c1", True), ("VMS@gw", False)])])
    assert problems == ["binding of c1 points at dead ['VMS@gw']"]


def test_body_token_round_trips():
    body = make_body(256, 1234).encode()
    assert len(body) == 256 and body_token(body) == 1234
    assert body_token(make_body(64).encode()) is None


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50 and percentile(values, 99) == 99
    assert percentile([], 50) is None


def test_steady_round_passes_its_checks_on_the_program():
    from workloads import SteadyMail

    class Short(SteadyMail):
        window_ms = 3_000.0

    rnd = Short(0).run_round()
    assert rnd.attempted > 100 and rnd.failed == 0
    assert not any(rnd.problems.values()), rnd.problems


@pytest.mark.parametrize("corrupt", ["drop", "duplicate"])
def test_ledger_fires_on_corrupted_real_stores(corrupt):
    """A short stream's real stores pass; one dropped or duplicated
    stored message fails."""
    import workloads
    from repro.experiments.mail_setup import build_mail_testbed
    from repro.obs import Observability, use_obs
    from repro.services.mail import DEFAULT_USERS
    from repro.sim.arrivals import PoissonProcess

    with use_obs(Observability(tracing=False, metrics=True)):
        testbed = build_mail_testbed(
            clients_per_site=2, node_cpu=100.0, users=DEFAULT_USERS
        )
        runtime = testbed.runtime
        proxies, _binds = workloads._bind_load_proxies(
            runtime, testbed.client_nodes("sandiego"), 0, 2_000.0, 4
        )
        records = workloads.open_loop(
            runtime, proxies, PoissonProcess(50.0, seed=1), 2_000.0,
            30_000.0, 1,
        )
    stores = [v.store for v in workloads._live_views(runtime)]

    def held():
        return [
            (m.msg_id, user, m.sensitivity)
            for store in stores for user, m in workloads._inbox_list(store)
        ]

    acked = workloads._acked_ids(records)
    assert acked and check_ledger(acked, held()) == []
    inbox = next(
        store.mailbox(user).inbox
        for store in stores for user in store.users()
        if store.mailbox(user).inbox
    )
    if corrupt == "drop":
        inbox.pop()
    else:
        inbox.append(inbox[0])
    assert check_ledger(acked, held()) != []
