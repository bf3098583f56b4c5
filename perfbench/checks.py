"""Correctness checks on each round's outputs.

Every check is a property of the method or a figure computed here, apart
from the program: the paper's Figure 6 chains and Figure 7 grouping, the
round trip of the topology's own link table, a Poisson count bound, and
the benchmark's own ledger of acknowledged sends.  None compares against
a stored copy of a past run.  Each returns a list of problems; an empty
list means the check passed.  ``test_checks.py`` shows each one firing on
a deliberately corrupted result.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

#: Figure 7's latency groups, best first (paper §4.2)
FIG7_GROUPS = (
    ("SF", "SS0", "DF", "DS0"),
    ("SS1000", "DS1000"),
    ("SS500", "DS500"),
    ("SS",),
)

#: Figure 6's planned chains, root to server, as (unit, site)
FIG6_CHAINS = {
    "newyork": [("MailClient", "newyork"), ("MailServer", "newyork")],
    "sandiego": [
        ("MailClient", "sandiego"),
        ("ViewMailServer", "sandiego"),
        ("Encryptor", "sandiego"),
        ("Decryptor", "newyork"),
        ("MailServer", "newyork"),
    ],
}

#: how far above the bare New York-San Diego round trip SS's mean send
#: may sit (serialization, CPU service and the local hops)
SS_SLACK_MS = 5.0


def check_fig7(cells: Dict[Tuple[str, int], Dict[str, Any]],
               rtt_ms: float) -> List[str]:
    """Groups ordered at every client count, dynamic chains equal Figure 6,
    SS bounded by the slow link's round trip, no cell errors."""
    problems: List[str] = []
    counts = sorted({k for _name, k in cells})
    for k in counts:
        means = [
            [cells[(name, k)]["mean_send_ms"] for name in group]
            for group in FIG7_GROUPS
        ]
        for i in range(len(means) - 1):
            if max(means[i]) >= min(means[i + 1]):
                problems.append(
                    f"{k} clients: group {i + 1} {FIG7_GROUPS[i]} "
                    f"(max {max(means[i]):.3f} ms) not below group {i + 2} "
                    f"{FIG7_GROUPS[i + 1]} (min {min(means[i + 1]):.3f} ms)"
                )
        ss = cells[("SS", k)]["mean_send_ms"]
        if not rtt_ms <= ss <= rtt_ms + SS_SLACK_MS:
            problems.append(
                f"{k} clients: SS mean send {ss:.3f} ms outside "
                f"[{rtt_ms:.1f}, {rtt_ms + SS_SLACK_MS:.1f}] ms "
                "(the New York-San Diego round trip)"
            )
    for (name, k), cell in sorted(cells.items()):
        if cell["errors"]:
            problems.append(
                f"{name}/{k}: {len(cell['errors'])} errors, first "
                f"{cell['errors'][0]}"
            )
        expected = FIG6_CHAINS.get(cell["site"])
        if cell["chain"] is not None and cell["chain"] != expected:
            problems.append(
                f"{name}/{k}: planned chain {cell['chain']} is not "
                f"Figure 6's {expected}"
            )
    return problems


def check_ops(records: Sequence[Any],
              tolerated: Optional[str] = None) -> List[str]:
    """Every client operation finished, and finished ok.

    A failure whose error contains ``tolerated`` is not flagged: it is a
    known program fault, counted in the run's failed operations instead.
    """
    unfinished = sum(1 for r in records if r.done_ms is None)
    failed = [
        r for r in records
        if r.done_ms is not None and not r.ok
        and not (tolerated and tolerated in (r.error or ""))
    ]
    problems = []
    if unfinished:
        problems.append(f"{unfinished} of {len(records)} ops never finished")
    if failed:
        problems.append(
            f"{len(failed)} of {len(records)} ops failed, first: "
            f"{failed[0].op} {failed[0].error}"
        )
    return problems


def check_offered(offered: int, rate_per_s: float, window_ms: float) -> List[str]:
    """A Poisson stream's count lies within 4 sigma of rate x window."""
    mean = rate_per_s * window_ms / 1e3
    if abs(offered - mean) > 4.0 * math.sqrt(mean):
        return [
            f"offered {offered} ops, expected {mean:.0f} +- "
            f"{4.0 * math.sqrt(mean):.0f} (4 sigma)"
        ]
    return []


Entry = Tuple[Hashable, str, int]


def check_ledger(acked: Iterable[Entry], held: Iterable[Entry]) -> List[str]:
    """Each acknowledged send is held exactly once, for the recipient and
    at the sensitivity it was sent with, and nothing unacknowledged is held.

    ``acked`` and ``held`` are ``(key, recipient, sensitivity)`` triples;
    the key is a message id or a benchmark id carried in the body.
    """
    acked = list(acked)
    counts = Counter(key for key, _r, _s in held)
    where = {key: (r, s) for key, r, s in held}
    problems: List[str] = []
    lost = [key for key, _r, _s in acked if counts[key] == 0]
    if lost:
        problems.append(f"{len(lost)} acked sends not held, e.g. {lost[:3]}")
    dup = [key for key, _r, _s in acked if counts[key] > 1]
    if dup:
        problems.append(
            f"{len(dup)} acked sends held more than once, e.g. "
            f"{[(k, counts[k]) for k in dup[:3]]}"
        )
    wrong = [
        key for key, r, s in acked
        if key in where and where[key] != (r, s)
    ]
    if wrong:
        problems.append(
            f"{len(wrong)} sends held for the wrong recipient or "
            f"sensitivity, e.g. {wrong[:3]}"
        )
    extra = set(counts) - {key for key, _r, _s in acked}
    if extra:
        problems.append(
            f"{len(extra)} held messages were never acked, e.g. "
            f"{sorted(extra, key=repr)[:3]}"
        )
    return problems


def check_subset(primary: Iterable[Hashable],
                 replicas: Sequence[Tuple[str, Iterable[Hashable]]]) -> List[str]:
    """Every live replica holds only messages the primary holds."""
    held = set(primary)
    problems = []
    for label, keys in replicas:
        missing = set(keys) - held
        if missing:
            problems.append(
                f"replica {label} holds {len(missing)} messages the primary "
                f"lacks, e.g. {sorted(missing, key=repr)[:3]}"
            )
    return problems


def check_scaling(events: Sequence[Dict[str, Any]], views_peak: int,
                  views_final: int) -> List[str]:
    """At least one scale-out installed a view, and scale-in retired
    views so the final count sits below the peak."""
    problems = []
    if not any(e["action"] == "scale_out" and e["installed"] for e in events):
        problems.append("no scale-out installed a view")
    if not any(e["action"] == "scale_in" and e["retired"] for e in events):
        problems.append("no scale-in retired a view")
    if views_final >= views_peak:
        problems.append(
            f"{views_final} views remain, not below the peak of {views_peak}"
        )
    return problems


def check_bindings(bindings: Sequence[Tuple[str, Sequence[Tuple[str, bool]]]]) -> List[str]:
    """Every proxy's binding points at live instances on live hosts."""
    problems = []
    for proxy, chain in bindings:
        dead = [label for label, alive in chain if not alive]
        if dead:
            problems.append(f"binding of {proxy} points at dead {dead}")
    return problems


def percentile(sorted_values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile of already sorted values (q in 0..100)."""
    if not sorted_values:
        return None
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]
