"""Event-budget pin: the exact number of kernel events a small Fig 11 leg
schedules.

The count is a deterministic function of the code and the seed (it does
not depend on the str-hash seed), so it is gated exactly instead of
through a wall-clock guess.  A change that adds a hop to the link, disk,
switch or transport path shows up here as a count.  When a change moves
the count on purpose, re-record it (see the assertion message) and say
why in the change description.
"""

from repro.bench.figures import keys_in_partition
from repro.bench.harness import build_nice
from repro.workloads import run_fault_timeline

#: Scheduled events (heap records, i.e. ``Simulator._eid``) of
#: :func:`_fig11_leg`, build and warm-up included.
FIG11_LEG_EVENTS = 15_449


def _fig11_leg():
    """15 nodes, R=3, 3 paced clients at 20/80 put/get on one partition;
    one secondary fails at 0.5 s and rejoins at 1.5 s; 2.5 s simulated."""
    cluster = build_nice(n_storage_nodes=15, n_clients=3, seed=7)
    keys = keys_in_partition(0, cluster.config.n_partitions, 64)
    result = run_fault_timeline(
        cluster, keys, fail_at=0.5, recover_at=1.5, duration=2.5
    )
    return cluster.sim, result


def test_fig11_leg_event_count_is_pinned():
    sim, result = _fig11_leg()
    assert [label for _, label in result.events] == [
        "n7 fails", "n7 rejoins", "n7 consistent",
    ]
    assert sim._eid == FIG11_LEG_EVENTS, (
        f"the fig11 leg scheduled {sim._eid:,} kernel events, the pin says "
        f"{FIG11_LEG_EVENTS:,}.  If the change is meant to move the event "
        "count, set FIG11_LEG_EVENTS in tests/unit/test_event_budget.py to "
        "the new value and explain the delta in the change description."
    )
