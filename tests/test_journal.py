"""The process event journal: one bounded ring, owner views, exact counts."""

import numpy as np

from repro import journal
from repro.runtime import FleetServer, snapshot_model
from repro.runtime.scheduler import policy_for_model


def _serve_one(fleet: FleetServer, policy) -> None:
    """Register LeNet under ``policy`` and serve one request."""
    fleet.register(snapshot_model("lenet", backend="exact"), policy=policy)
    x = np.zeros((2, 1, 16, 16), dtype=np.float32)
    fleet.submit("lenet", x).result(timeout=60)


def _fleet() -> FleetServer:
    return FleetServer(workers=1, max_batch=8, max_delay_ms=0.5, heartbeat_interval_s=None)


def test_policy_state_stays_bounded():
    policy = policy_for_model("lenet", sla_ms=40.0)
    held_before = len(journal.events())
    dropped_before = journal.dropped()
    calls = 3 * journal.CAPACITY
    longest_view = 0
    for i in range(calls):
        # Alternating service times move the correction by more than
        # EVENT_DRIFT every call, so every call records an event.
        policy.observe(1, 1000.0 if i % 2 else 1.0)
        if i % 256 == 0:
            longest_view = max(longest_view, len(policy.events()))
    assert policy.journal.recorded == calls

    ring = journal.events()
    assert len(ring) == journal.CAPACITY
    seqs = [r["seq"] for r in ring]
    times = [r["t"] for r in ring]
    assert all(a < b for a, b in zip(seqs, seqs[1:]))
    assert all(a < b for a, b in zip(times, times[1:]))
    assert journal.dropped() - dropped_before == held_before + calls - journal.CAPACITY
    assert longest_view <= journal.CAPACITY
    assert len(policy.events()) == journal.CAPACITY


def test_fleets_see_only_their_own_records():
    with _fleet() as first:
        _serve_one(first, "cost_model")
        first_seqs = {e["seq"] for e in first.events()}
    with _fleet() as second:
        _serve_one(second, "cost_model")
        second_events = second.events()
    assert first_seqs and second_events
    assert first_seqs.isdisjoint(e["seq"] for e in second_events)
    assert len({e["owner"] for e in second_events}) == 1


def test_each_sched_decision_is_recorded_once():
    policy = policy_for_model("lenet", sla_ms=40.0, max_batch=8, max_delay_ms=0.5)
    with _fleet() as fleet:
        _serve_one(fleet, policy)
        fleet_sched = [e for e in fleet.events() if e["source"] == "scheduler"]
        policy_events = policy.events()
        ring_sched = [
            r
            for r in journal.events(policy.journal.owner)
            if r["event"].startswith("sched_")
        ]
    assert policy_events
    assert [e["seq"] for e in fleet_sched] == [e["seq"] for e in policy_events]
    assert fleet_sched == policy_events
    assert len(ring_sched) == policy.journal.recorded == len(policy_events)
