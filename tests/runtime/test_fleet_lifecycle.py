"""Fleet deployment lifecycle: quarantine, revive and close leave nothing behind.

Deterministic regressions for the lifecycle invariants of
:class:`~repro.runtime.fleet.FleetServer`: a crash on a stopped
(quarantined) deployment fails its batch instead of requeueing it and
never respawns a worker; revive retires every old worker before fresh
ones start; ``close`` resolves every accepted future and leaves no
worker process alive, even when it lands during a ``register``; a
runner whose worker cannot respawn fails its queue structurally and
exits without an unhandled exception; ``plan_digests`` on a quarantined
deployment reports its workers as down instead of raising; a crash that
respawns no worker counts no restart.  The
randomised counterpart is ``test_fleet_model.py``.
"""

import dataclasses
import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.chaos.worker import WorkerChaos
from repro.runtime import fleet as fleet_module
from repro.runtime.fleet import (
    FleetServer,
    ShedLoadError,
    WorkerCrashError,
    plan_digest,
    rebuild_plan,
    snapshot_model,
)

#: Long enough that both workers are certainly mid-request when the
#: test kills one of them.
STALL_MS = 600.0


def _x(n, seed=0):
    return (
        np.random.default_rng(seed)
        .standard_normal((n, 1, 16, 16))
        .astype(np.float32)
    )


def _wait_for(predicate, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "fleet never reached the expected state"
        time.sleep(0.01)


def _assert_settled(fleet, futures, children_before):
    """Every accepted future resolved, the books balance, no worker lives."""
    assert all(f.done() for f in futures)
    stats = fleet.stats()["lenet"]
    assert stats["accepted_requests"] == len(futures)
    assert (
        stats["accepted_requests"]
        == stats["completed_requests"] + stats["failed_requests"]
    )
    assert stats["workers_alive"] == 0
    leaked = [
        p for p in multiprocessing.active_children() if p.pid not in children_before
    ]
    assert leaked == []


def _stalled_fleet() -> FleetServer:
    """Two daism LeNet workers that stall on every batch; the breaker opens at one crash."""
    chaos = WorkerChaos(seed=0, latency_prob=1.0, latency_spike_ms=STALL_MS).as_dict()
    fleet = FleetServer(
        workers=2,
        max_batch=2,
        max_delay_ms=0.0,
        max_retries=1,
        breaker_threshold=1,
        breaker_cooldown_s=0.2,
        heartbeat_interval_s=None,
    )
    try:
        fleet.register(snapshot_model("lenet", backend="daism", chaos=chaos))
    except BaseException:
        fleet.close()
        raise
    return fleet


def _kill_one_with_both_mid_request(fleet: FleetServer) -> list:
    """Both workers asleep on a request, kill worker 0; returns the futures, failed.

    Worker 0's crash opens the breaker, whose quarantine kills worker 1
    under its runner: that second crash lands on a stopped deployment.
    Returns once both runners have exited.
    """
    # max_batch=2: each runner pulls one 2-sample request.
    futures = [fleet.submit("lenet", _x(2, seed=i)) for i in range(2)]
    _wait_for(lambda: fleet.stats()["lenet"]["inflight_samples"] == 4)
    time.sleep(0.1)  # both requests are on the wire, both workers asleep
    fleet.workers("lenet")[0].kill()
    _wait_for(lambda: fleet.stats()["lenet"]["quarantined"])
    _wait_for(lambda: all(f.done() for f in futures))
    for f in futures:
        assert isinstance(f.exception(), WorkerCrashError)
    runners = fleet._deployment("lenet").runners
    _wait_for(lambda: not any(t.is_alive() for t in runners))
    return futures


class TestBreakerWhileWorkersStall:
    @pytest.mark.parametrize("revive", [False, True], ids=["close", "revive_then_close"])
    def test_quarantine_with_both_workers_mid_request(self, revive):
        children_before = {p.pid for p in multiprocessing.active_children()}
        fleet = _stalled_fleet()
        try:
            futures = _kill_one_with_both_mid_request(fleet)
            # Neither crash on the stopped deployment respawned a worker.
            assert fleet.stats()["lenet"]["workers_alive"] == 0
            if revive:
                time.sleep(0.3)  # past the cooldown: the next submit revives
                futures.append(fleet.submit("lenet", _x(2, seed=2)))
                assert fleet.stats()["lenet"]["quarantined"] is False
        finally:
            fleet.close(drain=True)
        _assert_settled(fleet, futures, children_before)
        if revive:
            assert futures[-1].exception() is None

    def test_crashes_without_respawn_count_no_restart(self):
        """A restart counts a worker that came back, not a crash the runner saw."""
        fleet = _stalled_fleet()
        try:
            _kill_one_with_both_mid_request(fleet)
            assert fleet.stats()["lenet"]["worker_restarts"] == 0
            assert not any(e["event"] == "worker_respawned" for e in fleet.events())
        finally:
            fleet.close(drain=True)


class TestRegisterRacingClose:
    def test_close_during_register_leaves_no_worker(self, monkeypatch):
        children_before = {p.pid for p in multiprocessing.active_children()}
        fleet = FleetServer(workers=2, heartbeat_interval_s=None)
        spawn = fleet_module._WorkerHandle.spawn

        def spawn_then_close(handle):
            spawn(handle)
            fleet.close()  # lands between two worker spawns of register

        monkeypatch.setattr(fleet_module._WorkerHandle, "spawn", spawn_then_close)
        with pytest.raises(RuntimeError, match="closed"):
            fleet.register(snapshot_model("lenet", backend="daism"))
        assert fleet.models() == []
        leaked = [
            p for p in multiprocessing.active_children() if p.pid not in children_before
        ]
        assert leaked == []


class TestRespawnFailure:
    def test_failed_respawn_fails_queue_and_runner_exits_cleanly(self, monkeypatch):
        uncaught: list = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        children_before = {p.pid for p in multiprocessing.active_children()}
        snapshot = snapshot_model("lenet", backend="daism")
        fleet = FleetServer(
            workers=1,
            max_batch=2,
            max_delay_ms=0.0,
            max_retries=1,
            breaker_cooldown_s=60.0,
            heartbeat_interval_s=None,
        )
        try:
            fleet.register(snapshot)
            # The worker's next build fails: its weight buffer no longer
            # decodes, so the respawn after the crash below cannot finish.
            handle = fleet._deployment("lenet").handles[0]
            handle.snapshot = dataclasses.replace(snapshot, state=b"\x00")
            fleet.workers("lenet")[0].kill()
            future = fleet.submit("lenet", _x(2))
            with pytest.raises(WorkerCrashError):
                future.result(timeout=60)
            assert any(e["event"] == "respawn_failed" for e in fleet.events())
            assert fleet.stats()["lenet"]["quarantined"] is True
            with pytest.raises(ShedLoadError) as shed:
                fleet.submit("lenet", _x(2, seed=1))
            assert shed.value.reason == "circuit_open"
        finally:
            fleet.close(drain=True)
        _assert_settled(fleet, [future], children_before)
        assert uncaught == []


class TestDigestsWhileDown:
    def test_plan_digests_after_quarantine_reports_the_worker_down(self):
        snapshot = snapshot_model("lenet", backend="daism")
        with FleetServer(
            workers=1, max_batch=4, breaker_cooldown_s=0.1, heartbeat_interval_s=None
        ) as fleet:
            fleet.register(snapshot)
            want = plan_digest(rebuild_plan(snapshot))
            assert fleet.plan_digests("lenet") == [want]
            fleet._quarantine(fleet._deployment("lenet"), "circuit open")
            assert fleet.plan_digests("lenet") == [None]
            time.sleep(0.15)  # the cooldown lifts; the next submit revives
            fleet.submit("lenet", _x(1)).result(timeout=30)
            assert fleet.plan_digests("lenet") == [want]
