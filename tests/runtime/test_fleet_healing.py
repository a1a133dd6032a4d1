"""Fleet self-healing: deadlines, hedging, circuit breaker, health checks.

Companion to ``test_fleet_chaos.py`` (crash redelivery, respawn,
accounting): here the PR-9 machinery — deadline propagation, hedged
dispatch, the crash circuit breaker with quarantine/revive, the
integrity health round and its respawn of a worker whose corruption
recurs, and the heartbeat monitor — each against a real multi-process
fleet.
"""

import time

import numpy as np
import pytest

from repro.chaos.worker import WorkerChaos
from repro.runtime.fleet import (
    DeadlineExceededError,
    FleetServer,
    ShedLoadError,
    WorkerCrashError,
    plan_digest,
    rebuild_plan,
    snapshot_model,
)


def _x(n, seed=0):
    return (
        np.random.default_rng(seed)
        .standard_normal((n, 1, 16, 16))
        .astype(np.float32)
    )


def _snapshot(chaos: dict | None = None):
    return snapshot_model("lenet", backend="daism", chaos=chaos)


class TestDeadlines:
    def test_expired_deadline_fails_structurally(self):
        with FleetServer(workers=1, max_batch=4, max_delay_ms=0.5) as fleet:
            fleet.register(_snapshot())
            future = fleet.submit("lenet", _x(2), timeout_ms=0.001)
            with pytest.raises(DeadlineExceededError) as err:
                future.result(timeout=30)
            assert err.value.late_ms >= 0.0
            assert err.value.as_dict()["error"] == "deadline_exceeded"
            stats = fleet.stats()["lenet"]
            assert stats["expired_requests"] >= 1
            # Structured failure, never a drop.
            assert (
                stats["accepted_requests"]
                == stats["completed_requests"] + stats["failed_requests"]
            )

    def test_generous_deadline_completes(self):
        with FleetServer(workers=1, max_batch=4, max_delay_ms=0.5) as fleet:
            fleet.register(_snapshot())
            x = _x(2, seed=1)
            want = rebuild_plan(_snapshot()).execute(x)
            got = fleet.submit("lenet", x, timeout_ms=30_000.0).result(timeout=30)
            np.testing.assert_array_equal(got, want)
            assert fleet.stats()["lenet"]["expired_requests"] == 0


class TestHedging:
    def test_hedged_dispatch_counts_and_resolves_once(self):
        # A long stall on (deterministically) every batch: the hedge to
        # the second worker wins while the first worker sleeps.
        chaos = WorkerChaos(
            seed=0, latency_prob=1.0, latency_spike_ms=300.0
        ).as_dict()
        with FleetServer(workers=2, max_batch=2, max_delay_ms=0.5) as fleet:
            fleet.register(_snapshot(chaos=chaos))
            x = _x(2, seed=2)
            got = fleet.submit("lenet", x, hedge_ms=20.0).result(timeout=60)
            want = rebuild_plan(_snapshot()).execute(x)
            np.testing.assert_array_equal(got, want)
            stats = fleet.stats()["lenet"]
            assert stats["hedged_requests"] >= 1
            # The duplicate is not double-counted as accepted/completed.
            assert (
                stats["accepted_requests"]
                == stats["completed_requests"] + stats["failed_requests"]
            )

    def test_hedge_never_fires_when_primary_is_fast(self):
        with FleetServer(workers=1, max_batch=4, max_delay_ms=0.0) as fleet:
            fleet.register(_snapshot())
            fleet.submit("lenet", _x(2), hedge_ms=5_000.0).result(timeout=30)
            assert fleet.stats()["lenet"]["hedged_requests"] == 0


class TestCircuitBreaker:
    def test_crash_storm_opens_breaker_and_sheds(self):
        chaos = WorkerChaos(seed=0, crash_prob=1.0).as_dict()
        with FleetServer(
            workers=1,
            max_batch=4,
            max_delay_ms=0.5,
            max_retries=0,
            breaker_threshold=2,
            breaker_window_s=30.0,
            breaker_cooldown_s=60.0,
            heartbeat_interval_s=None,
        ) as fleet:
            fleet.register(_snapshot(chaos=chaos))
            failures = 0
            sheds = 0
            for i in range(6):
                try:
                    fleet.submit("lenet", _x(2, seed=i)).result(timeout=60)
                except WorkerCrashError:
                    failures += 1
                except ShedLoadError as exc:
                    sheds += 1
                    assert exc.reason == "circuit_open"
                    assert exc.retry_after_ms is not None
            assert failures >= 2  # the crashes that tripped the breaker
            assert sheds >= 1  # post-open submissions shed structurally
            stats = fleet.stats()["lenet"]
            assert stats["breaker_opens"] >= 1
            assert stats["quarantined"] is True
            assert any(
                e["event"] == "circuit_open" for e in fleet.events()
            )
            assert (
                stats["accepted_requests"]
                == stats["completed_requests"] + stats["failed_requests"]
            )

    def test_breaker_revives_after_cooldown(self):
        chaos = WorkerChaos(seed=0, crash_prob=1.0).as_dict()
        with FleetServer(
            workers=1,
            max_batch=4,
            max_delay_ms=0.5,
            max_retries=0,
            breaker_threshold=1,
            breaker_cooldown_s=0.2,
            heartbeat_interval_s=None,
        ) as fleet:
            fleet.register(_snapshot(chaos=chaos))
            with pytest.raises(WorkerCrashError):
                fleet.submit("lenet", _x(2)).result(timeout=60)
            assert fleet.stats()["lenet"]["quarantined"] is True
            time.sleep(0.3)
            # Cooldown elapsed: the next submit revives the deployment
            # (fresh workers, closed breaker) before being admitted.
            # crash_prob=1.0 makes the revived worker crash again — the
            # observable proof the revive actually happened is a second
            # breaker cycle, not a shed.
            with pytest.raises((WorkerCrashError, ShedLoadError)):
                fleet.submit("lenet", _x(2, seed=1)).result(timeout=60)
            assert fleet.stats()["lenet"]["breaker_opens"] >= 2
            assert any(
                e["event"] == "circuit_closed" for e in fleet.events()
            )

    def test_quarantine_is_per_model(self):
        chaos = WorkerChaos(seed=0, crash_prob=1.0).as_dict()
        healthy = snapshot_model("mini_resnet", backend="daism")
        with FleetServer(
            workers=1,
            max_batch=4,
            max_delay_ms=0.5,
            max_retries=0,
            breaker_threshold=1,
            breaker_cooldown_s=60.0,
            heartbeat_interval_s=None,
        ) as fleet:
            fleet.register(_snapshot(chaos=chaos))
            fleet.register(healthy)
            with pytest.raises(WorkerCrashError):
                fleet.submit("lenet", _x(2)).result(timeout=60)
            assert fleet.stats()["lenet"]["quarantined"] is True
            # The other model keeps serving through the quarantine.
            x = _x(2, seed=5)
            want = rebuild_plan(healthy).execute(x)
            got = fleet.submit("mini_resnet", x).result(timeout=60)
            np.testing.assert_array_equal(got, want)
            assert fleet.stats()["mini_resnet"]["quarantined"] is False


class TestHealthAndDemotion:
    def test_check_health_detects_boot_corruption(self):
        chaos = WorkerChaos(seed=0, boot_table_flips=1).as_dict()
        with FleetServer(workers=2, max_batch=4, max_delay_ms=0.5) as fleet:
            fleet.register(_snapshot(chaos=chaos))
            reports = fleet.check_health("lenet")
            assert len(reports) == 2
            for report in reports:
                assert "error" not in report
                assert (
                    len(report["corrupted_tables"]) + len(report["canary_failures"])
                    >= 1
                )
            stats = fleet.stats()["lenet"]
            assert stats["integrity_checks"] == 2
            assert stats["integrity_corruptions"] >= 2
            # Healed: the next round is clean.
            for report in fleet.check_health("lenet"):
                assert report["corrupted_tables"] == []

    def test_recurrence_respawns_only_that_worker(self):
        from repro.core.integrity import RECURRENCE_THRESHOLD

        with FleetServer(
            workers=2, max_batch=4, max_delay_ms=0.5, heartbeat_interval_s=None
        ) as fleet:
            fleet.register(_snapshot())
            dep = fleet._deployment("lenet")
            snapshot = dep.snapshot
            pids = [h.pid for h in dep.handles]
            restarts = fleet.stats()["lenet"]["worker_restarts"]
            # Corrupt the same tables of worker 0 before each health
            # round: each round detects and heals, and the recurrence
            # respawns worker 0 alone.
            for _ in range(RECURRENCE_THRESHOLD):
                handle = dep.handles[0]
                with handle.lock:
                    status, corrupted = handle.request(
                        ("chaos", {"n_tables": 2, "flips_per_table": 1})
                    )
                assert status == "ok" and corrupted
                reports = fleet.check_health("lenet")
            assert [r["recurred"] for r in reports] == [True, False]
            assert dep.handles[0].pid != pids[0]
            assert dep.handles[1].pid == pids[1]
            assert fleet.stats()["lenet"]["worker_restarts"] == restarts + 1
            assert any(
                e["event"] == "worker_respawned" and e["cause"] == "integrity"
                for e in fleet.events()
            )
            # The snapshot is untouched: same kernel, same plan, same bits.
            assert dep.snapshot is snapshot and dep.snapshot.kernel is None
            parent = rebuild_plan(snapshot)
            assert fleet.plan_digests("lenet") == [plan_digest(parent)] * 2
            x = _x(2, seed=3)
            got = fleet.submit("lenet", x).result(timeout=60)
            np.testing.assert_array_equal(
                got.view(np.uint32), parent.execute(x).view(np.uint32)
            )


class TestHeartbeatMonitor:
    def test_monitor_respawns_an_idle_killed_worker(self):
        with FleetServer(
            workers=1, max_batch=4, max_delay_ms=0.5, heartbeat_interval_s=0.2
        ) as fleet:
            fleet.register(_snapshot())
            fleet.submit("lenet", _x(2)).result(timeout=30)
            fleet.workers("lenet")[0].kill()
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                if fleet.stats()["lenet"]["worker_restarts"] >= 1:
                    break
                time.sleep(0.1)
            stats = fleet.stats()["lenet"]
            assert stats["worker_restarts"] >= 1
            assert stats["last_recovery_ms"] is not None
            assert any(
                e["event"] == "worker_respawned" for e in fleet.events()
            )
            # And the respawned worker serves.
            x = _x(2, seed=4)
            want = rebuild_plan(_snapshot()).execute(x)
            got = fleet.submit("lenet", x).result(timeout=30)
            np.testing.assert_array_equal(got, want)
