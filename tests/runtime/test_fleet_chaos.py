"""Fleet chaos: crashes, floods and shutdown must never strand a future.

The fleet's contract is *no silent drops*: every accepted request
resolves — with data after a transparent redelivery, or with a
structured error — no matter what the worker processes do.  These tests
kill workers mid-flight, flood admission control past its limits and
shut down under load, asserting the contract each time.  Everything is
driven from the parent (kills go through ``FleetServer.workers``), so
the tests are deterministic apart from *which* requests ride the
crashed batch — which is exactly the part the contract makes
irrelevant.
"""

import time

import numpy as np
import pytest

from repro.chaos.worker import WorkerChaos
from repro.runtime import FleetServer, ShedLoadError, WorkerCrashError
from repro.runtime.fleet import snapshot_model


def _x(n, seed=0):
    return (
        np.random.default_rng(seed)
        .standard_normal((n, 1, 16, 16))
        .astype(np.float32)
    )


def _snap(backend="exact"):
    return snapshot_model("lenet", backend=backend)


def _wait_for_respawns(fleet, n, timeout_s=60.0):
    """Wait for ``n`` ``worker_respawned`` journal events.

    A crashed batch's futures can resolve before its runner's respawn
    finishes, and ``worker_restarts`` counts a respawn once it has.
    """
    deadline = time.monotonic() + timeout_s
    while sum(e["event"] == "worker_respawned" for e in fleet.events()) < n:
        assert time.monotonic() < deadline, "the crashed worker never respawned"
        time.sleep(0.01)


class TestWorkerCrash:
    def test_kill_mid_flight_no_future_hangs(self):
        """Kill a worker under load: every future resolves, fleet recovers."""
        with FleetServer(
            workers=2, max_batch=4, max_delay_ms=1.0, max_retries=2
        ) as fleet:
            fleet.register(_snap())
            futures = [fleet.submit("lenet", _x(2, seed=s)) for s in range(15)]
            fleet.workers("lenet")[0].kill()
            futures += [fleet.submit("lenet", _x(2, seed=100 + s)) for s in range(15)]
            resolved = 0
            for fut in futures:
                # Either data or a structured error — never a hang.
                exc = fut.exception(timeout=60)
                assert exc is None or isinstance(exc, WorkerCrashError)
                resolved += 1
            _wait_for_respawns(fleet, 1)
            stats = fleet.stats()["lenet"]
        assert resolved == 30
        assert stats["worker_restarts"] >= 1
        assert stats["workers_alive"] == 2  # respawned from the snapshot
        # Accounting closes: accepted = completed + failed exactly.
        assert (
            stats["completed_requests"] + stats["failed_requests"]
            == stats["accepted_requests"]
        )

    def test_crash_retries_only_the_group_the_worker_saw(self):
        """A batch of two sample shapes goes out as two worker calls; a
        crash on the first requeues the second untouched, so each
        request is charged exactly the crashes it was sent into."""
        chaos = WorkerChaos(seed=0, crash_prob=1.0).as_dict()
        with FleetServer(
            workers=1,
            max_batch=64,
            max_delay_ms=200.0,
            max_retries=1,
            heartbeat_interval_s=None,
        ) as fleet:
            fleet.register(snapshot_model("lenet", backend="exact", chaos=chaos))
            futures = [
                fleet.submit("lenet", _x(2)),
                fleet.submit("lenet", np.ones((2, 2, 16, 16), dtype=np.float32)),
            ]
            for fut in futures:
                exc = fut.exception(timeout=60)
                assert isinstance(exc, WorkerCrashError)
                assert exc.retries == 1
            _wait_for_respawns(fleet, 4)
            stats = fleet.stats()["lenet"]
        # Two sends per request (first try + one retry), one crash each.
        assert stats["worker_restarts"] == 4
        assert stats["retried_requests"] == 2

    def test_exhausted_retries_raise_structured_error(self):
        """With retries off, a crashed batch fails with WorkerCrashError."""
        with FleetServer(
            workers=1, max_batch=256, max_delay_ms=0.0, max_retries=0
        ) as fleet:
            fleet.register(_snap(backend="daism"))
            # Large request → long in-worker service time → the kill lands
            # mid-batch.  Retry the submit+kill dance in case the worker
            # finishes before the kill on a fast machine.
            for attempt in range(5):
                fut = fleet.submit("lenet", _x(128, seed=attempt))
                time.sleep(0.005)
                fleet.workers("lenet")[0].kill()
                exc = fut.exception(timeout=60)
                if isinstance(exc, WorkerCrashError):
                    break
                assert exc is None  # finished before the kill; try again
            else:
                pytest.fail("kill never landed mid-batch in 5 attempts")
            assert exc.model == "lenet"
            assert exc.retries == 0
            # The respawned worker keeps serving.
            again = fleet.submit("lenet", _x(2)).result(timeout=60)
        assert again.shape[0] == 2

    def test_redelivered_request_returns_data(self):
        """With retries on, the crashed batch is served again transparently."""
        with FleetServer(
            workers=1, max_batch=256, max_delay_ms=0.0, max_retries=3
        ) as fleet:
            fleet.register(_snap(backend="daism"))
            for attempt in range(5):
                fut = fleet.submit("lenet", _x(128, seed=attempt))
                time.sleep(0.005)
                fleet.workers("lenet")[0].kill()
                out = fut.result(timeout=60)  # must resolve with data
                assert out.shape[0] == 128
                if fleet.stats()["lenet"]["retried_requests"] > 0:
                    return
            pytest.fail("kill never landed mid-batch in 5 attempts")


class TestAdmissionControl:
    def test_flood_sheds_with_structure_and_drops_nothing(self):
        with FleetServer(
            workers=1, max_batch=8, max_delay_ms=1.0, max_queue_samples=16
        ) as fleet:
            fleet.register(_snap())
            accepted, sheds = [], []
            for s in range(200):
                try:
                    accepted.append(fleet.submit("lenet", _x(4, seed=s)))
                except ShedLoadError as exc:
                    sheds.append(exc)
            # Flood far past a 16-sample queue: shedding must engage...
            assert sheds
            assert accepted
            for exc in sheds:
                assert exc.reason == "queue_full"
                info = exc.as_dict()
                assert info["error"] == "shed_load"
                assert info["limit"] == 16
                assert info["queued_samples"] + 4 > 16
            # ...and every *accepted* request still resolves with data:
            # accepted-then-dropped is the failure mode this pins at zero.
            for fut in accepted:
                assert fut.result(timeout=60).shape[0] == 4
            stats = fleet.stats()["lenet"]
        assert stats["shed_requests"] == len(sheds)
        assert stats["completed_requests"] == len(accepted)
        assert stats["failed_requests"] == 0

    def test_sla_unmeetable_sheds_up_front(self):
        """A seeded service-time estimate makes SLA shedding deterministic."""
        with FleetServer(workers=1, max_batch=8, sla_ms=1.0) as fleet:
            fleet.register(_snap(), service_hint_ms_per_sample=10.0)
            # predicted = 4 samples * 10 ms / 1 worker = 40 ms >> 1 ms SLA.
            with pytest.raises(ShedLoadError) as err:
                fleet.submit("lenet", _x(4))
        assert err.value.reason == "sla_unmeetable"
        assert err.value.predicted_ms == pytest.approx(40.0)
        assert err.value.sla_ms == 1.0

    def test_queue_drains_then_admits_again(self):
        """Shedding is a transient state, not a latch."""
        with FleetServer(
            workers=1, max_batch=8, max_delay_ms=1.0, max_queue_samples=8
        ) as fleet:
            fleet.register(_snap())
            futures = []
            saw_shed = False
            for s in range(50):
                try:
                    futures.append(fleet.submit("lenet", _x(4, seed=s)))
                except ShedLoadError:
                    saw_shed = True
            assert saw_shed
            for fut in futures:
                fut.result(timeout=60)
            # Queue is empty again: the next submit must be admitted.
            assert fleet.submit("lenet", _x(4)).result(timeout=60).shape[0] == 4


class TestShutdown:
    def test_close_drains_accepted_queue(self):
        fleet = FleetServer(workers=2, max_batch=4, max_delay_ms=50.0)
        fleet.register(_snap())
        futures = [fleet.submit("lenet", _x(2, seed=s)) for s in range(10)]
        fleet.close(drain=True)
        for fut in futures:
            assert fut.result(timeout=60).shape[0] == 2
        with pytest.raises(RuntimeError, match="closed"):
            fleet.submit("lenet", _x(1))
        stats = fleet.stats()["lenet"]
        assert stats["completed_requests"] == 10
        assert stats["workers_alive"] == 0

    def test_close_without_drain_fails_queued_futures(self):
        fleet = FleetServer(workers=1, max_batch=2, max_delay_ms=200.0)
        fleet.register(_snap())
        futures = [fleet.submit("lenet", _x(2, seed=s)) for s in range(20)]
        fleet.close(drain=False)
        outcomes = {"served": 0, "failed": 0}
        for fut in futures:
            exc = fut.exception(timeout=60)  # resolved either way — no hangs
            if exc is None:
                outcomes["served"] += 1
            else:
                assert isinstance(exc, RuntimeError)
                assert "closed" in str(exc)
                outcomes["failed"] += 1
        assert outcomes["served"] + outcomes["failed"] == 20
        assert outcomes["failed"] > 0  # the 200 ms budget kept a queue

    def test_close_is_idempotent(self):
        fleet = FleetServer(workers=1)
        fleet.register(_snap())
        fleet.close()
        fleet.close()
