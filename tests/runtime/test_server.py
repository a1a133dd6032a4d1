"""Micro-batching inference server: coalescing, correctness, lifecycle."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.config import PC3_TR
from repro.formats.floatfmt import BFLOAT16
from repro.nn.backend import daism_backend, exact_backend
from repro.nn.models import build_mlp
from repro.nn.optim import SGD
from repro.runtime import BatchEngine, InferenceServer, compile_plan, run_load
from repro.runtime.server import MicroBatcher, Request
from repro.runtime.serving_bench import serving_benchmark


def _plan(backend=None):
    return compile_plan(build_mlp().eval(), backend or exact_backend())


def _x(n, seed=0):
    return np.random.default_rng(seed).standard_normal((n, 32)).astype(np.float32)


class TestInferenceServer:
    def test_single_request_matches_plan(self):
        plan = _plan()
        with InferenceServer(plan, max_batch=8, max_delay_ms=1.0) as server:
            x = _x(4)
            got = server.submit(x).result(timeout=5)
        np.testing.assert_array_equal(
            got.view(np.uint32), plan.execute(x).view(np.uint32)
        )

    @pytest.mark.parametrize("backend", ["exact", "daism"])
    def test_coalesced_requests_byte_identical(self, backend):
        """Coalesced responses keep request boundaries *and* bits.

        Each response is byte-equal to the plan run on that request
        alone: the GEMMs are batch-invariant, so sharing a micro-batch
        never changes a reply.
        """
        plan = _plan(daism_backend(PC3_TR, BFLOAT16) if backend == "daism" else None)
        requests = [_x(3, seed=s) for s in range(12)]
        with InferenceServer(plan, max_batch=64, max_delay_ms=5.0) as server:
            futures = {}
            lock = threading.Lock()

            def client(i):
                fut = server.submit(requests[i])
                with lock:
                    futures[i] = fut

            threads = [threading.Thread(target=client, args=(i,)) for i in range(12)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for i, fut in futures.items():
                np.testing.assert_array_equal(
                    fut.result(timeout=5).view(np.uint32),
                    plan.execute(requests[i]).view(np.uint32),
                )
            stats = server.stats()
        assert stats["requests"] == 12
        assert stats["samples"] == 36
        # Coalescing actually happened: fewer dispatches than requests.
        assert stats["batches"] < 12

    def test_latency_budget_dispatches_partial_batches(self):
        plan = _plan()
        with InferenceServer(plan, max_batch=1024, max_delay_ms=5.0) as server:
            t0 = time.perf_counter()
            got = server.submit(_x(2)).result(timeout=5)
            elapsed = time.perf_counter() - t0
        assert got.shape == (2, 4)
        assert elapsed < 2.0  # budget (5 ms) + slack, not forever

    def test_submit_validates_input(self):
        with InferenceServer(_plan()) as server:
            with pytest.raises(ValueError, match="sample axis"):
                server.submit(np.zeros(32, dtype=np.float32))

    def test_close_drains_pending_requests(self):
        plan = _plan()
        server = InferenceServer(plan, max_batch=4, max_delay_ms=50.0)
        futures = [server.submit(_x(2, seed=s)) for s in range(6)]
        server.close()
        for fut in futures:
            assert fut.result(timeout=5).shape == (2, 4)
        with pytest.raises(RuntimeError, match="closed"):
            server.submit(_x(1))

    def test_mismatched_request_shapes_fail_without_killing_dispatcher(self):
        plan = _plan()
        with InferenceServer(plan, max_batch=64, max_delay_ms=20.0) as server:
            good = server.submit(_x(2))
            bad = server.submit(
                np.zeros((2, 7), dtype=np.float32)  # wrong feature width
            )
            # Whether or not the two coalesced, the bad request fails on
            # its future, the good one gets its bits, and the dispatcher
            # keeps serving.
            with pytest.raises(ValueError):
                bad.result(timeout=5)
            np.testing.assert_array_equal(
                good.result(timeout=5).view(np.uint32),
                plan.execute(_x(2)).view(np.uint32),
            )
            again = server.submit(_x(2)).result(timeout=5)
        assert again.shape == (2, 4)

    def test_mismatched_sample_shape_fails_alone(self):
        """A request of another sample shape fails on its own future; the
        requests coalesced around it get the bits they get alone."""
        from repro.nn.models import build_lenet

        plan = compile_plan(build_lenet().eval(), daism_backend(PC3_TR, BFLOAT16))
        rng = np.random.default_rng(0)
        good = [rng.standard_normal((2, 1, 16, 16)).astype(np.float32) for _ in range(6)]
        bad = np.ones((2, 2, 16, 16), dtype=np.float32)  # two channels, LeNet takes one
        with InferenceServer(plan, max_batch=64, max_delay_ms=200.0) as server:
            futures = [server.submit(x) for x in good[:3] + [bad] + good[3:]]
            with pytest.raises(ValueError, match="conv1"):
                futures[3].result(timeout=10)
            for x, fut in zip(good, futures[:3] + futures[4:]):
                np.testing.assert_array_equal(
                    fut.result(timeout=10).view(np.uint32),
                    plan.execute(x).view(np.uint32),
                )
            stats = server.stats()
        # The six well-formed requests were served by one plan call.
        assert (stats["requests"], stats["batches"]) == (6, 1)

    def test_execution_failure_propagates_to_waiters(self):
        model = build_mlp().eval()
        plan = compile_plan(model, exact_backend())
        with InferenceServer(plan, max_batch=4, max_delay_ms=1.0) as server:
            # Invalidate the plan mid-flight: the dispatcher's stale-plan
            # error must surface on the future, not kill the thread.
            for p in model.parameters():
                p.grad[...] = 1.0
            SGD(model.parameters(), lr=0.1).step()
            fut = server.submit(_x(2))
            with pytest.raises(RuntimeError, match="stale plan"):
                fut.result(timeout=5)

    def test_accepts_prebuilt_engine(self, shard_calls):
        plan = _plan()
        want = plan.execute(_x(4))
        engine = BatchEngine(plan, shards=2)
        calls = shard_calls(plan)
        with InferenceServer(engine, max_batch=8, max_delay_ms=1.0) as server:
            got = server.submit(_x(4)).result(timeout=5)
        assert [rows for rows, _ in calls] == [2, 2]
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


class TestCoalescingDeadline:
    def test_budget_measured_from_oldest_queued_request(self):
        """Regression pin: the coalescing clock starts at the *oldest*
        queued request, not at each arrival.

        A request joining a batch that has already waited most of the
        budget must be dispatched when the *batch's* deadline expires —
        restarting the clock per arrival would let a trickle of traffic
        postpone dispatch indefinitely.  ``run_load`` measures latency
        from each request's own submit, which is the client-side view of
        the same clock, not a second deadline.
        """
        plan = _plan()
        with InferenceServer(plan, max_batch=1024, max_delay_ms=400.0) as server:
            first = server.submit(_x(2, seed=0))
            time.sleep(0.2)
            t0 = time.perf_counter()
            second = server.submit(_x(2, seed=1))
            second.result(timeout=5)
            waited = time.perf_counter() - t0
            assert first.done()  # dispatched together at the shared deadline
            stats = server.stats()
        # ~200 ms of budget remained when the second request arrived; a
        # per-arrival clock would have held it the full 400 ms.
        assert waited < 0.35, f"second request waited {waited:.3f}s"
        assert stats["batches"] == 1


class TestMicroBatcher:
    def _req(self, n, seed=0):
        import concurrent.futures

        return Request(_x(n, seed=seed), concurrent.futures.Future(), time.monotonic())

    def test_pending_counters_track_puts_and_batches(self):
        batcher = MicroBatcher(max_batch=4, max_delay_ms=0.0)
        batcher.put(self._req(3))
        batcher.put(self._req(2))
        assert batcher.pending_requests == 2
        assert batcher.pending_samples == 5
        batch = batcher.next_batch()
        assert len(batch) >= 1
        assert batcher.pending_requests == 2 - len(batch)

    def test_pull_past_deadline_takes_queued_backlog(self):
        """A spent budget stops the waiting, not the coalescing."""
        batcher = MicroBatcher(max_batch=8, max_delay_ms=0.0)
        for i in range(10):
            batcher.put(self._req(1, seed=i))
        batch = batcher.next_batch()
        assert len(batch) == 8
        assert batcher.pending_requests == 2

    @staticmethod
    def _consumers(batcher, n, hold_s=0.0):
        """Start ``n`` consumers that pull until told to stop."""
        served: list[Request] = []

        def consume():
            while batch := batcher.next_batch():
                served.extend(batch)
                time.sleep(hold_s)  # a slow worker: the queue backs up

        threads = [threading.Thread(target=consume, daemon=True) for _ in range(n)]
        for t in threads:
            t.start()
        time.sleep(0.05)  # every consumer blocks on the empty queue
        return served, threads

    @staticmethod
    def _join(threads):
        for t in threads:
            t.join(timeout=5.0)
        assert not any(t.is_alive() for t in threads)

    def _assert_empty(self, batcher):
        assert (batcher.pending_requests, batcher.pending_samples) == (0, 0)

    def test_drain_serves_queue_then_stops_every_blocked_consumer(self):
        batcher = MicroBatcher(max_batch=1, max_delay_ms=0.0)
        served, threads = self._consumers(batcher, 3, hold_s=0.02)
        requests = [self._req(i % 3 + 1, seed=i) for i in range(9)]
        for r in requests:
            assert batcher.put(r)
        assert batcher.close(drain=True) == []
        assert batcher.state == "draining"
        self._join(threads)
        assert sorted(map(id, served)) == sorted(map(id, requests))
        self._assert_empty(batcher)

    def test_draining_accepts_requeues(self):
        """A crashed batch's requeue lands while draining, and is served."""
        batcher = MicroBatcher(max_batch=4, max_delay_ms=50.0)
        first = self._req(2)
        batcher.put(first)
        batcher.close(drain=True)
        requeued = self._req(3, seed=1)
        assert batcher.put(requeued)
        assert (batcher.pending_requests, batcher.pending_samples) == (2, 5)
        assert batcher.next_batch() == [first, requeued]  # no wait for more
        self._assert_empty(batcher)
        assert batcher.next_batch() == []  # draining and empty: stop

    def test_stop_returns_queue_and_stops_every_consumer(self):
        batcher = MicroBatcher(max_batch=1, max_delay_ms=0.0)
        served, threads = self._consumers(batcher, 3, hold_s=0.05)
        requests = [self._req(2, seed=i) for i in range(9)]
        for r in requests:
            batcher.put(r)
        removed = batcher.close(drain=False)
        assert batcher.state == "stopped"
        self._assert_empty(batcher)
        self._join(threads)
        # Every request went exactly one way: pulled, or handed back.
        assert sorted(map(id, served + removed)) == sorted(map(id, requests))
        handed_back = set(map(id, removed))
        assert removed == [r for r in requests if id(r) in handed_back]  # in order

    def test_concurrent_pulls_take_each_request_exactly_once(self):
        """More consumers and producers than cores, switching often."""
        batcher = MicroBatcher(max_batch=3, max_delay_ms=0.5)
        requests = [self._req(1 + i % 2, seed=i) for i in range(400)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            served, consumers = self._consumers(batcher, 4)

            def produce(part):
                for r in part:
                    batcher.put(r)

            producers = [
                threading.Thread(target=produce, args=(requests[k::2],)) for k in range(2)
            ]
            for t in producers:
                t.start()
            self._join(producers)
            batcher.close(drain=True)
            self._join(consumers)
        finally:
            sys.setswitchinterval(interval)
        assert len(served) == len(requests)
        assert sorted(map(id, served)) == sorted(map(id, requests))
        self._assert_empty(batcher)

    def test_put_on_stopped_batcher_is_refused(self):
        batcher = MicroBatcher(max_batch=4, max_delay_ms=0.0)
        queued = self._req(2)
        batcher.put(queued)
        assert batcher.close(drain=False) == [queued]
        assert batcher.put(self._req(1)) is False
        self._assert_empty(batcher)
        assert batcher.next_batch() == []
        assert batcher.close(drain=True) == []  # stays stopped
        assert batcher.state == "stopped"

    def test_reopen_serves_again(self):
        batcher = MicroBatcher(max_batch=4, max_delay_ms=0.0)
        batcher.close(drain=False)
        batcher.reopen()
        assert batcher.state == "open"
        r = self._req(3)
        assert batcher.put(r)
        assert (batcher.pending_requests, batcher.pending_samples) == (1, 3)
        assert batcher.next_batch() == [r]
        self._assert_empty(batcher)

    def test_validates_configuration(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(max_delay_ms=-1.0)


class TestLoadGenerator:
    def test_closed_loop_smoke(self):
        with InferenceServer(_plan(), max_batch=16, max_delay_ms=1.0) as server:
            report = run_load(
                server,
                make_request=lambda cid, i: _x(2, seed=cid),
                clients=2,
                duration_s=0.2,
            )
        assert report.requests > 0
        assert report.samples == 2 * report.requests
        assert report.p99_ms >= report.p50_ms >= 0.0
        assert report.samples_per_s > 0
        as_dict = report.as_dict()
        assert set(as_dict) >= {"p50_ms", "p99_ms", "samples_per_s", "clients"}

    def test_serving_benchmark_report_shape(self):
        report = serving_benchmark(
            model="lenet", backend="exact", clients=2, duration_s=0.2
        )
        assert report["model"] == "lenet"
        assert report["backend"] == "exact_float32"
        assert report["plan_ops"] == 10
        assert report["load"]["samples_per_s"] > 0

    def test_serving_benchmark_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            serving_benchmark(model="alexnet")

    def test_open_loop_fleet_benchmark_report_shape(self):
        from repro.runtime.serving_bench import open_loop_fleet_benchmark

        report = open_loop_fleet_benchmark(
            models=["lenet"],
            backend="exact",
            workers=1,
            duration_s=0.2,
            calibration_s=0.1,
            rate_rps=200.0,
            sla_ms=50.0,
        )
        assert report["models"] == ["lenet"]
        assert report["offered_requests"] > 0
        assert (
            report["accepted_requests"] + report["shed_requests"]
            == report["offered_requests"]
        )
        assert report["accepted_then_dropped"] == 0
        assert report["p999_ms"] >= report["p99_ms"] >= report["p50_ms"]
        assert report["goodput_samples_per_s"] <= report["samples_per_s"]

    def test_open_loop_fleet_benchmark_rejects_empty_models(self):
        from repro.runtime.serving_bench import open_loop_fleet_benchmark

        with pytest.raises(ValueError, match="at least one model"):
            open_loop_fleet_benchmark(models=[])
