"""Cost-model scheduler: determinism, byte parity, adaptive coalescing."""

import concurrent.futures
import os
import time

import numpy as np
import pytest

from repro.runtime import BatchEngine, InferenceServer, compile_plan
from repro.runtime.engine import ShardClampWarning
from repro.runtime.fleet import resolve_backend
from repro.runtime.scheduler import (
    POLICY_MODES,
    SchedulingPolicy,
    policy_for_model,
)
from repro.runtime.server import MicroBatcher, Request


def _policy(mode="cost_model", **kwargs):
    kwargs.setdefault("sla_ms", 40.0)
    return policy_for_model("lenet", mode=mode, **kwargs)


def _calibrated(mode="cost_model", per_sample_ms=1.0, **kwargs):
    policy = _policy(mode=mode, **kwargs)
    cap = policy.max_batch
    policy.seed_correction(cap, per_sample_ms * cap)
    return policy


class TestDeterminism:
    def test_same_seed_same_decisions_and_events(self):
        def run_once():
            policy = _calibrated(seed=7)
            decisions = []
            for pending in (0, 3, 8, 40, 64, 7, 0):
                decisions.append(policy.batch_decision(pending))
                policy.observe(8, 8.0)
            # seq and t order records across the process journal.
            events = [
                {k: v for k, v in e.items() if k not in ("seq", "t")}
                for e in policy.events()
            ]
            return decisions, events

        first_decisions, first_events = run_once()
        second_decisions, second_events = run_once()
        assert first_decisions == second_decisions
        assert first_events == second_events
        assert all(e["seed"] == 7 for e in first_events)

    def test_modes_are_exhaustive(self):
        assert set(POLICY_MODES) == {"static", "cost_model"}
        with pytest.raises(ValueError, match="unknown policy mode"):
            policy_for_model("lenet", mode="adaptive")

    def test_unknown_model_raises(self):
        with pytest.raises(ValueError, match="unknown model"):
            policy_for_model("not_a_model")

    def test_static_mode_returns_knobs_unchanged(self):
        policy = _calibrated(mode="static", max_batch=48, max_delay_ms=3.5)
        decision = policy.batch_decision(pending_samples=1000)
        assert (decision.max_batch, decision.max_delay_ms) == (48, 3.5)
        assert decision.reason == "static"
        assert policy.worker_count(2) == 2


class TestCorrectionAndAdmission:
    def test_correction_is_ewma_of_measured_over_predicted(self):
        policy = _policy()
        surface = policy.surface
        predicted = surface.model_ms_per_sample(8)
        ratio = policy.seed_correction(8, 8 * predicted * 2.0)
        assert ratio == pytest.approx(2.0)
        policy.observe(8, 8 * predicted * 4.0)
        alpha = SchedulingPolicy.ALPHA
        assert policy.correction == pytest.approx(alpha * 4.0 + (1 - alpha) * 2.0)

    def test_admission_estimate_amortises_with_backlog(self):
        policy = _calibrated()
        cap = policy.max_batch
        # Per-sample estimate falls as the backlog approaches a full
        # batch (amortisation), then holds at the cap rate: admission
        # must never quote the cold batch-1 cost for a deep queue.
        ests = [policy.admission_ms_per_sample(n) for n in (1, cap // 2, cap, 10 * cap)]
        assert all(a >= b for a, b in zip(ests, ests[1:]))
        assert ests[-2] == ests[-1] == policy.predicted_ms_per_sample(cap)

    def test_uncalibrated_policy_predicts_none(self):
        policy = _policy()
        assert policy.correction is None
        assert policy.predicted_ms_per_sample(8) is None
        assert policy.admission_ms_per_sample(8) is None

    def test_sla_infeasible_drains_at_cap(self):
        # Service so slow even one sample misses the budget: the policy
        # must drain at the amortised cap, not trickle batch-1 dispatches.
        policy = _calibrated(per_sample_ms=1000.0, sla_ms=1.0)
        decision = policy.batch_decision(pending_samples=2)
        assert decision.reason == "sla_infeasible_drain"
        assert decision.max_batch == policy.max_batch
        assert decision.max_delay_ms == 0.0

    def test_backlog_drain_at_full_queue(self):
        policy = _calibrated()
        decision = policy.batch_decision(pending_samples=policy.max_batch)
        assert decision.reason == "backlog_drain"
        assert decision.max_delay_ms == 0.0

    def test_worker_count_sizes_to_target_within_cpu_budget(self):
        ceiling = max(1, min(4, os.cpu_count() or 1))
        tiny = _calibrated(target_sps=1.0)
        assert tiny.worker_count(2) == 1
        huge = _calibrated(target_sps=10_000_000.0)
        assert huge.worker_count(2) == ceiling
        sizing = [e for e in huge.events() if e["event"] == "sched_worker_sizing"]
        assert sizing and sizing[-1]["workers"] == ceiling


class TestMicroBatcherAdaptive:
    @staticmethod
    def _request(n, arrival=None):
        return Request(
            np.zeros((n, 1), dtype=np.float32),
            concurrent.futures.Future(),
            time.monotonic() if arrival is None else arrival,
        )

    def test_policy_ceiling_bounds_the_pull(self):
        policy = _calibrated(sla_ms=None)  # throughput-greedy: cap ceiling
        cap = policy.max_batch
        batcher = MicroBatcher(max_batch=1024, max_delay_ms=50.0, policy=policy)
        for _ in range(cap + 5):
            batcher.put(self._request(1))
        batch = batcher.next_batch()
        assert sum(len(r.x) for r in batch) == cap
        assert batcher.pending_requests == 5

    def test_adaptive_deadline_runs_from_oldest_request(self):
        policy = _calibrated()
        batcher = MicroBatcher(max_batch=1024, max_delay_ms=40.0, policy=policy)
        # The pull's deadline runs from the oldest request's arrival,
        # long past: it must return at once with everything queued
        # instead of waiting for a fuller batch.
        stale = time.monotonic() - 10.0
        batcher.put(self._request(1, arrival=stale))
        batcher.put(self._request(1, arrival=stale))
        t0 = time.monotonic()
        batch = batcher.next_batch()
        assert time.monotonic() - t0 < 0.5
        assert len(batch) == 2

    def test_static_fallback_without_policy(self):
        batcher = MicroBatcher(max_batch=8, max_delay_ms=0.0)
        for _ in range(3):
            batcher.put(self._request(4))
        batch = batcher.next_batch()
        # Static threshold semantics: stop at >= max_batch, never split.
        assert sum(len(r.x) for r in batch) == 8


class TestShardValidation:
    @pytest.fixture(scope="class")
    def plan(self):
        from repro.nn.models import model_zoo

        module = model_zoo()["lenet"]
        module.eval()
        return compile_plan(module, resolve_backend("daism"))

    def test_clamp_warns_and_stays_byte_identical(self, plan, shard_calls):
        x = np.random.default_rng(0).standard_normal((4, 1, 16, 16)).astype(np.float32)
        want = plan.execute(x)
        engine = BatchEngine(plan, shards=2)
        calls = shard_calls(plan)
        with pytest.warns(ShardClampWarning) as caught:
            got = engine.run(x, shards=8)
        warning = caught[0].message
        assert (warning.requested, warning.effective, warning.samples) == (8, 4, 4)
        assert [rows for rows, _ in calls] == [1, 1, 1, 1]
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_invalid_shards_rejected_up_front(self, plan):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            BatchEngine(plan, shards=0)
        engine = BatchEngine(plan, shards=1)
        with pytest.raises(ValueError, match="shards must be >= 1"):
            engine.run(np.zeros((2, 1, 16, 16), dtype=np.float32), shards=-1)


class TestPolicyByteParity:
    def test_static_and_cost_model_serve_identical_bytes(self):
        from repro.nn.models import model_zoo

        module = model_zoo()["lenet"]
        module.eval()
        plan = compile_plan(module, resolve_backend("daism"))
        rng = np.random.default_rng(3)
        requests = [
            rng.standard_normal((4, 1, 16, 16)).astype(np.float32) for _ in range(12)
        ]

        def serve(policy):
            server = InferenceServer(
                plan, max_batch=64, max_delay_ms=1.0, policy=policy
            )
            try:
                futures = [server.submit(x) for x in requests]
                return [f.result(timeout=60) for f in futures]
            finally:
                server.close()

        static_out = serve(None)
        cost = _calibrated(sla_ms=25.0)
        cost_out = serve(cost)
        for x, a, b in zip(requests, static_out, cost_out):
            np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))
            np.testing.assert_array_equal(a.view(np.uint32), plan.execute(x).view(np.uint32))
        # The cost-model arm actually made decisions while serving.
        assert any(
            e["event"] == "sched_batch_decision" for e in cost.events()
        )
