"""The cost-model policy is work-conserving: no decision holds a pull.

Every ``cost_model`` decision of
:meth:`~repro.runtime.scheduler.SchedulingPolicy.batch_decision` returns
``max_delay_ms == 0.0``, so a free worker's pull takes what is queued
now; under load the backlog that builds while every worker is busy
forms the batch.  The ceiling keeps its rule: the largest candidate
whose corrected service time fits the SLA budget, or ``max_batch`` for
a backlog at the cap, an infeasible SLA, no SLA or an uncalibrated
policy.  ``max_delay_ms`` stays the static mode's knob.
"""

import concurrent.futures
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.fleet import (
    FleetServer,
    rebuild_plan,
    snapshot_model,
)
from repro.runtime.scheduler import SchedulingPolicy, policy_for_model
from repro.runtime.server import MicroBatcher, Request

#: A delay knob long enough that any wait on it fails the timing tests.
LONG_DELAY_MS = 5000.0


def _calibrated(mode="cost_model", sla_ms=1e6, max_delay_ms=LONG_DELAY_MS, **kwargs):
    policy = policy_for_model(
        "lenet", mode=mode, sla_ms=sla_ms, max_delay_ms=max_delay_ms, **kwargs
    )
    policy.seed_correction(policy.max_batch, float(policy.max_batch))
    return policy


def _expected_ceiling(policy: SchedulingPolicy, pending: int) -> int:
    """The ceiling rule, written out independently of the policy."""
    cap = policy.max_batch
    if policy.correction is None or policy.sla_ms is None or pending >= cap:
        return cap
    budget = policy.sla_ms * SchedulingPolicy.SLA_SERVICE_FRACTION
    candidates = [b for b in (1, 2, 4, 8, 16, 32) if b < cap] + [cap]
    fits = [
        b
        for b in candidates
        if policy.surface.model_ms_per_sample(b) * policy.correction * b <= budget
    ]
    return fits[-1] if fits else cap


class TestDecisions:
    @settings(max_examples=60, deadline=None)
    @given(
        pending=st.integers(0, 200),
        sla_ms=st.sampled_from([None, 1e-3, 40.0, 1e6]),
        per_sample_ms=st.none() | st.floats(1e-3, 1e3),
        max_batch=st.sampled_from([1, 8, 48, 64]),
        max_delay_ms=st.sampled_from([0.0, 2.0, LONG_DELAY_MS]),
    )
    def test_cost_model_never_waits_and_keeps_the_ceiling_rule(
        self, pending, sla_ms, per_sample_ms, max_batch, max_delay_ms
    ):
        policy = policy_for_model(
            "lenet", sla_ms=sla_ms, max_batch=max_batch, max_delay_ms=max_delay_ms
        )
        if per_sample_ms is not None:
            policy.seed_correction(max_batch, per_sample_ms * max_batch)
        decision = policy.batch_decision(pending)
        assert decision.max_delay_ms == 0.0
        assert decision.max_batch == _expected_ceiling(policy, pending)

        static = policy_for_model(
            "lenet",
            mode="static",
            sla_ms=sla_ms,
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
        )
        if per_sample_ms is not None:
            static.seed_correction(max_batch, per_sample_ms * max_batch)
        knobs = static.batch_decision(pending)
        assert (knobs.max_batch, knobs.max_delay_ms, knobs.reason) == (
            max_batch,
            max_delay_ms,
            "static",
        )


class TestLoneRequest:
    def test_micro_batcher_pull_does_not_wait_on_the_delay_knob(self):
        batcher = MicroBatcher(
            max_batch=64, max_delay_ms=LONG_DELAY_MS, policy=_calibrated()
        )
        batcher.put(
            Request(
                np.zeros((1, 1), dtype=np.float32),
                concurrent.futures.Future(),
                time.monotonic(),
            )
        )
        t0 = time.monotonic()
        batch = batcher.next_batch()
        assert time.monotonic() - t0 < 1.0
        assert len(batch) == 1

    def test_fleet_resolves_a_lone_request_without_coalescing(self):
        snapshot = snapshot_model("lenet", backend="daism")
        x = (
            np.random.default_rng(0)
            .standard_normal((4, 1, 16, 16))
            .astype(np.float32)
        )
        with FleetServer(
            workers=1, max_batch=64, max_delay_ms=LONG_DELAY_MS, heartbeat_interval_s=None
        ) as fleet:
            fleet.register(snapshot, policy=_calibrated())
            t0 = time.monotonic()
            out = fleet.submit("lenet", x).result(timeout=30)
            elapsed = time.monotonic() - t0
        assert elapsed < 2.5
        want = rebuild_plan(snapshot).execute(x)
        np.testing.assert_array_equal(out.view(np.uint32), want.view(np.uint32))
