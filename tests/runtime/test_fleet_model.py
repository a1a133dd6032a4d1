"""Model-based test of the fleet's deployment lifecycle.

A hypothesis ``RuleBasedStateMachine`` drives a real two-worker LeNet
:class:`~repro.runtime.fleet.FleetServer` through random interleavings
of its lifecycle: submit (with and without a deadline), kill a worker
process, open the circuit breaker, wait out its cooldown, corrupt one
worker's tables and run a health round, and close with or without
drain.  A reference model checks the fleet after every step and after
close:

* the books never overdraw, and balance after close:
  ``accepted == completed + failed``;
* a stopped batcher holds no request;
* ``circuit_open`` sheds happen only while the breaker is open, and a
  request is accepted only once it has lifted;
* every accepted future is done when ``close`` returns, with data equal
  to a parent-side plan's bytes or a structured error;
* no worker process is alive after close;
* every live worker's :func:`~repro.runtime.fleet.plan_digest` equals a
  parent-side compile, and only a worker that is down reports ``None``;
* a health round detects every corruption it is sent after, and
  respawns exactly the workers whose corruption recurred.

The fleet opens its breaker on its own when a respawn fails — here,
when a worker is killed while it boots — so the model adopts every
breaker open the fleet counts.  ``test_fleet_lifecycle.py`` holds the
deterministic regressions.
"""

import functools
import multiprocessing
import time

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.integrity import RECURRENCE_THRESHOLD
from repro.runtime.fleet import (
    DeadlineExceededError,
    FleetServer,
    ShedLoadError,
    WorkerCrashError,
    plan_digest,
    rebuild_plan,
    snapshot_model,
)

COOLDOWN_S = 0.1
WORKERS = 2


@functools.cache
def _snapshot():
    return snapshot_model("lenet", backend="daism")


@functools.cache
def _parent_plan():
    return rebuild_plan(_snapshot())


def _x(n, seed):
    return (
        np.random.default_rng(seed)
        .standard_normal((n, 1, 16, 16))
        .astype(np.float32)
    )


class FleetLifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.children_before = {p.pid for p in multiprocessing.active_children()}
        self.fleet = FleetServer(
            workers=WORKERS,
            max_batch=4,
            max_delay_ms=1.0,
            max_retries=1,
            breaker_cooldown_s=COOLDOWN_S,
            heartbeat_interval_s=None,
        )
        self.fleet.register(_snapshot())
        self.dep = self.fleet._deployment("lenet")
        #: ``(x, deadline_set, future)`` per accepted request.
        self.accepted: list[tuple[np.ndarray, bool, object]] = []
        #: When the model believes the open breaker lifts (None: shut).
        self.until: float | None = None
        self.opens = 0
        self.disrupted = False
        self.closed = False

    def _sync(self) -> None:
        """Adopt every breaker open the fleet counted since the last look."""
        with self.dep.lock:
            opens, until = self.dep.stats["breaker_opens"], self.dep.open_until
        if opens > self.opens:
            self.opens = opens
            self.until = until
            self.disrupted = True

    # -- steps ---------------------------------------------------------------

    @precondition(lambda self: not self.closed)
    @rule(
        n=st.integers(1, 3),
        seed=st.integers(0, 3),
        timeout_ms=st.none() | st.sampled_from([0.001, 30_000.0]),
    )
    def submit(self, n, seed, timeout_ms):
        x = _x(n, seed)
        t0 = time.monotonic()
        try:
            future = self.fleet.submit("lenet", x, timeout_ms=timeout_ms)
        except ShedLoadError as exc:
            if exc.reason == "circuit_open":
                self._sync()
                assert self.until is not None and t0 < self.until
                return
            # Anything else means the breaker was shut or lifted.
            assert exc.reason == "sla_unmeetable" and timeout_ms is not None
        else:
            self.accepted.append((x, timeout_ms is not None, future))
        if self.until is not None:
            assert time.monotonic() >= self.until, "admitted while the breaker was open"
        self.until = None

    @precondition(lambda self: not self.closed)
    @rule(index=st.integers(0, WORKERS - 1))
    def kill_worker(self, index):
        workers = self.fleet.workers("lenet")
        if index < len(workers):
            workers[index].kill()
            workers[index].join(5.0)
            self.disrupted = True

    @precondition(lambda self: not self.closed)
    @rule()
    def open_breaker(self):
        # What a crash storm does once it reaches the breaker threshold;
        # a breaker already open stays as it is.
        self.fleet._quarantine(self.dep, "circuit open")
        opened_by = time.monotonic()
        self._sync()
        assert self.until is not None and self.until <= opened_by + COOLDOWN_S
        assert self.dep.batcher.state == "stopped"

    @precondition(lambda self: not self.closed)
    @rule()
    def wait_out_cooldown(self):
        if self.until is not None:
            time.sleep(max(0.0, self.until - time.monotonic()) + 0.01)

    @precondition(lambda self: not self.closed)
    @rule()
    def digests_match_parent_compile(self):
        # A killed worker waits for the request that respawns it and a
        # quarantined one for the revive: those report None.  The
        # process each handle held before the call is dead then, since
        # a respawn reaps the process it replaces.
        processes = [h.process for h in self.dep.handles]
        digests = self.fleet.plan_digests("lenet")
        want = plan_digest(_parent_plan())
        assert len(digests) == WORKERS
        for process, digest in zip(processes, digests):
            if digest is None:
                assert process is None or not process.is_alive()
            else:
                assert digest == want

    @precondition(lambda self: not self.closed)
    @rule(index=st.integers(0, WORKERS - 1), rounds=st.integers(1, RECURRENCE_THRESHOLD))
    def corrupt_then_check_health(self, index, rounds):
        # Every accepted request resolves first, so no batch runs on the
        # corrupted tables before the health round heals them.
        for _, _, future in self.accepted:
            future.exception(timeout=60)
        for _ in range(rounds):
            # The same table each round, so the corruption can recur.
            handle = self.dep.handles[index]
            corrupted = []
            with handle.lock:
                try:
                    status, corrupted = handle.request(("chaos", {"n_tables": 1}))
                except (EOFError, OSError, BrokenPipeError):
                    pass  # killed, or quarantined: nothing to corrupt
                else:
                    assert status == "ok" and corrupted
            pids = [h.pid for h in self.dep.handles]
            reports = self.fleet.check_health("lenet")
            assert len(reports) == WORKERS
            if corrupted:
                assert reports[index]["corrupted_tables"], "corruption went undetected"
            for handle, pid, report in zip(self.dep.handles, pids, reports):
                if "error" in report:
                    assert report["error"] == "worker_unreachable"
                    continue
                # Recurred corruption respawns that worker and no other.
                assert (handle.pid != pid) == report["recurred"]
        self._sync()
        want = plan_digest(_parent_plan())
        for digest in self.fleet.plan_digests("lenet"):
            assert digest is None or digest == want
        # The books balance: every request resolved, none was dropped.
        deadline = time.monotonic() + 5.0
        while True:
            stats = self.fleet.stats()["lenet"]
            settled = stats["completed_requests"] + stats["failed_requests"]
            if settled == len(self.accepted) or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        assert stats["accepted_requests"] == settled == len(self.accepted)

    @precondition(lambda self: not self.closed)
    @rule(drain=st.booleans())
    def close(self, drain):
        self.fleet.close(drain=drain)
        self.closed = True
        self._sync()
        self._check_closed(drain)

    @precondition(lambda self: self.closed)
    @rule()
    def submit_after_close_is_refused(self):
        try:
            self.fleet.submit("lenet", _x(1, 0))
        except ShedLoadError:
            raise AssertionError("a closed fleet sheds instead of refusing") from None
        except RuntimeError as exc:
            assert "closed" in str(exc)
        else:
            raise AssertionError("a closed fleet accepted a request")

    # -- the reference model -------------------------------------------------

    @invariant()
    def books_never_overdraw(self):
        self._sync()
        stats = self.fleet.stats()["lenet"]
        assert stats["accepted_requests"] == len(self.accepted)
        assert stats["completed_requests"] + stats["failed_requests"] <= len(self.accepted)
        if self.dep.batcher.state == "stopped":
            assert self.dep.batcher.pending_requests == 0

    def _check_closed(self, drain):
        plan = _parent_plan()
        for x, has_deadline, future in self.accepted:
            assert future.done()
            exc = future.exception()
            if exc is None:
                np.testing.assert_array_equal(
                    future.result().view(np.uint32), plan.execute(x).view(np.uint32)
                )
                continue
            expected = [WorkerCrashError, DeadlineExceededError]
            if not drain:
                expected.append(RuntimeError)  # queued at close: "fleet closed"
            assert isinstance(exc, tuple(expected)), exc
            if drain and not self.disrupted:
                # Nothing crashed: only a missed deadline can fail a request.
                assert has_deadline and isinstance(exc, DeadlineExceededError), exc
        stats = self.fleet.stats()["lenet"]
        assert (
            stats["accepted_requests"]
            == stats["completed_requests"] + stats["failed_requests"]
            == len(self.accepted)
        )
        assert stats["workers_alive"] == 0
        leaked = [
            p
            for p in multiprocessing.active_children()
            if p.pid not in self.children_before
        ]
        assert leaked == []

    def teardown(self):
        if not self.closed:
            self.close(drain=True)


FleetLifecycle.TestCase.settings = settings(
    max_examples=12,
    stateful_step_count=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
TestFleetLifecycle = FleetLifecycle.TestCase
