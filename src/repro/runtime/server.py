"""Micro-batching serving frontend over a compiled plan.

:class:`MicroBatcher` is the reusable coalescing core: a thread-safe
request queue whose consumers pull *micro-batches* — runs of queued
requests coalesced up to a batch-size threshold or a latency budget
measured from the **oldest** queued request.  Batching amortises the
per-call front end (im2col, activation packing, kernel dispatch) across
requests, which is the software analogue of the paper's batch
amortisation of bank-imbalance cycles (Sec. V-D).

:class:`InferenceServer` is the single-process frontend built on it:
callers submit requests (arrays with a leading sample axis) from any
thread and get a future; one dispatcher thread pulls micro-batches and
executes them on a shared :class:`~repro.runtime.engine.BatchEngine`.
The multi-process fleet (:mod:`repro.runtime.fleet`) reuses the same
batcher with one consumer thread per worker process, so both frontends
share one coalescing policy (and one set of deadline semantics — see
the regression tests pinning them).

The batcher also owns the serving lifecycle: it is ``open``,
``draining`` or ``stopped``, and both frontends shut down (and the
fleet quarantines and revives a model) only through
:meth:`MicroBatcher.close` and :meth:`MicroBatcher.reopen`.  A stopped
batcher refuses new work and holds none, and a consumer stops exactly
when :meth:`MicroBatcher.next_batch` returns an empty batch.

:func:`run_load` is the closed-loop load generator used by the serving
benchmark (``python -m repro serve-bench`` and the perf harness): each
simulated client submits a request, waits for its response, and
immediately submits the next, so offered load self-regulates to the
server's capacity while per-request latency (p50/p99) is measured.  The
open-loop (non-blocking Poisson arrival) generator that saturates the
fleet lives in :mod:`repro.runtime.serving_bench`.
"""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import threading
import time

import numpy as np

from .engine import BatchEngine
from .plan import ExecutionPlan

__all__ = ["Request", "MicroBatcher", "InferenceServer", "LoadReport", "run_load"]


@dataclasses.dataclass
class Request:
    """One queued inference request.

    ``arrival`` anchors the coalescing deadline (the budget clock runs
    from the *oldest* request in a batch); ``retries`` counts fleet
    worker-crash redeliveries (always 0 on the single-process path).
    ``deadline`` is an absolute ``time.monotonic()`` completion deadline
    propagated from the client (``None`` = no deadline): the fleet fails
    expired requests with a structured error instead of serving stale
    work, and forwards the remaining budget to the worker.  ``hedged``
    marks the duplicate dispatch of a hedged request — it shares the
    primary's future (first resolution wins) and skips accounting.
    """

    x: np.ndarray
    future: concurrent.futures.Future
    arrival: float
    retries: int = 0
    deadline: float | None = None
    hedged: bool = False


OPEN, DRAINING, STOPPED = "open", "draining", "stopped"


def shape_groups(batch: list[Request]) -> list[tuple[list[Request], np.ndarray]]:
    """Split a coalesced batch by sample shape into ``(requests, stacked x)``.

    Each group is its own plan call, so a request of another shape fails
    alone instead of failing every request coalesced with it.
    """
    groups: dict[tuple[int, ...], list[Request]] = {}
    for r in batch:
        groups.setdefault(r.x.shape[1:], []).append(r)
    return [
        (rs, rs[0].x if len(rs) == 1 else np.concatenate([r.x for r in rs]))
        for rs in groups.values()
    ]


class MicroBatcher:
    """Thread-safe request queue with micro-batch coalescing and a lifecycle.

    Consumers call :meth:`next_batch`, which blocks for the first
    request and then coalesces further queued requests until either the
    batch reaches ``max_batch`` samples (the threshold may be overshot
    by the final request — requests are never split) or the latency
    budget, measured from the **oldest** request's arrival, expires.

    Multiple consumers may pull concurrently (the fleet runs one
    consumer per worker process); each builds its own batch.  The
    batcher has one lifecycle state, guarded by the same condition as
    its queue and pending counters:

    * ``open`` — :meth:`put` enqueues, :meth:`next_batch` blocks for work;
    * ``draining`` (``close(drain=True)``) — :meth:`put` still enqueues
      (a crashed batch's requeue must land), and consumers keep pulling
      until the queue is empty;
    * ``stopped`` (``close(drain=False)``) — the queue is handed back to
      the caller and :meth:`put` refuses, so a stopped queue is empty.

    :meth:`next_batch` returns an empty batch exactly when the state is
    stopped, or draining with nothing queued: the consumer should exit.
    :meth:`reopen` returns to ``open``.
    """

    def __init__(self, max_batch: int = 64, max_delay_ms: float = 2.0, policy=None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_delay_ms < 0:
            raise ValueError("max_delay_ms must be >= 0")
        self.max_batch = int(max_batch)
        self.max_delay_s = max_delay_ms / 1e3
        #: Optional :class:`~repro.runtime.scheduler.SchedulingPolicy`.
        #: When set, every :meth:`next_batch` pull asks it for the batch
        #: ceiling and delay budget (adaptive coalescing); the
        #: constructor knobs remain the static fallback and the policy's
        #: own caps.
        self.policy = policy
        self._queue: collections.deque[Request] = collections.deque()
        self._cond = threading.Condition()
        self._state = OPEN
        self._pending_samples = 0

    # -- producer side ----------------------------------------------------

    def put(self, request: Request) -> bool:
        """Enqueue one request; False (not queued) once stopped.

        No admission policy — callers gate.
        """
        with self._cond:
            if self._state == STOPPED:
                return False
            self._queue.append(request)
            self._pending_samples += len(request.x)
            self._cond.notify()
        return True

    # -- consumer side ----------------------------------------------------

    def _pop(self) -> Request:
        request = self._queue.popleft()
        self._pending_samples -= len(request.x)
        return request

    def next_batch(self) -> list[Request]:
        """Block for the next micro-batch; empty means stop.

        The coalescing deadline is ``oldest.arrival + max_delay_s``:
        requests arriving later in the window wait only the *remaining*
        budget, so no request waits more than the full budget before
        dispatch however empty the batch.  Past the deadline (a
        zero-delay drain decision starts there) the pull still takes
        everything already queued, up to ``max_batch``; once the batcher
        is no longer open it stops waiting for more.
        """
        with self._cond:
            while not self._queue and self._state == OPEN:
                self._cond.wait()
            if self._state == STOPPED or not self._queue:
                return []
            pending = self._pending_samples
            first = self._pop()
        if self.policy is not None:
            decision = self.policy.batch_decision(pending)
            max_batch, max_delay_s = decision.max_batch, decision.max_delay_ms / 1e3
        else:
            max_batch, max_delay_s = self.max_batch, self.max_delay_s
        batch = [first]
        total = len(first.x)
        deadline = first.arrival + max_delay_s
        with self._cond:
            while total < max_batch:
                if self._queue:
                    batch.append(self._pop())
                    total += len(batch[-1].x)
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._state != OPEN:
                    break
                self._cond.wait(remaining)
        return batch

    # -- lifecycle --------------------------------------------------------

    def close(self, drain: bool) -> list[Request]:
        """Drain (``draining``) or stop (``stopped``); idempotent.

        Without ``drain`` the queued requests are removed and returned —
        the caller resolves them — and :meth:`put` refuses from then on.
        Wakes every blocked consumer either way.
        """
        with self._cond:
            removed: list[Request] = []
            if not drain:
                self._state = STOPPED
                removed = list(self._queue)
                self._queue.clear()
                self._pending_samples = 0
            elif self._state == OPEN:
                self._state = DRAINING
            self._cond.notify_all()
        return removed

    def reopen(self) -> None:
        """Return to ``open``: accept and serve requests again."""
        with self._cond:
            self._state = OPEN

    # -- introspection ----------------------------------------------------

    @property
    def state(self) -> str:
        """``"open"``, ``"draining"`` or ``"stopped"``."""
        with self._cond:
            return self._state

    @property
    def pending_requests(self) -> int:
        """Requests accepted but not yet pulled into a batch."""
        with self._cond:
            return len(self._queue)

    @property
    def pending_samples(self) -> int:
        """Samples accepted but not yet pulled into a batch."""
        with self._cond:
            return self._pending_samples


class InferenceServer:
    """Queue requests, coalesce into micro-batches, execute on one plan.

    Parameters
    ----------
    runner:
        A :class:`~repro.runtime.plan.ExecutionPlan` (wrapped in a
        single-shard engine) or a ready :class:`BatchEngine`.
    max_batch:
        Stop coalescing once the pending micro-batch reaches this many
        samples.  The threshold may be overshot by the final request's
        size — requests are never split.
    max_delay_ms:
        Latency budget: a request waits at most this long in the queue
        before its micro-batch is dispatched, however empty the batch.
        The clock runs from the *oldest* queued request, so coalesced
        followers inherit the leader's deadline rather than restarting
        their own.
    """

    def __init__(
        self,
        runner: ExecutionPlan | BatchEngine,
        max_batch: int = 64,
        max_delay_ms: float = 2.0,
        policy=None,
    ):
        self.engine = runner if isinstance(runner, BatchEngine) else BatchEngine(runner, shards=1)
        #: Optional scheduling policy: drives adaptive coalescing in the
        #: batcher and receives measured batch service times (the online
        #: correction term).
        self.policy = policy
        self.batcher = MicroBatcher(
            max_batch=max_batch, max_delay_ms=max_delay_ms, policy=policy
        )
        self.max_batch = self.batcher.max_batch
        self.max_delay_s = self.batcher.max_delay_s
        self._stats_lock = threading.Lock()
        self._stats = {"requests": 0, "samples": 0, "batches": 0, "max_batch_samples": 0}
        self._worker = threading.Thread(
            target=self._loop, name="repro-serve-dispatch", daemon=True
        )
        self._worker.start()

    # -- client side ------------------------------------------------------

    def submit(self, x: np.ndarray) -> concurrent.futures.Future:
        """Enqueue one request; resolves to the plan output for ``x``.

        ``x`` must carry a leading sample axis (shape ``(n, ...)``); the
        response preserves request order and boundaries regardless of
        how requests were coalesced.
        """
        x = np.asarray(x, dtype=np.float32)
        if x.ndim < 2:
            raise ValueError("requests must have a leading sample axis (n, ...)")
        future: concurrent.futures.Future = concurrent.futures.Future()
        if not self.batcher.put(Request(x, future, time.monotonic())):
            raise RuntimeError("server is closed")
        return future

    # -- dispatcher -------------------------------------------------------

    def _loop(self) -> None:
        while batch := self.batcher.next_batch():
            for requests, x in shape_groups(batch):
                self._serve(requests, x)

    def _serve(self, batch: list[Request], x: np.ndarray) -> None:
        try:
            t0 = time.perf_counter()
            out = self.engine.run(x)
            if self.policy is not None:
                self.policy.observe(len(x), (time.perf_counter() - t0) * 1e3)
        except BaseException as exc:  # propagate to every waiter
            for r in batch:
                r.future.set_exception(exc)
        else:
            offset = 0
            for r in batch:
                r.future.set_result(out[offset : offset + len(r.x)])
                offset += len(r.x)
            with self._stats_lock:
                self._stats["requests"] += len(batch)
                self._stats["samples"] += len(x)
                self._stats["batches"] += 1
                self._stats["max_batch_samples"] = max(
                    self._stats["max_batch_samples"], len(x)
                )

    # -- lifecycle / introspection ---------------------------------------

    def stats(self) -> dict[str, float]:
        """Dispatch statistics: requests, samples, batches, occupancy."""
        with self._stats_lock:
            stats = dict(self._stats)
        batches = stats["batches"] or 1
        stats["mean_batch_samples"] = stats["samples"] / batches
        return stats

    def close(self, drain: bool = True) -> None:
        """Stop the dispatcher (idempotent).

        With ``drain`` (the default) the batcher drains: every request
        accepted before the dispatcher finds the queue empty is served.
        Without it, queued requests are failed with ``RuntimeError``.
        Either way the batcher ends stopped, so later submits raise.
        """
        removed = self.batcher.close(drain)
        self._worker.join()
        for r in removed + self.batcher.close(drain=False):
            r.future.set_exception(RuntimeError("server closed"))
        self.engine.close()

    def __enter__(self) -> "InferenceServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclasses.dataclass(frozen=True)
class LoadReport:
    """Closed-loop load-generator outcome (see :func:`run_load`)."""

    clients: int
    duration_s: float
    requests: int
    samples: int
    p50_ms: float
    p99_ms: float
    mean_ms: float
    samples_per_s: float
    mean_batch_samples: float

    def as_dict(self) -> dict[str, float]:
        """JSON-ready representation for ``BENCH_perf.json``/CLI output."""
        return {
            "clients": self.clients,
            "duration_s": round(self.duration_s, 3),
            "requests": self.requests,
            "samples": self.samples,
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "mean_ms": round(self.mean_ms, 3),
            "samples_per_s": round(self.samples_per_s, 1),
            "mean_batch_samples": round(self.mean_batch_samples, 2),
        }


def run_load(
    server: InferenceServer,
    make_request,
    clients: int = 4,
    duration_s: float = 1.0,
    warmup_requests: int = 1,
) -> LoadReport:
    """Drive a server with closed-loop clients and measure latency.

    Each of ``clients`` threads repeatedly calls
    ``make_request(client_id, i)`` for its next payload, submits it, and
    blocks on the response before issuing the next — classic closed-loop
    load, so the system is measured at its self-regulated throughput.
    Per-request wall latencies from all clients are pooled into
    p50/p99/mean; the first ``warmup_requests`` of every client are
    excluded (they pay cache warming).

    Latency is measured from submit time.  The dispatcher's coalescing
    budget, by contrast, runs from the *oldest* queued request — a
    follower coalesced behind an older leader waits strictly less than
    the full budget, so measured latency is bounded by ``budget +
    service`` per request however batches form (the deadline-semantics
    regression tests pin this).
    """
    if clients < 1:
        raise ValueError("clients must be >= 1")
    latencies: list[list[float]] = [[] for _ in range(clients)]
    counts = [0] * clients
    samples = [0] * clients
    start_barrier = threading.Barrier(clients + 1)
    stop = threading.Event()

    def client(cid: int) -> None:
        start_barrier.wait()
        i = 0
        while not stop.is_set():
            x = make_request(cid, i)
            t0 = time.perf_counter()
            server.submit(x).result()
            elapsed = time.perf_counter() - t0
            if i >= warmup_requests:
                latencies[cid].append(elapsed)
                counts[cid] += 1
                samples[cid] += len(x)
            i += 1

    threads = [threading.Thread(target=client, args=(cid,)) for cid in range(clients)]
    for t in threads:
        t.start()
    start_barrier.wait()
    t0 = time.perf_counter()
    time.sleep(duration_s)
    stop.set()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0

    pooled = np.array([lat for per in latencies for lat in per]) * 1e3
    if pooled.size == 0:
        pooled = np.array([0.0])
    return LoadReport(
        clients=clients,
        duration_s=elapsed,
        requests=sum(counts),
        samples=sum(samples),
        p50_ms=float(np.percentile(pooled, 50)),
        p99_ms=float(np.percentile(pooled, 99)),
        mean_ms=float(pooled.mean()),
        samples_per_s=sum(samples) / elapsed if elapsed > 0 else 0.0,
        mean_batch_samples=server.stats()["mean_batch_samples"],
    )
