"""Multi-process serving fleet: worker pool, registry, admission control.

The single-process :class:`~repro.runtime.server.InferenceServer` tops
out at one interpreter's worth of compute.  This module scales the same
compiled runtime across **processes**: each worker deserialises a model
snapshot (:class:`ModelSnapshot` — zoo architecture + exact weight
bytes + backend/kernel choice), compiles its **own**
:class:`~repro.runtime.plan.ExecutionPlan` (plans are eval-frozen and
pre-packed, so they rebuild deterministically from the snapshot), and
serves micro-batches over a pipe.  Packing is deterministic, so every
worker's prepared weights — and therefore its outputs — are
byte-identical to a parent-side plan compiled from the same snapshot
(:func:`plan_digest` is the proof obligation the round-trip tests
check).

:class:`FleetServer` is the frontend: a registry of model deployments
(several zoo models concurrently), each with its own
:class:`~repro.runtime.server.MicroBatcher` and one **runner thread per
worker** pulling coalesced micro-batches off the shared queue — idle
workers pull next, so load balances itself.  Admission control gates
``submit``:

* **bounded queue depth** — more than ``max_queue_samples`` waiting
  samples sheds the request with a structured :class:`ShedLoadError`
  (``reason="queue_full"``);
* **latency SLA** — with ``sla_ms`` set, a request whose predicted
  completion (queued + in-flight samples, times the EWMA service time,
  over the worker count) exceeds the SLA is shed up front
  (``reason="sla_unmeetable"``) instead of being accepted into a queue
  it cannot leave in time.

Accepted requests are never silently dropped: a worker crash mid-batch
requeues its requests (bypassing admission) up to ``max_retries``
redeliveries, then fails the future with a structured
:class:`WorkerCrashError`; the crashed worker is respawned from the
snapshot and keeps serving.

A deployment's lifecycle is its batcher's state (``open`` /
``draining`` / ``stopped``, see :class:`~repro.runtime.server.MicroBatcher`)
plus ``open_until`` while its breaker is open.  ``close(drain=True)``
drains every batcher: runners serve what is queued, including requeues
from crashes during the drain, and exit when it is empty;
``close(drain=False)`` stops them and fails the queue.  A stopped
batcher refuses requeues, so a crash on a quarantined or closed
deployment fails its batch structurally and never respawns a worker.

Self-healing (PR 9) extends the contract to *detected* degradation:

* a **heartbeat monitor** pings workers and respawns ones that died
  idle (a mid-request death is caught by the runner's pipe read);
* **deadline propagation** — ``submit(..., timeout_ms=...)`` carries an
  absolute deadline through admission (predicted-completion check),
  dispatch (expired requests fail with a structured
  :class:`DeadlineExceededError`) and into the worker (which refuses to
  compute work that already missed its budget);
* **hedged dispatch** — ``submit(..., hedge_ms=...)`` enqueues a
  duplicate after the hedge delay; first resolution wins (tail-latency
  insurance against a stalling worker);
* a **circuit breaker** (``breaker_threshold``) quarantines a model
  whose workers crash repeatedly, or whose worker fails to respawn —
  its batcher stops (the queue fails structurally), its workers die,
  and new submits shed with ``reason="circuit_open"`` while other
  models keep serving; after ``breaker_cooldown_s`` the deployment
  revives: old runners are joined and old workers killed before fresh
  ones start and the batcher reopens;
* **integrity health checks** — ``check_health(model)`` asks each
  worker to run :func:`repro.core.integrity.check_and_heal` (checksum +
  canary verification, rebuild on mismatch); a worker that reports
  recurring corruption is respawned from the unchanged snapshot while
  its siblings keep serving.

Every worker respawn — heartbeat, crash, integrity recurrence and
breaker revival — goes through :meth:`FleetServer._respawn`, which
times it and journals ``worker_respawned`` or ``respawn_failed``.

The open-loop Poisson benchmark over this fleet lives in
:mod:`repro.runtime.serving_bench`; the TCP frontend in
:mod:`repro.runtime.frontend`.
"""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import hashlib
import multiprocessing
import multiprocessing.connection
import os
import pickle
import threading
import time

import numpy as np

from .. import journal
from ..formats.packed import PackedTensor
from ..nn.models import model_zoo
from ..nn.serialize import load_state_bytes, state_bytes
from .ops import (
    BackendStrategy,
    ExactStrategy,
    PackedKernelStrategy,
    QuantDenseStrategy,
)
from .plan import ExecutionPlan, compile_plan, op_strategies
from .server import OPEN, STOPPED, MicroBatcher, Request, shape_groups

__all__ = [
    "ModelSnapshot",
    "snapshot_model",
    "rebuild_model",
    "rebuild_plan",
    "resolve_backend",
    "plan_digest",
    "ShedLoadError",
    "WorkerCrashError",
    "DeadlineExceededError",
    "FleetServer",
]


def resolve_backend(backend: str, kernel: str | None = None):
    """Build a backend from its wire name (``daism``/``quantized``/``exact``).

    The fleet ships backend *names* (not objects) to workers so
    snapshots stay small and pickle-stable; each side resolves the name
    into the same deterministic backend construction.  ``kernel`` must
    be ``None`` or a registered kernel name — unknown names (the retired
    ``"auto"`` among them) fail fast here, with the structured
    :class:`~repro.core.kernels.UnknownKernelError` listing the
    registry, instead of surfacing at the first matmul in a worker.
    """
    from ..core.config import PC3_TR
    from ..core.kernels import get_kernel
    from ..formats.floatfmt import BFLOAT16
    from ..nn.backend import daism_backend, exact_backend, quantized_backend

    if kernel is not None:
        get_kernel(kernel)
    if backend == "daism":
        return daism_backend(PC3_TR, BFLOAT16, kernel=kernel)
    if backend == "quantized":
        return quantized_backend(BFLOAT16, kernel=kernel)
    if backend == "exact":
        return exact_backend()
    raise ValueError(f"unknown backend {backend!r} (daism / quantized / exact)")


# --------------------------------------------------------------------------
# Model snapshots: what a worker needs to rebuild its plan exactly
# --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ModelSnapshot:
    """Everything a worker needs to rebuild one serving plan, exactly.

    ``model`` names the :func:`~repro.nn.models.model_zoo` architecture,
    ``state`` is the :func:`~repro.nn.serialize.state_bytes` buffer
    (bit-exact weights + BatchNorm statistics), and ``backend`` /
    ``kernel`` are the wire names :func:`resolve_backend` consumes.
    The tuple is plain picklable data — safe across ``fork`` and
    ``spawn`` alike.  ``chaos`` optionally carries a
    :class:`~repro.chaos.worker.WorkerChaos` policy in dict form —
    workers bind it to their own deterministic fault stream (tests and
    the chaos matrix only; production snapshots leave it ``None``).
    """

    model: str
    state: bytes
    backend: str = "daism"
    kernel: str | None = None
    chaos: dict | None = None
    #: Worker-side shard ceiling: > 1 runs each batch through a
    #: :class:`~repro.runtime.engine.BatchEngine` (byte-identical to
    #: unsharded execution by the engine's contract).
    shards: int = 1


def snapshot_model(
    model: str,
    module=None,
    backend: str = "daism",
    kernel: str | None = None,
    chaos: dict | None = None,
    shards: int = 1,
) -> ModelSnapshot:
    """Freeze ``module`` (or a fresh zoo build) into a :class:`ModelSnapshot`."""
    if module is None:
        module = _zoo_build(model)
    if shards < 1:
        raise ValueError("shards must be >= 1")
    resolve_backend(backend, kernel)  # fail fast on a bad wire name
    return ModelSnapshot(
        model=model,
        state=state_bytes(module),
        backend=backend,
        kernel=kernel,
        chaos=chaos,
        shards=int(shards),
    )


def _zoo_build(model: str):
    try:
        return model_zoo()[model]
    except KeyError as exc:
        raise ValueError(f"unknown model {model!r}; zoo: {sorted(model_zoo())}") from exc


def rebuild_model(snapshot: ModelSnapshot):
    """Reconstruct the snapshot's module tree with its exact weights."""
    module = _zoo_build(snapshot.model)
    load_state_bytes(module, snapshot.state)
    return module.eval()


def rebuild_plan(snapshot: ModelSnapshot) -> ExecutionPlan:
    """The worker-side path: snapshot → module → ``compile_plan``.

    Deterministic end to end — weights round-trip bit-exactly and
    packing is pure — so the returned plan's prepared weights match a
    parent-side compile of the same state byte-for-byte
    (:func:`plan_digest` pins this).
    """
    return compile_plan(
        rebuild_model(snapshot), resolve_backend(snapshot.backend, snapshot.kernel)
    )


def _digest_arrays(h: "hashlib._Hash", arrays) -> None:
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())


def _planes(w: PackedTensor) -> list[np.ndarray]:
    """Sign, exponent, significand and scale in the dtypes the digest is defined over.

    ``uint32`` sign and significand, ``int32`` exponent, so a digest
    does not depend on how a packed tensor stores its planes.  Derived
    through a view, so the plan's weight keeps only its two planes.
    """
    view = w[...]
    return [view.sign, view.exponent, view.significand.astype(np.uint32), view.scale()]


def _strategy_arrays(strategy) -> list[np.ndarray]:
    if isinstance(strategy, ExactStrategy):
        return [strategy.weight]
    if isinstance(strategy, QuantDenseStrategy):
        return [strategy.weight_q]
    if isinstance(strategy, PackedKernelStrategy):
        return _planes(strategy.weight)
    if isinstance(strategy, BackendStrategy):
        prepared = strategy.prepared
        if isinstance(prepared, np.ndarray):
            return [prepared]
        if isinstance(prepared, PackedTensor):
            return _planes(prepared)[:3]
        return [np.frombuffer(pickle.dumps(prepared), dtype=np.uint8)]
    return []


#: Per op kind, the attributes besides captured arrays that decide what
#: the op computes (:func:`plan_digest` hashes them).
_DIGEST_GEOMETRY = {
    "conv2d": ("in_channels", "out_channels", "kernel", "stride", "padding", "groups"),
    "attention": ("heads", "scale"),
    "maxpool2d": ("size",),
    "layernorm": ("eps",),
}


def plan_digest(plan: ExecutionPlan) -> list[str]:
    """Per-op SHA-256 over every captured constant (prepared weights,
    biases, BatchNorm statistics), the op's kind and geometry, *and*
    the resolved kernel and multiplier configuration.

    Two plans with equal digests run the same arithmetic on the same
    bits — the round-trip proof that a worker-rebuilt plan matches its
    parent without shipping the plan itself across the process boundary.
    Hashing the kernel makes it part of that proof: a worker on another
    kernel produces a different digest instead of a silent arithmetic
    mismatch.  Class names are not hashed, so renaming or merging an op
    class leaves every digest alone.
    """
    digests: list[str] = []
    for op in plan.ops:
        h = hashlib.sha256()
        geometry = [getattr(op, attr) for attr in _DIGEST_GEOMETRY.get(op.kind, ())]
        h.update(repr((op.kind, geometry)).encode())
        # Grouped conv / attention carry several strategies; hash each in
        # order so a single diverging group (or projection) flips the digest.
        for strategy in op_strategies(op):
            fallback = getattr(strategy, "backend", None)
            h.update(repr((
                strategy.kernel_name,
                getattr(strategy, "config", None),
                fallback.name if fallback is not None else None,
            )).encode())
            _digest_arrays(h, _strategy_arrays(strategy))
        backend = getattr(op, "backend", None)
        if backend is not None:
            # Attention's activation-activation products run on the
            # captured backend itself; its name pins that arithmetic.
            h.update(backend.name.encode())
        captured = [
            getattr(op, attr)
            for attr in ("bias", "qkv_bias", "out_bias", "gamma", "beta", "mean", "inv_std")
            if isinstance(getattr(op, attr, None), np.ndarray)
        ]
        _digest_arrays(h, captured)
        digests.append(h.hexdigest())
    return digests


# --------------------------------------------------------------------------
# Structured serving errors
# --------------------------------------------------------------------------


class ShedLoadError(RuntimeError):
    """Request rejected at admission — the structured shed-load response.

    ``reason`` is ``"queue_full"`` (bounded queue depth exceeded),
    ``"sla_unmeetable"`` (predicted completion beyond the latency SLA /
    the request's propagated deadline), or ``"circuit_open"`` (the
    model's circuit breaker quarantined its workers after repeated
    crashes).  ``as_dict()`` is the wire form the socket frontend
    returns — ``predicted_ms`` / ``retry_after_ms`` are the hints the
    client-side backoff honours.
    """

    def __init__(
        self,
        model: str,
        reason: str,
        queued_samples: int,
        limit: int | None = None,
        predicted_ms: float | None = None,
        sla_ms: float | None = None,
        retry_after_ms: float | None = None,
    ):
        self.model = model
        self.reason = reason
        self.queued_samples = queued_samples
        self.limit = limit
        self.predicted_ms = predicted_ms
        self.sla_ms = sla_ms
        self.retry_after_ms = retry_after_ms
        if reason == "queue_full":
            detail = f"queue depth {queued_samples} at limit {limit}"
        elif reason == "circuit_open":
            detail = f"circuit open, retry after {retry_after_ms:.0f} ms"
        else:
            detail = f"predicted {predicted_ms:.1f} ms exceeds SLA {sla_ms:.1f} ms"
        super().__init__(f"load shed for {model!r}: {detail}")

    def as_dict(self) -> dict:
        """JSON/pickle-ready structured rejection."""
        return {
            "error": "shed_load",
            "model": self.model,
            "reason": self.reason,
            "queued_samples": self.queued_samples,
            "limit": self.limit,
            "predicted_ms": self.predicted_ms,
            "sla_ms": self.sla_ms,
            "retry_after_ms": self.retry_after_ms,
        }


class WorkerCrashError(RuntimeError):
    """An accepted request failed after exhausting crash redeliveries.

    Raised on the *future*, never silently: an accepted request either
    resolves with data or with a structured error.
    """

    def __init__(self, model: str, retries: int, reason: str = "crash"):
        self.model = model
        self.retries = retries
        self.reason = reason
        super().__init__(
            f"worker serving {model!r} crashed ({reason}); request failed after "
            f"{retries} redeliver{'y' if retries == 1 else 'ies'}"
        )

    def as_dict(self) -> dict:
        """JSON/pickle-ready structured failure."""
        return {
            "error": "worker_crash",
            "model": self.model,
            "retries": self.retries,
            "reason": self.reason,
        }


class DeadlineExceededError(RuntimeError):
    """An accepted request's propagated deadline passed before completion.

    Raised on the future (structured, never a silent drop) when the
    client-supplied ``timeout_ms`` budget expired while the request
    waited in the queue or before a worker could serve it.
    """

    def __init__(self, model: str, late_ms: float):
        self.model = model
        self.late_ms = late_ms
        super().__init__(
            f"deadline exceeded for {model!r}: {late_ms:.1f} ms past budget"
        )

    def as_dict(self) -> dict:
        """JSON/pickle-ready structured failure."""
        return {"error": "deadline_exceeded", "model": self.model, "late_ms": self.late_ms}


# --------------------------------------------------------------------------
# Worker process
# --------------------------------------------------------------------------


def _worker_main(conn, snapshot: ModelSnapshot) -> None:
    """Worker process body: rebuild the plan, then serve the pipe.

    Strict request/reply: every received message is answered exactly
    once, so the parent's runner thread can block on ``recv``.  A
    handshake message reports compile success (or the failure reason)
    before any request is served.

    Message kinds: ``("run", x[, deadline_remaining_s])`` executes a
    batch (an already-expired deadline replies ``("expired", late_s)``
    without computing); ``("digest",)`` / ``("ping",)`` introspect;
    ``("health",)`` runs a full integrity round (checksums, canaries,
    heal) and replies with its report;
    ``("chaos", params)`` injects table corruption on demand (tests).
    """
    try:
        plan = rebuild_plan(snapshot)
        shards = getattr(snapshot, "shards", 1)
        if shards > 1:
            from .engine import BatchEngine

            run_batch = BatchEngine(plan, shards=shards).run
        else:
            run_batch = plan.execute
        chaos = None
        if snapshot.chaos:
            from ..chaos.worker import WorkerChaos

            chaos = WorkerChaos.from_dict(snapshot.chaos).bind(
                multiprocessing.current_process().name
            )
    except BaseException as exc:
        try:
            conn.send(("init_err", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    conn.send(("ready", os.getpid()))
    if chaos is not None:
        # After the handshake (and after integrity registered healthy
        # checksums during the rebuild): corrupt the live tables.
        chaos.on_boot()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg[0]
        if kind == "stop":
            break
        if kind == "run":
            if chaos is not None:
                chaos.before_run()
            deadline_remaining = msg[2] if len(msg) > 2 else None
            if deadline_remaining is not None and deadline_remaining <= 0:
                conn.send(("expired", -deadline_remaining))
                continue
            try:
                out = run_batch(msg[1])
            except BaseException as exc:
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
            else:
                conn.send(("ok", out))
        elif kind == "digest":
            conn.send(("ok", plan_digest(plan)))
        elif kind == "ping":
            conn.send(("ok", "pong"))
        elif kind == "health":
            from ..core.integrity import check_and_heal

            try:
                report = check_and_heal()
                report["pid"] = os.getpid()
                conn.send(("ok", report))
            except BaseException as exc:
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
        elif kind == "chaos":
            from ..chaos.inject import corrupt_cached_tables

            params = msg[1] if len(msg) > 1 else {}
            corrupted = corrupt_cached_tables(
                n_tables=params.get("n_tables", 1),
                flips_per_table=params.get("flips_per_table", 1),
                seed=params.get("seed", 0),
            )
            conn.send(("ok", [str(k) for k in corrupted]))
        else:
            conn.send(("err", f"unknown message kind {kind!r}"))
    conn.close()


def _default_start_method() -> str:
    override = os.environ.get("REPRO_FLEET_START_METHOD")
    if override:
        return override
    # fork is near-free and inherits the loaded interpreter; spawn is the
    # portable fallback (and the only option on Windows/macOS defaults).
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


class _WorkerHandle:
    """One worker process + its pipe, respawnable from the snapshot.

    ``lock`` serialises pipe use between the runner thread (batches)
    and the health monitor (pings, health rounds, idle respawns) — the
    protocol is strict request/reply per pipe, so exactly one thread
    may hold a request in flight.  The monitor only ever *tries* the
    lock: a runner mid-request already proves the worker is live.

    ``spawn``, ``kill`` and ``stop`` serialise on a second lock, so a
    quarantine killing a sibling's worker never races that sibling's
    respawn, and ``spawn`` reaps the old process first: a handle owns at
    most one worker process.
    """

    def __init__(self, ctx, snapshot: ModelSnapshot, name: str, ready_timeout_s: float):
        self.ctx = ctx
        self.snapshot = snapshot
        self.name = name
        self.ready_timeout_s = ready_timeout_s
        self.process: multiprocessing.Process | None = None
        self.conn: multiprocessing.connection.Connection | None = None
        self.lock = threading.Lock()
        self._life = threading.Lock()
        self.spawn()

    def spawn(self) -> None:
        with self._life:
            self._reap()
            parent, child = self.ctx.Pipe()
            process = self.ctx.Process(
                target=_worker_main, args=(child, self.snapshot), name=self.name, daemon=True
            )
            process.start()
            self.process = process  # workers() lists started processes only
            child.close()  # parent keeps one end; worker death now raises EOFError
            self.conn = parent
            if not parent.poll(self.ready_timeout_s):
                self._reap()
                raise RuntimeError(f"worker {self.name} did not come up in time")
            status, payload = parent.recv()
            if status != "ready":
                self._reap()
                raise RuntimeError(f"worker {self.name} failed to build its plan: {payload}")
            self.pid = payload

    def request(self, msg: tuple) -> tuple[str, object]:
        """Send one message and block for its reply (runner thread only)."""
        self.conn.send(msg)
        return self.conn.recv()

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def stop(self, timeout_s: float = 5.0) -> None:
        """Graceful stop, escalating to terminate/kill (idempotent)."""
        with self._life:
            if self.process is None:
                return
            try:
                self.conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
            self.process.join(timeout_s)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(1.0)
            self._reap()
            self.conn.close()

    def kill(self) -> None:
        with self._life:
            self._reap()

    def _reap(self) -> None:
        if self.process is not None:
            self.process.kill()
            self.process.join(1.0)
            self.process = None


# --------------------------------------------------------------------------
# Fleet server
# --------------------------------------------------------------------------


class _Deployment:
    """One registered model: snapshot, batcher, workers, counters."""

    def __init__(
        self,
        snapshot: ModelSnapshot,
        max_batch: int,
        max_delay_ms: float,
        max_queue_samples: int,
        sla_ms: float | None,
        policy=None,
    ):
        self.snapshot = snapshot
        #: Optional :class:`~repro.runtime.scheduler.SchedulingPolicy`.
        #: Cost-model mode drives adaptive coalescing through the
        #: batcher and model-based admission estimates; every mode
        #: receives measured service times as correction observations.
        self.policy = policy
        self.batcher = MicroBatcher(
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            policy=policy if policy is not None and policy.mode == "cost_model" else None,
        )
        self.max_queue_samples = int(max_queue_samples)
        self.sla_ms = sla_ms
        self.handles: list[_WorkerHandle] = []
        self.runners: list[threading.Thread] = []
        self.lock = threading.Lock()
        self.inflight_samples = 0
        self.ewma_ms_per_sample: float | None = None
        # Circuit-breaker state: recent crash wall-clock times, and while
        # quarantined (batcher stopped), the monotonic time it lifts.
        self.crash_times: collections.deque[float] = collections.deque(maxlen=64)
        self.open_until: float | None = None
        self.last_recovery_ms: float | None = None
        self.stats = {
            "accepted_requests": 0,
            "accepted_samples": 0,
            "completed_requests": 0,
            "completed_samples": 0,
            "failed_requests": 0,
            "shed_requests": 0,
            "retried_requests": 0,
            "worker_restarts": 0,
            "batches": 0,
            "expired_requests": 0,
            "hedged_requests": 0,
            "hedge_wins": 0,
            "breaker_opens": 0,
            "integrity_checks": 0,
            "integrity_corruptions": 0,
        }

    def note_service(self, elapsed_ms: float, samples: int) -> None:
        per_sample = elapsed_ms / max(1, samples)
        with self.lock:
            if self.ewma_ms_per_sample is None:
                self.ewma_ms_per_sample = per_sample
            else:
                self.ewma_ms_per_sample = 0.2 * per_sample + 0.8 * self.ewma_ms_per_sample


class FleetServer:
    """Route requests across a registry of multi-process model deployments.

    Parameters
    ----------
    workers:
        Worker processes per registered model (a ``register`` call may
        override per model).
    max_batch / max_delay_ms:
        Micro-batch coalescing policy, identical semantics to
        :class:`~repro.runtime.server.InferenceServer` (the fleet reuses
        the same :class:`~repro.runtime.server.MicroBatcher`).
    max_queue_samples:
        Admission bound: samples queued (accepted, not yet dispatched)
        per model before requests shed with ``reason="queue_full"``.
    sla_ms:
        Optional latency SLA; requests whose predicted completion
        exceeds it shed with ``reason="sla_unmeetable"``.
    max_retries:
        Crash redeliveries per request before its future fails with
        :class:`WorkerCrashError`.
    start_method:
        ``multiprocessing`` start method; default ``fork`` where
        available (override with ``REPRO_FLEET_START_METHOD``).
    heartbeat_interval_s:
        Health-monitor period: each tick pings idle workers (respawning
        any that died between batches) and revives deployments whose
        circuit-breaker cooldown elapsed.  ``None`` disables the
        monitor (crash recovery still happens on the runner path, and
        revival happens lazily at the next ``submit``).
    breaker_threshold / breaker_window_s / breaker_cooldown_s:
        Circuit breaker: ``breaker_threshold`` worker crashes within
        ``breaker_window_s`` seconds quarantine the model — queued
        requests fail structurally, submits shed with
        ``reason="circuit_open"`` — until ``breaker_cooldown_s``
        elapses and the deployment revives with fresh workers.
        ``breaker_threshold=None`` (default) disables the breaker.
    """

    def __init__(
        self,
        workers: int = 2,
        max_batch: int = 64,
        max_delay_ms: float = 2.0,
        max_queue_samples: int = 1024,
        sla_ms: float | None = None,
        max_retries: int = 1,
        start_method: str | None = None,
        ready_timeout_s: float = 60.0,
        heartbeat_interval_s: float | None = 5.0,
        breaker_threshold: int | None = None,
        breaker_window_s: float = 30.0,
        breaker_cooldown_s: float = 5.0,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.default_workers = int(workers)
        self.max_batch = int(max_batch)
        self.max_delay_ms = float(max_delay_ms)
        self.max_queue_samples = int(max_queue_samples)
        self.sla_ms = sla_ms
        self.max_retries = int(max_retries)
        self.ready_timeout_s = ready_timeout_s
        self.breaker_threshold = breaker_threshold
        self.breaker_window_s = float(breaker_window_s)
        self.breaker_cooldown_s = float(breaker_cooldown_s)
        self._ctx = multiprocessing.get_context(start_method or _default_start_method())
        self._deployments: dict[str, _Deployment] = {}
        self._closed = False
        self._submit_lock = threading.Lock()
        self._journal = journal.Channel("fleet")
        self._journal.owner = f"fleet-{self._journal.key}"
        self._monitor_stop = threading.Event()
        self._monitor: threading.Thread | None = None
        if heartbeat_interval_s is not None:
            self._monitor = threading.Thread(
                target=self._monitor_loop,
                args=(float(heartbeat_interval_s),),
                name="repro-fleet-monitor",
                daemon=True,
            )
            self._monitor.start()

    # -- registry ---------------------------------------------------------

    def register(
        self,
        snapshot: ModelSnapshot,
        workers: int | None = None,
        max_queue_samples: int | None = None,
        sla_ms: float | None = None,
        service_hint_ms_per_sample: float | None = None,
        policy=None,
        target_sps: float | None = None,
        seed: int = 0,
    ) -> None:
        """Deploy one model: spawn its workers and start their runners.

        ``service_hint_ms_per_sample`` warm-starts the EWMA service-time
        predictor so SLA admission is live from the first request
        instead of after the first served batches (the open-loop bench
        seeds it from its closed-loop calibration run).

        ``policy`` attaches a scheduling policy: a mode string
        (``"static"`` / ``"cost_model"``) builds one from the model's
        cost surface, or pass a ready
        :class:`~repro.runtime.scheduler.SchedulingPolicy`.  With a
        policy and **no** service hint, the EWMA warm-start is *derived
        from the cost model*: worker 0 serves one small probe batch, the
        measured time seeds the policy's correction factor, and the
        corrected steady-state prediction (not the raw probe) becomes
        the admission estimate — first-request SLA decisions stop being
        guesswork.  In cost-model mode the policy additionally drives
        adaptive coalescing, admission estimates and worker sizing for
        ``target_sps``.  The fleet becomes the owner of the policy's
        journal records, so they show in :meth:`events`.

        A snapshot whose kernel wire name is not registered (an old
        ``"auto"`` snapshot) raises
        :class:`~repro.core.kernels.UnknownKernelError` before any
        worker spawns.
        """
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        resolve_backend(snapshot.backend, snapshot.kernel)
        name = snapshot.model
        with self._submit_lock:
            if self._closed:
                raise RuntimeError("fleet is closed")
            if name in self._deployments:
                raise ValueError(f"model {name!r} already registered")
        resolved_sla = self.sla_ms if sla_ms is None else sla_ms
        policy = self._build_policy(snapshot, policy, resolved_sla, target_sps, seed)
        probe_handle: _WorkerHandle | None = None
        if policy is not None and service_hint_ms_per_sample is None and not snapshot.chaos:
            probe_handle = _WorkerHandle(
                self._ctx, snapshot, f"repro-fleet-{name}-0", self.ready_timeout_s
            )
            self._probe_warm_start(policy, snapshot, probe_handle)
        dep = _Deployment(
            snapshot,
            max_batch=self.max_batch,
            max_delay_ms=self.max_delay_ms,
            max_queue_samples=max_queue_samples or self.max_queue_samples,
            sla_ms=resolved_sla,
            policy=policy,
        )
        if service_hint_ms_per_sample is not None:
            dep.ewma_ms_per_sample = float(service_hint_ms_per_sample)
            if policy is not None and policy.correction is None:
                # A hint is a steady-state measurement too: seed the
                # correction so the policy is calibrated from the start.
                cap = policy.max_batch
                policy.seed_correction(cap, service_hint_ms_per_sample * cap)
        elif policy is not None:
            warm = policy.predicted_ms_per_sample(policy.max_batch)
            if warm is not None:
                dep.ewma_ms_per_sample = warm
        n = workers or self.default_workers
        if workers is None and policy is not None:
            n = policy.worker_count(self.default_workers)
        for i in range(n):
            if i == 0 and probe_handle is not None:
                handle = probe_handle
                probe_handle = None
            else:
                handle = _WorkerHandle(
                    self._ctx, snapshot, f"repro-fleet-{name}-{i}", self.ready_timeout_s
                )
            dep.handles.append(handle)
            dep.runners.append(self._runner(dep, handle, i))
        with self._submit_lock:
            if self._closed:  # closed while the workers spawned
                for handle in dep.handles:
                    handle.stop()
                raise RuntimeError("fleet is closed")
            self._deployments[name] = dep
        for runner in dep.runners:
            runner.start()

    def _build_policy(
        self,
        snapshot: ModelSnapshot,
        policy,
        sla_ms: float | None,
        target_sps: float | None,
        seed: int,
    ):
        """Resolve the ``register(policy=...)`` argument and take it over.

        Mode strings build a :func:`~repro.runtime.scheduler.policy_for_model`
        over the fleet's coalescing knobs; ready policies pass through.
        """
        if policy is None:
            return None
        if isinstance(policy, str):
            from .scheduler import policy_for_model

            policy = policy_for_model(
                snapshot.model,
                mode=policy,
                sla_ms=sla_ms,
                max_batch=self.max_batch,
                max_delay_ms=self.max_delay_ms,
                target_sps=target_sps,
                seed=seed,
            )
        policy.journal.owner = self._journal.owner
        return policy

    def _probe_warm_start(
        self, policy, snapshot: ModelSnapshot, handle: _WorkerHandle
    ) -> None:
        """Serve one probe batch on ``handle`` and seed the policy correction.

        The probe measures wall time for a small zeros batch; the policy
        turns that single point into a calibrated amortisation curve
        (cost-model shape x measured correction).  Failures downgrade to
        a cold start (recorded), never a failed register.
        """
        from ..nn.models import model_input_shape

        batch = max(1, min(8, policy.max_batch))
        x = np.zeros((batch, *model_input_shape(snapshot.model)), dtype=np.float32)
        t0 = time.perf_counter()
        try:
            with handle.lock:
                status, payload = handle.request(("run", x))
        except (EOFError, OSError, BrokenPipeError):
            status, payload = "err", "probe worker unreachable"
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        if status == "ok":
            policy.seed_correction(batch, elapsed_ms)
        else:
            self._journal.record("probe_failed", model=snapshot.model, detail=str(payload))

    def models(self) -> list[str]:
        """Registered model names."""
        return sorted(self._deployments)

    def workers(self, model: str) -> list[multiprocessing.Process]:
        """Live worker processes for ``model`` (chaos tests kill these)."""
        return [h.process for h in self._deployment(model).handles if h.process]

    def _deployment(self, model: str) -> _Deployment:
        try:
            return self._deployments[model]
        except KeyError as exc:
            raise ValueError(
                f"unknown model {model!r}; registered: {self.models()}"
            ) from exc

    # -- client side ------------------------------------------------------

    def submit(
        self,
        model: str,
        x: np.ndarray,
        timeout_ms: float | None = None,
        hedge_ms: float | None = None,
    ) -> concurrent.futures.Future:
        """Admit one request for ``model``; resolves to the plan output.

        ``timeout_ms`` propagates a completion deadline: admission sheds
        up front when the predicted completion already misses it, and an
        accepted request whose deadline passes before service fails with
        a structured :class:`DeadlineExceededError` (the remaining
        budget travels to the worker, which refuses expired work).
        ``hedge_ms`` arms hedged dispatch: if the request is still
        unresolved after that delay a duplicate is enqueued and the
        first resolution wins — tail-latency insurance against one
        stalled worker.

        Raises :class:`ShedLoadError` (structured, recoverable) when
        admission control rejects — including ``reason="circuit_open"``
        while the model is quarantined — ``ValueError`` for unknown
        models or malformed payloads, ``RuntimeError`` after close.
        """
        x = np.asarray(x, dtype=np.float32)
        if x.ndim < 2:
            raise ValueError("requests must have a leading sample axis (n, ...)")
        dep = self._deployment(model)
        n = len(x)
        now = time.monotonic()
        deadline = now + timeout_ms / 1e3 if timeout_ms is not None else None
        future: concurrent.futures.Future = concurrent.futures.Future()
        with self._submit_lock:
            if self._closed:
                raise RuntimeError("fleet is closed")
            if dep.open_until is not None and now >= dep.open_until:
                self._revive(dep)
            if dep.open_until is not None:
                raise self._shed_circuit_open(dep, now)
            queued = dep.batcher.pending_samples
            if queued + n > dep.max_queue_samples:
                raise self._shed(
                    dep, "queue_full", queued_samples=queued, limit=dep.max_queue_samples
                )
            sla_budget_ms = dep.sla_ms
            if deadline is not None:
                remaining_ms = (deadline - now) * 1e3
                sla_budget_ms = (
                    remaining_ms
                    if sla_budget_ms is None
                    else min(sla_budget_ms, remaining_ms)
                )
            with dep.lock:
                inflight = dep.inflight_samples
            est = None
            if dep.policy is not None and dep.policy.mode == "cost_model":
                # Prediction x correction: the EWMA is the correction
                # term on top of the cost model, not the whole estimate.
                # Evaluated at the batch size the backlog will actually
                # drain at, so admission and batching stay coherent.
                est = dep.policy.admission_ms_per_sample(queued + inflight + n)
            if est is None:
                with dep.lock:
                    est = dep.ewma_ms_per_sample
            if sla_budget_ms is not None and est is not None:
                predicted = (queued + inflight + n) * est / max(1, len(dep.handles))
                if predicted > sla_budget_ms:
                    raise self._shed(
                        dep,
                        "sla_unmeetable",
                        queued_samples=queued,
                        predicted_ms=predicted,
                        sla_ms=sla_budget_ms,
                    )
            request = Request(x, future, now, deadline=deadline)
            if not dep.batcher.put(request):
                # A runner's crash quarantined the deployment after the
                # circuit check above.
                raise self._shed_circuit_open(dep, now)
            with dep.lock:
                dep.stats["accepted_requests"] += 1
                dep.stats["accepted_samples"] += n
        if hedge_ms is not None:
            timer = threading.Timer(
                hedge_ms / 1e3, self._dispatch_hedge, args=(dep, request)
            )
            timer.daemon = True
            timer.start()
        return future

    def _shed(self, dep: _Deployment, reason: str, **detail) -> ShedLoadError:
        """Count one shed and build its structured error."""
        with dep.lock:
            dep.stats["shed_requests"] += 1
        return ShedLoadError(dep.snapshot.model, reason=reason, **detail)

    def _shed_circuit_open(self, dep: _Deployment, now: float) -> ShedLoadError:
        return self._shed(
            dep,
            "circuit_open",
            queued_samples=0,  # a stopped queue is empty
            retry_after_ms=(dep.open_until - now) * 1e3,
        )

    def _dispatch_hedge(self, dep: _Deployment, request: Request) -> None:
        """Enqueue the hedged duplicate if the primary hasn't resolved.

        A stopped (quarantined or closed) batcher refuses it.
        """
        if request.future.done():
            return
        hedge = dataclasses.replace(
            request,
            arrival=time.monotonic(),
            retries=self.max_retries,  # a crashed hedge never redelivers
            hedged=True,
        )
        if dep.batcher.put(hedge):
            with dep.lock:
                dep.stats["hedged_requests"] += 1

    # -- runner threads (one per worker process) --------------------------

    def _run_worker(self, dep: _Deployment, handle: _WorkerHandle) -> None:
        # Runs until the batcher stops (or drains empty), or this
        # runner's worker is gone for good.
        while batch := dep.batcher.next_batch():
            if not self._serve_batch(dep, handle, batch):
                return

    def _complete(self, dep: _Deployment, r: Request, payload) -> None:
        """Resolve one request with data, keeping hedged accounting exact."""
        try:
            r.future.set_result(payload)
        except concurrent.futures.InvalidStateError:
            return  # its hedged twin resolved it first
        with dep.lock:
            dep.stats["completed_requests"] += 1
            dep.stats["completed_samples"] += len(r.x)
            if r.hedged:
                dep.stats["hedge_wins"] += 1

    def _fail(self, dep: _Deployment, r: Request, exc: BaseException) -> None:
        """Resolve one request with a structured error (never both)."""
        try:
            r.future.set_exception(exc)
        except concurrent.futures.InvalidStateError:
            return  # its hedged twin resolved it first
        with dep.lock:
            dep.stats["failed_requests"] += 1
            if isinstance(exc, DeadlineExceededError):
                dep.stats["expired_requests"] += 1

    def _drop_expired(self, dep: _Deployment, batch: list[Request]) -> list[Request]:
        """Fail already-expired requests; return the live ones."""
        now = time.monotonic()
        live: list[Request] = []
        for r in batch:
            if r.deadline is not None and now >= r.deadline:
                self._fail(
                    dep,
                    r,
                    DeadlineExceededError(dep.snapshot.model, (now - r.deadline) * 1e3),
                )
            else:
                live.append(r)
        return live

    def _serve_batch(
        self, dep: _Deployment, handle: _WorkerHandle, batch: list[Request]
    ) -> bool:
        """Serve one pulled batch; False when the worker is gone for good."""
        batch = self._drop_expired(dep, batch)
        # Hedged duplicates whose primary already resolved are dead
        # weight — drop them before shipping bytes to the worker.
        batch = [r for r in batch if not (r.hedged and r.future.done())]
        groups = shape_groups(batch)
        for i, (requests, x) in enumerate(groups):
            # The group's tightest deadline, as left at send time, rides to
            # the worker so compute that can no longer meet any waiter is
            # refused there too.
            deadlines = [r.deadline for r in requests if r.deadline is not None]
            remaining = min(deadlines) - time.monotonic() if deadlines else None
            with dep.lock:
                dep.inflight_samples += len(x)
            t0 = time.perf_counter()
            with handle.lock:
                try:
                    status, payload = handle.request(("run", x, remaining))
                except (EOFError, OSError, BrokenPipeError):
                    with dep.lock:
                        dep.inflight_samples -= len(x)
                    unsent = [r for later, _ in groups[i + 1 :] for r in later]
                    return self._handle_crash(dep, handle, requests, unsent)
            elapsed_ms = (time.perf_counter() - t0) * 1e3
            with dep.lock:
                dep.inflight_samples -= len(x)
            if status == "ok":
                dep.note_service(elapsed_ms, len(x))
                if dep.policy is not None:
                    dep.policy.observe(len(x), elapsed_ms)
                offset = 0
                for r in requests:
                    self._complete(dep, r, payload[offset : offset + len(r.x)])
                    offset += len(r.x)
                with dep.lock:
                    dep.stats["batches"] += 1
            elif status == "expired":
                # The worker refused work past its deadline: every waiter in
                # this group missed the tightest budget or shares its fate.
                for r in requests:
                    late = 0.0
                    if r.deadline is not None:
                        late = max(0.0, (time.monotonic() - r.deadline) * 1e3)
                    self._fail(dep, r, DeadlineExceededError(dep.snapshot.model, late))
            else:
                exc = RuntimeError(f"worker execution failed: {payload}")
                for r in requests:
                    self._fail(dep, r, exc)
        return True

    def _handle_crash(
        self,
        dep: _Deployment,
        handle: _WorkerHandle,
        batch: list[Request],
        unsent: list[Request],
    ) -> bool:
        """Redeliver or fail a crashed batch, maybe open the breaker, respawn.

        ``unsent`` (the batch's groups no worker saw) requeue outside the
        retry count.  A stopped batcher refuses requeues: the requests
        fail and no worker respawns.  False means the runner must exit.
        Caller holds ``handle.lock``, so the respawn cannot race the
        monitor.
        """
        handle.kill()  # reap whatever is left of the crashed worker
        with dep.lock:
            dep.crash_times.append(time.monotonic())
        if self._breaker_should_open(dep):
            self._quarantine(dep, "circuit open")
        reason = "crash" if dep.open_until is None else "circuit open"
        for r in batch:
            if r.future.done():
                continue  # hedge already resolved it elsewhere
            if r.retries < self.max_retries and dep.batcher.put(
                dataclasses.replace(r, retries=r.retries + 1)
            ):
                with dep.lock:
                    dep.stats["retried_requests"] += 1
            else:
                self._fail(dep, r, WorkerCrashError(dep.snapshot.model, r.retries, reason))
        for r in unsent:
            if not dep.batcher.put(r):
                self._fail(dep, r, WorkerCrashError(dep.snapshot.model, r.retries, reason))
        if dep.batcher.state == STOPPED:
            return False
        if self._respawn(dep, handle, "crash"):
            return True
        # Without a worker this runner is useless: open the breaker,
        # which fails the queue structurally, and exit cleanly.
        self._quarantine(dep, "respawn failed")
        return False

    def _respawn(self, dep: _Deployment, handle: _WorkerHandle, cause: str) -> bool:
        """Start a fresh worker in ``handle`` from the deployment's snapshot.

        Every respawn the fleet does comes through here; ``cause`` is
        ``heartbeat``, ``crash``, ``integrity`` or ``revive``.  Success
        keeps the respawn time as ``last_recovery_ms``, counts a
        ``worker_restarts`` (a revive starts a deployment's workers
        afresh and does not count) and journals ``worker_respawned``;
        failure journals ``respawn_failed`` and the caller decides what
        it means.  The caller holds ``handle.lock`` (a revive holds the
        submit lock with the runners joined), so no request is on the
        pipe.
        """
        model = dep.snapshot.model
        t0 = time.perf_counter()
        try:
            handle.spawn()
        except Exception as exc:
            self._journal.record(
                "respawn_failed",
                model=model,
                worker=handle.name,
                cause=cause,
                detail=f"{type(exc).__name__}: {exc}",
            )
            return False
        dep.last_recovery_ms = (time.perf_counter() - t0) * 1e3
        # Under the lock stats() reads, so a reader that sees the count
        # or the event sees both.
        with dep.lock:
            if cause != "revive":
                dep.stats["worker_restarts"] += 1
            self._journal.record(
                "worker_respawned",
                model=model,
                worker=handle.name,
                cause=cause,
                recovery_ms=dep.last_recovery_ms,
            )
        return True

    # -- circuit breaker ---------------------------------------------------

    def _breaker_should_open(self, dep: _Deployment) -> bool:
        if self.breaker_threshold is None:
            return False
        cutoff = time.monotonic() - self.breaker_window_s
        with dep.lock:
            recent = sum(1 for t in dep.crash_times if t >= cutoff)
        return recent >= self.breaker_threshold

    def _quarantine(self, dep: _Deployment, reason: str) -> None:
        """Open the breaker: stop the batcher, fail its queue, kill workers.

        Quarantine is the stopped batcher plus ``open_until``.  Only this
        model degrades — its runners see the stopped batcher and exit,
        its workers die — while every other deployment keeps serving.
        A deployment whose breaker is already open stays as it is.
        """
        with dep.lock:
            if dep.open_until is not None:
                return
            dep.open_until = time.monotonic() + self.breaker_cooldown_s
            dep.stats["breaker_opens"] += 1
        model = dep.snapshot.model
        self._journal.record(
            "circuit_open", model=model, reason=reason, cooldown_s=self.breaker_cooldown_s
        )
        exc = WorkerCrashError(model, self.max_retries, reason=reason)
        for r in dep.batcher.close(drain=False):
            self._fail(dep, r, exc)
        for handle in dep.handles:
            # Sibling runners may be mid-request: their pipe read fails,
            # and the stopped batcher keeps them from respawning.
            handle.kill()

    def _revive(self, dep: _Deployment) -> None:
        """Half-open -> closed: retire the old workers, serve with fresh ones.

        Joins the old runners and kills every old worker before any
        fresh one starts.  Called with ``_submit_lock`` held (lazy
        revival on submit, or the monitor).  A crash after revival
        re-opens the breaker through the normal counting path; a worker
        that fails to start keeps the breaker open another cooldown.
        """
        for runner in dep.runners:
            runner.join()
        for handle in dep.handles:
            handle.kill()
        if not all(self._respawn(dep, handle, "revive") for handle in dep.handles):
            dep.open_until = time.monotonic() + self.breaker_cooldown_s
            return
        dep.runners = [self._runner(dep, h, i) for i, h in enumerate(dep.handles)]
        with dep.lock:
            dep.crash_times.clear()
        dep.batcher.reopen()
        dep.open_until = None
        for runner in dep.runners:
            runner.start()
        self._journal.record("circuit_closed", model=dep.snapshot.model)

    def _runner(self, dep: _Deployment, handle: _WorkerHandle, i: int) -> threading.Thread:
        return threading.Thread(
            target=self._run_worker,
            args=(dep, handle),
            name=f"repro-fleet-runner-{dep.snapshot.model}-{i}",
            daemon=True,
        )

    # -- health monitor ----------------------------------------------------

    def events(self) -> list[dict]:
        """Journal records of this fleet and its policies, oldest first."""
        return journal.events(owner=self._journal.owner)

    def _monitor_loop(self, interval_s: float) -> None:
        while not self._monitor_stop.wait(interval_s):
            try:
                self._monitor_tick()
            except Exception as exc:  # the monitor itself must survive
                self._journal.record("monitor_error", detail=f"{type(exc).__name__}: {exc}")

    def _monitor_tick(self) -> None:
        """One heartbeat round: revive cooled breakers, respawn dead idlers.

        Workers are only probed when their ``handle.lock`` is free — a
        runner mid-request already proves the worker is live, and the
        pipe's strict request/reply protocol forbids interleaving.
        """
        with self._submit_lock:
            if self._closed:
                return
            deployments = list(self._deployments.values())
            for dep in deployments:
                if dep.open_until is not None and time.monotonic() >= dep.open_until:
                    self._revive(dep)
        for dep in deployments:
            if dep.batcher.state != OPEN:
                continue
            for handle in dep.handles:
                if not handle.lock.acquire(blocking=False):
                    continue
                try:
                    self._heartbeat(dep, handle)
                finally:
                    handle.lock.release()

    def _heartbeat(self, dep: _Deployment, handle: _WorkerHandle) -> None:
        """Ping one idle worker; respawn it if dead or unresponsive.

        Caller holds ``handle.lock``.
        """
        healthy = False
        if handle.alive and handle.conn is not None:
            try:
                handle.conn.send(("ping",))
                if handle.conn.poll(self.ready_timeout_s):
                    handle.conn.recv()
                    healthy = True
            except (EOFError, OSError, BrokenPipeError):
                pass
        if not healthy:
            self._respawn(dep, handle, "heartbeat")

    def check_health(self, model: str) -> list[dict]:
        """Run one integrity round (checksums + canaries + heal) per worker.

        Each worker executes :func:`repro.core.integrity.check_and_heal`
        in its own process; the merged reports come back per worker.  A
        worker whose report has ``recurred`` (corruption its heal did
        not end) is respawned from the unchanged snapshot under its
        handle's lock, as a crashed one is.  Its siblings keep running:
        corruption in one process's memory says nothing about another's.
        """
        dep = self._deployment(model)
        reports: list[dict] = []
        for handle in dep.handles:
            with handle.lock:
                try:
                    status, payload = handle.request(("health",))
                except (EOFError, OSError, BrokenPipeError):
                    reports.append({"error": "worker_unreachable", "worker": handle.name})
                    continue
                if status != "ok":
                    reports.append({"error": "health_failed", "detail": payload})
                    continue
                reports.append(payload)
                with dep.lock:
                    dep.stats["integrity_checks"] += 1
                    dep.stats["integrity_corruptions"] += len(
                        payload["corrupted_tables"]
                    ) + len(payload["canary_failures"])
                if payload["recurred"] and dep.batcher.state == OPEN:
                    self._respawn(dep, handle, "integrity")
        return reports

    def plan_digests(self, model: str) -> list[list[str] | None]:
        """Per-worker :func:`plan_digest` — the byte-identity proof.

        Equal lists across workers (and against a parent-side compile of
        the same snapshot) mean every process runs the same arithmetic
        on the same bits; the chaos matrix asserts this *after* recovery.
        A worker that is down (quarantined, or killed and not yet
        respawned) reports ``None``, as :meth:`check_health` reports it
        ``worker_unreachable``.
        """
        dep = self._deployment(model)
        out: list[list[str] | None] = []
        for handle in dep.handles:
            with handle.lock:
                try:
                    status, payload = handle.request(("digest",))
                except (EOFError, OSError, BrokenPipeError):
                    out.append(None)
                    continue
            if status != "ok":
                raise RuntimeError(f"digest failed on {handle.name}: {payload}")
            out.append(payload)
        return out

    # -- lifecycle / introspection ----------------------------------------

    def stats(self) -> dict[str, dict]:
        """Per-model serving statistics plus queue/health gauges."""
        out: dict[str, dict] = {}
        for name, dep in self._deployments.items():
            with dep.lock:
                row = dict(dep.stats)
                row["inflight_samples"] = dep.inflight_samples
                row["ewma_ms_per_sample"] = (
                    round(dep.ewma_ms_per_sample, 4)
                    if dep.ewma_ms_per_sample is not None
                    else None
                )
            row["policy"] = dep.policy.mode if dep.policy is not None else "static"
            row["sched_events"] = dep.policy.journal.recorded if dep.policy is not None else 0
            if dep.policy is not None and dep.policy.correction is not None:
                row["sched_correction"] = round(dep.policy.correction, 4)
            row["queued_samples"] = dep.batcher.pending_samples
            row["workers_alive"] = sum(1 for h in dep.handles if h.alive)
            row["workers"] = len(dep.handles)
            row["quarantined"] = dep.open_until is not None
            row["last_recovery_ms"] = (
                round(dep.last_recovery_ms, 3)
                if dep.last_recovery_ms is not None
                else None
            )
            out[name] = row
        return out

    def close(self, drain: bool = True) -> None:
        """Stop the fleet (idempotent).

        With ``drain`` (default) every batcher drains: each accepted
        request is served (or structurally failed) before its runners
        exit.  Without it, queued requests fail with ``RuntimeError``
        immediately.  Either way every batcher ends stopped, every
        accepted future is resolved and every worker is stopped.
        """
        self._monitor_stop.set()
        if self._monitor is not None and self._monitor is not threading.current_thread():
            self._monitor.join(timeout=10.0)
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
            deployments = list(self._deployments.values())
        closed = RuntimeError("fleet closed")
        for dep in deployments:
            for r in dep.batcher.close(drain):
                self._fail(dep, r, closed)
        for dep in deployments:
            for runner in dep.runners:
                runner.join(timeout=60.0)
            for r in dep.batcher.close(drain=False):
                self._fail(dep, r, closed)
            for handle in dep.handles:
                handle.stop()

    def __enter__(self) -> "FleetServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
