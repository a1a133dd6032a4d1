"""Shard-parallel batch execution over a compiled plan.

A :class:`BatchEngine` splits a large batch into contiguous shards along
the sample axis and executes them over one shared
:class:`~repro.runtime.plan.ExecutionPlan`: shard 0 in the calling
thread, the others on a pool of ``shards - 1`` threads (one dispatch
and one thread's malloc arena fewer than a pool of ``shards``).  Plans
are immutable and thread-safe, and every op is row-independent (sample
``i`` depends only on sample ``i``), so the result is
**byte-identical** to a single-threaded pass over the whole batch,
shard count notwithstanding.

**The work rule.**  With no shard count given, a batch of ``n`` samples
runs on ``min(cpu_count, n, n * macs // SHARD_MIN_MACS)`` shards, at
least 1, where ``macs`` is the plan's weight-GEMM multiply-accumulates
per sample (:meth:`~repro.runtime.plan.ExecutionPlan.macs_per_sample`):
a shard is worth a thread only when it carries at least
:data:`SHARD_MIN_MACS` of work.  At the ``offline_zoo`` batches that
keeps LeNet (0.1 M MACs per sample, batch 64) on one core and splits
the batch-8 ``mobilenet_edge`` and ``transformer_encoder`` plans
(5.6 M and 6.3 M) across two.  An explicit count — the constructor's
or a call's — is honoured, clamped to the batch's rows with a
:class:`ShardClampWarning`.

Pool workers are initialised with
:func:`repro.nn.backend.inherit_default_backend`, so an engine created
inside a ``use_backend`` scope propagates that scope's backend to its
workers instead of silently falling back to exact float32 (plans resolve
their arithmetic at compile time and never consult the default, but any
user code running on the same pool — and the invariant itself — should
hold).

Plans that contain a batch-coupled strategy (e.g. the block-floating-
point backend, whose shared exponent spans the whole operand) report
``row_independent=False``: they are rejected for an explicit
``shards > 1``, and the work rule keeps them on one shard.

A note on BLAS: the exact and quantised-dense strategies run
:func:`~repro.core.gemm.dense_matmul`, whose calls have a fixed 64-row
height whatever the shard's, and the packed table kernels are
shard-stable by construction.  Only the opt-in ``blas_factored``
tolerance kernel still makes raw ``np.matmul`` calls whose bits can
depend on the shard height (BLAS picks its kernel from the call shape).
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
import warnings

import numpy as np

from ..nn.backend import inherit_default_backend
from .plan import ExecutionPlan

__all__ = ["BatchEngine", "ShardClampWarning", "SHARD_MIN_MACS"]

#: Weight multiply-accumulates a shard must carry before the work rule
#: gives it a thread of its own.  Set from the ``sharding`` sweep in
#: ``BENCH_perf.json``: the round number above the largest per-shard
#: work at which two shards lost to one (``transformer_encoder`` at one
#: sample per shard, 6.3 M).  Some smaller LeNet and ``mobilenet_edge``
#: shards won; the sweep lists them as ``order_breaks``.
SHARD_MIN_MACS = 8_000_000


class ShardClampWarning(UserWarning):
    """A requested shard count exceeded the batch's rows and was clamped.

    Structured (``requested`` / ``effective`` / ``samples`` attributes)
    so callers and tests can assert on the clamp instead of parsing the
    message.  Raised as a warning, not an error: the run still produces
    the byte-identical result, just on fewer shards than asked.
    """

    def __init__(self, requested: int, effective: int, samples: int):
        self.requested = requested
        self.effective = effective
        self.samples = samples
        super().__init__(
            f"requested {requested} shards for a {samples}-sample batch; "
            f"clamped to {effective} (shards cannot exceed samples)"
        )


class BatchEngine:
    """Execute one compiled plan across a pool of shard workers.

    Parameters
    ----------
    plan:
        The shared :class:`~repro.runtime.plan.ExecutionPlan`.
    shards:
        Default shard count for :meth:`run`.  ``None`` applies the work
        rule (see the module docstring); an explicit count is honoured,
        clamped to the batch's rows.  ``1`` executes inline with no
        pool at all.
    """

    def __init__(self, plan: ExecutionPlan, shards: int | None = None):
        if shards is not None and shards < 1:
            raise ValueError("shards must be >= 1")
        if shards is not None and shards > 1 and not plan.row_independent:
            raise ValueError(
                f"plan over backend {plan.backend_name!r} couples samples "
                "(row_independent=False); shard-parallel execution would "
                "change results — use shards=1"
            )
        self.plan = plan
        self.shards = shards
        #: Most shards the pool serves at once: shard 0 runs in the
        #: calling thread, so the pool has one worker fewer.
        self._max_shards = shards if shards is not None else (os.cpu_count() or 1)
        #: Weight MACs per sample, by sample shape (the work rule's input).
        self._macs: dict[tuple[int, ...], int] = {}
        # Capture the construction-time default backend now: the pool is
        # created lazily, possibly after the creating use_backend scope
        # has exited, and the documented contract is that workers inherit
        # the scope the engine was *built* in.
        self._worker_initializer = inherit_default_backend()
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def _ensure_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=max(1, self._max_shards - 1),
                    thread_name_prefix="repro-shard",
                    initializer=self._worker_initializer,
                )
            return self._pool

    def shard_count(self, x: np.ndarray, shards: int | None = None) -> int:
        """The number of shards :meth:`run` splits ``x`` into.

        ``shards`` overrides the engine default for this call.  An
        explicit count (per call or from the constructor) above the
        batch's rows is clamped with a :class:`ShardClampWarning`; with
        none, the work rule decides.
        """
        n = len(x)
        if shards is not None and shards < 1:
            raise ValueError("shards must be >= 1")
        if shards is None:
            shards = self.shards
        if shards is None:
            return self._work_shards(n, x.shape[1:])
        if shards > 1 and not self.plan.row_independent:
            raise ValueError("plan couples samples; cannot shard")
        if shards > n > 0:
            # More shards than rows cannot be honoured.  Clamp loudly
            # (structured warning) instead of silently degrading.
            warnings.warn(ShardClampWarning(shards, n, n), stacklevel=3)
        return max(1, min(shards, n))

    def _work_shards(self, n: int, sample_shape: tuple[int, ...]) -> int:
        """``min(cpu_count, n, n * macs // SHARD_MIN_MACS)``, at least 1."""
        if not self.plan.row_independent:
            return 1
        macs = self._macs.get(sample_shape)
        if macs is None:
            macs = self._macs[sample_shape] = self.plan.macs_per_sample(sample_shape)
        return max(1, min(os.cpu_count() or 1, n, n * macs // SHARD_MIN_MACS))

    def run(self, x: np.ndarray, shards: int | None = None) -> np.ndarray:
        """Plan output for the full batch ``x``; byte-identical at any shard count.

        ``shards`` overrides the engine default for this call (see
        :meth:`shard_count`).  Shard 0 runs in the calling thread while
        the pool runs the others.
        """
        x = np.asarray(x, dtype=np.float32)
        count = self.shard_count(x, shards)
        if count == 1:
            return self.plan.execute(x)
        pool = self._ensure_pool()
        bounds = np.linspace(0, len(x), count + 1, dtype=int)
        futures = [
            pool.submit(self.plan.execute, x[i0:i1])
            for i0, i1 in zip(bounds[1:-1], bounds[2:])
        ]
        try:
            head = self.plan.execute(x[: bounds[1]])
        except BaseException:
            concurrent.futures.wait(futures)
            raise
        return np.concatenate([head, *(f.result() for f in futures)], axis=0)

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self) -> "BatchEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
