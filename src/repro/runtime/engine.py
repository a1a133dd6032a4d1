"""Shard-parallel batch execution over a compiled plan.

A :class:`BatchEngine` splits a large batch into contiguous shards along
the sample axis and executes them on a thread pool over one shared
:class:`~repro.runtime.plan.ExecutionPlan`.  Plans are immutable and
thread-safe, and every op is row-independent (sample ``i`` depends only
on sample ``i``), so the result is **byte-identical** to a
single-threaded pass over the whole batch, shard count notwithstanding.

Pool workers are initialised with
:func:`repro.nn.backend.inherit_default_backend`, so an engine created
inside a ``use_backend`` scope propagates that scope's backend to its
workers instead of silently falling back to exact float32 (plans resolve
their arithmetic at compile time and never consult the default, but any
user code running on the same pool — and the invariant itself — should
hold).

Plans that contain a batch-coupled strategy (e.g. the block-floating-
point backend, whose shared exponent spans the whole operand) report
``row_independent=False`` and are rejected for ``shards > 1``.

A note on the BLAS-backed strategies (exact / quantised-dense /
``blas_factored``): their per-row bits additionally rely on the BLAS
library computing each output row identically regardless of how many
rows the call carries.  That holds for the row counts real shards see
(and is covered by the parity tests), but BLAS may switch kernels for
degenerate few-row GEMMs — one reason ``min_shard_samples`` keeps
shards from becoming slivers.  The packed table kernels are
shard-stable by construction.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
import warnings

import numpy as np

from ..nn.backend import inherit_default_backend
from .plan import ExecutionPlan

__all__ = ["BatchEngine", "ShardClampWarning"]


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
        Default shard count for :meth:`run`; ``None`` uses the CPU
        count.  ``1`` executes inline with no pool at all.
    min_shard_samples:
        Batches are never split below this many samples per shard —
        tiny shards cost more in dispatch than they recover in
        parallelism.
    policy:
        Optional :class:`~repro.runtime.scheduler.SchedulingPolicy`.
        When set, calls without an explicit ``shards`` override ask the
        policy for a shard count from its cost-model amortisation curve
        (each shard re-pays the first-image latency); the engine's
        ``shards`` becomes the ceiling.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        shards: int | None = None,
        min_shard_samples: int = 8,
        policy=None,
    ):
        if shards is not None and shards < 1:
            raise ValueError("shards must be >= 1")
        self.plan = plan
        self.shards = shards if shards is not None else (os.cpu_count() or 1)
        if self.shards > 1 and not plan.row_independent:
            raise ValueError(
                f"plan over backend {plan.backend_name!r} couples samples "
                "(row_independent=False); shard-parallel execution would "
                "change results — use shards=1"
            )
        self.min_shard_samples = max(1, int(min_shard_samples))
        self.policy = policy
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
                    max_workers=self.shards,
                    thread_name_prefix="repro-shard",
                    initializer=self._worker_initializer,
                )
            return self._pool

    def run(self, x: np.ndarray, shards: int | None = None) -> np.ndarray:
        """Plan output for the full batch ``x``; byte-identical at any shard count.

        ``shards`` overrides the engine default for this call.  The
        effective count is clamped so every shard holds at least
        ``min_shard_samples`` samples.
        """
        x = np.asarray(x, dtype=np.float32)
        n = len(x)
        if shards is not None and shards < 1:
            raise ValueError("shards must be >= 1")
        if shards is None and self.policy is not None:
            want = self.policy.shard_decision(n, self.shards)
        else:
            want = self.shards if shards is None else int(shards)
        if want > 1 and not self.plan.row_independent:
            raise ValueError("plan couples samples; cannot shard")
        if want > n > 0:
            # Validate up front: more shards than rows cannot be
            # honoured.  Clamp loudly (structured warning) instead of
            # silently degrading.
            warnings.warn(ShardClampWarning(want, n, n), stacklevel=2)
            want = n
        effective = max(1, min(want, n // self.min_shard_samples or 1))
        if effective == 1:
            return self.plan.execute(x)
        pool = self._ensure_pool()
        bounds = np.linspace(0, n, effective + 1, dtype=int)
        futures = [
            pool.submit(self.plan.execute, x[i0:i1])
            for i0, i1 in zip(bounds[:-1], bounds[1:])
        ]
        return np.concatenate([f.result() for f in futures], axis=0)

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
