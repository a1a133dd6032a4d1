"""Compiled inference runtime: plans, shard-parallel batches, serving.

The eager :mod:`repro.nn` stack dispatches every layer through Python
per call — backend lookup, prepared-weight cache probe, container
recursion.  This package compiles a model once and runs it hot:

* :func:`compile_plan` captures any module tree into an
  :class:`ExecutionPlan` — a flat op list with pre-resolved GEMM
  kernels and pre-packed weights (zero lookups / ``prepare()`` calls at
  steady state), byte-identical to the eager eval-mode forward;
* :class:`BatchEngine` executes one plan shard-parallel across a
  thread pool with byte-identical outputs to a single-threaded pass;
* :class:`InferenceServer` queues requests, coalesces them into
  micro-batches under a latency budget (the reusable
  :class:`MicroBatcher`), and serves them from a shared plan;
  :func:`run_load` measures it closed-loop (p50/p99, samples/sec — the
  ``serve-bench`` CLI and perf-harness engine);
* :class:`FleetServer` scales the same contract across **worker
  processes**: each worker rebuilds its plan from a
  :class:`ModelSnapshot` (``nn/serialize`` state bytes, byte-identical
  by construction — :func:`plan_digest` proves it), a per-model
  admission controller sheds overload with structured
  :class:`ShedLoadError` rejections, and crashed workers restart
  without dropping accepted futures (:class:`WorkerCrashError` after
  retries).  :mod:`~repro.runtime.frontend` puts a TCP socket in front;
  ``fleet-bench`` drives it with open-loop Poisson traffic.

Quick start::

    from repro.nn.models import build_lenet
    from repro.nn.backend import daism_backend
    from repro.core.config import PC3_TR
    from repro.runtime import compile_plan

    plan = compile_plan(build_lenet(), daism_backend(PC3_TR))
    logits = plan(images)          # == model.eval()(images), bit for bit
"""

from .engine import BatchEngine
from .fleet import (
    DeadlineExceededError,
    FleetServer,
    ModelSnapshot,
    ShedLoadError,
    WorkerCrashError,
    plan_digest,
    rebuild_plan,
    resolve_backend,
    snapshot_model,
)
from .ops import ExecContext, OpSpec, PlanOp
from .plan import ExecutionPlan, compile_plan, conv_workload, plan_tiers, trace
from .server import InferenceServer, LoadReport, MicroBatcher, Request, run_load

__all__ = [
    "BatchEngine",
    "DeadlineExceededError",
    "ExecContext",
    "ExecutionPlan",
    "FleetServer",
    "InferenceServer",
    "LoadReport",
    "MicroBatcher",
    "ModelSnapshot",
    "OpSpec",
    "PlanOp",
    "Request",
    "ShedLoadError",
    "WorkerCrashError",
    "compile_plan",
    "conv_workload",
    "plan_digest",
    "plan_tiers",
    "rebuild_plan",
    "resolve_backend",
    "run_load",
    "snapshot_model",
    "trace",
]
