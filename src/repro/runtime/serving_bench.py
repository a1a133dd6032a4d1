"""Serving benchmark engine shared by the CLI and the perf harness.

Three entry points wire the runtime stack together and return JSON-ready
reports:

* :func:`serving_benchmark` — the single-process path: model zoo build,
  backend selection, plan compilation, shard-parallel engine,
  micro-batching server, **closed-loop** load generator (each client
  waits for its response before sending the next, so offered load
  self-regulates to capacity).  ``python -m repro serve-bench`` renders
  it; ``benchmarks/perf/bench_perf.py`` embeds it in ``BENCH_perf.json``
  under ``serving``.

* :func:`open_loop_fleet_benchmark` — the fleet path: stand up a
  multi-process :class:`~repro.runtime.fleet.FleetServer` and drive it
  with **open-loop Poisson arrivals** (:func:`generate_trace` with no
  bursts) at a configured multiple of the measured closed-loop rate (or
  an explicit request rate).  Open-loop clients do *not* wait —
  arrivals keep coming however slow the system gets — which is what
  exposes saturation behaviour: queue growth, shed-load admission
  decisions, and the p50/p99/p999 latency tail.  Reported goodput
  counts only requests completed within the SLA, and the report carries
  the fleet's no-silent-drop invariant (every accepted request
  resolved).  ``python -m repro fleet-bench`` renders it; the perf
  harness embeds it under ``fleet``.

* :func:`replay_trace_benchmark` — one Poisson+burst trace against a
  static and a cost-model fleet, byte parity asserted between the arms.

Both fleet benches submit through one open-loop submission loop, :func:`_drive`.
"""

from __future__ import annotations

import hashlib
import threading
import time

import numpy as np

from ..nn.models import model_input_shape, model_zoo
from .engine import BatchEngine
from .fleet import FleetServer, ShedLoadError, resolve_backend, snapshot_model
from .plan import compile_plan, plan_tiers
from .server import InferenceServer, run_load

__all__ = [
    "serving_benchmark",
    "open_loop_fleet_benchmark",
    "replay_trace_benchmark",
    "generate_trace",
]


def _request_pools(
    models: list[str], request_samples: int, seed: int
) -> dict[str, list[np.ndarray]]:
    """Pre-generated request batches per model, in its input geometry."""
    rng = np.random.default_rng(seed)
    pools = {}
    for name in models:
        shape = (request_samples, *model_input_shape(name))
        pools[name] = [rng.standard_normal(shape).astype(np.float32) for _ in range(8)]
    return pools


def _bench_policy(
    model: str,
    policy: str,
    sla_ms: float | None,
    max_batch: int,
    max_delay_ms: float,
    seed: int,
    target_sps: float | None = None,
):
    """Cost-model policy for one bench deployment; ``None`` for static.

    ``target_sps`` is the model's share of the offered load — the policy
    sizes the deployment's worker count to cover it.
    """
    if policy not in ("static", "cost_model"):
        raise ValueError(f"unknown policy {policy!r} (static / cost_model)")
    if policy == "static":
        return None
    from .scheduler import policy_for_model

    return policy_for_model(
        model,
        mode=policy,
        sla_ms=sla_ms,
        max_batch=max_batch,
        max_delay_ms=max_delay_ms,
        target_sps=target_sps,
        seed=seed,
    )


def serving_benchmark(
    model: str = "lenet",
    backend: str = "daism",
    kernel: str | None = None,
    clients: int = 4,
    duration_s: float = 1.0,
    request_samples: int = 4,
    max_batch: int = 64,
    max_delay_ms: float = 2.0,
    shards: int = 1,
    policy: str = "static",
    sla_ms: float | None = None,
    seed: int = 0,
) -> dict:
    """Stand up the serving stack and measure it under closed-loop load.

    Each client cycles through a pool of pre-generated requests
    (``request_samples`` images each) so measurement excludes input
    synthesis.  ``policy="cost_model"`` attaches a
    :class:`~repro.runtime.scheduler.SchedulingPolicy` to the server
    (adaptive batch/delay, targeting ``sla_ms`` when given);
    ``"static"`` keeps the configured knobs.
    Returns a dict with the configuration echoed back and a ``load``
    section carrying the :class:`~repro.runtime.server.LoadReport`
    figures (p50/p99/mean latency in ms, samples/sec, mean coalesced
    micro-batch size).
    """
    try:
        module = model_zoo()[model]
    except KeyError as exc:
        raise ValueError(f"unknown model {model!r}; zoo: {sorted(model_zoo())}") from exc
    module.eval()
    resolved = resolve_backend(backend, kernel)
    plan = compile_plan(module, resolved)
    policy_obj = _bench_policy(model, policy, sla_ms, max_batch, max_delay_ms, seed)
    pool = _request_pools([model], request_samples, seed)[model]

    engine = BatchEngine(plan, shards=shards)
    with InferenceServer(
        engine, max_batch=max_batch, max_delay_ms=max_delay_ms, policy=policy_obj
    ) as server:
        load = run_load(
            server,
            make_request=lambda cid, i: pool[(cid + i) % len(pool)],
            clients=clients,
            duration_s=duration_s,
        )
    return {
        "model": model,
        "backend": resolved.name,
        "kernel": kernel or "default",
        "plan_kernels": plan_tiers(plan),
        "plan_ops": len(plan.ops),
        "shards": shards,
        "max_batch": max_batch,
        "max_delay_ms": max_delay_ms,
        "policy": policy,
        "sla_ms": sla_ms,
        "request_samples": request_samples,
        "load": load.as_dict(),
    }


def _calibrate(
    model: str,
    backend: str,
    kernel: str | None,
    request_samples: int,
    max_batch: int,
    max_delay_ms: float,
    calibration_s: float,
    seed: int,
) -> dict:
    """A short two-client :func:`serving_benchmark` run: what one process
    sustains when clients wait, the base of a fleet bench's rate and hint."""
    report = serving_benchmark(
        model=model,
        backend=backend,
        kernel=kernel,
        clients=2,
        duration_s=calibration_s,
        request_samples=request_samples,
        max_batch=max_batch,
        max_delay_ms=max_delay_ms,
        seed=seed,
    )
    if not report["load"]["samples_per_s"]:
        raise RuntimeError(f"calibration run for {model!r} served no samples")
    return report


def _drive(
    fleet: FleetServer,
    deployments: dict[str, dict],
    trace: list[dict],
    pools: dict[str, list[np.ndarray]],
    drain_timeout_s: float,
) -> tuple[dict, dict[int, dict], dict]:
    """Register ``deployments`` (model -> ``register`` kwargs), submit
    each ``trace`` event at its offset ``t`` without waiting for replies,
    give every accepted future ``drain_timeout_s`` (one that times out is
    accepted-then-dropped), and close the fleet before reading results.

    Returns ``(summary, results, stats)``: counts, latency percentiles,
    throughput and goodput (samples done within their model's
    ``sla_ms``); per-``rid`` model, latency, samples and output SHA-256;
    and ``fleet.stats()``.
    """
    lock = threading.Lock()
    results: dict[int, dict] = {}
    failed = [0]
    shed = 0
    outstanding: list = []

    def on_done(rid: int, model: str, t_submit: float, n: int):
        def callback(fut):
            latency_ms = (time.perf_counter() - t_submit) * 1e3
            if fut.exception() is not None:
                with lock:
                    failed[0] += 1
                return
            with lock:
                results[rid] = {
                    "model": model,
                    "latency_ms": latency_ms,
                    "samples": n,
                    "output": fut.result(),
                }

        return callback

    try:
        for kwargs in deployments.values():
            fleet.register(**kwargs)
        t_start = time.perf_counter()
        for event in trace:
            delay = event["t"] - (time.perf_counter() - t_start)
            if delay > 0:
                time.sleep(delay)
            pool = pools[event["model"]]
            x = pool[event["rid"] % len(pool)]
            t_submit = time.perf_counter()
            try:
                fut = fleet.submit(event["model"], x)
            except ShedLoadError:
                shed += 1
                continue
            fut.add_done_callback(on_done(event["rid"], event["model"], t_submit, len(x)))
            outstanding.append(fut)
        dropped = 0
        for fut in outstanding:
            try:
                fut.exception(timeout=drain_timeout_s)
            except TimeoutError:
                dropped += 1
        elapsed = time.perf_counter() - t_start
        stats = fleet.stats()
    finally:
        fleet.close(drain=True)

    # A runner still stuck past close's join can yet run a callback:
    # read a snapshot.  Hashed only now: the runner threads that resolve
    # futures run the callbacks, so hashing there would delay the
    # requests behind them.
    with lock:
        done = dict(results)
        n_failed = failed[0]
    for r in done.values():
        output = np.ascontiguousarray(r.pop("output"))
        r["sha256"] = hashlib.sha256(output.tobytes()).hexdigest()
    sla = {name: kwargs["sla_ms"] for name, kwargs in deployments.items()}
    good = sum(r["samples"] for r in done.values() if r["latency_ms"] <= sla[r["model"]])
    served = sum(r["samples"] for r in done.values())
    latencies = np.asarray([r["latency_ms"] for r in done.values()] or [0.0])
    summary = {
        "offered_requests": len(trace),
        "accepted_requests": len(outstanding),
        "shed_requests": shed,
        "completed_requests": len(done),
        "failed_requests": n_failed,
        "accepted_then_dropped": dropped,
        "p50_ms": round(float(np.percentile(latencies, 50)), 3),
        "p99_ms": round(float(np.percentile(latencies, 99)), 3),
        "p999_ms": round(float(np.percentile(latencies, 99.9)), 3),
        "mean_ms": round(float(latencies.mean()), 3),
        "duration_s": round(elapsed, 3),
        "samples_per_s": round(served / elapsed, 1) if elapsed > 0 else 0.0,
        "goodput_samples_per_s": round(good / elapsed, 1) if elapsed > 0 else 0.0,
    }
    return summary, done, stats


def open_loop_fleet_benchmark(
    models: tuple[str, ...] | list[str] = ("lenet",),
    backend: str = "daism",
    kernel: str | None = None,
    workers: int = 2,
    duration_s: float = 1.0,
    rate_rps: float | None = None,
    rate_multiplier: float = 10.0,
    request_samples: int = 4,
    max_batch: int = 64,
    max_delay_ms: float = 2.0,
    max_queue_samples: int = 256,
    sla_ms: float = 50.0,
    calibration_s: float = 0.4,
    drain_timeout_s: float = 30.0,
    shards: int = 1,
    policy: str = "static",
    seed: int = 0,
    start_method: str | None = None,
) -> dict:
    """Open-loop heavy-traffic benchmark against a multi-process fleet.

    A Poisson arrival process (:func:`generate_trace` with no bursts)
    submits requests for ``duration_s`` without ever waiting for
    responses, cycling round-robin across the registered ``models``.
    The offered request rate is ``rate_rps`` if given; otherwise a short
    **closed-loop calibration run** of ``models[0]`` on the
    single-process server measures the baseline rate and the generator
    offers ``rate_multiplier``× that.  The admission controller sheds
    what the fleet cannot absorb; everything accepted must resolve — the
    report's ``accepted_then_dropped`` field counts those that did not.

    Returns a JSON-ready dict: offered/accepted/shed/completed counts,
    p50/p99/p999 latency over completed requests, raw completed
    throughput, **goodput** (samples/s from requests completed within
    ``sla_ms``), and the closed-loop baseline for the speedup ratio.
    """
    models = list(models)
    if not models:
        raise ValueError("need at least one model")
    policies = {
        name: _bench_policy(name, policy, sla_ms, max_batch, max_delay_ms, seed)
        for name in models
    }
    closed_report = _calibrate(
        models[0], backend, kernel, request_samples, max_batch, max_delay_ms,
        calibration_s, seed,
    )
    closed_sps = closed_report["load"]["samples_per_s"]
    offered_rps = (
        rate_rps if rate_rps is not None else closed_sps / request_samples * rate_multiplier
    )
    trace = generate_trace(models, duration_s, offered_rps, burst_multiplier=1.0, seed=seed)
    # SLA-aware admission: once the EWMA service-time predictor says a
    # request cannot complete inside the SLA, it sheds up front
    # (reason="sla_unmeetable") instead of poisoning the queue — this is
    # what keeps goodput near raw throughput under saturation.  Seeding
    # the predictor with the calibrated service time makes admission
    # control live from the first arrival (the EWMA otherwise admits an
    # unbounded burst before its first update).
    deployments = {
        name: {
            "snapshot": snapshot_model(name, backend=backend, kernel=kernel, shards=shards),
            "sla_ms": sla_ms,
            "service_hint_ms_per_sample": 1e3 / closed_sps,
            "policy": policies[name],
        }
        for name in models
    }
    fleet = FleetServer(
        workers=workers,
        max_batch=max_batch,
        max_delay_ms=max_delay_ms,
        max_queue_samples=max_queue_samples,
        start_method=start_method,
    )
    summary, _results, stats = _drive(
        fleet, deployments, trace, _request_pools(models, request_samples, seed),
        drain_timeout_s,
    )
    goodput = summary["goodput_samples_per_s"]
    return {
        "models": models,
        "backend": backend,
        "kernel": kernel or "default",
        "plan_kernels": closed_report["plan_kernels"],
        "workers": workers,
        "request_samples": request_samples,
        "max_batch": max_batch,
        "max_delay_ms": max_delay_ms,
        "max_queue_samples": max_queue_samples,
        "shards": shards,
        "policy": policy,
        "sla_ms": sla_ms,
        "offered_rps": round(offered_rps, 1),
        **summary,
        "worker_restarts": sum(row["worker_restarts"] for row in stats.values()),
        "closed_loop_samples_per_s": closed_sps,
        "goodput_vs_closed_loop_x": round(goodput / closed_sps, 2),
    }

# --------------------------------------------------------------------------
# Trace replay: one deterministic trace, two policies, byte-parity asserted
# --------------------------------------------------------------------------


def generate_trace(
    models: list[str],
    duration_s: float,
    rate_rps: float,
    burst_multiplier: float = 4.0,
    phase_s: float = 0.25,
    seed: int = 0,
) -> list[dict]:
    """Deterministic open-loop arrival trace: Poisson with bursty phases.

    Arrivals follow exponential inter-arrival gaps whose rate alternates
    between ``rate_rps`` (calm phases) and ``rate_rps *
    burst_multiplier`` (burst phases) every ``phase_s`` seconds; models
    are assigned round-robin.  The trace is a pure function of its
    arguments — replaying it under two scheduling policies compares the
    policies, not the workload.
    """
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    rng = np.random.default_rng(seed)
    trace: list[dict] = []
    t = 0.0
    i = 0
    while True:
        rate = rate_rps * (burst_multiplier if int(t / phase_s) % 2 else 1.0)
        t += rng.exponential(1.0 / rate)
        if t >= duration_s:
            return trace
        trace.append({"rid": i, "t": round(t, 6), "model": models[i % len(models)]})
        i += 1


def replay_trace_benchmark(
    models: tuple[str, ...] | list[str] = ("lenet", "vgg_small"),
    backend: str = "daism",
    kernel: str | None = None,
    workers: int = 2,
    duration_s: float = 1.5,
    rate_rps: float | None = None,
    rate_multiplier: float = 3.0,
    burst_multiplier: float = 4.0,
    phase_s: float = 0.25,
    request_samples: int = 4,
    max_batch: int = 64,
    max_delay_ms: float = 2.0,
    max_queue_samples: int = 512,
    sla_ms: float | None = None,
    calibration_s: float = 0.4,
    drain_timeout_s: float = 30.0,
    seed: int = 0,
    start_method: str | None = None,
    strict_parity: bool = True,
) -> dict:
    """Replay one deterministic mixed-model trace under both policies.

    The same Poisson+burst trace (see :func:`generate_trace`) is driven
    against two identically configured fleets — one with today's static
    coalescing knobs, one with the cost-model
    :class:`~repro.runtime.scheduler.SchedulingPolicy` — and the report
    compares goodput (samples from requests completed within the SLA).

    **Byte parity is asserted, not assumed**: every completed request's
    output is SHA-256 hashed, and requests completed under both policies
    must hash identically (scheduling may change *when* work runs, never
    *what* it computes — the bit-exact kernels are batch-invariant, so
    no batch size the policies pick can change a request's bytes).

    ``sla_ms=None`` derives a **per-model** SLA from a per-model
    calibration run — ``1.25 x`` that model's measured service time of
    one full static batch — so the trace exercises genuine SLA pressure
    at any machine speed instead of hard-coding a latency, and a slow
    model (vgg_small runs ~4-5x lenet) is not held to a fast model's
    deadline.  An explicit ``sla_ms`` applies to every model.
    """
    models = list(models)
    if not models:
        raise ValueError("need at least one model")

    closed = {
        name: _calibrate(
            name, backend, kernel, request_samples, max_batch, max_delay_ms,
            calibration_s, seed,
        )
        for name in models
    }
    closed_sps = {name: report["load"]["samples_per_s"] for name, report in closed.items()}
    hint = {name: 1e3 / sps for name, sps in closed_sps.items()}
    sla = {
        name: sla_ms if sla_ms is not None else 1.25 * hint[name] * max_batch
        for name in models
    }
    closed_rps = sum(closed_sps.values()) / len(models) / request_samples
    offered_rps = rate_rps if rate_rps is not None else closed_rps * rate_multiplier

    trace = generate_trace(
        models, duration_s, offered_rps, burst_multiplier, phase_s, seed
    )
    if not trace:
        raise RuntimeError("empty trace; raise duration_s or the offered rate")
    pools = _request_pools(models, request_samples, seed)

    # Each model's share of the offered sample rate over the whole trace
    # (bursts included): the cost-model policy sizes its worker pool to
    # cover this — static deployments keep the configured worker count.
    offered_sps_per_model = (
        len(trace) * request_samples / duration_s / len(models)
    )

    def replay_once(mode: str) -> tuple[dict, dict]:
        deployments = {
            name: {
                "snapshot": snapshot_model(name, backend=backend, kernel=kernel),
                "sla_ms": sla[name],
                "service_hint_ms_per_sample": hint[name],
                "policy": _bench_policy(
                    name, mode, sla[name], max_batch, max_delay_ms, seed,
                    target_sps=offered_sps_per_model,
                ),
            }
            for name in models
        }
        fleet = FleetServer(
            workers=workers,
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            max_queue_samples=max_queue_samples,
            start_method=start_method,
        )
        summary, results, stats = _drive(fleet, deployments, trace, pools, drain_timeout_s)
        report = {
            "policy": mode,
            "workers_per_model": {name: stats[name]["workers"] for name in models},
            **summary,
            "sched_events": sum(stats[name]["sched_events"] for name in models),
        }
        return report, results

    static_report, static_results = replay_once("static")
    cost_report, cost_results = replay_once("cost_model")

    common = sorted(set(static_results) & set(cost_results))
    mismatches = [
        rid
        for rid in common
        if static_results[rid]["sha256"] != cost_results[rid]["sha256"]
    ]
    parity_ok = bool(common) and not mismatches
    if strict_parity and not parity_ok:
        raise AssertionError(
            f"policy byte-parity violated: {len(mismatches)} of {len(common)} "
            f"requests completed under both policies differ "
            f"(first: {mismatches[:5]})"
            if common
            else "policy byte-parity unverifiable: no request completed under both policies"
        )
    static_goodput = static_report["goodput_samples_per_s"]
    cost_goodput = cost_report["goodput_samples_per_s"]
    return {
        "models": models,
        "backend": backend,
        "kernel": kernel or "default",
        "plan_kernels": {name: report["plan_kernels"] for name, report in closed.items()},
        "workers": workers,
        "request_samples": request_samples,
        "max_batch": max_batch,
        "max_delay_ms": max_delay_ms,
        "max_queue_samples": max_queue_samples,
        "sla_ms": {name: round(sla[name], 3) for name in models},
        "closed_loop_samples_per_s": closed_sps,
        "trace": {
            "requests": len(trace),
            "duration_s": duration_s,
            "rate_rps": round(offered_rps, 1),
            "burst_multiplier": burst_multiplier,
            "phase_s": phase_s,
            "seed": seed,
        },
        "static": static_report,
        "cost_model": cost_report,
        "parity": {
            "checked": len(common),
            "mismatches": len(mismatches),
            "ok": parity_ok,
        },
        "goodput_ratio": (
            round(cost_goodput / static_goodput, 3) if static_goodput > 0 else None
        ),
    }
