"""Scheduling experiment (``trace_replay``): the co-sim in the serving loop.

One deterministic Poisson+burst arrival trace
(:func:`repro.runtime.serving_bench.generate_trace`) is replayed through
an analytic discrete-event simulation of the serving loop — coalescing
micro-batcher, SLA admission control, one accelerator — where service
time and energy come from the same :class:`~repro.runtime.scheduler.CostSurface`
the online scheduler uses (``batch_cycles`` / ``clock_hz``; no wall
clock anywhere, so the rows are bit-reproducible).  Every DSE grid
design serves the trace twice — once under today's static knobs, once
under the cost-model :class:`~repro.runtime.scheduler.SchedulingPolicy`
— and each policy arm's designs are Pareto-marked on
(p99 latency, energy per good sample, goodput).

The simulation runs in-process because the experiment engine's pool
workers are daemonic and cannot fork a real worker fleet; the live
counterpart of this experiment is ``python -m repro trace-replay``
(:func:`repro.runtime.serving_bench.replay_trace_benchmark`), which
drives actual processes and additionally asserts per-request byte
parity between the two arms.  Here the correction EWMA is seeded to
exactly 1 (simulated time *is* model time), so the rows isolate the
decision logic from host calibration.

Offered load, SLA and phase length all derive from the design's own
full-batch capacity (``stress`` x capacity, ``1.25`` x full-batch
service, ``duration / 8``), so every design is equally stressed and the
comparison is scale-free across clock rates and grid points.
"""

from __future__ import annotations

from ..registry import Experiment, register

__all__ = ["trace_replay_point"]


def _percentile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(q * len(sorted_vals)))
    return sorted_vals[idx]


def _simulate_arm(surface, policy, trace, request_samples: int, sla_ms: float) -> dict:
    """Discrete-event replay of one trace under one policy arm.

    Single accelerator, FIFO coalescing up to the policy's batch
    decision, SLA admission identical in shape to the fleet's
    (``wait + pending x per-sample estimate``).  Returns latency,
    shed/goodput counts and energy for the arm.
    """
    R = request_samples

    def ms_batch(samples: int) -> float:
        return surface.batch_cycles(samples) / surface.clock_hz * 1e3

    arrivals = [e["t"] * 1e3 for e in trace]  # ms timeline
    n = len(arrivals)
    free_at = 0.0
    pending: list[float] = []  # arrival times of accepted, waiting requests
    lats: list[float] = []
    shed = 0
    energy_uj = 0.0
    i = 0

    def admit(t_a: float) -> None:
        nonlocal shed
        est = policy.admission_ms_per_sample((len(pending) + 1) * R)
        waited = max(free_at - t_a, 0.0)
        predicted = waited + (len(pending) + 1) * R * (est or 0.0)
        if predicted > sla_ms:
            shed += 1
        else:
            pending.append(t_a)

    while i < n or pending:
        if not pending:
            admit(arrivals[i])
            i += 1
            continue
        decision = policy.batch_decision(len(pending) * R)
        cap_req = max(1, decision.max_batch // R)
        if len(pending) >= cap_req:
            t_dispatch = max(free_at, pending[cap_req - 1])
        else:
            t_dispatch = max(free_at, pending[0] + decision.max_delay_ms)
        if i < n and arrivals[i] <= t_dispatch:
            # An arrival lands before the batch would go: admit it first
            # (it may fill the batch and move the dispatch earlier).
            admit(arrivals[i])
            i += 1
            continue
        take = min(len(pending), cap_req)
        batch, pending = pending[:take], pending[take:]
        samples = take * R
        t_end = t_dispatch + ms_batch(samples)
        lats.extend(t_end - t_a for t_a in batch)
        energy_uj += samples * surface.energy_uj_per_sample
        free_at = t_end

    good_requests = sum(1 for latency in lats if latency <= sla_ms)
    lats.sort()
    return {
        "requests": n,
        "accepted": n - shed,
        "shed": shed,
        "good_requests": good_requests,
        "good_samples": good_requests * R,
        "p50_ms": _percentile(lats, 0.50),
        "p99_ms": _percentile(lats, 0.99),
        "energy_uj": energy_uj,
    }


def trace_replay_point(params: dict) -> list[dict]:
    """Static vs cost-model rows for one model across the DSE grid."""
    from ...arch.daism import DaismDesign
    from ...runtime.scheduler import CostSurface, SchedulingPolicy
    from ...runtime.serving_bench import generate_trace

    model = params["model"]
    R = int(params["request_samples"])
    max_batch = int(params["max_batch"])
    stress = float(params["stress"])
    rows: list[dict] = []
    for banks in params["banks_grid"]:
        for bank_kb in params["bank_kb_grid"]:
            design = DaismDesign(banks=banks, bank_kb=bank_kb)
            surface = CostSurface.from_zoo(model, design=design)
            ms_full = surface.batch_cycles(max_batch) / surface.clock_hz * 1e3
            capacity_sps = max_batch / ms_full * 1e3
            offered_rps = stress * capacity_sps / R
            sla_ms = 1.25 * ms_full
            duration_s = params["n_requests"] / offered_rps
            trace = generate_trace(
                [model],
                duration_s,
                offered_rps,
                burst_multiplier=params["burst_multiplier"],
                phase_s=duration_s / 8.0,
                seed=params["seed"],
            )
            for mode in ("static", "cost_model"):
                policy = SchedulingPolicy(
                    surface,
                    mode=mode,
                    sla_ms=sla_ms,
                    max_batch=max_batch,
                    max_delay_ms=params["delay_fraction"] * sla_ms,
                )
                # Simulated time *is* model time: calibration ratio 1.
                policy.seed_correction(
                    max_batch, surface.model_ms_per_sample(max_batch) * max_batch
                )
                arm = _simulate_arm(surface, policy, trace, R, sla_ms)
                good = arm["good_samples"]
                rows.append(
                    {
                        "model": model,
                        "design": f"{banks}x{bank_kb}kB",
                        "banks": banks,
                        "bank_kb": bank_kb,
                        "policy": mode,
                        "sla_ms": round(sla_ms, 4),
                        "offered_rps": round(offered_rps, 1),
                        "requests": arm["requests"],
                        "shed": arm["shed"],
                        "p50_ms": round(arm["p50_ms"], 4),
                        "p99_ms": round(arm["p99_ms"], 4),
                        "goodput_sps": round(good / duration_s, 1),
                        "energy_uj_per_good_sample": (
                            round(arm["energy_uj"] / good, 4) if good else None
                        ),
                        "sched_events": policy.journal.recorded,
                    }
                )
    # Pareto front per policy arm over the design grid:
    # (p99 latency down, energy per good sample down, goodput up).
    for mode in ("static", "cost_model"):
        arm_rows = [
            r
            for r in rows
            if r["policy"] == mode and r["energy_uj_per_good_sample"] is not None
        ]
        for r in rows:
            if r["policy"] != mode:
                continue
            if r["energy_uj_per_good_sample"] is None:
                r["pareto"] = False
                continue
            r["pareto"] = not any(
                o is not r
                and o["p99_ms"] <= r["p99_ms"]
                and o["energy_uj_per_good_sample"] <= r["energy_uj_per_good_sample"]
                and o["goodput_sps"] >= r["goodput_sps"]
                and (
                    o["p99_ms"] < r["p99_ms"]
                    or o["energy_uj_per_good_sample"] < r["energy_uj_per_good_sample"]
                    or o["goodput_sps"] > r["goodput_sps"]
                )
                for o in arm_rows
            )
    return rows


register(
    Experiment(
        name="trace_replay",
        artifact="Extension",
        title="Trace replay: static vs cost-model scheduling across DSE designs",
        description=(
            "Replays one deterministic Poisson+burst trace through a "
            "discrete-event serving simulation whose latency/energy come "
            "from the co-sim cost surface, for every DSE grid design, "
            "under both scheduling policies. Rows carry goodput under a "
            "capacity-derived SLA, p50/p99 latency, energy per good "
            "sample and a per-arm Pareto mark; the live multi-process "
            "counterpart (with byte-parity assertions) is `python -m "
            "repro trace-replay`."
        ),
        run=trace_replay_point,
        space={"model": ("lenet", "mobilenet_edge", "transformer_encoder")},
        defaults={
            "banks_grid": (4, 16, 32),
            "bank_kb_grid": (8, 32),
            "n_requests": 2000,
            "stress": 1.5,
            "burst_multiplier": 4.0,
            "request_samples": 4,
            "max_batch": 16,
            "delay_fraction": 0.25,
            "seed": 0,
        },
        tags=("extension", "runtime", "scheduling"),
        est_seconds=8.0,
    )
)
