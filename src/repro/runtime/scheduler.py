"""Cost-model-driven serving scheduler: the co-sim in the serving loop.

The paper's claim is that the DAISM cost models predict latency and
energy well enough to steer design choices.  This module turns that
claim into the *serving* scheduler: the same ``arch/`` tables that rank
accelerator designs offline now pick micro-batch size and worker count
online.

Prediction → correction → decision
----------------------------------

* **Prediction** — :class:`CostSurface` builds a per-model latency
  surface from the architecture models alone: the layer list comes from
  :func:`~repro.runtime.plan.conv_workload` (the same traced shapes the
  co-sim parity tests lock), the accelerator design is chosen
  deterministically from :func:`~repro.arch.dse.evaluate_grid`'s Pareto
  front, and the batch-amortisation curve is
  :meth:`~repro.arch.network_runner.NetworkReport.batch_cycles`: the
  first image pays the busiest-bank latency, every further image the
  steady rate.  No hand-tuned latency constants enter the serving path
  — every predicted number is ``cycles / clock``.

* **Correction** — model cycles are accelerator time, not wall time on
  this host.  :meth:`SchedulingPolicy.observe` folds measured per-batch
  service times into a single multiplicative EWMA correction factor
  (``measured / predicted``): the existing reactive EWMA becomes the
  correction term *on top of* the model instead of the whole estimate,
  so one observation at one batch size calibrates the entire
  amortisation curve.

* **Decision** — :meth:`SchedulingPolicy.batch_decision` (the
  micro-batch ceiling under the SLA) and
  :meth:`SchedulingPolicy.worker_count` (per-model fleet sizing for a
  target rate).  The cost model never waits: a free worker's pull takes
  what is queued now, so under load the backlog that builds while every
  worker is busy forms the batch.  ``max_delay_ms`` is the static
  mode's coalescing knob.  Shard counts are not a policy decision: the engine's
  work rule (:data:`~repro.runtime.engine.SHARD_MIN_MACS`) sets them.
  Decisions are pure functions of the
  surface, the correction factor and the configured knobs, hence
  deterministic under a fixed seed; every decision and every correction
  update is a record in the process event journal (:mod:`repro.journal`),
  shown by ``policy.events()`` and by ``fleet.events()`` of its fleet.
"""

from __future__ import annotations

import dataclasses
import math
import os
import threading

from .. import journal
from ..arch.dse import DEFAULT_BANK_KB, DEFAULT_BANKS
from ..arch.network_runner import run_network
from ..arch.workloads import ConvLayer

__all__ = [
    "BatchDecision",
    "CostSurface",
    "SchedulingPolicy",
    "policy_for_model",
    "POLICY_MODES",
]

#: The two policy modes every serving entry point accepts.
POLICY_MODES = ("static", "cost_model")


def _workload_layers(model: str) -> list[ConvLayer]:
    """The traced GEMM geometry for a zoo model (single source of shapes)."""
    from ..nn.models import model_input_shape, model_zoo
    from .plan import conv_workload, cosim_shape

    try:
        module = model_zoo()[model]
    except KeyError as exc:
        raise ValueError(
            f"unknown model {model!r}; zoo: {sorted(model_zoo())}"
        ) from exc
    return conv_workload(module, cosim_shape(model_input_shape(model)))


@dataclasses.dataclass(frozen=True)
class CostSurface:
    """Per-model latency/energy surface derived from the ``arch/`` models.

    ``first_cycles`` / ``steady_cycles`` are the whole-network totals of
    :class:`~repro.arch.network_runner.NetworkReport`; the amortisation
    curve is exactly the co-sim's ``batch_cycles``.  ``design`` names
    the DSE grid point the surface was evaluated on.
    """

    model: str
    design: str
    clock_hz: float
    first_cycles: int
    steady_cycles: int
    energy_uj_per_sample: float

    @classmethod
    def from_zoo(
        cls,
        model: str,
        banks_grid: tuple[int, ...] = DEFAULT_BANKS,
        bank_kb_grid: tuple[int, ...] = DEFAULT_BANK_KB,
        design: "DaismDesign | None" = None,
    ) -> "CostSurface":
        """Build the surface for a zoo model.

        Without an explicit ``design``, the DSE grid is evaluated on the
        model's traced workload and the fastest Pareto-front point wins
        (deterministic: grid order is banks-major, ties broken by area).
        """
        from ..arch.daism import DaismDesign
        from ..arch.dse import evaluate_grid

        layers = _workload_layers(model)
        if design is None:
            rows = evaluate_grid(layers, banks_grid, bank_kb_grid)
            front = [r for r in rows if r["pareto"]] or rows
            chosen = min(front, key=lambda r: (r["cycles"], r["area [mm2]"]))
            design = DaismDesign(banks=chosen["banks"], bank_kb=chosen["bank_kb"])
        report = run_network(design, layers)
        return cls(
            model=model,
            design=f"{design.banks}x{design.bank_kb}kB",
            clock_hz=design.clock_hz,
            first_cycles=report.total_cycles,
            steady_cycles=report.total_steady_cycles,
            energy_uj_per_sample=report.total_energy_uj,
        )

    def batch_cycles(self, batch: int) -> int:
        """Co-sim batch amortisation: first image full, rest steady."""
        return self.first_cycles + (max(1, batch) - 1) * self.steady_cycles

    def model_ms_per_sample(self, batch: int) -> float:
        """Predicted accelerator milliseconds per sample at ``batch``."""
        batch = max(1, batch)
        return self.batch_cycles(batch) / batch / self.clock_hz * 1e3


@dataclasses.dataclass(frozen=True)
class BatchDecision:
    """One micro-batch decision: the knobs and why."""

    max_batch: int
    max_delay_ms: float
    reason: str


# Process-wide surface cache: surfaces are pure functions of the model
# name and grid, and evaluating the DSE grid is the expensive part.
_SURFACES: dict[tuple, CostSurface] = {}
_SURFACES_LOCK = threading.Lock()


def _cached_surface(model: str) -> CostSurface:
    key = (model, DEFAULT_BANKS, DEFAULT_BANK_KB)
    with _SURFACES_LOCK:
        cached = _SURFACES.get(key)
    if cached is not None:
        return cached
    surface = CostSurface.from_zoo(model)
    with _SURFACES_LOCK:
        return _SURFACES.setdefault(key, surface)


class SchedulingPolicy:
    """One scheduling policy: prediction x correction -> decisions.

    Parameters
    ----------
    surface:
        The model's :class:`CostSurface`.
    mode:
        ``"cost_model"`` makes decisions from the surface;
        ``"static"`` always returns the configured knobs unchanged (the
        baseline the BENCH ``scheduling`` section compares against) —
        both modes share this one class so benches swap a string, not a
        code path.
    sla_ms:
        Latency SLA the decisions target (``None``: throughput-greedy).
    max_batch / max_delay_ms:
        The static knobs; the adaptive batch never exceeds
        ``max_batch``.  ``max_delay_ms`` is the static mode's coalescing
        delay only: cost-model decisions never wait.  Any batch size
        serves the same bytes: the bit-exact kernels are
        batch-invariant.
    target_sps:
        Optional offered load (samples/s) for worker sizing.
    seed:
        Recorded in every event; decisions are deterministic given the
        same observations, so replaying a seeded trace replays the
        decisions.

    Decision and correction events go to the process event journal
    through :attr:`journal`; a fleet attaching the policy becomes their owner.
    """

    #: EWMA weight of a new correction observation (matches the fleet's
    #: reactive service-time EWMA it replaces).
    ALPHA = 0.2
    #: Fraction of the SLA budgeted to one batch's service time; the
    #: rest absorbs queueing and dispatch overhead.  The cost model
    #: spends none of it on a coalescing delay.
    SLA_SERVICE_FRACTION = 0.5
    #: Relative correction change that triggers a fresh event (bounds
    #: event volume without hiding drift).
    EVENT_DRIFT = 0.1

    def __init__(
        self,
        surface: CostSurface,
        mode: str = "cost_model",
        sla_ms: float | None = None,
        max_batch: int = 64,
        max_delay_ms: float = 2.0,
        target_sps: float | None = None,
        seed: int = 0,
    ):
        if mode not in POLICY_MODES:
            raise ValueError(f"unknown policy mode {mode!r}; one of {POLICY_MODES}")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.surface = surface
        self.mode = mode
        self.sla_ms = sla_ms
        self.max_batch = int(max_batch)
        self.max_delay_ms = float(max_delay_ms)
        self.target_sps = target_sps
        self.seed = int(seed)
        self.journal = journal.Channel("scheduler")
        self._lock = threading.Lock()
        self._correction: float | None = None
        self._last_emitted_correction: float | None = None
        self._last_batch_decision: BatchDecision | None = None

    # -- correction (the online EWMA term) --------------------------------

    @property
    def correction(self) -> float | None:
        """Current measured/predicted EWMA ratio (``None`` until seeded)."""
        with self._lock:
            return self._correction

    def observe(self, samples: int, elapsed_ms: float) -> float:
        """Fold one measured batch service time into the correction EWMA.

        Returns the updated correction factor.  The ratio is taken
        against the *model's* prediction at the observed batch size, so
        the correction stays a pure calibration term and the
        amortisation shape keeps coming from the cost model.
        """
        predicted = self.surface.model_ms_per_sample(samples)
        ratio = (elapsed_ms / max(1, samples)) / predicted if predicted > 0 else 1.0
        with self._lock:
            if self._correction is None:
                self._correction = ratio
            else:
                self._correction = self.ALPHA * ratio + (1 - self.ALPHA) * self._correction
            current = self._correction
            last = self._last_emitted_correction
            drifted = last is None or abs(current - last) > self.EVENT_DRIFT * last
            if drifted:
                self._last_emitted_correction = current
        if drifted:
            self._emit(
                "sched_correction",
                correction=round(current, 4),
                observed_batch=int(samples),
                observed_ms_per_sample=round(elapsed_ms / max(1, samples), 4),
            )
        return current

    def seed_correction(self, samples: int, elapsed_ms: float) -> float:
        """Warm-start the correction from one probe measurement."""
        predicted = self.surface.model_ms_per_sample(samples)
        ratio = (elapsed_ms / max(1, samples)) / predicted if predicted > 0 else 1.0
        with self._lock:
            self._correction = ratio
            self._last_emitted_correction = ratio
        self._emit(
            "sched_warm_start",
            correction=round(ratio, 4),
            probe_batch=int(samples),
            probe_ms=round(elapsed_ms, 4),
        )
        return ratio

    def predicted_ms_per_sample(self, batch: int) -> float | None:
        """Model prediction x correction; ``None`` while uncalibrated."""
        correction = self.correction
        if correction is None:
            return None
        return self.surface.model_ms_per_sample(batch) * correction

    def predicted_batch_ms(self, batch: int) -> float | None:
        """Corrected service time of one whole ``batch``-sample dispatch."""
        per_sample = self.predicted_ms_per_sample(batch)
        return None if per_sample is None else per_sample * max(1, batch)

    def admission_ms_per_sample(self, pending_samples: int) -> float | None:
        """Per-sample estimate for admission control.

        A backlog of ``pending_samples`` drains at the batch size it will
        actually be served at — amortised batches up to the cap (the
        ``backlog_drain`` rule), never at the cold batch-1 rate.  Quoting
        the batch-1 per-sample cost (which carries the whole first-image
        latency) would overstate drain time by the amortisation ratio and
        shed traffic the fleet could comfortably serve.
        """
        batch = max(1, min(self.max_batch, int(pending_samples)))
        return self.predicted_ms_per_sample(batch)

    # -- decisions ---------------------------------------------------------

    def _candidates(self) -> list[int]:
        cap = self.max_batch
        sizes = []
        b = 1
        while b < cap:
            sizes.append(b)
            b *= 2
        sizes.append(cap)
        return sizes

    def batch_decision(self, pending_samples: int = 0) -> BatchDecision:
        """Pick the micro-batch ceiling and coalescing delay for one pull.

        Static mode returns the configured knobs.  Cost-model mode picks
        the largest candidate batch whose corrected service time fits
        ``SLA_SERVICE_FRACTION`` of the SLA (amortisation makes larger
        batches strictly better per sample, so the largest feasible one
        maximises goodput), or ``max_batch`` for a backlog at the cap or
        an infeasible SLA, and is work-conserving: its delay is always
        zero, so a free worker takes what is queued now.
        """
        decision = self._choose_batch(pending_samples)
        with self._lock:
            last = self._last_batch_decision
            changed = (
                last is None
                or last.max_batch != decision.max_batch
                or last.reason != decision.reason
            )
            if changed:
                self._last_batch_decision = decision
        if changed:
            self._emit(
                "sched_batch_decision",
                policy=self.mode,
                max_batch=decision.max_batch,
                max_delay_ms=round(decision.max_delay_ms, 4),
                pending_samples=int(pending_samples),
                reason=decision.reason,
            )
        return decision

    def _choose_batch(self, pending_samples: int) -> BatchDecision:
        if self.mode == "static":
            return BatchDecision(self.max_batch, self.max_delay_ms, "static")
        cap = self.max_batch
        if self.correction is None:
            # Uncalibrated: serve at the cap until the first observation
            # lands.
            return BatchDecision(cap, 0.0, "cold")
        if self.sla_ms is None:
            return BatchDecision(cap, 0.0, "no_sla_throughput_greedy")
        if pending_samples >= cap:
            # Backlog already exceeds a full batch: every queued request
            # is latency-bound on drain time, so amortisation (largest
            # batch) is also the goodput-optimal choice.
            return BatchDecision(cap, 0.0, "backlog_drain")
        budget_ms = self.sla_ms * self.SLA_SERVICE_FRACTION
        fits = [b for b in self._candidates() if self.predicted_batch_ms(b) <= budget_ms]
        if not fits:
            # Even one sample misses the budget: the SLA is infeasible at
            # the current corrected speed, so drain at the amortised cap —
            # smaller batches would only slow the drain further.
            # Shedding is admission's job.
            return BatchDecision(cap, 0.0, "sla_infeasible_drain")
        return BatchDecision(fits[-1], 0.0, "sla_batch_fit")

    def worker_count(self, default_workers: int, max_workers: int | None = None) -> int:
        """Per-model fleet sizing from the corrected throughput prediction.

        With a ``target_sps`` offered load and a calibrated correction,
        the worker count is the smallest one whose aggregate corrected
        steady-state throughput covers the target; otherwise the
        configured default stands.  The ceiling never exceeds the host's
        CPU count — worker processes beyond the cores add no capacity,
        only contention: every measured service time inflates, which
        would ratchet the correction EWMA upward and poison admission
        for the whole deployment.  On an oversubscribed host this
        legitimately sizes *below* the configured default.
        """
        ceiling = max_workers if max_workers is not None else max(default_workers, 4)
        ceiling = max(1, min(ceiling, os.cpu_count() or 1))
        if self.mode == "static" or self.target_sps is None:
            return default_workers
        per_sample_ms = self.predicted_ms_per_sample(self.max_batch)
        if per_sample_ms is None or per_sample_ms <= 0:
            return default_workers
        capacity_per_worker = 1e3 / per_sample_ms  # samples/s at the cap
        needed = math.ceil(self.target_sps / capacity_per_worker)
        workers = max(1, min(ceiling, needed))
        self._emit(
            "sched_worker_sizing",
            workers=workers,
            default_workers=default_workers,
            cpu_count=os.cpu_count() or 1,
            target_sps=round(self.target_sps, 1),
            worker_capacity_sps=round(capacity_per_worker, 1),
        )
        return workers

    # -- events ------------------------------------------------------------

    def _emit(self, event: str, **fields) -> None:
        self.journal.record(event, model=self.surface.model, **fields, seed=self.seed)

    def events(self) -> list[dict]:
        """This policy's decision and correction records still in the journal."""
        return self.journal.events()

    def describe(self) -> dict:
        """JSON-ready snapshot of the surface, knobs and correction."""
        return {
            "model": self.surface.model,
            "mode": self.mode,
            "design": self.surface.design,
            "clock_hz": self.surface.clock_hz,
            "first_cycles": self.surface.first_cycles,
            "steady_cycles": self.surface.steady_cycles,
            "energy_uj_per_sample": round(self.surface.energy_uj_per_sample, 3),
            "sla_ms": self.sla_ms,
            "max_batch": self.max_batch,
            "max_delay_ms": self.max_delay_ms,
            "correction": self.correction,
            "seed": self.seed,
        }


def policy_for_model(
    model: str,
    mode: str = "cost_model",
    sla_ms: float | None = None,
    max_batch: int = 64,
    max_delay_ms: float = 2.0,
    target_sps: float | None = None,
    seed: int = 0,
) -> SchedulingPolicy:
    """Build a :class:`SchedulingPolicy` for a zoo model.

    The cost surface is cached per process (it is a pure function of
    the model's traced geometry and the DSE grid).
    """
    return SchedulingPolicy(
        _cached_surface(model),
        mode=mode,
        sla_ms=sla_ms,
        max_batch=max_batch,
        max_delay_ms=max_delay_ms,
        target_sps=target_sps,
        seed=seed,
    )
