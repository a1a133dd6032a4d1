"""Certified tier routing: pick the GEMM tier per (format, config, shape).

The registry (:mod:`repro.core.kernels`) answers "give me this kernel by
name"; this module answers "which kernel *should* run".  Passing
``kernel="auto"`` to ``approx_matmul`` / the backends / ``compile_plan``
delegates the choice to :func:`route_kernel`, which picks between

* the **bit-exact tier** (``float_table``) — always correct, and the right answer for
  tiny problems where fast-path setup overhead dominates; and
* a **certified fast path** (the :data:`FAST_TIERS` ladder:
  ``blas_factored_fast`` with its rank ~1-3 correction, then the full
  ``blas_factored``) — one to two orders of magnitude faster, *not*
  bit-exact, and therefore gated on a certificate: the measured
  Frobenius deviation from the bit-exact tier on a fixed probe GEMM
  must sit well inside the paper's own analytic
  ``worst_case_relative_error`` bound for the config
  (:mod:`repro.core.error_bounds`).  The cheapest certified tier wins;
  a config whose corrections cannot clear the margin never routes off
  the exact tier.

Certification is deterministic (fixed probe, fixed seed) and cached per
process, so routing is a pure function of ``(fmt, config, shape)`` and
the integrity demotions: every process — including fleet workers
rebuilding plans from snapshots — derives the *same* decision, which
keeps cross-process ``plan_digest`` parity intact.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np

from ..formats.floatfmt import FloatFormat
from . import integrity
from .config import MultiplierConfig
from .error_bounds import worst_case_relative_error
from .kernels import (
    GemmKernel,
    exact_tier_name,
    get_kernel,
    select_kernel,
    shape_class,
)
from .tables import table_supported

__all__ = [
    "AUTO_KERNEL",
    "FAST_TIERS",
    "TierCertificate",
    "TierDecision",
    "certify_fast_path",
    "route_decision",
    "route_decision_sla",
    "route_kernel",
]

#: The kernel-name sentinel that turns routing on.  Everywhere a kernel
#: name is plumbed (backends, snapshots, CLIs), ``"auto"`` means "let
#: :func:`route_kernel` decide per op".
AUTO_KERNEL = "auto"

#: Default certification margin: the measured fast-path deviation must
#: be at most this fraction of the analytic worst-case bound.
CERT_MARGIN = 0.25

#: Probe GEMM used to measure fast-path deviation — big enough to be
#: representative, small enough to certify in milliseconds.
CERT_SHAPE = (96, 128, 48)

#: Fast-path candidates in preference order: the cheapest tier first.
#: The router takes the first one whose certificate clears the margin.
FAST_TIERS = ("blas_factored_fast", "blas_factored")


@dataclasses.dataclass(frozen=True)
class TierCertificate:
    """Measured-vs-analytic error evidence for the ``blas_factored`` path.

    Parameters
    ----------
    fmt:
        Operand format name.
    config:
        Multiplier config name.
    shape:
        Probe GEMM shape the deviation was measured on.
    rank:
        Correction rank ``blas_factored`` uses for this pair.
    rel_frobenius_residual:
        Relative Frobenius residual of the truncated correction table.
    measured_rel_error:
        Measured relative Frobenius deviation of the fast path from the
        bit-exact tier on the probe GEMM.
    analytic_bound:
        The paper's ``worst_case_relative_error`` for the config.
    margin:
        Required ``measured <= margin * analytic_bound`` headroom.
    certified:
        Whether the fast path cleared the margin.
    kernel:
        The fast-path kernel the certificate is for (one of
        :data:`FAST_TIERS`).
    """

    fmt: str
    config: str
    shape: tuple[int, int, int]
    rank: int
    rel_frobenius_residual: float
    measured_rel_error: float
    analytic_bound: float
    margin: float
    certified: bool
    kernel: str = "blas_factored"


_CERT_CACHE: dict[tuple, TierCertificate] = {}
_CERT_LOCK = threading.Lock()


def certify_fast_path(
    fmt: FloatFormat,
    config: MultiplierConfig,
    shape: tuple[int, int, int] = CERT_SHAPE,
    seed: int = 0,
    margin: float = CERT_MARGIN,
    kernel: str = "blas_factored",
) -> TierCertificate:
    """Measure a fast-path ``kernel`` against the exact tier and certify it.

    Runs both kernels on a fixed random probe GEMM and compares the
    relative Frobenius deviation to ``margin *
    worst_case_relative_error(config)``.  Deterministic (fixed probe and
    seed) and cached per ``(fmt, config, shape, seed, margin, kernel)``,
    so repeated routing decisions are free and identical across
    processes.
    """
    key = (fmt.name, config.name, tuple(shape), seed, margin, kernel)
    with _CERT_LOCK:
        cached = _CERT_CACHE.get(key)
        if cached is not None:
            return cached
    from ..formats.packed import pack

    m, k, n = shape
    rng = np.random.default_rng(seed)
    pa = pack(rng.standard_normal((m, k)).astype(np.float32), fmt)
    pb = pack(rng.standard_normal((k, n)).astype(np.float32), fmt)
    exact = get_kernel("float_table").run(pa, pb, config)
    fast_kernel = get_kernel(kernel)
    fast = fast_kernel.run(pa, pb, config)
    denom = float(np.linalg.norm(exact)) or 1.0
    measured = float(np.linalg.norm(fast - exact)) / denom
    bound = float(worst_case_relative_error(config, fmt.significand_bits))
    info = fast_kernel.correction_info(fmt, config)
    cert = TierCertificate(
        fmt=fmt.name,
        config=config.name,
        shape=(m, k, n),
        rank=int(info["rank"]),
        rel_frobenius_residual=float(info["rel_frobenius_residual"]),
        measured_rel_error=measured,
        analytic_bound=bound,
        margin=margin,
        certified=measured <= margin * bound,
        kernel=kernel,
    )
    with _CERT_LOCK:
        return _CERT_CACHE.setdefault(key, cert)


@dataclasses.dataclass(frozen=True)
class TierDecision:
    """One routing decision: which kernel, for which class, and why.

    Parameters
    ----------
    kernel:
        Chosen kernel name.
    shape_class:
        The :func:`~repro.core.kernels.shape_class` the decision is for.
    reason:
        Human-readable justification (shown in ``describe()``/benches).
    certificate:
        The :class:`TierCertificate` consulted, if any.
    """

    kernel: str
    shape_class: str
    reason: str
    certificate: TierCertificate | None = None


def _fast_tier_ladder(
    fmt: FloatFormat,
    config: MultiplierConfig | None,
    cls: str,
    hold: str | None,
    pressure: str = "",
) -> TierDecision:
    """The routing steps both policies share, in order.

    Exact-product ops (``config=None``) and untabulated formats stay on
    their bit-exact default, and so does a config the integrity
    subsystem demoted.  A policy that wants the exact tier passes its
    reason as ``hold``.  Otherwise the first :data:`FAST_TIERS`
    candidate :func:`certify_fast_path` certifies wins, falling back to
    the exact tier when none do; ``pressure`` prefixes either reason.
    """
    exact = exact_tier_name(fmt)
    if not table_supported(fmt.significand_bits) or config is None:
        return TierDecision(
            kernel=exact,
            shape_class=cls,
            reason="no certified fast path (exact products or untabulated format)",
        )
    if integrity.is_demoted(fmt, config):
        # Corruption recurred on this config's tables: the integrity
        # subsystem pinned it to the bit-exact path, whatever the policy.
        return TierDecision(
            kernel=exact,
            shape_class=cls,
            reason="integrity demotion: corruption recurred on this config",
        )
    if hold is not None:
        return TierDecision(kernel=exact, shape_class=cls, reason=hold)
    cert = None
    for candidate in FAST_TIERS:
        cert = certify_fast_path(fmt, config, kernel=candidate)
        if cert.certified:
            return TierDecision(
                kernel=candidate,
                shape_class=cls,
                reason=(
                    f"{pressure}certified: measured {cert.measured_rel_error:.2e} "
                    f"<= {cert.margin:g} x analytic bound {cert.analytic_bound:.3g}"
                ),
                certificate=cert,
            )
    return TierDecision(
        kernel=exact,
        shape_class=cls,
        reason=(
            f"{pressure}no fast tier certified, staying bit-exact: best measured "
            f"{cert.measured_rel_error:.2e} > "
            f"{cert.margin:g} x analytic bound {cert.analytic_bound:.3g}"
        ),
        certificate=cert,
    )


def route_decision(
    fmt: FloatFormat,
    config: MultiplierConfig | None = None,
    kernel: str | None = None,
    shape: tuple[int | None, int, int] | None = None,
) -> TierDecision:
    """Decide which kernel ``"auto"`` resolves to for one op.

    Policy, in order: an explicit kernel name (or ``None``) bypasses
    routing entirely; formats without tables, exact-product ops
    (``config=None``) and demoted configs stay on their bit-exact
    default; tiny shapes stay on the gather tier (fast-path setup
    overhead dominates); otherwise the first :data:`FAST_TIERS`
    candidate :func:`certify_fast_path` certifies for the config wins,
    falling back to the exact tier when none do.

    ``shape`` is ``(m, k, n)`` with ``m=None`` allowed (plan compile
    time, batch unknown — classed ``general``).
    """
    cls = shape_class(*shape) if shape is not None else "general"
    if kernel != AUTO_KERNEL:
        found = select_kernel(fmt, config, kernel)
        reason = "explicit kernel" if kernel else "bit-exact default tier"
        return TierDecision(kernel=found.name, shape_class=cls, reason=reason)
    hold = "tiny shape: fast-path setup overhead dominates" if cls == "tiny" else None
    return _fast_tier_ladder(fmt, config, cls, hold)


def route_decision_sla(
    fmt: FloatFormat,
    config: MultiplierConfig | None = None,
    predicted_exact_ms: float | None = None,
    sla_budget_ms: float | None = None,
    shape: tuple[int | None, int, int] | None = None,
) -> TierDecision:
    """SLA-aware tier choice: bit-exact unless it cannot meet the deadline.

    The quality-first inversion of :func:`route_decision`'s fastest-
    certified policy, used by the cost-model scheduler: the **bit-exact
    tier wins whenever it can** — no SLA budget, no calibrated
    prediction, or a prediction inside the budget all stay exact — and
    only genuine SLA pressure (``predicted_exact_ms > sla_budget_ms``)
    routes to a fast tier.  Even then the ladder is the same certified
    one: the first :data:`FAST_TIERS` candidate whose
    :func:`certify_fast_path` certificate clears the margin; a config
    with no certified fast tier stays bit-exact *and misses the SLA*
    rather than serve uncertified arithmetic.  Integrity demotions
    override everything, exactly as in :func:`route_decision`.
    """
    cls = shape_class(*shape) if shape is not None else "general"
    hold, pressure = None, ""
    if predicted_exact_ms is None or sla_budget_ms is None:
        hold = "bit-exact default: no SLA budget or uncalibrated prediction"
    elif predicted_exact_ms <= sla_budget_ms:
        hold = (
            f"bit-exact meets SLA: predicted {predicted_exact_ms:.2f} ms <= "
            f"budget {sla_budget_ms:.2f} ms"
        )
    else:
        pressure = (
            f"sla pressure: predicted exact {predicted_exact_ms:.2f} ms > "
            f"budget {sla_budget_ms:.2f} ms; "
        )
    return _fast_tier_ladder(fmt, config, cls, hold, pressure)


def route_kernel(
    fmt: FloatFormat,
    config: MultiplierConfig | None = None,
    kernel: str | None = None,
    shape: tuple[int | None, int, int] | None = None,
) -> GemmKernel:
    """Resolve a kernel name — ``"auto"`` routes, anything else selects.

    The drop-in superset of :func:`~repro.core.kernels.select_kernel`
    that ``approx_matmul`` and ``compile_plan`` call: explicit names
    (and ``None``) behave exactly as before; ``"auto"`` applies the
    :func:`route_decision` policy for the given shape.
    """
    if kernel != AUTO_KERNEL:
        return select_kernel(fmt, config, kernel)
    return get_kernel(route_decision(fmt, config, kernel, shape).kernel)
