"""Perf regression guard: compare a fresh ``BENCH_perf.json`` to a baseline.

CI runs the perf harness in ``--quick`` mode and then calls this script
to join the fresh matmul rows against the committed full-grid baseline
(the quick grid is a subset of the full grid, so rows match on
``(m, k, n, backend, kernel, variant)``).  If the guarded backend's
throughput regressed by more than ``--max-regression`` on any matching
row, the script prints the offending rows and exits non-zero.

Two robustness choices keep shared-runner noise from failing builds:

* only the guarded-tier rows are compared by default (``--kernel
  float_table,blas_factored`` — the bit-exact hot path plus the
  opt-in fast path; a comma list restricts further, ``--kernel all``
  widens to every row).  Rows the baseline lacks are skipped by the
  join, so the guard tightens automatically as the baseline is
  regenerated;
* throughput is **normalised by the same-shape ``exact_float32`` row of
  the same report** before comparing, so absolute machine speed cancels
  out and the guard tracks the kernel's overhead factor over BLAS
  rather than raw MMACs/s (pass ``--absolute`` to compare raw numbers;
  rows without a reference row in either report fall back to the
  absolute comparison automatically).

When both reports carry a ``serving`` section (schema ``repro-perf/3``),
the guard additionally compares serving throughput — ``samples_per_s``
normalised by the report's own smallest-shape ``exact_float32`` MMACs/s
as a machine-speed proxy — under the (looser) ``--serving-max-regression``
tolerance, so CI also covers the compiled runtime + micro-batching
server path.  Reports without the section (older baselines) skip this
check with a note.

Schema ``repro-perf/4`` adds a ``fleet`` section (multi-process workers
under open-loop Poisson traffic); when both reports carry it, the
guard compares **goodput under the SLA** (``goodput_samples_per_s``,
normalised by the same machine-speed proxy) under
``--fleet-max-regression``, and fails outright if the fresh report
shows any accepted-then-dropped request.

Schema ``repro-perf/6`` adds a ``scenario`` section: compiled-plan
ms/sample for the co-sim scenario workloads (``mobilenet_edge``,
``transformer_encoder``) under the DAISM backend.  Rows join on
``(model, backend, kernel)``; per-sample throughput is normalised by
the same machine-speed proxy as the serving check and guarded under
``--scenario-max-regression``.  A fresh scenario row whose
``logits_match_eager`` flag is false regresses unconditionally —
plan/eager parity is part of the contract, not a latency number.

Schema ``repro-perf/9`` carries the network headline
``network.exact_vs_dense_blas_x`` — the bit-exact LeNet plan's
ms/sample as a multiple of the quantised ``dense_blas`` LeNet plan,
timed interleaved in the *same* report.  Being a same-report ratio it
needs no baseline or machine-speed proxy: the fresh value is guarded
against the absolute ``--exact-max-ratio`` ceiling (default 3.0).
Reports without the field (older schemas) skip this check with a note.

Schema ``repro-perf/7`` adds a ``fault_tolerance`` section: the seeded
chaos-matrix subset (live table bit-flips, a killed worker, latency
spikes against a real fleet).  Like the exact ratio it needs no
baseline: the fresh report's worst-case ``recovery_ms_max`` is guarded
against the absolute ``--fault-recovery-max-ms`` ceiling, and any
dropped request, missed corruption detection or post-recovery parity
break fails unconditionally — those are contract booleans, not latency
numbers.  Reports without the section skip this check with a note.

Schema ``repro-perf/8`` adds a ``scheduling`` section: one
deterministic Poisson+burst trace replayed under the static and
cost-model scheduling policies.  Like the exact ratio it is a
same-report comparison needing no baseline or machine proxy: the
cost-model-vs-static ``goodput_ratio`` (aggregated over seeds) is
guarded against the ``--sched-max-regression`` floor
(``ratio >= 1 - tolerance``), and a byte-parity break between the two
arms fails unconditionally — scheduling may change *when* work runs,
never *what* it computes.  Reports without the section skip this check
with a note.

Run::

    python benchmarks/perf/check_perf_regression.py \
        --fresh BENCH_perf.ci.json --baseline BENCH_perf.json

The default 25% tolerance is deliberately loose — the guard exists to
catch order-of-magnitude kernel regressions (a lost fast path, an
accidental repack per call), not single-digit jitter.
"""

from __future__ import annotations

import argparse
import json
import sys

REFERENCE_BACKEND = "exact_float32"


def _key(row: dict) -> tuple:
    return (row["m"], row["k"], row["n"], row["backend"], row.get("kernel", "-"), row["variant"])


def _reference_mmacs(report: dict, row: dict) -> float | None:
    for candidate in report.get("matmul", []):
        if candidate["backend"] == REFERENCE_BACKEND and (
            candidate["m"], candidate["k"], candidate["n"]
        ) == (row["m"], row["k"], row["n"]):
            return candidate["mmacs_per_s"]
    return None


def compare(
    fresh: dict,
    baseline: dict,
    backend: str,
    max_regression: float,
    kernels: "set[str] | None" = None,
    normalize: bool = True,
) -> tuple[list[dict], list[dict]]:
    """Join matmul rows and split them into (checked, regressed).

    Rows of ``backend`` (optionally restricted to the ``kernels`` set)
    present in both reports are compared on ``mmacs_per_s`` — by default
    after dividing each side by its report's same-shape
    ``exact_float32`` throughput, which cancels machine speed.  A row
    regresses when the fresh score drops below
    ``baseline_score * (1 - max_regression)``.
    """
    base_rows = {_key(r): r for r in baseline.get("matmul", [])}
    checked: list[dict] = []
    regressed: list[dict] = []
    for row in fresh.get("matmul", []):
        if row["backend"] != backend:
            continue
        if kernels is not None and row.get("kernel") not in kernels:
            continue
        base = base_rows.get(_key(row))
        if base is None:
            continue
        fresh_score, base_score = row["mmacs_per_s"], base["mmacs_per_s"]
        unit = "MMACs/s"
        if normalize:
            fresh_ref = _reference_mmacs(fresh, row)
            base_ref = _reference_mmacs(baseline, base)
            if fresh_ref and base_ref:
                fresh_score = fresh_score / fresh_ref
                base_score = base_score / base_ref
                unit = f"x {REFERENCE_BACKEND}"
        floor = base_score * (1.0 - max_regression)
        record = {
            "key": "x".join(map(str, _key(row)[:3]))
            + f" {row['backend']}/{row.get('kernel', '-')}/{row['variant']}",
            "unit": unit,
            "baseline_score": base_score,
            "fresh_score": fresh_score,
            "floor": floor,
        }
        checked.append(record)
        if fresh_score < floor:
            regressed.append(record)
    return checked, regressed


def _machine_proxy(report: dict) -> float | None:
    """Smallest-shape ``exact_float32`` raw matmul MMACs/s, or ``None``."""
    refs = [
        row
        for row in report.get("matmul", [])
        if row["backend"] == REFERENCE_BACKEND and row["variant"] == "raw"
    ]
    if not refs:
        return None
    ref = min(refs, key=lambda r: r["m"] * r["k"] * r["n"])
    return ref["mmacs_per_s"]


def _serving_throughput(report: dict) -> tuple[float, float | None] | None:
    """``(samples_per_s, reference_mmacs_or_None)`` for a report.

    The reference is the :func:`_machine_proxy` row (present in quick
    and full grids alike) that serving throughput is normalised by.
    """
    serving = report.get("serving")
    if not serving:
        return None
    samples_per_s = serving.get("load", {}).get("samples_per_s")
    if not samples_per_s:
        return None
    return samples_per_s, _machine_proxy(report)


def compare_serving(
    fresh: dict, baseline: dict, max_regression: float
) -> tuple[dict | None, bool]:
    """Compare serving throughput; returns ``(record, regressed)``.

    Normalises by the machine-speed proxy only when **both** reports
    carry a reference row (mirroring ``compare``'s fallback) — scoring
    one side normalised and the other raw would compare incompatible
    units.  Returns ``(None, False)`` when either report lacks a
    comparable serving section (e.g. a pre-runtime baseline).
    """
    fresh_side = _serving_throughput(fresh)
    base_side = _serving_throughput(baseline)
    if fresh_side is None or base_side is None:
        return None, False
    fresh_score, fresh_ref = fresh_side
    base_score, base_ref = base_side
    unit = "samples/s"
    if fresh_ref and base_ref:
        fresh_score /= fresh_ref
        base_score /= base_ref
        unit = "samples/s per exact MMACs/s"
    floor = base_score * (1.0 - max_regression)
    record = {
        "key": "serving lenet samples/s",
        "unit": unit,
        "baseline_score": base_score,
        "fresh_score": fresh_score,
        "floor": floor,
    }
    return record, fresh_score < floor


def _fleet_goodput(report: dict) -> tuple[float, float | None, int] | None:
    """``(goodput_samples_per_s, reference_mmacs_or_None, dropped)``.

    The harness emits a single fleet report dict; the machine-speed
    proxy is the same :func:`_machine_proxy` the serving check uses.
    """
    row = report.get("fleet")
    if isinstance(row, list):  # tolerate a future multi-row section
        row = row[0] if row else None
    if not row:
        return None
    goodput = row.get("goodput_samples_per_s")
    if not goodput:
        return None
    dropped = int(row.get("accepted_then_dropped", 0))
    return goodput, _machine_proxy(report), dropped


def compare_fleet(
    fresh: dict, baseline: dict, max_regression: float
) -> tuple[dict | None, bool]:
    """Compare fleet goodput-under-SLA; returns ``(record, regressed)``.

    Mirrors :func:`compare_serving` — normalised only when both reports
    carry the machine-speed reference, skipped (``(None, False)``) when
    either report predates the ``fleet`` section (schema < 4).  A fresh
    report with any ``accepted_then_dropped`` request regresses
    unconditionally: the fleet's no-silent-drop invariant is part of
    the contract, not a throughput number.
    """
    fresh_side = _fleet_goodput(fresh)
    base_side = _fleet_goodput(baseline)
    if fresh_side is None or base_side is None:
        return None, False
    fresh_score, fresh_ref, dropped = fresh_side
    base_score, base_ref, _ = base_side
    unit = "goodput samples/s"
    if fresh_ref and base_ref:
        fresh_score /= fresh_ref
        base_score /= base_ref
        unit = "goodput samples/s per exact MMACs/s"
    floor = base_score * (1.0 - max_regression)
    record = {
        "key": "fleet open-loop goodput"
        + (f" [{dropped} accepted-then-DROPPED]" if dropped else ""),
        "unit": unit,
        "baseline_score": base_score,
        "fresh_score": fresh_score,
        "floor": floor,
    }
    return record, fresh_score < floor or dropped > 0


def compare_scenarios(
    fresh: dict, baseline: dict, max_regression: float
) -> tuple[list[dict], list[dict]]:
    """Join scenario rows on ``(model, backend, kernel)`` → (checked, regressed).

    The score is per-sample throughput (``1000 / ms_per_sample``),
    normalised by the machine-speed proxy when both reports carry one —
    mirroring :func:`compare_serving`.  Quick and full grids use
    different sample counts but ``ms_per_sample`` is comparable across
    them.  A fresh row with ``logits_match_eager`` false regresses
    regardless of its latency.  Reports without the section (schema < 6)
    yield ``([], [])``.
    """
    base_rows = {
        (r["model"], r["backend"], r.get("kernel", "default")): r
        for r in baseline.get("scenario", [])
    }
    fresh_ref = _machine_proxy(fresh)
    base_ref = _machine_proxy(baseline)
    checked: list[dict] = []
    regressed: list[dict] = []
    for row in fresh.get("scenario", []):
        base = base_rows.get((row["model"], row["backend"], row.get("kernel", "default")))
        if base is None:
            continue
        parity_ok = bool(row.get("logits_match_eager", True))
        fresh_score = 1e3 / row["ms_per_sample"] if row["ms_per_sample"] else 0.0
        base_score = 1e3 / base["ms_per_sample"] if base["ms_per_sample"] else 0.0
        unit = "samples/s"
        if fresh_ref and base_ref:
            fresh_score /= fresh_ref
            base_score /= base_ref
            unit = "samples/s per exact MMACs/s"
        floor = base_score * (1.0 - max_regression)
        record = {
            "key": f"scenario {row['model']}/{row['backend']}"
            + ("" if parity_ok else " [logits DIVERGED from eager]"),
            "unit": unit,
            "baseline_score": base_score,
            "fresh_score": fresh_score,
            "floor": floor,
        }
        checked.append(record)
        if fresh_score < floor or not parity_ok:
            regressed.append(record)
    return checked, regressed


def check_exact_ratio(fresh: dict, max_ratio: float) -> tuple[dict | None, bool]:
    """Guard the bit-exact-vs-dense headline; returns ``(record, regressed)``.

    ``network.exact_vs_dense_blas_x`` (schema ``repro-perf/9``) is a
    same-report ratio — bit-exact LeNet plan ms/sample over the
    quantised ``dense_blas`` plan — so it is compared against the
    absolute ``max_ratio`` ceiling rather than a baseline row.  Returns
    ``(None, False)`` when the fresh report predates the field.
    """
    ratio = fresh.get("network", {}).get("exact_vs_dense_blas_x")
    if ratio is None:
        return None, False
    record = {
        "key": "bit-exact lenet vs quantized dense_blas",
        "unit": "x dense_blas ms/sample (ceiling, lower is better)",
        "baseline_score": max_ratio,
        "fresh_score": ratio,
        "floor": max_ratio,
    }
    return record, ratio > max_ratio


def check_fault_recovery(fresh: dict, max_ms: float) -> tuple[dict | None, bool]:
    """Guard fault-tolerance recovery; returns ``(record, regressed)``.

    The ``fault_tolerance`` section (schema ``repro-perf/7``) reports
    the worst-case ``recovery_ms_max`` across the chaos scenarios — a
    same-report absolute number (heal or heartbeat-respawn latency), so
    it is compared against the ``max_ms`` ceiling rather than a
    baseline row.  The section's contract booleans (zero dropped,
    corruption detected, post-recovery parity) fail unconditionally
    when violated.  Returns ``(None, False)`` when the fresh report
    predates the section.
    """
    section = fresh.get("fault_tolerance")
    if not section:
        return None, False
    recovery = section.get("recovery_ms_max")
    dropped = int(section.get("dropped", 0))
    detection_ok = bool(section.get("detection_ok", True))
    parity_ok = bool(section.get("parity_ok", True))
    broken = []
    if dropped:
        broken.append(f"{dropped} accepted-then-DROPPED")
    if not detection_ok:
        broken.append("corruption UNDETECTED")
    if not parity_ok:
        broken.append("post-recovery parity BROKEN")
    record = {
        "key": "fault-tolerance worst recovery"
        + (f" [{'; '.join(broken)}]" if broken else ""),
        "unit": "ms (ceiling, lower is better)",
        "baseline_score": max_ms,
        "fresh_score": recovery if recovery is not None else 0.0,
        "floor": max_ms,
    }
    regressed = bool(broken) or (recovery is not None and recovery > max_ms)
    return record, regressed


def check_scheduling(fresh: dict, max_regression: float) -> tuple[dict | None, bool]:
    """Guard the scheduling section; returns ``(record, regressed)``.

    The ``scheduling`` section (schema ``repro-perf/8``) carries the
    cost-model-vs-static ``goodput_ratio`` on the same trace in the same
    report, so no baseline or machine-speed proxy is involved: the ratio
    must stay at or above ``1 - max_regression`` (the cost model must
    not serve less than static does, beyond noise tolerance).  A parity
    break between the two policy arms fails unconditionally — it means
    a scheduling decision changed served bytes, which no throughput
    number can excuse.  Returns ``(None, False)`` when the fresh report
    predates the section.
    """
    section = fresh.get("scheduling")
    if not section:
        return None, False
    ratio = section.get("goodput_ratio")
    parity_ok = bool(section.get("parity_ok", True))
    floor = 1.0 - max_regression
    record = {
        "key": "scheduling cost-model vs static goodput"
        + ("" if parity_ok else " [policy byte parity BROKEN]"),
        "unit": "x static goodput (floor, higher is better)",
        "baseline_score": 1.0,
        "fresh_score": ratio if ratio is not None else 0.0,
        "floor": floor,
    }
    regressed = (not parity_ok) or ratio is None or ratio < floor
    return record, regressed


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", required=True, help="freshly generated BENCH_perf.json")
    parser.add_argument("--baseline", required=True, help="committed baseline BENCH_perf.json")
    parser.add_argument(
        "--backend",
        default="approx_bfloat16_PC3_tr",
        help="backend whose rows are guarded",
    )
    parser.add_argument(
        "--kernel",
        default="float_table,blas_factored",
        help=(
            "comma-separated kernels whose rows are guarded (default: "
            "the bit-exact tier plus the certified fast path; pass "
            "'all' to guard every row)"
        ),
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional score drop before failing (default 0.25)",
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="compare raw MMACs/s instead of normalising by exact_float32",
    )
    parser.add_argument(
        "--serving-max-regression",
        type=float,
        default=0.5,
        help=(
            "allowed fractional drop of normalised serving throughput "
            "(default 0.5 — serving rows mix queueing and compute and are "
            "noisier than kernel rows)"
        ),
    )
    parser.add_argument(
        "--exact-max-ratio",
        type=float,
        default=3.0,
        help=(
            "absolute ceiling on the fresh report's bit-exact-vs-dense "
            "LeNet ratio (network.exact_vs_dense_blas_x, schema >= 9); "
            "skipped with a note when the field is absent (default 3.0)"
        ),
    )
    parser.add_argument(
        "--scenario-max-regression",
        type=float,
        default=0.5,
        help=(
            "allowed fractional drop of normalised scenario-workload "
            "throughput (schema >= 6; default 0.5 — whole-network rows "
            "are noisier than kernel rows); a row whose logits diverged "
            "from eager fails regardless"
        ),
    )
    parser.add_argument(
        "--fault-recovery-max-ms",
        type=float,
        default=2000.0,
        help=(
            "absolute ceiling in ms on the fresh report's worst-case "
            "chaos-scenario recovery time (fault_tolerance.recovery_ms_max, "
            "schema >= 7); the section's contract booleans fail "
            "unconditionally; skipped with a note when absent "
            "(default 2000)"
        ),
    )
    parser.add_argument(
        "--sched-max-regression",
        type=float,
        default=0.2,
        help=(
            "allowed fractional shortfall of the cost-model-vs-static "
            "scheduling goodput ratio below 1.0 (scheduling.goodput_ratio, "
            "schema >= 8; default 0.2 — per-request goodput at the SLA "
            "edge is noisy on shared runners); a byte-parity break "
            "between the policy arms fails unconditionally"
        ),
    )
    parser.add_argument(
        "--fleet-max-regression",
        type=float,
        default=0.25,
        help=(
            "allowed fractional drop of normalised fleet goodput-under-SLA "
            "(default 0.25); any accepted-then-dropped request also fails"
        ),
    )
    args = parser.parse_args(argv)

    with open(args.fresh) as fh:
        fresh = json.load(fh)
    with open(args.baseline) as fh:
        baseline = json.load(fh)

    kernels = (
        None
        if args.kernel == "all"
        else {name.strip() for name in args.kernel.split(",") if name.strip()}
    )
    checked, regressed = compare(
        fresh,
        baseline,
        args.backend,
        args.max_regression,
        kernels,
        normalize=not args.absolute,
    )
    serving_record, serving_regressed = compare_serving(
        fresh, baseline, args.serving_max_regression
    )
    if serving_record is not None:
        checked.append(serving_record)
        if serving_regressed:
            regressed.append(serving_record)
    else:
        print("perf guard: no comparable serving section; skipping serving check")
    fleet_record, fleet_regressed = compare_fleet(
        fresh, baseline, args.fleet_max_regression
    )
    if fleet_record is not None:
        checked.append(fleet_record)
        if fleet_regressed:
            regressed.append(fleet_record)
    else:
        print("perf guard: no comparable fleet section; skipping fleet check")
    scenario_checked, scenario_regressed = compare_scenarios(
        fresh, baseline, args.scenario_max_regression
    )
    if scenario_checked:
        checked.extend(scenario_checked)
        regressed.extend(scenario_regressed)
    else:
        print("perf guard: no comparable scenario section; skipping scenario check")
    exact_record, exact_regressed = check_exact_ratio(fresh, args.exact_max_ratio)
    if exact_record is not None:
        checked.append(exact_record)
        if exact_regressed:
            regressed.append(exact_record)
    else:
        print(
            "perf guard: fresh report has no exact_vs_dense_blas_x;"
            " skipping exact-ratio check"
        )
    recovery_record, recovery_regressed = check_fault_recovery(
        fresh, args.fault_recovery_max_ms
    )
    if recovery_record is not None:
        checked.append(recovery_record)
        if recovery_regressed:
            regressed.append(recovery_record)
    else:
        print(
            "perf guard: fresh report has no fault_tolerance section;"
            " skipping fault-recovery check"
        )
    sched_record, sched_regressed = check_scheduling(
        fresh, args.sched_max_regression
    )
    if sched_record is not None:
        checked.append(sched_record)
        if sched_regressed:
            regressed.append(sched_record)
    else:
        print(
            "perf guard: fresh report has no scheduling section;"
            " skipping scheduling check"
        )
    if not checked:
        print(
            f"perf guard: no comparable {args.backend!r} rows between"
            f" {args.fresh} and {args.baseline}"
        )
        return 1
    for record in checked:
        status = "REGRESSED" if record in regressed else "ok"
        print(
            f"perf guard [{status:>9}] {record['key']}:"
            f" {record['fresh_score']:.4g} vs baseline"
            f" {record['baseline_score']:.4g} [{record['unit']}]"
            f" (floor {record['floor']:.4g})"
        )
    if regressed:
        print(
            f"perf guard: {len(regressed)}/{len(checked)} rows regressed more than"
            f" {args.max_regression:.0%}"
        )
        return 1
    print(f"perf guard: {len(checked)} rows within {args.max_regression:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
