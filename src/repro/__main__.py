"""Command line entry point: regenerate the paper's artefacts.

Usage::

    python -m repro                           # list quick artefacts + help
    python -m repro table2                    # print one quick artefact
    python -m repro all                       # print every quick artefact

    python -m repro reproduce --list          # enumerate every experiment
    python -m repro reproduce fig5_energy_breakdown
    python -m repro reproduce fig4_accuracy --workers 3
    python -m repro reproduce --all --out results/
    python -m repro reproduce ablation_faults --no-cache
    python -m repro reproduce dse_sweep network_latency fault_sensitivity --workers 4

    python -m repro serve-bench               # serving benchmark (defaults)
    python -m repro serve-bench --model vgg_small --clients 8 --duration 2
    python -m repro serve-bench --backend exact --shards 4 --json

    python -m repro fleet-bench               # open-loop fleet benchmark
    python -m repro fleet-bench --models lenet mini_resnet --workers 4
    python -m repro fleet-bench --rate-multiplier 100 --sla-ms 25 --json
    python -m repro fleet-bench --policy cost_model --shards 2

    python -m repro trace-replay              # static vs cost-model on one trace
    python -m repro trace-replay --models lenet vgg_small --duration 2 --json

    python -m repro chaos-smoke --quick       # seeded fault-injection matrix
    python -m repro chaos-smoke --scenario table_bitflip worker_crash --json

The quick artefact names (``table1`` .. ``fig8``) are the legacy
renderers kept for interactive use; ``reproduce`` drives the unified
experiment engine (:mod:`repro.experiments`) with parallel sweeps,
content-addressed result caching and CSV/JSON artefact export;
``serve-bench`` compiles a model into an execution plan
(:mod:`repro.runtime`), stands up the micro-batching inference server
and drives it with closed-loop load, reporting p50/p99 latency and
samples/sec; ``fleet-bench`` stands up the multi-process
:class:`~repro.runtime.FleetServer` and floods it with open-loop
Poisson arrivals at a multiple of the closed-loop rate, reporting
p50/p99/p999 latency, shed counts and goodput under the SLA;
``trace-replay`` replays one deterministic Poisson+burst trace under
both scheduling policies (static knobs vs the cost-model
:class:`~repro.runtime.scheduler.SchedulingPolicy`) and compares
goodput with per-request byte parity asserted;
``chaos-smoke`` runs the seeded fault-injection matrix
(:mod:`repro.chaos.matrix`) against a live fleet and asserts the
fault-tolerance contract (zero accepted-then-dropped, 100% corruption
detection, post-recovery byte parity).
"""

from __future__ import annotations

import argparse
import sys

from .analysis.reporting import bar_chart, format_table, title
from .analysis.sweeps import fig5_rows, fig6_rows
from .arch.compare import fig7_tradeoff, fig8_breakdown, table2, table3_rows
from .core.config import table1_rows


def _render_table1() -> str:
    return title("Table I") + "\n" + format_table(table1_rows())


def _render_fig4() -> str:
    # Delegates to the registered experiment so the training pipeline
    # lives in one place and repeat invocations resolve from the cache.
    from .experiments import run_experiment

    rows = run_experiment("fig4_accuracy").rows
    return title("Fig. 4 (accuracy)") + "\n" + format_table(rows)


def _render_fig5() -> str:
    rows = fig5_rows()
    chart = bar_chart(
        [(f"{r['datatype']}/{r['bank']}/{r['design']}", float(r["total_pj"])) for r in rows],
        unit=" pJ",
    )
    return title("Fig. 5 (energy per multiplication)") + "\n" + chart


def _render_fig6() -> str:
    rows = fig6_rows()
    chart = bar_chart(
        [(f"{r['datatype']}/{r['bank']}", float(r["improvement_x"])) for r in rows], unit="x"
    )
    return title("Fig. 6 (improvement incl. exponent handling)") + "\n" + chart


def _render_fig7() -> str:
    points = sorted(fig7_tradeoff(), key=lambda p: p.cycles)
    rows = [
        {
            "design": p.name,
            "cycles": p.cycles,
            "area [mm2]": f"{p.area_mm2:.2f}",
            "PEs": p.total_pes,
        }
        for p in points
    ]
    return title("Fig. 7 (cycles vs area, VGG-8 conv1)") + "\n" + format_table(rows)


def _render_fig8() -> str:
    return title("Fig. 8 (area breakdown)") + "\n" + format_table(
        [
            {k: (f"{v:.3f}" if isinstance(v, float) else v) for k, v in row.items()}
            for row in fig8_breakdown()
        ]
    )


def _render_table2() -> str:
    return title("Table II") + "\n" + format_table(table2())


def _render_table3() -> str:
    return title("Table III") + "\n" + format_table(table3_rows())


ARTEFACTS = {
    "table1": _render_table1,
    "fig4": _render_fig4,
    "fig5": _render_fig5,
    "fig6": _render_fig6,
    "fig7": _render_fig7,
    "fig8": _render_fig8,
    "table2": _render_table2,
    "table3": _render_table3,
}


def _list_experiments() -> str:
    from .experiments import all_experiments

    lines = ["registered experiments (python -m repro reproduce <name>):", ""]
    width = max(len(e.name) for e in all_experiments())
    for exp in all_experiments():
        sweep = " x ".join(f"{k}[{len(v)}]" for k, v in exp.space.items()) or "single point"
        est = f"~{exp.est_seconds:.0f}s" if exp.est_seconds >= 1 else "<1s"
        lines.append(
            f"  {exp.name.ljust(width)}  {exp.artifact:<9}  {sweep:<24} {est:>6}  {exp.title}"
        )
    return "\n".join(lines)


def _parse_overrides(pairs: list[str]) -> dict[str, object]:
    """``--set key=value`` pairs, values parsed as JSON scalars if possible."""
    import json

    overrides: dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        try:
            overrides[key] = json.loads(raw)
        except ValueError:
            overrides[key] = raw
    return overrides


def reproduce(argv: list[str]) -> int:
    """The ``reproduce`` subcommand: drive the experiment engine."""
    from .experiments import (
        ResultCache,
        experiment_names,
        render_result,
        run_experiment,
        write_run,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro reproduce",
        description="Run registered paper experiments (parallel, cached).",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  python -m repro reproduce fig5_energy_breakdown\n"
            "  python -m repro reproduce fig4_accuracy --workers 3\n"
            "  python -m repro reproduce dse_sweep --workers 4 --out results/\n"
            "  python -m repro reproduce network_latency --set network=transformer_block\n"
            "  python -m repro reproduce fault_sensitivity --set dead_row_rate=0.01 --no-cache\n"
            "  python -m repro reproduce --all --workers 4 --out results/\n"
            "\n"
            "EXPERIMENTS.md documents every experiment with a copy-pasteable\n"
            "end-to-end command; ARCHITECTURE.md maps experiments to paper\n"
            "sections."
        ),
    )
    parser.add_argument("names", nargs="*", help="experiment names (see --list)")
    parser.add_argument("--list", action="store_true", help="list experiments and exit")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument("--workers", type=int, default=1, help="worker processes")
    parser.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    parser.add_argument("--cache-dir", default=None, help="override the cache directory")
    parser.add_argument("--out", default=None, help="write CSV/JSON rows + manifest here")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="pin a sweep axis or override a default parameter",
    )
    args = parser.parse_args(argv)

    if args.list:
        print(_list_experiments())
        return 0
    names = experiment_names() if args.all else args.names
    if not names:
        parser.print_usage()
        print(_list_experiments())
        return 0
    unknown = [n for n in names if n not in experiment_names()]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("known:", ", ".join(experiment_names()), file=sys.stderr)
        return 2

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    overrides = _parse_overrides(args.overrides)
    if overrides:
        # Fail fast on a bad --set before any experiment runs or writes
        # artefacts: expansion is cheap, partial --all runs are not.
        from .experiments import get_experiment

        for name in names:
            try:
                get_experiment(name).points(overrides)
            except KeyError as exc:
                print(f"error: {exc.args[0]}", file=sys.stderr)
                return 2
    for name in names:
        result = run_experiment(
            name,
            overrides=overrides or None,
            workers=args.workers,
            cache=cache,
            use_cache=not args.no_cache,
        )
        print(render_result(result))
        if args.out:
            paths = write_run(result, args.out)
            print(f"[wrote {paths['csv']}, {paths['json']}]")
    return 0


def _bench_error(exc: ValueError, as_json: bool) -> int:
    """Render a bench ValueError; unknown kernels get a structured form.

    In ``--json`` mode an :class:`~repro.core.kernels.UnknownKernelError`
    is emitted as a JSON object carrying the offending name and the
    registered kernel list, so callers script against data instead of
    parsing the message.
    """
    import json

    from .core.kernels import UnknownKernelError

    if as_json:
        payload: dict = {"error": str(exc)}
        if isinstance(exc, UnknownKernelError):
            payload["kernel"] = exc.kernel
            payload["registered_kernels"] = exc.registered
        print(json.dumps(payload, indent=2), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)
    return 2


def _kernel_flag(parser: "argparse.ArgumentParser") -> None:
    """Add the shared ``--kernel`` option to a bench subcommand parser."""
    parser.add_argument(
        "--kernel",
        default=None,
        help=(
            "GEMM kernel: a registered kernel name (e.g. "
            "float_table, blas_factored); default is the bit-exact "
            "default tier"
        ),
    )


_DELAY_HELP = "coalescing delay of the static policy; the cost model never waits"


def _policy_flag(parser: "argparse.ArgumentParser") -> None:
    """Add the shared ``--policy`` option to a bench subcommand parser."""
    parser.add_argument(
        "--policy",
        default="static",
        choices=["static", "cost_model"],
        help=(
            "scheduling policy: 'static' serves with the configured knobs "
            "unchanged; 'cost_model' lets the architecture cost model pick "
            "micro-batch size and worker count online, and never waits to coalesce"
        ),
    )


def serve_bench(argv: list[str]) -> int:
    """The ``serve-bench`` subcommand: benchmark the serving runtime."""
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro serve-bench",
        description=(
            "Compile a model into an execution plan, serve it through the "
            "micro-batching frontend and measure closed-loop latency/throughput."
        ),
        epilog=(
            "examples:\n"
            "  python -m repro serve-bench\n"
            "  python -m repro serve-bench --model vgg_small --clients 8 --duration 2\n"
            "  python -m repro serve-bench --backend exact --shards 4 --json\n"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--model",
        default="lenet",
        choices=["lenet", "vgg_small", "mini_resnet"],
        help="model zoo entry to serve",
    )
    parser.add_argument(
        "--backend",
        default="daism",
        choices=["daism", "quantized", "exact"],
        help="arithmetic backend the plan is compiled against",
    )
    _kernel_flag(parser)
    parser.add_argument("--clients", type=int, default=4, help="closed-loop client threads")
    parser.add_argument("--duration", type=float, default=1.0, help="measured seconds")
    parser.add_argument("--request-samples", type=int, default=4, help="samples per request")
    parser.add_argument("--max-batch", type=int, default=64, help="micro-batch sample threshold")
    parser.add_argument("--max-delay-ms", type=float, default=2.0, help=_DELAY_HELP)
    parser.add_argument("--shards", type=int, default=1, help="engine shard threads")
    _policy_flag(parser)
    parser.add_argument(
        "--sla-ms",
        type=float,
        default=None,
        help="latency SLA the cost-model policy targets (default: none)",
    )
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    args = parser.parse_args(argv)

    from .runtime.serving_bench import serving_benchmark

    try:
        report = serving_benchmark(
            model=args.model,
            backend=args.backend,
            kernel=args.kernel,
            clients=args.clients,
            duration_s=args.duration,
            request_samples=args.request_samples,
            max_batch=args.max_batch,
            max_delay_ms=args.max_delay_ms,
            shards=args.shards,
            policy=args.policy,
            sla_ms=args.sla_ms,
        )
    except ValueError as exc:  # bad kernel name, bad shard/batch config
        return _bench_error(exc, args.json)
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    print(title(f"serve-bench: {report['model']} on {report['backend']}"))
    print(
        f"  plan: {report['plan_ops']} ops, shards={report['shards']},"
        f" max_batch={report['max_batch']}, delay budget {report['max_delay_ms']} ms,"
        f" policy={report['policy']}"
    )
    print(
        f"  tier: kernel={report['kernel']}"
        f" -> plan kernels {', '.join(report['plan_kernels']) or '-'}"
    )
    load = report["load"]
    print(
        f"  {load['requests']} requests / {load['samples']} samples in"
        f" {load['duration_s']}s from {load['clients']} closed-loop clients"
    )
    print(
        f"  latency p50 {load['p50_ms']} ms | p99 {load['p99_ms']} ms |"
        f" mean {load['mean_ms']} ms"
    )
    print(
        f"  throughput {load['samples_per_s']} samples/s"
        f" (mean micro-batch {load['mean_batch_samples']} samples)"
    )
    return 0


def fleet_bench(argv: list[str]) -> int:
    """The ``fleet-bench`` subcommand: open-loop multi-process benchmark."""
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro fleet-bench",
        description=(
            "Stand up a multi-process serving fleet and flood it with "
            "open-loop Poisson arrivals at a multiple of the measured "
            "closed-loop rate; report tail latency, shed counts and "
            "goodput under the SLA."
        ),
        epilog=(
            "examples:\n"
            "  python -m repro fleet-bench\n"
            "  python -m repro fleet-bench --models lenet mini_resnet --workers 4\n"
            "  python -m repro fleet-bench --rate-multiplier 100 --sla-ms 25 --json\n"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--models",
        nargs="+",
        default=["lenet"],
        choices=["lenet", "vgg_small", "mini_resnet"],
        help="model zoo entries served concurrently (round-robin traffic)",
    )
    parser.add_argument(
        "--backend",
        default="daism",
        choices=["daism", "quantized", "exact"],
        help="arithmetic backend workers compile their plans against",
    )
    _kernel_flag(parser)
    parser.add_argument("--workers", type=int, default=2, help="worker processes per model")
    parser.add_argument("--duration", type=float, default=1.0, help="open-loop seconds")
    parser.add_argument(
        "--rate-rps",
        type=float,
        default=None,
        help="explicit offered request rate (skips closed-loop calibration scaling)",
    )
    parser.add_argument(
        "--rate-multiplier",
        type=float,
        default=10.0,
        help="offered rate as a multiple of the measured closed-loop rate",
    )
    parser.add_argument("--request-samples", type=int, default=4, help="samples per request")
    parser.add_argument("--max-batch", type=int, default=64, help="micro-batch sample threshold")
    parser.add_argument("--max-delay-ms", type=float, default=2.0, help=_DELAY_HELP)
    parser.add_argument(
        "--max-queue-samples", type=int, default=256, help="admission queue depth per model"
    )
    parser.add_argument("--sla-ms", type=float, default=50.0, help="latency SLA for goodput")
    parser.add_argument("--shards", type=int, default=1, help="engine shard threads per worker")
    _policy_flag(parser)
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    args = parser.parse_args(argv)

    from .runtime.serving_bench import open_loop_fleet_benchmark

    try:
        report = open_loop_fleet_benchmark(
            models=args.models,
            backend=args.backend,
            kernel=args.kernel,
            workers=args.workers,
            duration_s=args.duration,
            rate_rps=args.rate_rps,
            rate_multiplier=args.rate_multiplier,
            request_samples=args.request_samples,
            max_batch=args.max_batch,
            max_delay_ms=args.max_delay_ms,
            max_queue_samples=args.max_queue_samples,
            sla_ms=args.sla_ms,
            shards=args.shards,
            policy=args.policy,
        )
    except ValueError as exc:
        return _bench_error(exc, args.json)
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    print(title(f"fleet-bench: {', '.join(report['models'])} on {report['backend']}"))
    print(
        f"  fleet: {report['workers']} worker(s)/model, max_batch={report['max_batch']},"
        f" queue {report['max_queue_samples']} samples, SLA {report['sla_ms']} ms,"
        f" shards={report['shards']}, policy={report['policy']}"
    )
    print(
        f"  tier: kernel={report['kernel']}"
        f" -> plan kernels {', '.join(report['plan_kernels']) or '-'}"
    )
    print(
        f"  offered {report['offered_requests']} requests @"
        f" {report['offered_rps']} req/s over {report['duration_s']}s"
        f" | accepted {report['accepted_requests']}"
        f" | shed {report['shed_requests']}"
    )
    print(
        f"  completed {report['completed_requests']}"
        f" | failed {report['failed_requests']}"
        f" | accepted-then-dropped {report['accepted_then_dropped']}"
        f" | worker restarts {report['worker_restarts']}"
    )
    print(
        f"  latency p50 {report['p50_ms']} ms | p99 {report['p99_ms']} ms |"
        f" p999 {report['p999_ms']} ms"
    )
    print(
        f"  goodput {report['goodput_samples_per_s']} samples/s under SLA"
        f" (raw {report['samples_per_s']} samples/s;"
        f" {report['goodput_vs_closed_loop_x']}x the"
        f" {report['closed_loop_samples_per_s']} samples/s closed-loop baseline)"
    )
    return 0


def trace_replay(argv: list[str]) -> int:
    """The ``trace-replay`` subcommand: static vs cost-model on one trace."""
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro trace-replay",
        description=(
            "Replay one deterministic Poisson+burst trace against two "
            "identically configured fleets — static scheduling knobs vs "
            "the cost-model policy — and compare goodput under a "
            "per-model SLA.  Byte parity between the two arms is "
            "asserted per request."
        ),
        epilog=(
            "examples:\n"
            "  python -m repro trace-replay\n"
            "  python -m repro trace-replay --models lenet vgg_small --duration 2\n"
            "  python -m repro trace-replay --seed 3 --json\n"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--models",
        nargs="+",
        default=["lenet", "vgg_small"],
        choices=["lenet", "vgg_small", "mini_resnet", "mobilenet_edge", "transformer_encoder"],
        help="model zoo entries in the trace (round-robin arrivals)",
    )
    parser.add_argument(
        "--backend",
        default="daism",
        choices=["daism", "quantized", "exact"],
        help="arithmetic backend workers compile their plans against",
    )
    _kernel_flag(parser)
    parser.add_argument("--workers", type=int, default=2, help="worker processes per model (static arm)")
    parser.add_argument("--duration", type=float, default=1.5, help="trace seconds")
    parser.add_argument(
        "--rate-multiplier",
        type=float,
        default=3.0,
        help="calm-phase rate as a multiple of the measured closed-loop rate",
    )
    parser.add_argument(
        "--burst-multiplier", type=float, default=4.0, help="burst-phase rate multiplier"
    )
    parser.add_argument("--request-samples", type=int, default=4, help="samples per request")
    parser.add_argument("--max-batch", type=int, default=64, help="micro-batch sample threshold")
    parser.add_argument("--max-delay-ms", type=float, default=2.0, help=_DELAY_HELP)
    parser.add_argument(
        "--sla-ms",
        type=float,
        default=None,
        help="explicit SLA for every model (default: per-model, derived from calibration)",
    )
    parser.add_argument("--seed", type=int, default=0, help="trace + data seed")
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    args = parser.parse_args(argv)

    from .runtime.serving_bench import replay_trace_benchmark

    try:
        report = replay_trace_benchmark(
            models=args.models,
            backend=args.backend,
            kernel=args.kernel,
            workers=args.workers,
            duration_s=args.duration,
            rate_multiplier=args.rate_multiplier,
            burst_multiplier=args.burst_multiplier,
            request_samples=args.request_samples,
            max_batch=args.max_batch,
            max_delay_ms=args.max_delay_ms,
            sla_ms=args.sla_ms,
            seed=args.seed,
        )
    except ValueError as exc:
        return _bench_error(exc, args.json)
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    print(title(f"trace-replay: {', '.join(report['models'])} on {report['backend']}"))
    trace = report["trace"]
    print(
        f"  trace: {trace['requests']} requests over {trace['duration_s']}s @"
        f" {trace['rate_rps']} req/s calm, x{trace['burst_multiplier']} bursts,"
        f" seed {trace['seed']}"
    )
    print(
        f"  SLA (ms): "
        + ", ".join(f"{m}={v}" for m, v in report["sla_ms"].items())
        + f" | batch cap {report['max_batch']}"
    )
    for arm in ("static", "cost_model"):
        row = report[arm]
        workers = ",".join(str(w) for w in row["workers_per_model"].values())
        print(
            f"  {arm:>10}: goodput {row['goodput_samples_per_s']} samples/s"
            f" | accepted {row['accepted_requests']}/{row['offered_requests']}"
            f" | p50 {row['p50_ms']} ms p99 {row['p99_ms']} ms"
            f" | workers/model {workers}"
        )
    parity = report["parity"]
    print(
        f"  parity: {parity['checked']} requests completed under both arms,"
        f" {parity['mismatches']} hash mismatches"
        f" | goodput ratio {report['goodput_ratio']}"
    )
    return 0


def chaos_smoke(argv: list[str]) -> int:
    """The ``chaos-smoke`` subcommand: run the seeded injection matrix."""
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro chaos-smoke",
        description=(
            "Run the seeded fault-injection matrix against a live fleet "
            "behind the TCP frontend: every fault site and their pairwise "
            "combinations, asserting zero accepted-then-dropped, 100%% "
            "corruption detection and post-recovery byte parity."
        ),
        epilog=(
            "examples:\n"
            "  python -m repro chaos-smoke --quick\n"
            "  python -m repro chaos-smoke --scenario table_bitflip worker_crash\n"
            "  python -m repro chaos-smoke --json\n"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--quick", action="store_true", help="small request counts (CI smoke mode)"
    )
    parser.add_argument("--seed", type=int, default=0, help="injection seed")
    parser.add_argument(
        "--scenario",
        nargs="+",
        default=None,
        metavar="NAME",
        help="run only these scenarios (default: the full matrix)",
    )
    parser.add_argument("--json", action="store_true", help="emit rows as JSON")
    args = parser.parse_args(argv)

    from .chaos.matrix import SCENARIOS, run_matrix

    if args.scenario:
        unknown = [s for s in args.scenario if s not in SCENARIOS]
        if unknown:
            print(f"unknown scenario(s): {', '.join(unknown)}", file=sys.stderr)
            print("known:", ", ".join(SCENARIOS), file=sys.stderr)
            return 2
    try:
        rows = run_matrix(quick=args.quick, seed=args.seed, scenarios=args.scenario)
    except AssertionError as exc:
        print(f"chaos invariant violated: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    print(title("chaos-smoke: seeded fault-injection matrix"))
    display = [
        {
            "scenario": r["scenario"],
            "accepted": r["accepted"],
            "completed": r["completed"],
            "failed (structured)": r["failed_structured"],
            "dropped": r["dropped"],
            "injected": r["injected"],
            "detected": "yes" if r["detected"] else "NO",
            "recovery ms": (
                f"{r['recovery_ms']:.1f}" if r["recovery_ms"] is not None else "-"
            ),
            "parity": "yes" if r["post_recovery_parity"] else "NO",
        }
        for r in rows
    ]
    print(format_table(display))
    print(f"\nall {len(rows)} scenario(s) hold the fault-tolerance contract")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "reproduce":
        return reproduce(argv[1:])
    if argv and argv[0] == "serve-bench":
        return serve_bench(argv[1:])
    if argv and argv[0] == "fleet-bench":
        return fleet_bench(argv[1:])
    if argv and argv[0] == "trace-replay":
        return trace_replay(argv[1:])
    if argv and argv[0] == "chaos-smoke":
        return chaos_smoke(argv[1:])
    if not argv:
        print("usage: python -m repro <artefact>|all")
        print("       python -m repro reproduce [--list] [<name> ...]")
        print("       python -m repro serve-bench [--model <name>] [--json]")
        print("       python -m repro fleet-bench [--models <name> ...] [--json]")
        print("       python -m repro trace-replay [--models <name> ...] [--json]")
        print("       python -m repro chaos-smoke [--quick] [--json]")
        print("artefacts:", ", ".join(ARTEFACTS))
        return 0
    targets = list(ARTEFACTS) if argv[0] == "all" else argv
    unknown = [t for t in targets if t not in ARTEFACTS]
    if unknown:
        print(f"unknown artefact(s): {', '.join(unknown)}", file=sys.stderr)
        print("artefacts:", ", ".join(ARTEFACTS), file=sys.stderr)
        print("(experiment names go through: python -m repro reproduce <name>)", file=sys.stderr)
        return 2
    for target in targets:
        print(ARTEFACTS[target]())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
