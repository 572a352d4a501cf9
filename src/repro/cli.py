"""Command-line runner: regenerate any paper table or figure.

Usage::

    python -m repro table1
    python -m repro table2
    python -m repro trace-basic          # Figure 2
    python -m repro trace-cpc            # Figure 3 (a and b)
    python -m repro trace --system basic # full span/WANRT trace

    python -m repro lint src/            # determinism linter (detlint)
    python -m repro protolint            # protocol-conformance analyzer
    python -m repro divergence --system basic   # dual-run hash-seed check
    python -m repro chaos --system carousel-fast --seeds 0..9  # nemesis
    python -m repro perf run --quick     # benchmark suites -> BENCH_*.json
    python -m repro perf compare BENCH_seed.json BENCH_pr.json

    python -m repro fig4 [--scale full] [--jobs N]
    python -m repro fig5 [--scale full]  # shares the sweep with fig6
    python -m repro fig6 [--scale full]
    python -m repro fig7 [--scale full]
    python -m repro fig8 [--scale full]
    python -m repro all  [--scale full]

``--json PATH`` additionally writes the measured series to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, Optional

from repro import systems
from repro.bench import experiments
from repro.bench.report import (
    format_table,
    render_bandwidth,
    render_cdf,
    render_latency_table,
    render_throughput_sweep,
)


def _emit_json(path: Optional[str], payload: dict) -> None:
    if path is None:
        return
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, default=str)
    print(f"\n[written {path}]")


def cmd_table1(args) -> None:
    from repro.sim.topology import FIVE_REGIONS, TABLE_1_RTT_MS
    rows = [[a, b, f"{rtt:.0f}"]
            for (a, b), rtt in sorted(TABLE_1_RTT_MS.items())]
    print("Table 1: roundtrip network latencies between datacenters (ms)")
    print(format_table(["from", "to", "rtt (ms)"], rows))
    _emit_json(args.json, {f"{a}-{b}": rtt
                           for (a, b), rtt in TABLE_1_RTT_MS.items()})


def cmd_table2(args) -> None:
    from collections import Counter
    from repro.workloads.retwis import RetwisWorkload
    workload = RetwisWorkload(n_keys=100_000, seed=2)
    counts = Counter(workload.next_spec().txn_type for __ in range(20_000))
    total = sum(counts.values())
    rows = [[t, f"{c / total * 100:.1f}%"]
            for t, c in sorted(counts.items())]
    print("Table 2: Retwis transaction mix (measured over 20k draws)")
    print(format_table(["transaction type", "share"], rows))
    _emit_json(args.json, {t: c / total for t, c in counts.items()})


def _figure(system: str, shape: str, title: str) -> str:
    from repro.scenario import run
    from repro.trace.scenarios import render_figure, traced_scenario
    return render_figure(run(traced_scenario(system, shape)), title)


def cmd_trace_basic(args) -> None:
    print(_figure("carousel-basic", "fig2",
                  "Figure 2: Carousel basic protocol"))


def cmd_trace(args) -> None:
    from repro.scenario import run
    from repro.trace.export import render_timeline, to_chrome_trace
    from repro.trace.invariants import check_transaction
    from repro.trace.scenarios import traced_scenario, traced_transactions

    if args.txn_id < 1:
        raise SystemExit("--txn-id must be >= 1")
    shape = None
    if args.slow_path:
        if args.read_only or not systems.get(args.system).leaderless:
            print(f"--slow-path: {args.system} has no slow path to force "
                  "(only leaderless systems do; not with --read-only)",
                  file=sys.stderr)
            raise SystemExit(2)
        shape = "slow-path"
    elif args.read_only:
        shape = "read-only"
    result = run(traced_scenario(args.system, shape, txns=args.txn_id))
    txn = traced_transactions(result)[args.txn_id - 1]
    print(render_timeline(txn))
    print()
    print(check_transaction(txn))
    for violation in result.violations:
        print(violation)
    _emit_json(args.json, to_chrome_trace(result.tracer))
    if not result.ok:
        raise SystemExit(1)


def cmd_trace_cpc(args) -> None:
    print(_figure("carousel-fast", "fig2",
                  "Figure 3(a): CPC without conflicts"))
    print()
    print(_figure("carousel-fast", "rival",
                  "Figure 3(b): CPC with conflicts"))


def _ops_table(ops_by_label: Dict[str, Dict[str, int]]) -> str:
    rows = [[label,
             f"{ops['events_executed']:,}",
             f"{ops['events_cancelled']:,}",
             f"{ops['messages_delivered']:,}"]
            for label, ops in ops_by_label.items()]
    return format_table(
        ["system", "events", "cancelled", "messages"], rows)


def _sweep_summary(args) -> None:
    """One-line executor summary after each figure command: worker
    count, cache hit/miss counts, and sweep wall-clock."""
    executor = getattr(args, "_executor", None)
    if executor is None:
        return
    stats = executor.stats
    print(f"\n[sweep] jobs={stats.jobs} cache hits={stats.hits} "
          f"misses={stats.misses} wall={stats.wall_seconds:.2f}s")


def _latency_figure(args, name: str, runner: Callable) -> None:
    results = runner(args.scale, executor=getattr(args, "_executor",
                                                  None))
    recorders = experiments.latency_recorders(results)
    ops_by_label = {r.label: r.op_counters for r in results.values()}
    print(f"{name} (EC2 topology, 200 tps, scale={args.scale})")
    print(render_latency_table(recorders))
    print("\nCDF series:")
    print(render_cdf(recorders))
    print("\nSimulator work (deterministic op counters):")
    print(_ops_table(ops_by_label))
    _emit_json(args.json, {
        label: {"latency": recorder.summary(),
                "ops": ops_by_label[label]}
        for label, recorder in recorders.items()
    })
    _sweep_summary(args)


def cmd_fig4(args) -> None:
    _latency_figure(args, "Figure 4: Retwis latency",
                    experiments.fig4_experiment)


def cmd_fig8(args) -> None:
    _latency_figure(args, "Figure 8: YCSB+T latency",
                    experiments.fig8_experiment)


def _sweep(args) -> Dict:
    if getattr(args, "_sweep_cache", None) is None:
        args._sweep_cache = experiments.throughput_sweep_experiment(
            args.scale, executor=getattr(args, "_executor", None))
    return args._sweep_cache


def cmd_fig5(args) -> None:
    sweep = _sweep(args)
    series = experiments.sweep_series(sweep)
    ops_by_label = {
        systems.get(system).label: {
            key: sum(r.op_counters[key] for r in points)
            for key in ("events_executed", "events_cancelled",
                        "messages_delivered")}
        for system, points in sweep.items()
    }
    print("Figure 5: committed throughput vs target throughput "
          f"(Retwis, 5 ms uniform RTT, scale={args.scale})")
    print(render_throughput_sweep(series))
    print("\nSimulator work across the sweep (deterministic op "
          "counters):")
    print(_ops_table(ops_by_label))
    _emit_json(args.json, {
        "series": series,
        "ops": {systems.get(system).label:
                [r.op_counters for r in points]
                for system, points in sweep.items()},
    })
    _sweep_summary(args)


def cmd_fig6(args) -> None:
    sweep = _sweep(args)
    series = experiments.sweep_series(sweep)
    print("Figure 6: abort rate vs target throughput "
          f"(Retwis, 5 ms uniform RTT, scale={args.scale})")
    print(render_throughput_sweep(series))
    _emit_json(args.json, series)
    _sweep_summary(args)


def cmd_fig7(args) -> None:
    results = experiments.bandwidth_experiment(args.scale)
    rows = {systems.get(s).label: experiments.bandwidth_roles(r)
            for s, r in results.items()}
    print("Figure 7: average bandwidth at 5000 tps target "
          f"(Mbps per node, scale={args.scale})")
    print(render_bandwidth(rows))
    _emit_json(args.json, rows)


def cmd_all(args) -> None:
    for command in (cmd_table1, cmd_table2, cmd_trace_basic,
                    cmd_trace_cpc, cmd_fig4, cmd_fig5, cmd_fig6,
                    cmd_fig7, cmd_fig8):
        command(args)
        print("\n" + "=" * 72 + "\n")


COMMANDS = {
    "table1": cmd_table1,
    "table2": cmd_table2,
    "trace-basic": cmd_trace_basic,
    "trace-cpc": cmd_trace_cpc,
    "trace": cmd_trace,
    "fig4": cmd_fig4,
    "fig5": cmd_fig5,
    "fig6": cmd_fig6,
    "fig7": cmd_fig7,
    "fig8": cmd_fig8,
    "all": cmd_all,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the Carousel paper's tables and figures.",
        epilog="additional verbs: trace (span/WANRT traces), "
               "lint (determinism linter), "
               "protolint (protocol-conformance analyzer), "
               "divergence (dual-run hash-seed check), "
               "chaos (nemesis harness), "
               "perf (benchmarks and regression tracking), "
               "conform (DES vs asyncio/TCP differential), "
               "cluster (multi-process localhost deployment), "
               "serve (one process of a cluster) — "
               "run `python -m repro <verb> --help` for each")
    parser.add_argument("experiment", choices=sorted(COMMANDS),
                        help="which table/figure to regenerate")
    parser.add_argument("--scale", choices=["smoke", "quick", "full"],
                        default="quick",
                        help="smoke (CI), quick (default), or "
                             "paper-length runs")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write measured series to a JSON file")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for figure sweeps "
                             "(default 1: in-process)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the on-disk sweep result cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="sweep result cache directory (default: "
                             "$REPRO_SWEEP_CACHE or .repro-sweep-cache)")
    parser.add_argument("--system", type=systems.canonical,
                        choices=systems.SYSTEMS, default="carousel-basic",
                        help="(trace) system to trace (aliases: basic, "
                             "fast)")
    parser.add_argument("--txn-id", type=int, default=1, metavar="N",
                        help="(trace) run N transactions and show the Nth")
    parser.add_argument("--read-only", action="store_true",
                        help="(trace) trace a read-only transaction")
    parser.add_argument("--slow-path", action="store_true",
                        help="(trace) force TAPIR's IR slow path with a "
                             "rival writer (leaderless systems only)")
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in ("lint", "protolint", "divergence"):
        # Static-analyzer subcommands live in repro.analysis.
        from repro.analysis.cli import main as analysis_main
        return analysis_main(argv)
    if argv and argv[0] == "chaos":
        # The nemesis harness lives in repro.chaos.
        from repro.chaos.cli import main as chaos_main
        return chaos_main(argv)
    if argv and argv[0] == "perf":
        # Benchmarks and perf-regression tracking live in repro.perf.
        from repro.perf.cli import main as perf_main
        return perf_main(argv)
    if argv and argv[0] in ("serve", "cluster", "conform"):
        # Runtime backends and conformance live in repro.runtime.
        from repro.runtime.cli import main as runtime_main
        return runtime_main(argv)
    args = build_parser().parse_args(argv)
    args._sweep_cache = None
    args._executor = _build_executor(args)
    COMMANDS[args.experiment](args)
    return 0


def _build_executor(args):
    """The figure-sweep executor for this invocation: ``--jobs`` worker
    processes, with the on-disk result cache on by default."""
    from repro.sweep import ResultCache, SweepExecutor, default_cache_dir

    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    return SweepExecutor(jobs=args.jobs, cache=cache)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
