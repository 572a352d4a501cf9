"""Command-line runner: ``python -m repro <verb>``.

One argparse tree with one subparser per verb; each verb declares only
the options it reads.  Usage::

    python -m repro table1
    python -m repro table2
    python -m repro trace-basic          # Figure 2
    python -m repro trace-cpc            # Figure 3 (a and b)
    python -m repro trace --system basic # full span/WANRT trace

    python -m repro fig4 [--scale full] [--jobs N]
    python -m repro fig5 [--scale full]  # shares the sweep with fig6
    python -m repro fig6 [--scale full]
    python -m repro fig7 [--scale full]
    python -m repro fig8 [--scale full]
    python -m repro all  [--scale full]

    python -m repro lint src/            # determinism linter (detlint)
    python -m repro protolint            # protocol-conformance analyzer
    python -m repro divergence --system basic   # dual-run hash-seed check
    python -m repro chaos --system carousel-fast --seeds 0..9  # nemesis
    python -m repro perf run --quick     # benchmark suites -> BENCH_*.json
    python -m repro perf compare BENCH_seed.json BENCH_pr.json
    python -m repro conform --systems all --seeds 0,1,2   # DES vs TCP
    python -m repro cluster --system carousel-fast --seed 0
    python -m repro serve --system carousel-fast --seed 0 --proc dc-oregon

Exit status: 0 on success; 1 on findings or failures (lint findings, a
failed trace check or oracle, a diverged run, a perf regression, a
non-conformant run); 2 on usage and input errors, which the option
types below report through argparse.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro import systems
from repro.bench import experiments
from repro.bench.report import (
    format_table,
    render_bandwidth,
    render_cdf,
    render_latency_table,
    render_throughput_sweep,
)

#: Docs file carrying protolint's generated message-catalog section.
PROTOCOL_DOC = "PROTOCOL.md"


# ----------------------------------------------------------------------
# Option types: a bad value is a usage error (exit 2), never a traceback


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _bench_file(path: str) -> dict:
    """A schema-valid BENCH document read from ``path``."""
    from repro.perf.schema import validate_bench

    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"{path}: {exc}") from None
    errors = validate_bench(doc)
    if errors:
        raise argparse.ArgumentTypeError(
            f"{path} is not a valid BENCH document:\n  "
            + "\n  ".join(errors))
    return doc


def _suite_names(text: str) -> Optional[List[str]]:
    from repro.perf.suites import SUITES

    names = [name.strip() for name in text.split(",") if name.strip()]
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown suites: {', '.join(unknown)}; "
            f"known: {', '.join(SUITES)}")
    return names or None


# ----------------------------------------------------------------------
# Tables and traces


def _emit_json(path: Optional[str], payload: dict) -> None:
    if path is None:
        return
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, default=str)
    print(f"\n[written {path}]")


def cmd_table1(args) -> None:
    from repro.sim.topology import TABLE_1_RTT_MS
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


def cmd_trace_cpc(args) -> None:
    print(_figure("carousel-fast", "fig2",
                  "Figure 3(a): CPC without conflicts"))
    print()
    print(_figure("carousel-fast", "rival",
                  "Figure 3(b): CPC with conflicts"))


def cmd_trace(args) -> int:
    from repro.scenario import run
    from repro.trace.export import render_timeline, to_chrome_trace
    from repro.trace.invariants import check_transaction
    from repro.trace.scenarios import traced_scenario, traced_transactions

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
    return 0 if result.ok else 1


# ----------------------------------------------------------------------
# Figures


def _ops_table(ops_by_label: Dict[str, Dict[str, int]]) -> str:
    rows = [[label,
             f"{ops['events_executed']:,}",
             f"{ops['events_cancelled']:,}",
             f"{ops['messages_delivered']:,}"]
            for label, ops in ops_by_label.items()]
    return format_table(
        ["system", "events", "cancelled", "messages"], rows)


def _executor(args):
    """This invocation's sweep executor: ``--jobs`` worker processes,
    the on-disk result cache on by default.  Built on first use, so the
    figures of ``all`` share one executor and one tally."""
    if args.executor is None:
        from repro.sweep import ResultCache, SweepExecutor, default_cache_dir

        cache = None
        if not args.no_cache:
            cache = ResultCache(args.cache_dir or default_cache_dir())
        args.executor = SweepExecutor(jobs=args.jobs, cache=cache)
    return args.executor


def _sweep_summary(args) -> None:
    """One-line executor summary after each figure command: worker
    count, cache hit/miss counts, and sweep wall-clock."""
    stats = _executor(args).stats
    print(f"\n[sweep] jobs={stats.jobs} cache hits={stats.hits} "
          f"misses={stats.misses} wall={stats.wall_seconds:.2f}s")


def _latency_figure(args, name: str, runner) -> None:
    results = runner(args.scale, executor=_executor(args))
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
    """The Figure 5/6 sweep, run once per invocation."""
    if args.sweep is None:
        args.sweep = experiments.throughput_sweep_experiment(
            args.scale, executor=_executor(args))
    return args.sweep


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


# ----------------------------------------------------------------------
# Analyzers: lint, protolint, divergence


def _print_rules(rules) -> None:
    for rule in rules.values():
        print(f"{rule.code}[{rule.slug}] ({rule.severity}): "
              f"{rule.summary}")


def _emit_findings(findings, fmt: str, tool: str,
                   clean_message: str) -> int:
    """Render findings in the chosen format; 0 when clean, 1 on any."""
    from repro.analysis.findings import (format_findings, format_github,
                                         sort_findings)

    if fmt == "json":
        ordered = sort_findings(findings)
        errors = sum(1 for f in ordered if f.rule.severity == "error")
        print(json.dumps({
            "tool": tool,
            "findings": [f.to_dict() for f in ordered],
            "errors": errors,
            "warnings": len(ordered) - errors,
        }, indent=2))
    elif fmt == "github":
        rendered = format_github(findings)
        if rendered:
            print(rendered)
    else:
        print(format_findings(findings, clean_message=clean_message))
    return 1 if findings else 0


def cmd_lint(args) -> int:
    from repro.analysis.detlint import RULES, lint_paths

    if args.list_rules:
        _print_rules(RULES)
        return 0
    findings = lint_paths(args.paths or ["src"],
                          keep_suppressed=args.keep_suppressed)
    return _emit_findings(findings, args.fmt, "detlint",
                          clean_message="clean: no determinism findings")


def cmd_protolint(args) -> int:
    from pathlib import Path

    from repro.analysis import protolint

    if args.list_rules:
        _print_rules(protolint.RULES)
        return 0

    if args.catalog or args.check_docs or args.write_docs:
        catalog = protolint.render_catalog(protolint.corpus())
        if args.catalog:
            print(catalog, end="")
            return 0
        doc = Path(args.check_docs or args.write_docs)
        text = doc.read_text(encoding="utf-8") if doc.is_file() else ""
        current = protolint.extract_doc_catalog(text)
        if current is None:
            print(f"{doc}: no such file, or no protolint catalog markers",
                  file=sys.stderr)
            return 2
        if args.write_docs:
            doc.write_text(protolint.embed_catalog(text, catalog),
                           encoding="utf-8")
            print(f"[updated catalog section in {doc}]")
            return 0
        if current != catalog:
            print(f"{doc} catalog section is stale; regenerate with "
                  f"`python -m repro protolint --write-docs`",
                  file=sys.stderr)
            return 1
        print(f"{doc} catalog section matches the corpus")
        return 0

    try:
        findings = protolint.lint(args.plant_bug)
    except protolint.PlantError as exc:
        # Not exit 1: that would pass a self-check whose bug never landed.
        print(f"cannot plant {args.plant_bug}: {exc}", file=sys.stderr)
        return 2
    return _emit_findings(
        findings, args.fmt, "protolint",
        clean_message="clean: no protocol-conformance findings")


def cmd_divergence(args) -> int:
    from repro.analysis.divergence import run_child, run_divergence

    if args.child:
        if args.out is None:
            print("--child requires --out", file=sys.stderr)
            return 2
        run_child(args.system, args.seed, args.txns, args.out,
                  plant_set_bug=args.plant_set_bug)
        return 0
    report = run_divergence(
        args.system, seed=args.seed, n_txns=args.txns,
        hash_seeds=(args.hash_seeds[0], args.hash_seeds[1]),
        plant_set_bug=args.plant_set_bug, context=args.context)
    print(report.render())
    return 1 if report.diverged else 0


# ----------------------------------------------------------------------
# Chaos: the nemesis harness


def _seed_text(seeds: List[int]) -> str:
    """A seed list as the ``--seeds`` syntax that reads it back."""
    if len(seeds) > 1 and seeds == list(range(seeds[0], seeds[-1] + 1)):
        return f"{seeds[0]}..{seeds[-1]}"
    return ",".join(map(str, seeds))


def _print_violations(violations, limit: int = 8) -> None:
    for violation in violations[:limit]:
        print(f"    {violation}")
    if len(violations) > limit:
        print(f"    ... and {len(violations) - limit} more")


def _report_counterexample(system: str, seed: int, result, opts,
                           planted_bug) -> None:
    """Minimize the failing schedule and print the counterexample
    report: the minimal schedule, its violations, the nemesis timeline,
    the causal message chain and the per-link fault counters."""
    from dataclasses import replace

    from repro.bench.report import render_link_faults
    from repro.chaos.minimize import minimize_schedule
    from repro.chaos.runner import run_chaos
    from repro.trace.tracer import SPAN_NEMESIS

    print(f"    minimizing {len(result.schedule)}-event nemesis "
          "schedule (deterministic replays)...")

    def still_fails(candidate):
        rerun = run_chaos(system, seed, opts, schedule=candidate,
                          planted_bug=planted_bug)
        return not rerun.ok

    minimal = minimize_schedule(result.schedule, still_fails)
    print(f"    minimal reproduction: seed {seed}, {len(minimal)} of "
          f"{len(result.schedule)} nemesis events:")
    for i, event in enumerate(minimal, 1):
        print(f"      {i}. {event.describe()}")

    # Replay the minimal schedule with tracing for the causal chain.
    traced = run_chaos(system, seed, replace(opts, trace=True),
                       schedule=minimal, planted_bug=planted_bug)
    _print_violations(traced.violations)
    tid = next((v.tid for v in traced.violations if v.tid is not None),
               None)
    tracer = traced.tracer
    if tracer is not None:
        nemesis_spans = [s for s in tracer.orphan_spans
                         if s.kind == SPAN_NEMESIS]
        if nemesis_spans:
            print("    nemesis timeline during reproduction:")
            for span in nemesis_spans:
                print(f"      {span.start_ms:9.1f}ms  {span.detail}")
        txn = tracer.get(tid) if tid is not None else None
        if txn is not None:
            print(f"    causal trace chain for txn {tid} "
                  "(client-observed critical path):")
            for ann in txn.critical_path():
                wan = "WAN" if ann.cross_dc else "local"
                print(f"      {ann.send_ms:9.1f}ms  {ann.msg_type} "
                      f"{ann.src} -> {ann.dst} [{wan}] "
                      f"hops={ann.wan_hops}")
    if traced.link_rows:
        print("    per-link fault counters:")
        for line in render_link_faults(traced.link_rows).splitlines():
            print(f"      {line}")


def cmd_chaos(args) -> int:
    """Run each seed on each system; on the first failure, report (and
    by default minimize) the counterexample and stop."""
    from repro.chaos.bugs import PLANTABLE_BUGS
    from repro.chaos.runner import ChaosOptions, run_chaos

    opts = ChaosOptions(rounds=args.rounds, n_events=args.events,
                        restart_weight=args.restart_weight)
    planted_bug = PLANTABLE_BUGS.get(args.plant_bug)
    plant_note = f" plant-bug={args.plant_bug}" if args.plant_bug else ""
    for system in args.system:
        print(f"chaos: system={system} seeds={_seed_text(args.seeds)} "
              f"rounds={opts.rounds} events={opts.n_events}{plant_note}")
        for seed in args.seeds:
            result = run_chaos(system, seed, opts,
                               planted_bug=planted_bug)
            dropped = sum(row[4] for row in result.link_rows)
            duplicated = sum(row[5] for row in result.link_rows)
            restarts = sum(n for _, n in result.restart_counts)
            if result.ok:
                print(f"  seed {seed}: ok    committed={result.committed}"
                      f" aborted={result.aborted}"
                      f" nemesis={len(result.schedule)}"
                      f" drops={dropped} dups={duplicated}"
                      f" restarts={restarts}")
                continue
            print(f"  seed {seed}: FAIL  "
                  f"{len(result.violations)} oracle violation(s)")
            _print_violations(result.violations)
            if not args.no_minimize:
                _report_counterexample(system, seed, result, opts,
                                       planted_bug)
            # One counterexample is the deliverable; stop scanning.
            return 1
    total = len(args.system) * len(args.seeds)
    print(f"chaos: all oracles green ({total} run(s), "
          f"{len(args.system)} system(s))")
    return 0


# ----------------------------------------------------------------------
# Perf: benchmark suites and BENCH-file comparison


def _rate(value: float) -> str:
    if value >= 1_000_000:
        return f"{value / 1_000_000:.2f}M"
    if value >= 1_000:
        return f"{value / 1_000:.1f}k"
    return f"{value:.1f}"


def cmd_perf_run(args) -> int:
    from repro.perf.schema import validate_bench
    from repro.perf.suites import bench_document, run_suites

    scale = "full" if args.full else "quick"
    executor = None
    cache_stats = None
    if args.jobs > 1:
        from repro.sweep import SweepExecutor

        # Perf reps are never cached (rates must be measured fresh), so
        # the executor runs cacheless; the BENCH document still records
        # the hit/miss counts for the run that produced it.
        executor = SweepExecutor(jobs=args.jobs, cache=None)
    results = run_suites(args.suites, scale=scale,
                         progress=lambda name:
                         print(f"  running {name} ...", flush=True),
                         executor=executor)
    if executor is not None:
        cache_stats = {"hits": executor.stats.hits,
                       "misses": executor.stats.misses}
    doc = bench_document(results, label=args.label, scale=scale,
                         jobs=args.jobs, cache_stats=cache_stats)
    errors = validate_bench(doc)
    if errors:  # pragma: no cover - a bug in suites/schema, not user error
        raise SystemExit("generated BENCH document is invalid:\n  "
                         + "\n  ".join(errors))
    out_path = args.out or f"BENCH_{args.label}.json"
    with open(out_path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\n{'suite':<24} {'unit':<9} {'rate/s':>10} "
          f"{'units':>10} {'wall s':>8}")
    for name, result in results.items():
        print(f"{name:<24} {result.unit:<9} "
              f"{_rate(result.rate_per_sec):>10} "
              f"{result.units_processed:>10} "
              f"{result.wall_seconds:>8.3f}")
    print(f"\n[written {out_path}]")
    return 0


def cmd_perf_compare(args) -> int:
    from repro.perf.compare import compare_benches

    result = compare_benches(args.baseline, args.candidate,
                             threshold=args.threshold)
    for delta in result.deltas:
        verdict = "ok"
        if delta.ops_drift:
            verdict = "OPS DRIFT"
        elif delta.regressed:
            verdict = "ok (rate ignored)" if args.ops_only else "REGRESSED"
        elif delta.improved:
            verdict = "improved"
        print(f"{delta.name:<24} {_rate(delta.base_rate):>10} -> "
              f"{_rate(delta.cand_rate):>10}  ({delta.ratio:5.2f}x)  "
              f"{verdict}")
        for op_name, values in sorted(delta.ops_drift.items()):
            print(f"    ops[{op_name}]: {values['base']} -> "
                  f"{values['cand']}")
    for name in result.missing_in_candidate:
        print(f"{name:<24} MISSING in candidate")
    for name in result.extra_in_candidate:
        print(f"{name:<24} (new in candidate)")
    if result.host_diffs:
        diffs = ", ".join(
            f"{key}: {v['base']!r} -> {v['cand']!r}"
            for key, v in sorted(result.host_diffs.items()))
        print(f"\nhost differs (informational, never gates): {diffs}")
    if result.ok(ops_only=args.ops_only):
        print("\ncompare: OK")
        return 0
    print("\ncompare: FAILED "
          f"({len(result.regressions)} rate regression(s), "
          f"{len(result.ops_drifted)} suite(s) with op drift, "
          f"{len(result.missing_in_candidate)} missing suite(s))")
    return 1


def cmd_perf_list(args) -> None:
    from repro.perf.suites import SUITES

    for name in SUITES:
        print(name)


# ----------------------------------------------------------------------
# Runtime backends: conform, cluster, serve


def cmd_conform(args) -> int:
    """In-process differential conformance over systems x seeds."""
    from repro.runtime.conformance import format_result, run_conformance

    failures = 0
    for system in args.systems:
        for seed in args.seeds:
            result = run_conformance(system, seed, args.rounds)
            print(format_result(result))
            if not result.ok:
                failures += 1
    total = len(args.systems) * len(args.seeds)
    print(f"\nconform: {total - failures}/{total} runs conformant")
    return 1 if failures else 0


def cmd_cluster(args) -> int:
    """Multi-process localhost cluster + differential evaluation."""
    from repro.runtime.conformance import format_result
    from repro.runtime.serve import run_cluster

    result = run_cluster(args.system, args.seed, args.rounds)
    print(format_result(result))
    return 0 if result.ok else 1


def cmd_serve(args) -> int:
    """One serve child (driven by ``repro cluster`` over control frames)."""
    import asyncio

    from repro.runtime.serve import serve_async

    return asyncio.run(serve_async(args.system, args.seed, args.proc,
                                   host=args.host, port=args.port))


# ----------------------------------------------------------------------
# The parser


def build_parser() -> argparse.ArgumentParser:
    from repro.chaos.bugs import PLANTABLE_BUGS
    from repro.runtime.conformance import ROUNDS

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the Carousel paper's tables and figures, "
                    "and run its analyzers, chaos harness, benchmarks "
                    "and runtime backends.  Run `python -m repro <verb> "
                    "--help` for each verb's options.")
    verbs = parser.add_subparsers(dest="verb", required=True,
                                  metavar="<verb>")

    def verb(name, func, summary, into=verbs):
        sub = into.add_parser(name, help=summary, description=summary)
        sub.set_defaults(func=func)
        return sub

    def json_option(sub):
        sub.add_argument("--json", default=None, metavar="PATH",
                         help="also write measured series to a JSON file")
        return sub

    def system_option(sub, **kwargs):
        sub.add_argument("--system", type=systems.canonical,
                         choices=systems.SYSTEMS, **kwargs)

    def seeds_option(sub, default):
        sub.add_argument("--seeds", default=default,
                         type=systems.parse_seeds,
                         help='seed set: "0..9", "3", or "1,4,7"')

    def scale_option(sub):
        sub.add_argument("--scale", choices=experiments.SCALES,
                         default=experiments.QUICK,
                         help="smoke (CI), quick (default), or "
                              "paper-length runs")

    def sweep_options(sub):
        sub.add_argument("--jobs", type=_positive_int, default=1,
                         metavar="N",
                         help="worker processes for figure sweeps "
                              "(default 1: in-process)")
        sub.add_argument("--no-cache", action="store_true",
                         help="skip the on-disk sweep result cache")
        sub.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="sweep result cache directory (default: "
                              "$REPRO_SWEEP_CACHE or .repro-sweep-cache)")
        sub.set_defaults(executor=None, sweep=None)

    def linter(name, func, summary):
        sub = verb(name, func, summary)
        sub.add_argument("--list-rules", action="store_true",
                         help="print the rule table and exit")
        sub.add_argument("--format", choices=["text", "json", "github"],
                         default="text", dest="fmt",
                         help="output format (github = workflow "
                              "annotations)")
        return sub

    json_option(verb("table1", cmd_table1,
                     "Table 1: inter-datacenter round-trip times"))
    json_option(verb("table2", cmd_table2,
                     "Table 2: the Retwis transaction mix"))
    verb("trace-basic", cmd_trace_basic,
         "Figure 2: the basic protocol's message trace")
    verb("trace-cpc", cmd_trace_cpc,
         "Figure 3: CPC without and with conflicts")
    trace = json_option(verb(
        "trace", cmd_trace,
        "span/WANRT trace of one transaction, checked against the "
        "paper's round-trip claims (--json: Chrome trace)"))
    system_option(trace, default="carousel-basic",
                  help="system to trace (aliases: basic, fast)")
    trace.add_argument("--txn-id", type=_positive_int, default=1,
                       metavar="N",
                       help="run N transactions and show the Nth")
    trace.add_argument("--read-only", action="store_true",
                       help="trace a read-only transaction")
    trace.add_argument("--slow-path", action="store_true",
                       help="force TAPIR's IR slow path with a rival "
                            "writer (leaderless systems only)")

    for name, func, summary, sweeps in (
            ("fig4", cmd_fig4, "Figure 4: Retwis latency CDFs", True),
            ("fig5", cmd_fig5, "Figure 5: throughput sweep", True),
            ("fig6", cmd_fig6, "Figure 6: abort rate sweep", True),
            ("fig7", cmd_fig7, "Figure 7: bandwidth per node", False),
            ("fig8", cmd_fig8, "Figure 8: YCSB+T latency CDFs", True)):
        figure = json_option(verb(name, func, summary))
        scale_option(figure)
        if sweeps:
            sweep_options(figure)
    everything = verb("all", cmd_all, "every table and figure, in order")
    scale_option(everything)
    sweep_options(everything)
    everything.set_defaults(json=None)

    lint = linter("lint", cmd_lint,
                  "AST determinism linter (detlint); exits 1 on any "
                  "non-suppressed finding")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--keep-suppressed", action="store_true",
                      help="also report findings silenced by "
                           "'# detlint: ignore' annotations")
    protolint = linter(
        "protolint", cmd_protolint,
        "protocol-conformance analyzer: the declared handler tables and "
        "contracts, checked against each other and against a traced DES "
        "corpus; exits 1 on any finding")
    protolint.add_argument(
        "--catalog", action="store_true",
        help="print the generated message catalog (observed sends, "
             "causes and per-transaction counts) and exit")
    protolint.add_argument(
        "--check-docs", nargs="?", const=PROTOCOL_DOC, default=None,
        metavar="PATH",
        help=f"verify the catalog section in PATH (default "
             f"{PROTOCOL_DOC}) matches the corpus byte-for-byte; exit 1 "
             "on drift")
    protolint.add_argument(
        "--write-docs", nargs="?", const=PROTOCOL_DOC, default=None,
        metavar="PATH",
        help=f"regenerate the catalog section in PATH (default "
             f"{PROTOCOL_DOC}) in place")
    protolint.add_argument(
        "--plant-bug", choices=["dead-handler", "missing-reply"],
        default=None,
        help="self-check: patch a known protocol bug into the tables or "
             "handlers and lint the result (exit 1 proves the rules "
             "fire)")

    divergence = verb(
        "divergence", cmd_divergence,
        "run the same scenario twice under different PYTHONHASHSEED "
        "values and localize the first divergent send")
    system_option(divergence, default="carousel-basic")
    divergence.add_argument("--seed", type=int, default=42,
                            help="kernel seed shared by both runs")
    divergence.add_argument("--txns", type=int, default=2, metavar="N",
                            help="transactions per run (default 2)")
    divergence.add_argument("--hash-seeds", type=int, nargs=2,
                            default=[1, 2], metavar=("A", "B"),
                            help="PYTHONHASHSEED values for the two runs")
    divergence.add_argument("--context", type=int, default=6,
                            help="common records to show before a "
                                 "divergence")
    divergence.add_argument("--plant-set-bug", action="store_true",
                            help="reintroduce PR 1's coordinator "
                                 "set-iteration bug to demonstrate "
                                 "localization")
    # Internal: run one traced scenario in this process, log to --out.
    divergence.add_argument("--child", action="store_true",
                            help=argparse.SUPPRESS)
    divergence.add_argument("--out", default=None, help=argparse.SUPPRESS)

    chaos = verb("chaos", cmd_chaos,
                 "deterministic nemesis harness: adversarial faults, "
                 "safety/liveness oracles, schedule minimization")
    chaos.add_argument("--system", default="carousel-fast",
                       type=systems.parse_systems,
                       help="|".join(systems.SYSTEMS)
                            + "|all (aliases: basic, fast)")
    seeds_option(chaos, "0..4")
    chaos.add_argument("--rounds", type=int, default=25,
                       help="workload transactions per run")
    chaos.add_argument("--events", type=int, default=6,
                       help="nemesis events per schedule")
    chaos.add_argument("--restart-weight", type=int, default=0,
                       metavar="W",
                       help="extra sampling weight for power-cycle "
                            "(restart) nemesis events (default 0: "
                            "unchanged legacy timelines); any W > 0 also "
                            "power-cycles every server at the end and "
                            "checks durability against the WAL-rebuilt "
                            "state")
    chaos.add_argument("--plant-bug", choices=sorted(PLANTABLE_BUGS),
                       default=None,
                       help="activate a known bug to validate the oracles")
    chaos.add_argument("--no-minimize", action="store_true",
                       help="report failures without shrinking schedules")

    perf = verbs.add_parser(
        "perf", help="kernel-throughput benchmarks and BENCH-file "
                     "comparison")
    perf_verbs = perf.add_subparsers(dest="perf_verb", required=True,
                                     metavar="<verb>")
    perf_run = verb("run", cmd_perf_run, "run benchmark suites, write a "
                    "BENCH_<label>.json", into=perf_verbs)
    perf_run.add_argument("--label", default="local",
                          help="label for the output file (default: "
                               "local)")
    perf_run.add_argument("--out", default=None, metavar="PATH",
                          help="output path (default: BENCH_<label>.json)")
    perf_run.add_argument("--suites", type=_suite_names, default=None,
                          metavar="A,B,...",
                          help="comma-separated suite subset (default: "
                               "all)")
    perf_run.add_argument("--jobs", type=_positive_int, default=1,
                          metavar="N",
                          help="worker processes for suite repetitions "
                               "(default 1: in-process)")
    scale = perf_run.add_mutually_exclusive_group()
    scale.add_argument("--quick", action="store_true", default=True,
                       help="CI-sized runs (default)")
    scale.add_argument("--full", action="store_true",
                       help="long-form runs for real measurements")
    compare = verb("compare", cmd_perf_compare, "diff two BENCH files; "
                   "exits 1 on a regression", into=perf_verbs)
    compare.add_argument("baseline", type=_bench_file)
    compare.add_argument("candidate", type=_bench_file)
    compare.add_argument("--threshold", type=float, default=0.15,
                         help="tolerated relative rate drop "
                              "(default: 0.15)")
    compare.add_argument("--ops-only", action="store_true",
                         help="ignore wall-clock rates; fail only on "
                              "deterministic op-counter drift (CI mode)")
    verb("list", cmd_perf_list, "list available suites", into=perf_verbs)

    conform = verb("conform", cmd_conform,
                   "differential conformance: DES vs asyncio/TCP in one "
                   "process")
    conform.add_argument("--systems", default="all",
                         type=systems.parse_systems,
                         help="comma-separated systems, or 'all'")
    seeds_option(conform, "0,1,2")
    cluster = verb("cluster", cmd_cluster,
                   "multi-process localhost cluster smoke")
    system_option(cluster, default="carousel-fast")
    cluster.add_argument("--seed", type=int, default=0)
    for sub in (conform, cluster):
        sub.add_argument("--rounds", type=int, default=ROUNDS,
                         help="transactions per run (default %(default)s)")
    serve = verb("serve", cmd_serve, "one logical process of a deployment")
    system_option(serve, required=True)
    serve.add_argument("--seed", type=int, required=True)
    serve.add_argument("--proc", required=True,
                       help="logical process name, e.g. dc-oregon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (default: ephemeral)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args) or 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
