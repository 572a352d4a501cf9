"""``python -m repro chaos`` — the nemesis harness entry point.

Runs seeded chaos scenarios against one system (or all four), reports
per-seed oracle outcomes, and on the first failure shrinks the nemesis
schedule to a minimal reproducing subsequence and prints it together
with the failing seed, the nemesis timeline, and the causal chain of
messages behind the violating transaction.

Examples::

    python -m repro chaos --system carousel-fast --seeds 0..9
    python -m repro chaos --system all --seeds 0..2 --rounds 15
    python -m repro chaos --system carousel-fast --seeds 0..9 \\
        --plant-bug writeback-dup
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from typing import Optional, Sequence

from repro import systems
from repro.bench.report import render_link_faults
from repro.chaos.bugs import PLANTABLE_BUGS
from repro.chaos.minimize import minimize_schedule
from repro.chaos.oracles import OracleViolation
from repro.chaos.runner import ChaosOptions, run_chaos
from repro.scenario import Run
from repro.trace.tracer import SPAN_NEMESIS


def _print_violations(violations: Sequence[OracleViolation],
                      limit: int = 8) -> None:
    for violation in violations[:limit]:
        print(f"    {violation}")
    if len(violations) > limit:
        print(f"    ... and {len(violations) - limit} more")


def _parallel_first_failing(system: str, seed: int, opts: ChaosOptions,
                            plant_bug_name: Optional[str], jobs: int):
    """Batch candidate evaluation for the minimizer: replay every
    candidate schedule across ``jobs`` worker processes and pick the
    smallest failing index — the same selection a lazy sequential scan
    makes, so the minimized schedule is identical."""
    from repro.sweep import SweepExecutor
    from repro.sweep.kinds import chaos_replay_spec

    executor = SweepExecutor(jobs=jobs, cache=None)

    def first_failing(candidates):
        specs = [chaos_replay_spec(system, seed, opts, candidate,
                                   plant_bug=plant_bug_name)
                 for candidate in candidates]
        return executor.first_failing(specs)

    return first_failing


def _report_counterexample(system: str, seed: int, result: Run,
                           opts: ChaosOptions, planted_bug,
                           plant_bug_name: Optional[str] = None,
                           jobs: int = 1) -> None:
    """Minimize the failing schedule and print the counterexample report."""
    print(f"    minimizing {len(result.schedule)}-event nemesis "
          f"schedule (deterministic replays, jobs={jobs})...")

    def still_fails(candidate):
        rerun = run_chaos(system, seed, opts, schedule=candidate,
                          planted_bug=planted_bug)
        return not rerun.ok

    first_failing = None
    if jobs > 1:
        first_failing = _parallel_first_failing(system, seed, opts,
                                                plant_bug_name, jobs)
    minimal = minimize_schedule(result.schedule, still_fails,
                                first_failing=first_failing)
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; ``argv`` includes the leading ``chaos`` verb."""
    argv = list(argv) if argv is not None else []
    if argv and argv[0] == "chaos":
        argv = argv[1:]
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="Deterministic nemesis harness: adversarial faults, "
                    "safety/liveness oracles, schedule minimization.")
    parser.add_argument("--system", default="carousel-fast",
                        help="|".join(systems.SYSTEMS)
                             + "|all (aliases: basic, fast)")
    parser.add_argument("--seeds", default="0..4",
                        help='seed set: "0..9", "3", or "1,4,7"')
    parser.add_argument("--rounds", type=int, default=25,
                        help="workload transactions per run")
    parser.add_argument("--events", type=int, default=6,
                        help="nemesis events per schedule")
    parser.add_argument("--restart-weight", type=int, default=0,
                        metavar="W",
                        help="extra sampling weight for power-cycle "
                             "(restart) nemesis events (default 0: "
                             "unchanged legacy timelines); any W > 0 "
                             "also power-cycles every server at the end "
                             "and checks durability against the "
                             "WAL-rebuilt state")
    parser.add_argument("--plant-bug", choices=sorted(PLANTABLE_BUGS),
                        default=None,
                        help="activate a known bug to validate the oracles")
    parser.add_argument("--no-minimize", action="store_true",
                        help="report failures without shrinking schedules")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for minimization replays "
                             "(default 1: in-process)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    try:
        names = systems.parse_systems(args.system)
        seeds = systems.parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(str(exc))
    opts = ChaosOptions(rounds=args.rounds, n_events=args.events,
                        restart_weight=args.restart_weight)
    planted_bug = PLANTABLE_BUGS.get(args.plant_bug)

    failures = 0
    for system in names:
        plant_note = (f" plant-bug={args.plant_bug}"
                      if args.plant_bug else "")
        print(f"chaos: system={system} seeds={args.seeds} "
              f"rounds={opts.rounds} events={opts.n_events}{plant_note}")
        for seed in seeds:
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
            failures += 1
            print(f"  seed {seed}: FAIL  "
                  f"{len(result.violations)} oracle violation(s)")
            _print_violations(result.violations)
            if not args.no_minimize:
                _report_counterexample(system, seed, result, opts,
                                       planted_bug,
                                       plant_bug_name=args.plant_bug,
                                       jobs=args.jobs)
            # One counterexample is the deliverable; stop scanning.
            return 1
    total = len(names) * len(seeds)
    print(f"chaos: all oracles green ({total} run(s), "
          f"{len(names)} system(s))")
    return 0
