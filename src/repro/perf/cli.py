"""``python -m repro perf``: run the benchmark suites or compare BENCH
files.

Usage::

    python -m repro perf run --quick --label seed
    python -m repro perf run --suites kernel-churn-heap,timer-cancel-heap
    python -m repro perf run --list
    python -m repro perf compare BENCH_seed.json BENCH_pr.json
    python -m repro perf compare --ops-only BENCH_seed.json BENCH_pr.json

``run`` writes ``BENCH_<label>.json`` (schema-validated before the write)
and prints a rate table.  ``compare`` exits non-zero when the candidate
regresses: rates past the threshold, or — always fatal — any exact
operation-counter drift.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.perf.compare import CompareResult, compare_benches
from repro.perf.schema import validate_bench
from repro.perf.suites import SCALES, SUITES, bench_document, run_suites


def _parse_suites(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    names = [name.strip() for name in value.split(",") if name.strip()]
    return names or None


def _load_bench(path: str) -> dict:
    with open(path) as handle:
        doc = json.load(handle)
    errors = validate_bench(doc)
    if errors:
        raise SystemExit(f"{path} is not a valid BENCH document:\n  "
                         + "\n  ".join(errors))
    return doc


def _rate(value: float) -> str:
    if value >= 1_000_000:
        return f"{value / 1_000_000:.2f}M"
    if value >= 1_000:
        return f"{value / 1_000:.1f}k"
    return f"{value:.1f}"


def cmd_run(args) -> int:
    names = _parse_suites(args.suites)
    scale = "full" if args.full else "quick"
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    executor = None
    cache_stats = None
    if args.jobs > 1:
        from repro.sweep import SweepExecutor

        # Perf reps are never cached (rates must be measured fresh), so
        # the executor runs cacheless; the BENCH document still records
        # the hit/miss counts for the run that produced it.
        executor = SweepExecutor(jobs=args.jobs, cache=None)
    results = run_suites(names, scale=scale,
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


def _report_compare(result: CompareResult, ops_only: bool) -> None:
    for delta in result.deltas:
        verdict = "ok"
        if delta.ops_drift:
            verdict = "OPS DRIFT"
        elif delta.regressed:
            verdict = "ok (rate ignored)" if ops_only else "REGRESSED"
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


def cmd_compare(args) -> int:
    baseline = _load_bench(args.baseline)
    candidate = _load_bench(args.candidate)
    result = compare_benches(baseline, candidate,
                             threshold=args.threshold)
    _report_compare(result, ops_only=args.ops_only)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro perf",
        description="Kernel-throughput benchmarks and BENCH-file "
                    "comparison.")
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="run benchmark suites, write a "
                                     "BENCH_<label>.json")
    run.add_argument("--label", default="local",
                     help="label for the output file (default: local)")
    run.add_argument("--out", default=None, metavar="PATH",
                     help="output path (default: BENCH_<label>.json)")
    run.add_argument("--suites", default=None, metavar="A,B,...",
                     help="comma-separated suite subset (default: all)")
    run.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes for suite repetitions "
                          "(default 1: in-process)")
    scale = run.add_mutually_exclusive_group()
    scale.add_argument("--quick", action="store_true", default=True,
                       help="CI-sized runs (default)")
    scale.add_argument("--full", action="store_true",
                       help="long-form runs for real measurements")
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="diff two BENCH files")
    compare.add_argument("baseline")
    compare.add_argument("candidate")
    compare.add_argument("--threshold", type=float, default=0.15,
                         help="tolerated relative rate drop "
                              "(default: 0.15)")
    compare.add_argument("--ops-only", action="store_true",
                         help="ignore wall-clock rates; fail only on "
                              "deterministic op-counter drift (CI mode)")
    compare.set_defaults(func=cmd_compare)

    lister = sub.add_parser("list", help="list available suites")
    lister.set_defaults(func=cmd_list)
    return parser


def cmd_list(args) -> int:
    for name in SUITES:
        print(name)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; ``argv`` includes the leading ``perf`` verb."""
    argv = list(argv) if argv is not None else sys.argv[1:]
    if argv and argv[0] == "perf":
        argv = argv[1:]
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
