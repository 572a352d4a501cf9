"""Compare two ledger result documents, side A (the base) against side B.

    python3 benchmarks/ledger/compare.py A.json B.json
    python3 benchmarks/ledger/compare.py A1.json A2.json ... --vs B1.json ...

One row per (workload, end-to-end metric): both medians, the ratio B/A
with its base, the metric's bound from ``BENCHMARK.json`` and a verdict:

``improved`` / ``regressed``
    B is better / worse than A by more than the bound.
``unchanged``
    the difference is within the bound.
``unresolved``
    a side was given several runs and its own spread (interquartile
    range over median; full range below four runs) exceeds the bound, so
    the difference cannot be told from noise.

Under the DES one seed fixes every count and every virtual-clock value,
so for two documents of the same seed and duration those metrics are
also compared for exact equality, and a difference is printed as the
change in the count — never as a speed-up.  The exit code is 1 when any
row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import List, Optional, Sequence, Tuple

import spec as ledger

_EXACT_CLOCKS = ("count", "virtual")


def _load(paths: Sequence[str]) -> List[dict]:
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    return docs


def _values(docs: Sequence[dict], workload: str, kind: str,
            name: str) -> List[float]:
    return [d["workloads"][workload][kind][name]["value"] for d in docs
            if name in d["workloads"].get(workload, {}).get(kind, {})]


def spread(values: Sequence[float]) -> Optional[float]:
    """A side's own run-to-run spread as a share of its median; ``None``
    when the side is a single run."""
    if len(values) < 2:
        return None
    centre = statistics.median(values)
    if centre == 0:
        return 0.0 if max(values) == min(values) else float("inf")
    if len(values) < 4:
        return (max(values) - min(values)) / abs(centre)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(centre)


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Tuple[str, float]:
    """``(verdict, worse_by)``: how much worse B's median is than A's,
    as a share of A's, in the metric's own direction."""
    base, other = statistics.median(a), statistics.median(b)
    if base == 0:
        worse_by = 0.0 if other == 0 else float("inf")
    else:
        worse_by = (other - base) / abs(base)
    if better == "higher":
        worse_by = -worse_by
    if any(s is not None and s > bound for s in (spread(a), spread(b))):
        return "unresolved", worse_by
    if worse_by > bound:
        return "regressed", worse_by
    if worse_by < -bound:
        return "improved", worse_by
    return "unchanged", worse_by


def _same_inputs(side_a: Sequence[dict], side_b: Sequence[dict]) -> bool:
    keys = {(d["seed"], d["seconds"], d["smoke"]) for d in (*side_a, *side_b)}
    return len(keys) == 1


def compare(side_a: Sequence[dict], side_b: Sequence[dict]) -> int:
    """Print the comparison; return how many rows regressed."""
    declared = ledger.declaration()
    tally = {"improved": 0, "unchanged": 0, "regressed": 0, "unresolved": 0}
    exact_expected = _same_inputs(side_a, side_b)
    print(f"{'workload':<24}{'metric':<22}{'A':>14}{'B':>14}  "
          f"{'B/A':>7} (base A)  {'bound':>6}  verdict")
    for workload in ledger.workload_names():
        runtime = ledger.WORKLOADS[workload].runtime
        for metric in declared["end_to_end"]:
            name = metric["name"]
            a = _values(side_a, workload, "end_to_end", name)
            b = _values(side_b, workload, "end_to_end", name)
            if not a or not b:
                continue
            word, _ = verdict(a, b, metric["better"], metric["bound"])
            tally[word] += 1
            base, other = statistics.median(a), statistics.median(b)
            ratio = other / base if base else float("nan")
            note = ""
            clock = ledger.metric_clock(name, metric["unit"], runtime)
            if exact_expected and runtime == "des" \
                    and clock in _EXACT_CLOCKS:
                note = "  exact: identical" if a == b else \
                    f"  exact: DIFFERS by {other - base:+.6g} {metric['unit']}"
            print(f"{workload:<24}{name:<22}{base:>14.4f}{other:>14.4f}  "
                  f"{ratio:>7.4f} ({base:.4g} {metric['unit']})  "
                  f"{metric['bound']:>6}  {word}{note}")
    if exact_expected:
        _exact_layer_counts(side_a, side_b, declared)
    print("summary: " + ", ".join(f"{n} {word}" for word, n in tally.items()))
    return tally["regressed"]


def _exact_layer_counts(side_a: Sequence[dict], side_b: Sequence[dict],
                        declared: dict) -> None:
    """Per-layer counts and virtual-clock values under the DES: equal or
    printed as a count."""
    same = differ = 0
    for workload in ledger.workload_names():
        if ledger.WORKLOADS[workload].runtime != "des":
            continue
        for metric in declared["per_layer"]:
            name = metric["name"]
            if ledger.metric_clock(name, metric["unit"], "des") \
                    not in _EXACT_CLOCKS:
                continue
            a = _values(side_a, workload, "per_layer", name)
            b = _values(side_b, workload, "per_layer", name)
            if not a or not b:
                continue
            if a == b:
                same += 1
                continue
            differ += 1
            print(f"count differs: {workload} {name}: "
                  f"{statistics.median(a):.6g} -> {statistics.median(b):.6g} "
                  f"{metric['unit']} "
                  f"({statistics.median(b) - statistics.median(a):+.6g})")
    if same or differ:
        print(f"des per-layer counts and virtual-clock values: "
              f"{same} identical, {differ} differ")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+",
                        help="A.json B.json, or side A's runs with --vs")
    parser.add_argument("--vs", nargs="+", help="side B's runs")
    args = parser.parse_args(argv)
    if args.vs:
        side_a, side_b = args.files, args.vs
    elif len(args.files) == 2:
        side_a, side_b = args.files[:1], args.files[1:]
    else:
        parser.error("give exactly A.json B.json, or use --vs")
    return 1 if compare(_load(side_a), _load(side_b)) else 0


if __name__ == "__main__":
    sys.exit(main())
