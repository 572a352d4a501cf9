"""The ledger benchmark's one command.

    python3 benchmarks/ledger/run.py [--workload W] [--seed N]
        [--seconds S] [--trace 0|1] [--traced] [--smoke] [--out FILE]

Without ``--workload`` it runs all six workloads and writes one result
document to ``benchmarks/ledger/out/ledger_<label>.json``; with it, one
workload.  Either way every workload runs in child interpreters of its
own, one after the other (``PYTHONHASHSEED=0``, one thread): one child
measures, :data:`SETUP_REPS` more only set up, and ``setup_s`` is the
median over all of them.  A measurement starts only while the host is
quiet (:class:`HostGate`).  ``--trace 1`` runs the traced pass instead and
reports the per-layer metrics; ``--traced`` runs both passes.

Every metric is printed by name with its unit, clock and sample count;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
when any verify step failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import spec as ledger

#: Extra children per workload that only set up (see the module docstring).
SETUP_REPS = 3
#: A child must end well inside the contract's 180 s per run.
CHILD_TIMEOUT_S = 140
#: The quiet gate (see :class:`HostGate`): a host-speed probe this much
#: slower than the fastest one this checkout has seen means the host is
#: in a slow episode; wait for it to pass for at most this long per
#: measurement and this long per checkout.
PROBE_SLOWDOWN = 1.15
GATE_WAIT_S = 30.0
GATE_BUDGET_S = 600.0


# ----------------------------------------------------------------------
# Child side: one pass over one workload, inside this interpreter
# ----------------------------------------------------------------------

def _child(args: argparse.Namespace) -> int:
    """Run one pass and print its result document as the last line."""
    t_spawn = args.t_spawn or time.time()
    from engines import ENGINES
    from spans import SpanLog

    wl = ledger.WORKLOADS[args.workload]
    seconds = args.seconds * (ledger.SMOKE_SHARE if args.smoke else 1.0)
    engine = ENGINES[wl.runtime]
    spans = SpanLog()
    if args.child == "setup":
        with spans.span("run"):
            run = engine(wl, args.seed, 0.0, t_spawn, spans)
        doc: Dict[str, Any] = {"setup_s": run.setup_s}
    elif args.child == "full":
        with spans.span("run"):
            run = engine(wl, args.seed, wl.load_ms(seconds), t_spawn, spans)
            doc = _judge(run, spans)
    else:
        doc = _traced_pass(wl, args.seed, seconds, t_spawn, spans)
    doc["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(doc))
    return 0


def _judge(run, spans) -> Dict[str, Any]:
    """Verify one finished pass and reduce it to its numbers."""
    from load import percentile, window_metrics
    from verify import verify

    txns = run.driver.txns
    with spans.span("verify"):
        violations = verify(run.adapter, txns)
    unfinished = sum(1 for t in txns if t.reply_ms is None)
    failed = unfinished + len(violations)
    numbers = window_metrics(txns, run.slices, run.crash_ms)
    numbers["finished_share"] = 1.0 - failed / len(txns)
    waits = sorted(t.submit_ms - t.due_ms for t in txns
                   if t.submit_ms is not None and not t.probe)
    numbers["backlog_wait_ms_p95"] = percentile(waits, 95)
    return {
        "numbers": numbers, "setup_s": run.setup_s,
        "attempted": len(txns), "failed": failed,
        "correct": not violations, "violations": violations[:20],
        "committed": sum(1 for t in txns if t.committed),
        "aborted": sum(1 for t in txns if t.committed is False),
        "unfinished": unfinished,
        "loop_lag_p99_ms": run.loop_lag_p99_ms,
    }


def _traced_pass(wl, seed: int, seconds: float, t_spawn: float,
                 spans) -> Dict[str, Any]:
    """The traced pass: the workload at a third of its duration, three
    times — plain (the base of the overhead ratios and of the
    ``driver.*`` rows), under ``cProfile``, and under the trace probe —
    then the direct timings."""
    from direct import direct_timings
    from engines import ENGINES
    from layers import ProfileProbe, TraceProbe
    from spans import write_trace

    engine = ENGINES[wl.runtime]
    load_ms = wl.load_ms(seconds * ledger.TRACED_SHARE)
    passes = {}
    with spans.span("run"):
        for name, probe in (("plain", None), ("profile", ProfileProbe),
                            ("trace", TraceProbe)):
            with spans.span(f"pass.{name}"):
                run = engine(wl, seed, load_ms, t_spawn, spans, probe=probe)
                passes[name] = (run, _judge(run, spans))
            t_spawn = time.time()
        profiled, profiled_doc = passes["profile"]
        traced, traced_doc = passes["trace"]
        layer = profiled.probe.metrics(_committed_in_load(profiled))
        layer.update(traced.probe.metrics(traced.driver.txns,
                                          traced.load_bounds_ms))
        weights = {kind: row[0] for kind, row in traced.probe.table.items()}
        layer.update(direct_timings(spans, traced.probe.corpus, weights))
    plain_doc = passes["plain"][1]
    n = plain_doc["numbers"]
    layer.update({
        "driver.latency_p99_ms": n["latency_p99_ms"],
        "driver.latency_all_p50_ms": n["latency_all_p50_ms"],
        "driver.samples": n["samples"],
        "driver.slice_committed_per_wall_s":
            n["slice_committed_per_wall_s"],
        "driver.abort_share": 1.0 - n["commit_share"],
        "driver.failed_share": 1.0 - n["finished_share"],
        "driver.unavailable_ms": n["unavailable_ms"],
        "driver.backlog_wait_ms_p95": n["backlog_wait_ms_p95"],
        "runtime.aio.loop_lag_p99_ms": plain_doc["loop_lag_p99_ms"],
        "profile.overhead_ratio": n["committed_per_wall_s"]
        / profiled_doc["numbers"]["committed_per_wall_s"],
        "trace.overhead_ratio": n["committed_per_wall_s"]
        / traced_doc["numbers"]["committed_per_wall_s"],
    })
    _transaction_spans(spans, traced)
    write_trace(ledger.OUT_DIR / f"{wl.name}.trace.json", spans, {
        "workload": wl.name, "seed": seed,
        "messages_by_type": traced.probe.message_table()})
    docs = [doc for _, doc in passes.values()]
    return {
        "layer": layer, "samples": int(n["samples"]),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "correct": all(d["correct"] for d in docs),
        "violations": [v for d in docs for v in d["violations"]],
        # The self times must add up to the profiled load phase.
        "self_time_check": {
            "self_us_sum": _committed_in_load(profiled) * sum(
                v for k, v in layer.items() if k.endswith(
                    (".self_us_per_txn", ".poll_wait_us_per_txn"))),
            "profiled_load_wall_us": profiled.load_wall_s * 1e6},
        "loop_lag_p99_ms": plain_doc["loop_lag_p99_ms"],
    }


def _committed_in_load(run) -> int:
    start, end = run.load_bounds_ms
    return sum(1 for t in run.driver.txns
               if t.committed and start <= t.reply_ms <= end)


def _transaction_spans(spans, run) -> None:
    """One span per transaction under ``load``, on the runtime clock,
    with the tracer's protocol-phase spans as its children.  The span
    runs from submit to reply or, where writeback and replication go on
    after the client was answered, to the end of the last phase."""
    load = spans.find("load", spans.find("pass.trace")["id"])["id"]
    tracer = run.probe.tracer
    # Under asyncio the runtime clock is wall time too, but counted from
    # when the driver's runtime started, not from when the span log did.
    clock = "virtual" if run.workload.runtime == "des" else "runtime"
    for t in run.driver.txns:
        if t.submit_ms is None:
            continue
        tid = str(t.tid)
        outcome = ("unfinished" if t.reply_ms is None else
                   "committed" if t.committed else "aborted")
        trace = tracer.get(t.tid) if tracer is not None else None
        phases = [s for s in (trace.spans if trace is not None else ())
                  if s.end_ms is not None]
        end = max([t.reply_ms or t.submit_ms] + [s.end_ms for s in phases])
        parent = spans.add("txn", load, clock, t.submit_ms * 1e3, end * 1e3,
                           tid=tid, outcome=outcome, reply_ms=t.reply_ms)
        for span in phases:
            spans.add(span.kind, parent, clock, span.start_ms * 1e3,
                      span.end_ms * 1e3, tid=tid, node=span.node)


# ----------------------------------------------------------------------
# Parent side: spawn the children, assemble and print the results
# ----------------------------------------------------------------------

_PROBE_DOC = {"rows": [{"key": f"user{i}", "value": "v" * 64, "version": i}
                       for i in range(40)]}


def _probe_ms() -> float:
    """Host speed right now: the median wall time of five fixed batches
    of JSON round trips (about 30 ms each — allocation and cache bound,
    like the program).  The only noise this box has is a neighbour on the
    hypervisor, which neither the load average nor ``/proc/stat`` sees."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(600):
            json.loads(json.dumps(_PROBE_DOC))
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


class HostGate:
    """Measure only while the host is quiet.

    This box slows down by 1.3-2x for 5-60 s every few minutes (measured
    with :func:`_probe_ms` running alone; nothing inside the VM accounts
    for it).  A ten-second run that falls into such an episode reads as a
    30 % regression, so a measurement starts only once the probe is within
    :data:`PROBE_SLOWDOWN` of the fastest probe this checkout has seen
    (kept in ``out/host.json``; a fresh checkout's first probe is its own
    reference), and is repeated once when the probe taken right after it
    says an episode began meanwhile.  Waiting is bounded per measurement
    and per checkout, so a host that has become slower for good is
    measured as it is.
    """

    def __init__(self) -> None:
        self._path = ledger.OUT_DIR / "host.json"
        try:
            with open(self._path, encoding="utf-8") as handle:
                state = json.load(handle)
            self.fastest_ms = float(state["fastest_probe_ms"])
            self.spent_s = float(state["spent_s"])
        except (OSError, ValueError, KeyError, TypeError):
            self.fastest_ms, self.spent_s = float("inf"), 0.0
        #: Every probe taken through this gate, in order.
        self.probes: List[float] = []

    @property
    def spent(self) -> bool:
        """Whether this checkout's budget for waiting is used up."""
        return self.spent_s >= GATE_BUDGET_S

    def probe(self) -> bool:
        """Take one probe; true when it says the host is quiet."""
        value = _probe_ms()
        self.probes.append(value)
        self.fastest_ms = min(self.fastest_ms, value)
        return value <= PROBE_SLOWDOWN * self.fastest_ms

    def wait_until_quiet(self) -> bool:
        """Probe once a second until the host is quiet or the waiting
        budget is spent; false when it gave up."""
        start = time.perf_counter()
        try:
            while not self.probe():
                waited = time.perf_counter() - start
                if waited >= GATE_WAIT_S or \
                        self.spent_s + waited >= GATE_BUDGET_S:
                    return False
                time.sleep(1.0)
            return True
        finally:
            self.spent_s += time.perf_counter() - start

    def save(self) -> None:
        self._path.parent.mkdir(parents=True, exist_ok=True)
        with open(self._path, "w", encoding="utf-8") as handle:
            json.dump({"fastest_probe_ms": self.fastest_ms,
                       "spent_s": self.spent_s}, handle)


def _spawn(mode: str, args: argparse.Namespace, workload: str
           ) -> Dict[str, Any]:
    """Run one child to completion and return its result document."""
    # The children keep their bytecode in a cache of the benchmark's own,
    # whatever the caller's environment says about writing bytecode, so
    # that ``setup_s`` does not depend on who imported the program last.
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(ledger.OUT_DIR / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ledger.ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(ledger.HERE / "run.py"), "--child", mode,
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--t-spawn", repr(time.time())]
    if args.smoke:
        command.append("--smoke")
    # subprocess.run kills the child and waits for it when the timeout
    # expires, so no process outlives this call.
    done = subprocess.run(command, env=env, cwd=ledger.ROOT, text=True,
                          stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: {mode} child exited with "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _measure(args: argparse.Namespace, workload: str, untraced: bool,
             traced: bool) -> Dict[str, Any]:
    """All passes over one workload; the per-workload result entry."""
    wl = ledger.WORKLOADS[workload]
    load_before = os.getloadavg()[0]
    gate = HostGate()
    entry: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0,
                             "violations": []}
    lag = 0.0
    quiet = True
    if untraced:
        for last in (False, True):
            quiet = gate.wait_until_quiet()
            started = time.perf_counter()
            full = _spawn("full", args, workload)
            quiet = gate.probe() and quiet
            if quiet or last or gate.spent:
                break
            # An episode began during the measurement: discard it, once.
            gate.spent_s += time.perf_counter() - started
        # The set-up children are short: a quiet start is all they need.
        quiet = gate.wait_until_quiet() and quiet
        setups = [full["setup_s"]] + [
            _spawn("setup", args, workload)["setup_s"]
            for _ in range(SETUP_REPS)]
        n = full["numbers"]
        values = {name: n[name] for name in
                  ("committed_per_wall_s", "latency_p50_ms", "latency_p95_ms",
                   "commit_share", "finished_share")}
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = full["peak_rss_mb"]
        entry["end_to_end"] = ledger.metrics_block(
            "end_to_end", values, wl.runtime, int(n["samples"]))
        entry["counts"] = {k: full[k] for k in
                           ("attempted", "committed", "aborted", "unfinished")}
        entry["setup_s_samples"] = setups
        lag = full["loop_lag_p99_ms"]
        _absorb(entry, full)
    if traced:
        quiet = gate.wait_until_quiet() and quiet
        doc = _spawn("traced", args, workload)
        entry["per_layer"] = ledger.metrics_block(
            "per_layer", doc["layer"], wl.runtime, doc["samples"])
        entry["self_time_check"] = doc["self_time_check"]
        lag = max(lag, doc["loop_lag_p99_ms"])
        _absorb(entry, doc)
    gate.save()
    load_after = os.getloadavg()[0]
    entry["loadavg_1m"] = [load_before, load_after]
    entry["host_probe_ms"] = gate.probes
    # A noisy neighbour must be visible, not read as a regression.
    entry["disturbed"] = (not quiet or lag > 50.0 or
                          max(load_before, load_after) > (os.cpu_count() or 1))
    return entry


def _absorb(entry: Dict[str, Any], doc: Dict[str, Any]) -> None:
    entry["correct"] = entry["correct"] and doc["correct"]
    entry["attempted"] += doc["attempted"]
    entry["failed"] += doc["failed"]
    entry["violations"] += doc["violations"]


def _print_entry(workload: str, entry: Dict[str, Any]) -> None:
    flag = "  DISTURBED" if entry["disturbed"] else ""
    print(f"== {workload}: {'verified' if entry['correct'] else 'VERIFY FAILED'}"
          f", attempted {entry['attempted']}, failed {entry['failed']}{flag}")
    for kind in ("end_to_end", "per_layer"):
        for name, m in entry.get(kind, {}).items():
            print(f"  {name:<42} {m['value']:>16.6f} {m['unit']:<8} "
                  f"clock={m['clock']:<8} n={m['samples']}")
    check = entry.get("self_time_check")
    if check:
        share = check["self_us_sum"] / check["profiled_load_wall_us"]
        print(f"  self times add up to {share:.1%} of the profiled load "
              f"phase ({check['profiled_load_wall_us'] / 1e6:.2f} s wall)")
    print("  host probes (ms): "
          + ", ".join(f"{ms:.1f}" for ms in entry["host_probe_ms"]))
    for violation in entry["violations"]:
        print(f"  VIOLATION {violation}")


def _contract_line(entry: Dict[str, Any], kinds: List[str]) -> str:
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for kind in kinds for name, m in entry[kind].items()}
    return json.dumps({"correct": entry["correct"],
                       "attempted": entry["attempted"],
                       "failed": entry["failed"], "metrics": metrics})


def _host() -> Dict[str, Any]:
    return {"nproc": os.cpu_count() or 1,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "loadavg_1m_start": os.getloadavg()[0]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="run the untraced and the traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of every duration (self-test only)")
    parser.add_argument("--out", help="result file (all-workloads mode)")
    parser.add_argument("--label", default="run")
    parser.add_argument("--child", choices=("full", "setup", "traced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--t-spawn", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child(args)
    if not (ledger.ROOT / "src" / "repro").is_dir():
        print("ledger: no src/repro next to the benchmark — nothing to "
              "measure", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(ledger.declaration()["run_seconds"])
    untraced = args.traced or not args.trace
    traced = args.traced or bool(args.trace)
    kinds = [k for k, on in (("end_to_end", untraced), ("per_layer", traced))
             if on]
    if args.workload:
        if args.workload not in ledger.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; one of "
                         f"{', '.join(ledger.WORKLOADS)}")
        entry = _measure(args, args.workload, untraced, traced)
        _print_entry(args.workload, entry)
        print(_contract_line(entry, kinds))
        return 0 if entry["correct"] else 1

    host = _host()
    document: Dict[str, Any] = {
        "label": args.label, "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "host": host, "workloads": {}}
    for workload in ledger.workload_names():
        entry = _measure(args, workload, untraced, traced)
        document["workloads"][workload] = entry
        _print_entry(workload, entry)
    host["loadavg_1m_end"] = os.getloadavg()[0]
    out = Path(args.out) if args.out else \
        ledger.OUT_DIR / f"ledger_{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    entries = document["workloads"].values()
    correct = all(e["correct"] for e in entries)
    noisy = [w for w, e in document["workloads"].items() if e["disturbed"]]
    print(f"ledger: wrote {out}; disturbed: {', '.join(noisy) or 'none'}")
    print(json.dumps({"correct": correct,
                      "attempted": sum(e["attempted"] for e in entries),
                      "failed": sum(e["failed"] for e in entries),
                      "metrics": {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
