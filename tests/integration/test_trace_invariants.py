"""End-to-end WANRT invariants: trace each system, check the paper's claims.

These tests drive the same harness as ``python -m repro trace`` on the
Figure 2 scenario (client in us-west, two partitions) and assert the
sequential wide-area round-trip counts the paper claims for each protocol
variant, plus the tracer's own guarantees: determinism of the export and
non-interference with the simulation.
"""

import time

import pytest

from repro import systems
from repro.bench.cluster import DeploymentSpec
from repro.sim.kernel import Kernel
from repro.trace.export import chrome_trace_json
from repro.trace.harness import _pick_keys, run_traced
from repro.trace.invariants import check_transaction
from repro.trace.tracer import NULL_TRACER, Tracer
from repro.txn import TransactionSpec


def _traced(system, **kwargs):
    run = run_traced(system, **kwargs)
    assert run.txn_traces, f"no transaction traced for {system}"
    return run.txn_traces[0]


# (label, run_traced kwargs, expected variant, expected WANRT)
SCENARIOS = [
    ("basic", dict(), "carousel-basic", 2.0),
    ("fast", dict(), "carousel-fast", 1.0),
    ("basic-read-only", dict(read_only=True), "carousel-read-only", 1.0),
    ("layered", dict(), "layered", 4.0),
    ("tapir-fast", dict(), "tapir-fast", 1.0),
    ("tapir-slow", dict(force_slow_path=True), "tapir-slow", 3.0),
]


@pytest.mark.parametrize("label,kwargs,variant,wanrt",
                         SCENARIOS, ids=[s[0] for s in SCENARIOS])
def test_sequential_wanrt_matches_paper_claim(label, kwargs, variant, wanrt):
    system = label.split("-")[0]
    txn = _traced(system, **kwargs)
    assert txn.committed is True
    assert txn.sequential_wanrt() == wanrt
    report = check_transaction(txn)  # raises InvariantViolation on breach
    assert report.ok
    assert report.variant == variant


def test_layered_costs_at_least_one_more_wanrt_than_basic():
    """The paper's core comparison: layering 2PC on consensus serializes
    round trips Carousel overlaps (§2, §6)."""
    basic = _traced("basic")
    layered = _traced("layered")
    assert layered.sequential_wanrt() >= basic.sequential_wanrt() + 1
    assert layered.latency_ms() > basic.latency_ms()


def test_counter_agrees_with_critical_path_walk():
    for system in ("basic", "fast", "tapir", "layered"):
        txn = _traced(system)
        walked = sum(1 for m in txn.critical_path() if m.cross_dc)
        assert txn.wan_hops == walked, system


def test_every_traced_message_belongs_to_the_txn():
    txn = _traced("basic")
    assert txn.messages
    assert all(m.tid == txn.tid for m in txn.messages)
    assert all(s.tid == txn.tid for s in txn.spans)


def test_chrome_export_is_deterministic_across_runs():
    first = chrome_trace_json(run_traced("fast").tracer)
    second = chrome_trace_json(run_traced("fast").tracer)
    assert first == second


def test_tracing_does_not_perturb_virtual_time():
    """A traced run and an untraced run of the same seed commit the same
    transaction with byte-identical virtual-time results."""
    traced = run_traced("basic", seed=7)
    assert len(traced.results) == 1

    cluster = systems.build(
        "basic", DeploymentSpec(seed=7, jitter_fraction=0.0))
    cluster.run(500)
    keys = _pick_keys(cluster, "us-west")
    cluster.populate({k: "v0" for k in keys})
    assert cluster.kernel.tracer is NULL_TRACER
    done = []
    spec = TransactionSpec(read_keys=keys, write_keys=keys,
                           compute_writes=lambda r: {k: "t0" for k in r},
                           txn_type="traced")
    cluster.client("us-west").submit(spec, done.append)
    deadline = cluster.kernel.now + 30_000
    while not done and cluster.kernel.now < deadline:
        cluster.run(50)
    cluster.run(2_000)

    assert len(done) == 1
    assert done[0].committed == traced.results[0].committed
    assert done[0].latency_ms == traced.results[0].latency_ms


def _drain_events(kernel, n):
    def tick(remaining):
        if remaining:
            kernel.schedule(0.1, tick, remaining - 1)

    tick(n)
    kernel.run()


def test_null_tracer_fast_path_overhead_smoke():
    """With tracing off the kernel pays one attribute check per event; an
    untraced event loop must not be slower than a traced one (generous
    bound — this is a smoke test, not a benchmark)."""
    n = 20_000

    def timed(attach):
        kernel = Kernel(seed=3)
        if attach:
            Tracer(kernel)
        best = float("inf")
        for __ in range(3):
            start = time.perf_counter()
            _drain_events(kernel, n)
            best = min(best, time.perf_counter() - start)
        return best

    untraced = timed(attach=False)
    traced = timed(attach=True)
    assert untraced < traced * 2 + 0.05
