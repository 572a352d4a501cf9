"""End-to-end WANRT invariants: trace each system, check the paper's claims.

These tests run the same traced scenarios as ``python -m repro trace``
(:mod:`repro.trace.scenarios`: client in us-west, two partitions) and
assert the sequential wide-area round-trip counts the paper claims for
each protocol variant, plus the tracer's own guarantees: determinism of
the export and non-interference with the simulation.
"""

import time
from dataclasses import replace

import pytest

from repro.scenario import run
from repro.sim.kernel import Kernel
from repro.trace.export import chrome_trace_json
from repro.trace.invariants import check_transaction
from repro.trace.scenarios import traced_scenario, traced_transactions
from repro.trace.tracer import Tracer


def _traced(system, shape=None):
    result = run(traced_scenario(system, shape))
    assert result.ok, [str(v) for v in result.violations]
    txns = traced_transactions(result)
    assert txns, f"no transaction traced for {system}"
    return txns[0]


# (label, shape, expected variant, expected WANRT, latency ms)
SCENARIOS = [
    ("basic", None, "carousel-basic", 2.0, 322.25),
    ("fast", None, "carousel-fast", 1.0, 161.25),
    ("basic-read-only", "read-only", "carousel-read-only", 1.0, 161.0),
    ("layered", None, "layered", 4.0, 556.5),
    ("tapir-fast", None, "tapir-fast", 1.0, 166.5),
    ("tapir-slow", "slow-path", "tapir-slow", 3.0, 513.0),
]


@pytest.mark.parametrize("label,shape,variant,wanrt,latency",
                         SCENARIOS, ids=[s[0] for s in SCENARIOS])
def test_sequential_wanrt_matches_paper_claim(label, shape, variant, wanrt,
                                              latency):
    system = label.split("-")[0]
    txn = _traced(system, shape)
    assert txn.committed is True
    assert txn.sequential_wanrt() == wanrt
    assert txn.latency_ms() == latency
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
    first = chrome_trace_json(run(traced_scenario("fast")).tracer)
    second = chrome_trace_json(run(traced_scenario("fast")).tracer)
    assert first == second


def test_tracing_does_not_perturb_virtual_time():
    """A traced run and an untraced run of the same scenario commit the
    same transaction with byte-identical virtual-time results."""
    scenario = traced_scenario("basic", seed=7)
    traced = run(scenario)
    untraced = run(replace(scenario, trace=False))
    assert untraced.tracer is None
    assert len(traced.history) == 1
    assert traced.history == untraced.history
    assert traced.op_counters == untraced.op_counters


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
