"""Unit tests for experiment-result helpers and workload statistics."""

import pytest

from repro.bench.runner import ExperimentResult
from repro.sim.stats import LatencyRecorder, SeriesRecorder
from repro.workloads.driver import ABORTED, COMMITTED, WorkloadStats


def make_stats(commits=8, aborts=2, window=(0.0, 1000.0)):
    latency = LatencyRecorder("t")
    outcomes = SeriesRecorder()
    outcomes.set_window(*window)
    for i in range(commits):
        latency.record(10.0 + i)
        outcomes.record(COMMITTED, at_ms=500.0)
    for __ in range(aborts):
        outcomes.record(ABORTED, at_ms=500.0)
    return WorkloadStats(latency, outcomes)


class TestWorkloadStats:
    def test_committed_tps(self):
        stats = make_stats(commits=10, aborts=0)
        assert stats.committed_tps == 10.0  # 10 commits over 1 s

    def test_abort_rate(self):
        stats = make_stats(commits=8, aborts=2)
        assert stats.abort_rate == pytest.approx(0.2)

    def test_abort_rate_no_events(self):
        stats = make_stats(commits=0, aborts=0)
        assert stats.abort_rate == 0.0


class TestExperimentResult:
    def test_label_property(self):
        result = ExperimentResult(system="carousel-fast", target_tps=100.0,
                                  stats=make_stats(), cluster=None,
                                  driver=None)
        assert result.label == "Carousel Fast"
