"""Unit tests for the experiment parameter definitions."""

import pytest

from repro import systems
from repro.bench import experiments
from repro.bench.runner import build_workload
from repro.bench.cluster import DeploymentSpec
from repro.sim.topology import uniform_topology


class TestScales:
    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            experiments.latency_run_params("medium")
        with pytest.raises(ValueError):
            experiments.sweep_targets("medium")
        with pytest.raises(ValueError):
            experiments.sweep_run_params("medium")

    def test_full_scale_matches_paper_method(self):
        params = experiments.latency_run_params("full")
        # 90 s runs, first/last 30 s discarded, 10 M keys (§6.2).
        assert params["duration_ms"] == 90_000.0
        assert params["warmup_ms"] == params["cooldown_ms"] == 30_000.0
        assert params["n_keys"] == 10_000_000

    def test_quick_windows_are_valid(self):
        for fn in (experiments.latency_run_params,
                   experiments.sweep_run_params):
            params = fn("quick")
            assert params["duration_ms"] > \
                params["warmup_ms"] + params["cooldown_ms"]

    def test_sweep_targets_cover_paper_range(self):
        for scale in ("quick", "full"):
            targets = experiments.sweep_targets(scale)
            assert min(targets) <= 1000
            assert max(targets) == 10000
            assert targets == sorted(targets)

    def test_service_times_cover_all_systems(self):
        assert set(experiments.SERVICE_TIME_MS) == set(systems.EVALUATED)
        # TAPIR's modeled per-request cost is higher (its measured peak is
        # the lowest, §6.4.1).
        assert experiments.SERVICE_TIME_MS["tapir"] > \
            experiments.SERVICE_TIME_MS["carousel-basic"]


class TestRunnerBuilders:
    def test_build_cluster_each_system(self):
        spec = DeploymentSpec(topology=uniform_topology(3, 2.0),
                              n_partitions=3, seed=1)
        for system in systems.SYSTEMS:
            cluster = systems.build(system, spec)
            assert cluster.clients

    def test_build_cluster_unknown_system(self):
        spec = DeploymentSpec(topology=uniform_topology(3, 2.0),
                              n_partitions=3, seed=1)
        with pytest.raises(ValueError, match="unknown system"):
            systems.build("spanner", spec)

    def test_build_workload(self):
        retwis = build_workload("retwis", n_keys=1000, seed=1)
        assert retwis.name == "retwis"
        ycsbt = build_workload("ycsbt", n_keys=1000, seed=1)
        assert ycsbt.name == "ycsbt"
        with pytest.raises(ValueError, match="unknown workload"):
            build_workload("tpcc", n_keys=1000, seed=1)

    def test_tapir_timeout_override(self):
        spec = DeploymentSpec(topology=uniform_topology(3, 2.0),
                              n_partitions=3, seed=1)
        cluster = systems.build("tapir", spec, systems.Timing(
            tapir_fast_path_timeout_ms=77.0))
        assert cluster.config.fast_path_timeout_ms == 77.0
