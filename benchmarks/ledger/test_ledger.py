"""Self-test of the ledger benchmark.  Run it by path (it is not part of
the tier-1 ``testpaths`` and takes a couple of minutes):

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run as ledger_run  # noqa: E402
import spec as ledger  # noqa: E402
from compare import spread, verdict  # noqa: E402
from engines import ENGINES  # noqa: E402
from spans import SpanLog  # noqa: E402
from verify import verify  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
DES = [name for name, wl in ledger.WORKLOADS.items() if wl.runtime == "des"]


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, text=True, capture_output=True,
                          timeout=900)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    """One ``--smoke --traced`` pass over all six workloads."""
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = _run("--smoke", "--traced", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out, encoding="utf-8") as handle:
        document = json.load(handle)
    document["stdout"] = done.stdout
    return document


def test_declaration_is_well_formed():
    declared = ledger.declaration()
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"]]
    names += [m["name"] for m in declared["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert set(ledger.workload_names()) == set(ledger.WORKLOADS)
    assert len(declared["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_smoke_names_exactly_the_declared_metrics(smoke):
    declared = ledger.declaration()
    assert list(smoke["workloads"]) == ledger.workload_names()
    for workload, entry in smoke["workloads"].items():
        assert entry["correct"], entry["violations"]
        for kind in ("end_to_end", "per_layer"):
            assert list(entry[kind]) == [m["name"] for m in declared[kind]]
            for name, metric in entry[kind].items():
                # Every metric is printed by name, with unit and clock.
                assert re.search(rf"^  {re.escape(name)} .* {metric['unit']} "
                                 rf"+clock={metric['clock']}", smoke["stdout"],
                                 re.M), (workload, name)
    assert smoke["seed"] == 0 and smoke["smoke"] is True
    assert {"nproc", "python", "platform", "loadavg_1m_start",
            "loadavg_1m_end"} <= set(smoke["host"])
    assert all("disturbed" in e for e in smoke["workloads"].values())


def test_bypass_predictions_hold(smoke):
    """A layer a workload bypasses reads exactly zero there."""
    def layer(workload: str, name: str) -> float:
        return smoke["workloads"][workload]["per_layer"][name]["value"]

    for workload, wl in ledger.WORKLOADS.items():
        if wl.system == "tapir":
            for name in ("raft.messages_per_txn", "raft.entries_per_txn",
                         "core.messages_per_txn", "core.fast_path_share"):
                assert layer(workload, name) == 0.0, (workload, name)
        else:
            assert layer(workload, "raft.messages_per_txn") > 0.0
        bypassed = "runtime." if wl.runtime == "des" else "sim.kernel."
        for name in smoke["workloads"][workload]["per_layer"]:
            if name.startswith(bypassed) and name.endswith(
                    ("self_us_per_txn", "_per_txn")):
                assert layer(workload, name) == 0.0, (workload, name)
        if wl.runtime == "aio":
            assert layer(workload, "sim.network.self_us_per_txn") == 0.0
        assert layer(workload, "sim.node.self_us_per_txn") > 0.0
        expect_outage = bool(wl.crash_at_share)
        assert (layer(workload, "driver.unavailable_ms") > 0) == expect_outage
        if not expect_outage:  # (a smoke load phase ends before the vote)
            assert layer(workload, "raft.elections") == 0


def test_self_times_add_up_and_spans_nest(smoke):
    for workload, entry in smoke["workloads"].items():
        check = entry["self_time_check"]
        share = check["self_us_sum"] / check["profiled_load_wall_us"]
        assert 0.95 <= share <= 1.05, (workload, share)
        assert entry["per_layer"]["trace.overhead_ratio"]["value"] > 0
        with open(ledger.OUT_DIR / f"{workload}.trace.json",
                  encoding="utf-8") as handle:
            trace = json.load(handle)
        assert trace["messages_by_type"]
        spans = {e["args"]["id"]: e for e in trace["traceEvents"]}
        root = [e for e in spans.values() if e["args"]["parent"] is None]
        assert [e["name"] for e in root] == ["run"]
        txns = 0
        for event in spans.values():
            parent = spans.get(event["args"]["parent"])
            if parent is None:
                continue
            start, end = event["ts"], event["ts"] + event["dur"]
            if parent["args"]["clock"] == event["args"]["clock"]:
                p0, p1 = parent["ts"], parent["ts"] + parent["dur"]
            else:  # a transaction under ``load``, on the runtime clock
                p0 = parent["args"]["runtime_start_ms"] * 1e3
                p1 = float("inf")  # replies may arrive during the drain
            assert p0 - 1e-6 <= start <= end <= p1 + 1e-6, (workload, event)
            if event["name"] == "txn":
                txns += 1
                assert parent["name"] == "load" and event["args"]["tid"]
            elif parent["name"] == "txn":
                assert event["args"]["tid"] == parent["args"]["tid"]
        assert txns > 0
        names = {e["name"] for e in spans.values()}
        assert {"setup", "settle", "load", "drain", "verify",
                "direct.raft"} <= names


@pytest.mark.parametrize("workload", DES)
def test_des_counts_and_virtual_latencies_repeat_exactly(smoke, workload):
    done = _run("--workload", workload, "--smoke", "--traced")
    assert done.returncode == 0, done.stdout + done.stderr
    again = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    first = smoke["workloads"][workload]
    compared = 0
    for kind in ("end_to_end", "per_layer"):
        for name, metric in first[kind].items():
            if metric["clock"] in ("count", "virtual"):
                assert again[name]["value"] == metric["value"], name
                compared += 1
    assert compared > 40


def test_verify_catches_planted_bugs():
    wl = ledger.WORKLOADS["des-carousel-retwis"]
    run = ENGINES["des"](wl, 0, wl.load_ms(1.0), time.time(), SpanLog())
    txns = run.driver.txns
    assert verify(run.adapter, txns) == []

    # Drop one client result: its writes are no longer accounted for.
    victim = next(t for t in txns if t.committed and t.write_keys)
    kept = [t for t in txns if t is not victim]
    dropped = verify(run.adapter, kept)
    assert dropped and all("[version-count]" in v for v in dropped)

    # Overwrite one replica's stored value: replicas disagree.
    key = victim.write_keys[0]
    _, store = run.adapter.stores_for_key(key)[1]
    store.write(key, "tampered", store.version(key) + 1)
    tampered = verify(run.adapter, txns)
    assert any("[replica-divergence]" in v and repr(key) in v
               for v in tampered)


def test_compare_verdicts():
    assert spread([1.0]) is None
    assert spread([100.0, 101.0, 102.0, 103.0]) < 0.05
    assert verdict([100.0], [105.0], "lower", 0.10)[0] == "unchanged"
    assert verdict([100.0], [115.0], "lower", 0.10)[0] == "regressed"
    assert verdict([100.0], [115.0], "higher", 0.10)[0] == "improved"
    noisy = [80.0, 100.0, 120.0, 140.0]
    assert verdict(noisy, [100.0], "lower", 0.10)[0] == "unresolved"


def test_quiet_gate_waits_for_the_episode_to_pass(tmp_path, monkeypatch):
    monkeypatch.setattr(ledger, "OUT_DIR", tmp_path)
    monkeypatch.setattr(ledger_run.time, "sleep", lambda seconds: None)
    readings = iter([10.0, 14.0, 13.0, 11.0, 30.0])
    monkeypatch.setattr(ledger_run, "_probe_ms", lambda: next(readings))
    gate = ledger_run.HostGate()
    assert gate.wait_until_quiet()          # the first probe is the reference
    assert gate.wait_until_quiet()          # 14 and 13 are slow, 11 is quiet
    assert gate.probes == [10.0, 14.0, 13.0, 11.0]
    gate.save()
    # The reference outlives the process; with no time left it gives up.
    monkeypatch.setattr(ledger_run, "GATE_WAIT_S", 0.0)
    again = ledger_run.HostGate()
    assert again.fastest_ms == 10.0
    assert not again.wait_until_quiet()


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark the command fails and
    prints no result."""
    import shutil
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "des-tapir-retwis", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, text=True, capture_output=True, timeout=180)
    assert done.returncode != 0 and not done.stdout.strip()
