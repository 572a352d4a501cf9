"""Contract tests for the :mod:`repro.systems` table.

Every row's facts are checked against a live deployment built on the DES
runtime and against the protocols' ``Message`` subclasses, the three timing
profiles are pinned to the numbers the per-harness builders used to set,
and the litmus from DESIGN.md §2 is exercised: a fifth row (a renamed
copy of TAPIR's) works in every harness with no other edit.
"""

import pytest

from repro import systems
from repro.analysis.protolint import messages
from repro.bench.cluster import DeploymentSpec
from repro.chaos.runner import (CHAOS_TIMING, ChaosOptions, ClusterAdapter,
                                run_chaos)
from repro.client import ClientTxn, TxnClient
from repro.core.backoff import RetryPolicy
from repro.core.config import CarouselConfig
from repro.raft.node import RaftConfig
from repro.runtime.conformance import CONFORM_TIMING
from repro.runtime.des import DesRuntime
from repro.runtime.harness import snapshot_cluster
from repro.scenario import run
from repro.sim.topology import uniform_topology
from repro.tapir.config import TapirConfig
from repro.trace.invariants import check_transaction
from repro.trace.scenarios import traced_scenario, traced_transactions
from repro.txn import TransactionSpec

KEY = "contract-key"


@pytest.fixture(scope="module")
def protocol_of():
    """Message name -> the protocol whose package defines it."""
    return {name: protocol for protocol, names in messages().items()
            for name in names}


def _deploy(system, timing=None):
    topology = uniform_topology(3, 10.0)
    spec = DeploymentSpec(topology=topology, n_partitions=3, seed=5)
    runtime = DesRuntime(seed=5, topology=topology)
    return systems.build(system, spec, timing, runtime)


def _commit_one(cluster):
    """Commit one read-modify-write of :data:`KEY`; returns its result
    and the per-type send counts of the whole run."""
    sent = {}

    def count(msg, delay_ms):
        sent[msg.type_name] = sent.get(msg.type_name, 0) + 1

    cluster.network.trace_hook = count
    cluster.run(600)
    cluster.populate({KEY: 0})
    done = []
    cluster.clients[0].submit(TransactionSpec(
        read_keys=(KEY,), write_keys=(KEY,),
        compute_writes=lambda reads: {KEY: reads[KEY] + 1}), done.append)
    cluster.run(5_000)
    assert done and done[0].committed
    return done[0], sent


@pytest.mark.parametrize("system", systems.SYSTEMS)
class TestRowAgreesWithLiveCluster:
    def test_server_pool(self, system):
        entry = systems.get(system)
        cluster = _deploy(system)
        nodes = entry.nodes(cluster)
        placed = {node_id for pid in cluster.directory.partitions()
                  for node_id in cluster.directory.lookup(pid).replicas}
        assert set(nodes) == placed
        for node_id, node in nodes.items():
            assert cluster.network.node(node_id) is node
        assert not placed & {c.node_id for c in cluster.clients}

    def test_replica_state(self, system):
        entry = systems.get(system)
        cluster = _deploy(system)
        result, _ = _commit_one(cluster)
        pid = cluster.ring.partition_for(KEY)
        replicas = cluster.replicas_of(pid)
        assert len(replicas) == 3
        for node, live_store in zip(replicas, cluster.stores_of(pid)):
            store, resolved = entry.replica_state(node, pid)
            assert store is live_store
            record = store.read(KEY)
            assert (record.value, record.version) == (1, 2)
            assert resolved[result.tid] == "commit"

    def test_protocol_set(self, system, protocol_of):
        entry = systems.get(system)
        _, sent = _commit_one(_deploy(system))
        used = {protocol_of[name] for name in sent}
        assert used == entry.protocols
        assert entry.leaderless == ("AppendEntries" not in sent)

    def test_wanrt_rows_end_in_a_default(self, system):
        rows = systems.get(system).wanrt
        assert rows[-1].when_span is None
        assert all(row.lo <= row.hi for row in rows)


# ----------------------------------------------------------------------
# Timing profiles: the values the deleted per-harness builders produced.

_PAPER = dict(raft=RaftConfig(1500.0, 3000.0, 300.0),
              retry=RetryPolicy(10_000.0, 1.0, None, 0.0),
              heartbeat_ms=1000.0, tapir_timeout_ms=250.0)
_CHAOS = dict(raft=RaftConfig(400.0, 800.0, 100.0),
              retry=RetryPolicy(800.0, 2.0, 6400.0, 0.1),
              heartbeat_ms=500.0, tapir_timeout_ms=250.0)
_CONFORM = dict(raft=RaftConfig(1500.0, 3000.0, 100.0),
                retry=RetryPolicy(3000.0, 2.0, 12_000.0, 0.1),
                heartbeat_ms=500.0, tapir_timeout_ms=2000.0)


@pytest.mark.parametrize("timing, want", [
    (None, _PAPER), (CHAOS_TIMING, _CHAOS), (CONFORM_TIMING, _CONFORM),
], ids=["paper", "chaos", "conform"])
class TestTimingProfiles:
    @pytest.mark.parametrize("mode", ["basic", "fast"])
    def test_carousel(self, timing, want, mode):
        cluster = _deploy(f"carousel-{mode}", timing)
        assert cluster.config == CarouselConfig(
            mode=mode, heartbeat_interval_ms=want["heartbeat_ms"],
            heartbeat_misses=3, retry_policy=want["retry"],
            raft=want["raft"])
        assert all(c.retry_policy == want["retry"] for c in cluster.clients)
        if timing is None:
            assert cluster.config == CarouselConfig(mode=mode)

    def test_layered(self, timing, want):
        cluster = _deploy("layered", timing)
        for server in cluster.servers.values():
            assert server.retry_policy == want["retry"]
            for member in server.members.values():
                assert member.config == want["raft"]
        for client in cluster.clients:
            assert client.retry_policy == want["retry"]

    def test_tapir(self, timing, want):
        cluster = _deploy("tapir", timing)
        assert cluster.config == TapirConfig(
            fast_path_timeout_ms=want["tapir_timeout_ms"],
            retry_policy=want["retry"])
        assert all(c.retry_policy == want["retry"] for c in cluster.clients)
        if timing is None:
            assert cluster.config == TapirConfig()


# ----------------------------------------------------------------------
# Litmus: a fifth system (``fifth_system``, tests/unit/conftest.py) costs
# one table row.

def test_fifth_row_works_in_every_harness(fifth_system):
    cluster = _deploy(fifth_system)                       # buildable
    result, _ = _commit_one(cluster)
    adapter = ClusterAdapter(fifth_system, cluster)       # chaos-adaptable
    assert adapter.server_ids() == sorted(cluster.replicas)
    assert all(store.read(KEY).version == 2
               for _, store in adapter.stores_for_key(KEY))
    snapshot = snapshot_cluster(fifth_system, cluster)    # snapshot-able
    pid = cluster.ring.partition_for(KEY)
    for node in cluster.replicas_of(pid):
        assert snapshot["stores"][node.node_id][pid][KEY] == (1, 2)
        assert snapshot["resolved"][node.node_id][pid][result.tid] \
            == "commit"
    quick = ChaosOptions(rounds=8, window_ms=6000.0, n_events=3,
                         drain_ms=7000.0)
    chaos = run_chaos(fifth_system, seed=1, opts=quick)
    assert chaos.ok, [str(v) for v in chaos.violations]
    traced = run(traced_scenario(fifth_system))           # traceable
    assert traced.ok, [str(v) for v in traced.violations]
    assert check_transaction(traced_transactions(traced)[0]).variant \
        == "tapir-fast"


# ----------------------------------------------------------------------
# The 2FI client contract (DESIGN.md §2's litmus): every system's client
# — a fifth row's included — is a TxnClient that writes no TID,
# retry-arming, completion or result-reporting code of its own.

#: What the shell owns outright; a protocol client may extend
#: ``_complete``/``submit`` through ``super()`` but never these.
_SHELL_ONLY = ("begin", "_register", "_absorb_read", "_compute_writes",
               "_arm_retry", "_retry", "_cancel_timer", "_goto",
               "_enter_span")


@pytest.fixture(params=systems.SYSTEMS + ("fifth-row",))
def any_system(request):
    if request.param == "fifth-row":
        return request.getfixturevalue("fifth_system")
    return request.param


class TestClientContract:
    def test_clients_inherit_the_shell(self, any_system):
        cluster = _deploy(any_system)
        for client in cluster.clients:
            assert isinstance(client, TxnClient)
            assert issubclass(client.txn_class, ClientTxn)
            own = [cls for cls in type(client).__mro__
                   if cls is not TxnClient and issubclass(cls, TxnClient)]
            redefined = [(cls.__name__, name) for cls in own
                         for name in _SHELL_ONLY if name in vars(cls)]
            assert not redefined
            # The counters have one writer: the shell's _complete.
            assert client.submitted == client.committed == 0

    def test_empty_transaction_commits_at_once_with_no_messages(
            self, any_system):
        cluster = _deploy(any_system)
        cluster.run(600)
        client = cluster.clients[0]
        sent = []
        client.send = lambda dst, msg: sent.append(msg)
        done, hooked = [], []
        client.result_hook = hooked.append
        tid = client.submit(TransactionSpec(read_keys=(), write_keys=()),
                            done.append)
        assert [r.tid for r in done] == [tid] and done[0].committed
        assert hooked == done and done[0].latency_ms == 0.0
        assert sent == [] and not client._active
        assert (client.submitted, client.committed, client.aborted) \
            == (1, 1, 0)

    def test_duplicate_terminal_reply_completes_once(self, any_system):
        cluster = _deploy(any_system)
        cluster.run(600)
        cluster.populate({KEY: 0})
        client = cluster.clients[0]
        done, hooked, terminal, armed = [], [], [], []
        client.result_hook = hooked.append
        deliver = client.handle_message

        def recording(msg):
            live = [getattr(txn, name) for name in txn.TIMERS]
            before = len(done)
            deliver(msg)
            if len(done) > before:
                terminal.append(msg)
                armed.extend(t for t in live if t is not None)

        client.handle_message = recording
        tid = client.submit(TransactionSpec(
            read_keys=(KEY,), write_keys=(KEY,),
            compute_writes=lambda reads: {KEY: reads[KEY] + 1}),
            done.append)
        txn = client._active[tid]
        assert txn.retry_timer is not None
        cluster.run(5_000)
        assert len(done) == 1 and done[0].committed and len(terminal) == 1
        # Every timer the transaction class names: cancelled and cleared.
        assert armed and all(timer.cancelled for timer in armed)
        assert [getattr(txn, name) for name in txn.TIMERS] \
            == [None] * len(txn.TIMERS)
        for __ in range(2):                # the terminal reply, again
            deliver(terminal[0])
        cluster.run(1_000)
        assert len(done) == 1 and len(hooked) == 1
        assert (client.submitted, client.committed, client.aborted) \
            == (1, 1, 0)


# ----------------------------------------------------------------------
# Names, aliases and the shared CLI option parsers.

class TestNames:
    def test_one_row_per_name_in_report_order(self):
        assert systems.SYSTEMS == ("carousel-basic", "carousel-fast",
                                   "layered", "tapir")
        assert set(systems.EVALUATED) < set(systems.SYSTEMS)
        assert all(systems.TABLE[name].name == name
                   for name in systems.SYSTEMS)

    def test_aliases_resolve_to_canonical_names(self):
        assert systems.canonical("basic") == "carousel-basic"
        assert systems.canonical("fast") == "carousel-fast"
        assert systems.canonical("tapir") == "tapir"
        assert set(systems.ALIASES.values()) <= set(systems.SYSTEMS)
        with pytest.raises(ValueError, match="unknown system 'spanner'"):
            systems.get("spanner")

    def test_parse_systems(self):
        assert systems.parse_systems("all") == list(systems.SYSTEMS)
        assert systems.parse_systems("fast, tapir") == ["carousel-fast",
                                                        "tapir"]
        with pytest.raises(ValueError):
            systems.parse_systems("")
        with pytest.raises(ValueError):
            systems.parse_systems("tapir,spanner")

    def test_parse_seeds(self):
        assert systems.parse_seeds("0..3") == [0, 1, 2, 3]
        assert systems.parse_seeds("7") == [7]
        assert systems.parse_seeds("1,4,7") == [1, 4, 7]
        assert systems.parse_seeds("0..1,5") == [0, 1, 5]
        with pytest.raises(ValueError):
            systems.parse_seeds("")
        with pytest.raises(ValueError):
            systems.parse_seeds("5..2")
