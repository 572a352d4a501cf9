"""Server state is bounded by the transactions in flight, not by history.

Clients piggyback their low-water mark (lowest unfinished seq) on the
requests that register a transaction; the replicated records carry it,
and applying them forgets each client's finished transactions below it
on every replica, while the WAL folds its durable prefix.  A TAPIR
replica journals the mark its client's prepares and commits carry, and
applies it the same way.  These tests pin the consequences: the
per-transaction maps, the WAL and the retained heap stop growing with
the committed count, a power cycle from a folded image still passes
every oracle, a late or duplicate message about a forgotten transaction
is still recognised as one, and forgetting one too early is caught.
"""

import gc
import random
import tracemalloc
from contextlib import contextmanager

import pytest

from repro import systems
from repro.bench.cluster import CarouselCluster, DeploymentSpec
from repro.chaos import planted_writeback_bug
from repro.chaos.nemesis import KIND_RESTART, NemesisEvent
from repro.chaos.runner import ChaosOptions, run_chaos
from repro.core.config import BASIC, CarouselConfig
from repro.core.messages import PrepareQuery, Writeback
from repro.core.occ import ABORT, PREPARED
from repro.layered.messages import LayeredPrepare
from repro.core.participant import PartitionComponent
from repro.sim.failure import FailureInjector
from repro.sim.topology import uniform_topology
from repro.tapir.messages import PREPARE_OK, TapirCommit, TapirPrepare
from repro.tapir.replica import TapirReplica
from repro.txn import TID
from repro.wal.log import WriteAheadLog
from repro.wal.records import TapirFoldWal
from repro.workloads.plans import increment_spec

SYSTEMS = ("carousel-basic", "carousel-fast", "layered", "tapir")


def _closed_loop(system, n_txns, seed=0):
    """Every client runs transactions back to back until ``n_txns`` have
    completed, then the cluster drains."""
    cluster = systems.build(system, DeploymentSpec(seed=seed))
    cluster.run(500)
    rng = random.Random(f"bounded:{seed}")
    keys = [f"k{i}" for i in range(200)]
    counts = {"submitted": 0, "done": 0}

    def submit(client):
        if counts["submitted"] == n_txns:
            return
        counts["submitted"] += 1
        picked = tuple(sorted(rng.sample(keys, 3)))
        client.submit(increment_spec(picked, picked[:2], "bounded"),
                      lambda result: done(client))

    def done(client):
        counts["done"] += 1
        submit(client)

    for client in cluster.clients:
        submit(client)
    while counts["done"] < n_txns:
        cluster.run(1000)
    cluster.run(5000)
    return cluster


def _sizes(system, cluster):
    """Per server: the length of every per-transaction map the GC
    bounds, and of the WAL image."""
    sizes = {}
    for node_id, server in systems.get(system).nodes(cluster).items():
        if system == "tapir":
            sizes[node_id] = {
                "resolved": len(server.resolved),
                "prepared": len(server.prepared),
                "held": sum(len(held)
                            for held in server.marks._held.values()),
                "wal": len(server.wal)}
            continue
        if system == "layered":
            row = {"coord_states": len(server.coord_states),
                   "finished": len(server.finished),
                   "prepare_decisions": sum(
                       len(p.prepare_decisions)
                       for p in server.partitions.values())}
        else:
            row = {"states": len(server.coordinator.states),
                   "finished": len(server.coordinator.finished),
                   "prepare_log": sum(len(p.prepare_log)
                                      for p in server.partitions.values())}
        row["resolved"] = sum(len(p.resolved)
                              for p in server.partitions.values())
        row["wal"] = len(server.wal)
        sizes[node_id] = row
    return sizes


@pytest.mark.parametrize("system", SYSTEMS)
def test_doubling_the_committed_count_grows_no_state(system):
    spec = DeploymentSpec()
    bound = spec.n_clients * spec.n_partitions
    small = _sizes(system, _closed_loop(system, 150))
    large = _sizes(system, _closed_loop(system, 300))
    for node_id, row in large.items():
        for name, size in row.items():
            assert size - small[node_id][name] <= bound, (node_id, name)


@pytest.mark.parametrize("system", SYSTEMS)
def test_power_cycle_from_a_folded_image_is_judged_green(system,
                                                         monkeypatch):
    # Power-cycle p0's participant leader, then the leader of p1 (a
    # coordinator for every client whose transactions it leads), both
    # mid-workload; the run then power-cycles every server and judges
    # durability on the state rebuilt from the folded images.  TAPIR is
    # leaderless, and this seed's transactions miss p1: two replicas of
    # p0 go, and some image they restart from must hold a fold record.
    cluster = systems.build(system, DeploymentSpec())
    if system == "tapir":
        victims = [replica.node_id
                   for replica in cluster.replicas_of("p0")[:2]]
    else:
        victims = [cluster.directory.lookup(pid).leader
                   for pid in ("p0", "p1")]
    schedule = [NemesisEvent(KIND_RESTART, at_ms=4000.0 + 2500.0 * i,
                             duration_ms=1500.0, targets=(victim,))
                for i, victim in enumerate(victims)]
    folds_at_crash = []
    tapir_folds = []
    crash = WriteAheadLog.crash

    def counting_crash(wal, now=None):
        if wal.owner_id in victims:
            folds_at_crash.append(wal.folds)
            tapir_folds.append(any(type(record) is TapirFoldWal
                                   for record in wal.replay()))
        return crash(wal, now)

    monkeypatch.setattr(WriteAheadLog, "crash", counting_crash)
    result = run_chaos(system, seed=3,
                       opts=ChaosOptions(rounds=30, window_ms=9000.0,
                                         restart_weight=1),
                       schedule=schedule)
    assert result.ok, [str(v) for v in result.violations]
    assert dict(result.restart_counts)[victims[0]] >= 1
    assert folds_at_crash[:2] and min(folds_at_crash[:2]) >= 1
    assert any(tapir_folds) == (system == "tapir")


def test_writeback_dup_plant_reapplies_a_forgotten_transaction():
    cluster = _closed_loop("carousel-fast", 60)
    leader_id = cluster.directory.lookup("p0").leader
    part = cluster.servers[leader_id].partitions["p0"]
    forgotten = [tid for tid, decision in part.applied_decisions().items()
                 if decision == "commit" and tid not in part.resolved]
    assert forgotten, "the GC forgot no committed transaction"
    tid = forgotten[0]
    assert part.settled(tid)
    duplicate = Writeback(tid=tid, partition_id="p0", decision="commit",
                          writes={"k-dup": 1})
    duplicate.src = leader_id          # the re-ack goes nowhere harmful
    before = part.store.version("k-dup")
    part.on_writeback(duplicate)        # the fixed handler just re-acks
    assert part.store.version("k-dup") == before
    with planted_writeback_bug():
        PartitionComponent.on_writeback(part, duplicate)
    assert part.store.version("k-dup") == before + 1


@pytest.mark.parametrize("system", ("carousel-fast", "layered"))
def test_a_forgotten_outcome_is_read_back_from_the_applied_log(system):
    # A coordinator re-asking for a prepare of a transaction the
    # participant has forgotten (a successor recomputing a decision)
    # gets its real outcome from the applied Raft log; a tid below the
    # mark that never prepared here can only have aborted.
    cluster = _closed_loop(system, 60)
    server = cluster.servers[cluster.directory.lookup("p0").leader]
    part = server.partitions["p0"]
    forgotten = {}
    for tid, decision in part.applied_decisions().items():
        if tid not in part.resolved:
            forgotten.setdefault(decision, tid)
    sent = []
    queried = [forgotten["commit"], TID(forgotten["commit"].client_id, 0)]
    expected = [PREPARED, ABORT]
    if "abort" in forgotten:
        queried.append(forgotten["abort"])
        expected.append(ABORT)
    if system == "layered":
        server.send = lambda dst, msg: sent.append(msg.decision)
        ask = [LayeredPrepare(tid=tid, partition_id="p0")
               for tid in queried]
        handler = part.on_prepare
    else:
        part._send = lambda dst, msg: sent.append(msg.decision)
        ask = [PrepareQuery(tid=tid, partition_id="p0",
                            coordinator_id="coordinator",
                            coord_group_id="p0") for tid in queried]
        handler = part.on_prepare_query
    for tid, msg in zip(queried, ask):
        assert part.settled(tid)
        handler(msg)
    assert sent == expected


def test_one_groups_mark_leaves_another_groups_writebacks_owed(monkeypatch):
    # A client commits t through coordinating group p1, then t2 through
    # p0; p0's record carries the client's mark past t while p1's leader
    # still owes t's writebacks.  The third server follows both groups:
    # cut off from p1's leader, it applies p0's record first, is
    # power-cycled, and only then learns t from p1's log.  It must still
    # mirror t, so that when p1's leader fail-stops and it takes over,
    # it re-drives t's writebacks to completion.
    blocked = set()
    on_writeback = PartitionComponent.on_writeback

    def dropping(part, msg):
        if msg.tid not in blocked:
            on_writeback(part, msg)

    monkeypatch.setattr(PartitionComponent, "on_writeback", dropping)
    spec = DeploymentSpec(topology=uniform_topology(3, 20.0),
                          n_partitions=3, consolidate_servers=True,
                          jitter_fraction=0.0)
    cluster = CarouselCluster(spec, CarouselConfig(mode=BASIC))
    cluster.run(500)
    p0_leader = cluster.directory.lookup("p0").leader
    p1_leader = cluster.directory.lookup("p1").leader
    (follower,) = set(cluster.servers) - {p0_leader, p1_leader}
    server = cluster.servers[follower]
    client = cluster.clients[0]
    key = {}
    for i in range(1000):
        key.setdefault(client.partitioner.partition_for(f"k{i}"), f"k{i}")
    groups = {}
    choose = client._choose_coordinator

    def choose_group(txn):
        choose(txn)
        txn.coord_group_id = groups[txn.tid.seq]
        txn.coordinator_id = cluster.directory.lookup(
            txn.coord_group_id).leader

    client._choose_coordinator = choose_group
    injector = FailureInjector(cluster.kernel, cluster.network)
    cluster.network.partition(follower, p1_leader)
    results = {}

    def commit(group, keys):
        groups[client._counter + 1] = group
        tid = client.submit(increment_spec(keys, keys, "owed"),
                            lambda result: results.setdefault(tid, result))
        return tid

    t = commit("p1", (key["p0"],))
    blocked.add(t)
    cluster.run(2000)
    assert results[t].committed
    t2 = commit("p0", (key["p2"],))
    cluster.run(2000)
    assert t2 in results and client.low_water > t.seq
    injector.restart_now(follower)
    cluster.run(1000)
    assert any(getattr(command, "tid", None) == t2
               for command in server.member("p0").applied_commands())
    cluster.network.heal(follower, p1_leader)
    cluster.run(1000)
    mirror = server.coordinator.states.get(t)
    assert mirror is not None and mirror.group_id == "p1"

    blocked.clear()
    injector.crash_now(p1_leader)
    server.member("p1")._start_election()
    cluster.run(2000)
    assert server.member("p1").is_leader
    assert t in server.coordinator.finished
    for replica in cluster.replicas_of("p0"):
        if not replica.crashed:
            part = replica.partitions["p0"]
            assert part.pending.get(t) is None
            assert part.store.version(key["p0"]) == 1


def _forgotten_commit(replica):
    """A transaction ``replica`` resolved as a commit and has since
    forgotten."""
    forgotten = [tid for tid, decision in replica.decided().items()
                 if decision == "commit" and tid not in replica.resolved]
    assert forgotten, "the GC forgot no committed transaction"
    assert replica.marks.forgotten(forgotten[0], replica.resolved,
                                   replica.prepared)
    return forgotten[0]


def test_a_late_tapir_prepare_below_the_mark_leaves_no_entry():
    # A prepare that arrives after its client finished the transaction
    # (committed here, or never prepared here at all) journals nothing
    # and gets no vote back: an entry would never resolve, and every
    # later prepare conflicting with it would abstain.
    cluster = _closed_loop("tapir", 60)
    replica = cluster.replicas[cluster.directory.lookup("p0").leader]
    late = _forgotten_commit(replica)
    never = TID(late.client_id, 0)
    appends = replica.wal.appends
    for tid in (late, never):
        msg = TapirPrepare(tid=tid, partition_id="p0",
                           read_versions=(("k-late", 0),),
                           write_keys=("k-late",))
        msg.src = tid.client_id
        replica._on_prepare(msg)
        assert tid not in replica.prepared
    assert replica.wal.appends == appends
    rival = TapirPrepare(tid=TID("rival", 1), partition_id="p0",
                         read_versions=(("k-late", 0),),
                         write_keys=("k-late",))
    assert replica._validate(rival) == PREPARE_OK


def test_a_duplicate_blind_tapir_commit_of_a_forgotten_txn_applies_nothing():
    # A blind write carries no installation version, so a replica that
    # re-applied the duplicate would bump the key's version again.
    cluster = _closed_loop("tapir", 60)
    replica = cluster.replicas[cluster.directory.lookup("p0").leader]
    tid = _forgotten_commit(replica)
    duplicate = TapirCommit(tid=tid, partition_id="p0", commit=True,
                            writes={"k-dup": 1})
    duplicate.src = tid.client_id
    before = replica.store.version("k-dup")
    appends = replica.wal.appends
    replica._on_commit(duplicate)
    assert replica.store.version("k-dup") == before
    assert replica.wal.appends == appends


def _retained_tapir_bytes(n_txns):
    """Bytes allocated in ``tapir/replica.py`` and ``wal/log.py`` that a
    ``n_txns`` closed loop leaves live once it has drained."""
    gc.collect()
    tracemalloc.start()
    try:
        cluster = _closed_loop("tapir", n_txns)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert cluster.replicas
    return sum(stat.size for stat in snapshot.statistics("filename")
               if stat.traceback[0].filename.endswith(
                   ("tapir/replica.py", "wal/log.py")))


def test_tapir_replicas_retain_no_heap_per_transaction():
    small = _retained_tapir_bytes(150)
    large = _retained_tapir_bytes(300)
    assert large - small <= 0.2 * 1024 * 150, (small, large)


@contextmanager
def planted_early_forget():
    """A TAPIR replica applies its client's mark plus one, so it forgets
    a transaction whose commit round is still unacknowledged."""
    original = TapirReplica._forget
    TapirReplica._forget = lambda self, client_id, mark: original(
        self, client_id, mark + 1)
    try:
        yield
    finally:
        TapirReplica._forget = original


def test_a_planted_early_tapir_forget_is_caught():
    opts = ChaosOptions(restart_weight=4)
    assert all(run_chaos("tapir", seed, opts).ok for seed in (22, 23))
    caught = [seed for seed in range(32)
              if not run_chaos("tapir", seed, opts,
                               planted_bug=planted_early_forget).ok]
    assert caught, "no oracle caught a replica forgetting too early"
