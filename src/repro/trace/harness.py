"""Single-transaction trace runner behind ``python -m repro trace``.

Builds a deterministic two-partition scenario for each system variant,
attaches a :class:`~repro.trace.tracer.Tracer` after the cluster settles
(so election/bootstrap noise stays out of the trace), runs the
transaction(s), and returns the tracer plus per-transaction traces.

Scenario construction mirrors the paper's figures: the client sits in
``us-west`` and touches one partition led locally and one led remotely
(Figure 2).  For the CPC fast path the remote partition is chosen to have
a *replica* in the client's datacenter, so the local-read optimization
keeps the read round off the WAN and the commit costs exactly 1 WANRT
(§4.2 + §4.4.1).  ``force_slow_path`` perturbs one TAPIR replica's store
so the fast quorum cannot form and the finalize round runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro import systems
from repro.bench.cluster import DeploymentSpec
from repro.trace.tracer import Tracer, TxnTrace
from repro.txn import TransactionSpec


@dataclass
class TraceRun:
    """Everything a trace invocation produced."""

    system: str
    tracer: Tracer
    cluster: Any
    results: List[Any] = field(default_factory=list)
    txn_traces: List[TxnTrace] = field(default_factory=list)


def _leader_dc(cluster, pid: str) -> str:
    return cluster.directory.lookup(pid).leader_datacenter()


def _has_replica_in(cluster, pid: str, dc: str) -> bool:
    return dc in cluster.directory.lookup(pid).datacenters


def _pick_keys(cluster, client_dc: str,
               remote_local_replica: Optional[bool] = None) -> tuple:
    """Two keys on distinct partitions for the Figure 2 scenario: one on
    a partition led from ``client_dc``, one led remotely.

    ``remote_local_replica`` further constrains the remote partition to
    have (or lack) a replica in the client's datacenter — the CPC
    fast-path scenario needs one so the local-read optimization applies.
    """
    local = remote = None
    for i in range(5000):
        key = f"trace{i}"
        pid = cluster.ring.partition_for(key)
        if _leader_dc(cluster, pid) == client_dc:
            if local is None:
                local = key
        elif remote is None:
            if remote_local_replica is not None and \
                    _has_replica_in(cluster, pid, client_dc) != \
                    remote_local_replica:
                continue
            remote = key
        if local is not None and remote is not None:
            return (local, remote)
    raise RuntimeError("could not find suitable trace keys")


def _pick_remote_keys(cluster, client_dc: str, want_local_replica: bool,
                      remote_leader: bool = False, n: int = 2) -> tuple:
    """``n`` keys on distinct partitions, each satisfying the local-replica
    predicate (TAPIR scenarios) and, with ``remote_leader``, led from
    another datacenter (the clean CPC fast-path scenario: votes from a
    local replica plus remote replicas always beat the remote leader's
    Raft slow path)."""
    found: List[str] = []
    pids: List[str] = []
    for i in range(5000):
        key = f"trace{i}"
        pid = cluster.ring.partition_for(key)
        if pid in pids:
            continue
        if _has_replica_in(cluster, pid, client_dc) != want_local_replica:
            continue
        if remote_leader and _leader_dc(cluster, pid) == client_dc:
            continue
        found.append(key)
        pids.append(pid)
        if len(found) == n:
            return tuple(found)
    raise RuntimeError("could not find suitable trace keys")


def _force_tapir_mismatch(cluster, keys: tuple, client_dc: str) -> None:
    """Make one *non-closest* replica of ``keys[0]``'s partition disagree
    on the key's version, so 3 matching fast votes are impossible and the
    client must fall back to IR's finalize round."""
    pid = cluster.ring.partition_for(keys[0])
    info = cluster.directory.lookup(pid)
    topo = cluster.network.topology
    closest = min(range(len(info.replicas)),
                  key=lambda i: topo.rtt(client_dc, info.datacenters[i]))
    victim = next(i for i in range(len(info.replicas)) if i != closest)
    store = cluster.stores_of(pid)[victim]
    record = store.read(keys[0])
    store.write(keys[0], record.value, record.version + 1)


def run_traced(system: str, *, seed: int = 42, client_dc: str = "us-west",
               n_txns: int = 1, read_only: bool = False,
               force_slow_path: bool = False,
               digest_sink=None) -> TraceRun:
    """Run ``n_txns`` traced two-partition transactions on ``system``.

    Returns a :class:`TraceRun` whose ``txn_traces`` hold one completed
    :class:`~repro.trace.tracer.TxnTrace` per transaction.

    ``digest_sink``, if given, is installed as the kernel's event digest
    (see :mod:`repro.analysis.digest`) *before* the cluster runs, so the
    digest covers bootstrap as well — the divergence bisector compares
    whole runs, noise included.
    """
    entry = systems.get(system)
    cluster = systems.build(
        system, DeploymentSpec(seed=seed, jitter_fraction=0.0))
    if digest_sink is not None:
        cluster.kernel.digest = digest_sink
    cluster.run(500)  # settle elections/bootstrap before tracing

    if entry.leaderless:
        # Fast path needs every replica to agree → partitions with a
        # client-local replica keep reads local AND consistent.  The slow
        # path instead uses remote partitions plus a version perturbation.
        keys = _pick_remote_keys(cluster, client_dc,
                                 want_local_replica=not force_slow_path)
    elif entry.fast_path and not read_only:
        # Remote-led partitions with a client-local replica: reads stay
        # local (§4.4.1) and each partition's fast quorum completes in one
        # WAN round trip, ahead of its leader's Raft slow path (§4.2).
        keys = _pick_remote_keys(cluster, client_dc,
                                 want_local_replica=True,
                                 remote_leader=True)
    else:
        keys = _pick_keys(cluster, client_dc)

    cluster.populate({k: "v0" for k in keys})
    tracer = Tracer(cluster.kernel)
    run = TraceRun(system=entry.name, tracer=tracer, cluster=cluster)
    client = cluster.client(client_dc)

    for i in range(n_txns):
        if entry.leaderless and force_slow_path:
            _force_tapir_mismatch(cluster, keys, client_dc)
        if read_only:
            spec = TransactionSpec(read_keys=keys, write_keys=(),
                                   compute_writes=lambda r: {},
                                   txn_type="traced-ro")
        else:
            spec = TransactionSpec(
                read_keys=keys, write_keys=keys,
                compute_writes=lambda r: {k: f"t{i}" for k in r},
                txn_type="traced")
        done: List[Any] = []
        client.submit(spec, done.append)
        deadline = cluster.kernel.now + 30_000
        while not done and cluster.kernel.now < deadline:
            cluster.run(50)
        if not done:
            raise RuntimeError(
                f"traced {system} transaction {i + 1} did not complete")
        run.results.extend(done)

    cluster.run(2_000)  # drain writebacks / commit acks
    tracer.detach()
    run.txn_traces = tracer.transactions()
    return run
