"""Per-layer metrics of the traced pass, all taken from outside the program.

Layers are this repository's packages.  Three sources feed the ledger:

(a) **counts** from public counters and hooks already on the objects
    (kernel op counters, ``network.trace_hook`` / the transports'
    ``send``, WAL, Raft, coordinator, participant, replica and store
    counters), as deltas over the load phase divided by the
    transactions committed in it — exact and repeatable under the DES;
(b) **self time** from ``cProfile`` around the load phase: ``tottime``
    and ``ncalls`` grouped by the source package of each function, a
    builtin's time going to the package that called it;
(c) **direct** timings of a layer's public functions in isolation
    (:mod:`direct`).

The traced pass is two runs, because on the Raft workloads sizing every
message for the tracer costs about five times the run itself and would
put most of the profile's self time into ``wire_size``: a
:class:`ProfileProbe` run carries nothing but ``cProfile``, so its
shares are the program's own, and a :class:`TraceProbe` run carries the
hooks, the counters and (under the DES) a :class:`repro.trace.Tracer`.
The engines attach a probe during setup and switch it on for exactly
the load phase.
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
from collections import Counter, defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.runtime.wire import encode_message, registry
from repro.trace.tracer import (
    SPAN_COMMIT,
    SPAN_CPC_FAST,
    SPAN_PREPARE,
    SPAN_RAFT,
    SPAN_READ,
    SPAN_READ_ONLY,
    SPAN_WRITEBACK,
    Tracer,
)

import spec as ledger
from load import Txn

#: Source packages that are layers of their own, by path under ``repro/``.
_REPRO_LAYERS = (
    ("sim/kernel.py", "sim.kernel"), ("sim/calqueue.py", "sim.kernel"),
    ("sim/network.py", "sim.network"),
    # The node and message base classes and the topology table serve
    # both runtimes.
    ("sim/node.py", "sim.node"), ("sim/message.py", "sim.node"),
    ("sim/topology.py", "sim.node"),
    ("runtime/wire.py", "runtime.wire"), ("runtime/", "runtime.aio"),
    ("raft/", "raft"), ("core/", "core"), ("tapir/", "tapir"),
    ("layered/", "layered"), ("store/", "store"), ("wal/", "wal"),
    ("workloads/", "workloads"), ("txn.py", "workloads"),
)
#: Layers that report ``<layer>.self_us_per_txn``; ``other`` takes the
#: harness itself, ``repro.trace`` and anything unattributed.
SELF_TIME_LAYERS = ("sim.kernel", "sim.network", "sim.node", "runtime.aio",
                    "runtime.wire", "stdlib.asyncio", "stdlib.json", "raft",
                    "core", "tapir", "layered", "store", "wal", "workloads",
                    "other")
#: The event loop's blocking wait: idle time, reported apart from the
#: busy time of ``stdlib.asyncio``.
_POLL = "<method 'poll' of 'select.epoll' objects>"
_PROTOCOL_LAYERS = ("raft", "core", "tapir", "layered")
_PHASES = (("read", (SPAN_READ, SPAN_READ_ONLY)),
           ("prepare", (SPAN_PREPARE,)), ("cpc_fast", (SPAN_CPC_FAST,)),
           ("commit", (SPAN_COMMIT,)), ("writeback", (SPAN_WRITEBACK,)),
           ("raft_replication", (SPAN_RAFT,)))


def layer_of_path(path: str) -> Optional[str]:
    """The layer a source file belongs to; ``None`` for a builtin."""
    if path == "~":
        return None
    path = path.replace("\\", "/")
    if "/repro/" in path:
        rel = path.rsplit("/repro/", 1)[1]
        for prefix, layer in _REPRO_LAYERS:
            if rel.startswith(prefix):
                return layer
        return "other"
    if "/json/" in path:
        return "stdlib.json"
    if "/asyncio/" in path or path.endswith(("/selectors.py", "/socket.py")):
        return "stdlib.asyncio"
    return "other"


def profile_by_layer(profile: cProfile.Profile
                     ) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """``({layer: self seconds}, {layer: calls}, poll-wait seconds)``."""
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    poll_wait = 0.0
    # pstats keys are (file, line, function name); ``callers`` maps each
    # caller to the (calls, _, tottime, _) it is charged for this function.
    for func, (_, ncalls, tottime, _, callers) in \
            pstats.Stats(profile).stats.items():
        layer = layer_of_path(func[0])
        if func[2] == _POLL:
            poll_wait += tottime
        elif layer is not None:
            seconds[layer] += tottime
            calls[layer] += ncalls
        elif callers:
            for caller, (n, _, tt, _) in callers.items():
                owner = layer_of_path(caller[0]) or "other"
                seconds[owner] += tt
                calls[owner] += n
        else:
            seconds["other"] += tottime
            calls["other"] += ncalls
    return seconds, calls, poll_wait


def message_kind(msg: Any) -> str:
    """Row key of the message table: the type name, with entry-less
    AppendEntries (heartbeats) kept apart from replicating ones."""
    name = msg.type_name
    if name == "AppendEntries" and not msg.entries:
        return "AppendEntries.empty"
    return name


def layer_of_kind(kind: str) -> str:
    """The protocol package that defines a message type."""
    return registry()[kind.split(".")[0]].__module__.split(".")[1]


class ProfileProbe:
    """Source (b): ``cProfile`` around the load phase, nothing else."""

    def __init__(self, wl: ledger.Workload, clusters: Sequence[Any]):
        self.profile = cProfile.Profile()

    def load_begin(self) -> None:
        self.profile.enable()

    def load_end(self) -> None:
        self.profile.disable()

    def metrics(self, committed: int) -> Dict[str, float]:
        """Self time and calls per committed transaction, by layer."""
        n = max(1, committed)
        seconds, calls, poll_wait = profile_by_layer(self.profile)
        out: Dict[str, float] = {}
        for layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_us_per_txn"] = seconds[layer] * 1e6 / n
            if not layer.startswith(("stdlib.", "other")):
                out[f"{layer}.calls_per_txn"] = calls[layer] / n
        out["runtime.aio.poll_wait_us_per_txn"] = poll_wait * 1e6 / n
        return out


class TraceProbe:
    """Source (a) and the virtual-time phases: message hooks, public
    counters and, under the DES, a recording tracer."""

    def __init__(self, wl: ledger.Workload, clusters: Sequence[Any]):
        self.wl = wl
        self.clusters = list(clusters)
        self._on = False
        #: ``{kind: [messages, cross, bytes, cross_bytes]}``; *cross* is
        #: cross-datacenter under the DES and cross-process (a TCP frame)
        #: under asyncio, where bytes are filled in from the corpus.
        self.table: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0, 0])
        #: One real message per kind seen, for the wire-codec timings.
        self.corpus: Dict[str, Any] = {}
        self.tracer: Optional[Tracer] = None
        self._base: Counter = Counter()
        self.counts: Counter = Counter()
        if wl.runtime == "des":
            network = self.clusters[0].network
            self._dc = {nid: node.dc for nid, node in network.nodes.items()}
            network.trace_hook = self._on_des_send
            self.tracer = Tracer(self.clusters[0].kernel)
        else:
            for cluster in self.clusters:
                self._wrap_send(cluster.network)

    # -- message hooks --------------------------------------------------
    def _on_des_send(self, msg: Any, delay_ms: float) -> None:
        if not self._on:
            return
        kind = message_kind(msg)
        row = self.table[kind]
        size = msg.size_bytes()
        row[0] += 1
        row[2] += size
        if self._dc[msg.src] != self._dc[msg.dst]:
            row[1] += 1
            row[3] += size
        if kind not in self.corpus:
            self.corpus[kind] = msg

    def _wrap_send(self, transport: Any) -> None:
        inner = transport.send

        def send(src: Any, dst_id: str, msg: Any) -> None:
            if self._on:
                kind = message_kind(msg)
                row = self.table[kind]
                row[0] += 1
                if transport.placement.get(dst_id) != transport.proc:
                    row[1] += 1
                if kind not in self.corpus:
                    self.corpus[kind] = msg
            inner(src, dst_id, msg)

        transport.send = send

    # -- load-phase switch ----------------------------------------------
    def load_begin(self) -> None:
        self._base = self._read_counters()
        self._on = True

    def load_end(self) -> None:
        self._on = False
        self.counts = self._read_counters()
        self.counts.subtract(self._base)

    def _read_counters(self) -> Counter:
        c: Counter = Counter()
        log_tips: Dict[str, int] = {}
        for cluster in self.clusters:
            for name, value in cluster.kernel.op_counters().items():
                c[name] += value
            tapir = self.wl.system == "tapir"
            servers = cluster.replicas if tapir else cluster.servers
            for server in servers.values():
                c["wal_appends"] += server.wal.appends
                c["wal_syncs"] += server.wal.syncs
                if tapir:
                    c["prepares"] += server.prepares_ok \
                        + server.prepares_rejected
                    c["prepares_rejected"] += server.prepares_rejected
                    c["writes_applied"] += server.store.writes_applied
                    continue
                for part in server.partitions.values():
                    c["writes_applied"] += part.store.writes_applied
                    c["prepares"] += getattr(part, "prepares_attempted", 0)
                    c["prepares_rejected"] += getattr(
                        part, "prepares_rejected", 0)
                for gid, member in server.members.items():
                    c["elections"] += member.elections_started
                    log_tips[gid] = max(log_tips.get(gid, 0),
                                        member.log.last_index)
                coordinator = getattr(server, "coordinator", None)
                if coordinator is not None:
                    c["fast_path"] += coordinator.fast_path_decisions
                    c["slow_path"] += coordinator.slow_path_decisions
        c["raft_entries"] = sum(log_tips.values())
        return c

    # -- results ----------------------------------------------------------
    def fill_aio_bytes(self) -> None:
        """Corpus-derived wire bytes: each kind's encoded sample length
        (plus the 4-byte frame prefix) times its counts."""
        for kind, row in self.table.items():
            size = len(encode_message(self.corpus[kind])) + 4
            row[2] = row[0] * size
            row[3] = row[1] * size

    def message_table(self) -> Dict[str, Dict[str, int]]:
        """The full by-type table, for the trace file."""
        return {kind: dict(zip(("messages", "cross", "bytes", "cross_bytes"),
                               row), layer=layer_of_kind(kind))
                for kind, row in sorted(self.table.items())}

    def metrics(self, txns: Sequence[Txn],
                load_bounds_ms: Tuple[float, float]) -> Dict[str, float]:
        """Every count and phase metric of the run."""
        des = self.wl.runtime == "des"
        if not des:
            self.fill_aio_bytes()
        start, end = load_bounds_ms
        done = [t for t in txns
                if t.committed and start <= t.reply_ms <= end]
        n = max(1, len(done))
        c = self.counts
        out: Dict[str, float] = {}

        total = [sum(row[i] for row in self.table.values())
                 for i in range(4)]
        by_layer: Dict[str, int] = defaultdict(int)
        for kind, row in self.table.items():
            by_layer[layer_of_kind(kind)] += row[0]
        for layer in _PROTOCOL_LAYERS:
            out[f"{layer}.messages_per_txn"] = by_layer[layer] / n
        empty = self.table.get("AppendEntries.empty", (0,))[0]
        appends = self.table.get("AppendEntries", (0,))[0] + empty
        out["raft.empty_append_share"] = empty / appends if appends else 0.0
        out["raft.entries_per_txn"] = c["raft_entries"] / n
        out["raft.elections"] = float(c["elections"])
        decided = c["fast_path"] + c["slow_path"]
        out["core.fast_path_share"] = \
            c["fast_path"] / decided if decided else 0.0
        rejected = c["prepares_rejected"] / c["prepares"] \
            if c["prepares"] else 0.0
        out["core.prepares_rejected_share"] = \
            rejected if self.wl.system.startswith("carousel") else 0.0
        out["tapir.prepares_rejected_share"] = \
            rejected if self.wl.system == "tapir" else 0.0
        out["store.writes_applied_per_txn"] = c["writes_applied"] / n
        out["wal.appends_per_txn"] = c["wal_appends"] / n
        out["wal.syncs_per_txn"] = c["wal_syncs"] / n
        submitted = sum(1 for t in txns if t.submit_ms is not None
                        and start <= t.submit_ms <= end)
        out["workloads.submitted_per_committed"] = submitted / n
        for name in ("events_scheduled", "events_executed",
                     "events_cancelled"):
            out[f"sim.kernel.{name}_per_txn"] = c[name] / n if des else 0.0
        out["runtime.aio.timers_per_txn"] = \
            0.0 if des else c["events_scheduled"] / n
        out["runtime.aio.timers_cancelled_per_txn"] = \
            0.0 if des else c["events_cancelled"] / n
        for name, i in (("messages", 0), ("wan_messages", 1),
                        ("bytes", 2), ("wan_bytes", 3)):
            out[f"sim.network.{name}_per_txn"] = total[i] / n if des else 0.0
        out["runtime.aio.messages_per_txn"] = 0.0 if des else total[0] / n
        out["runtime.aio.remote_frames_per_txn"] = \
            0.0 if des else total[1] / n
        out["runtime.wire.bytes_per_txn"] = 0.0 if des else total[3] / n

        # virtual-time phases and critical-path WAN round trips ------------
        durations: Dict[str, List[float]] = defaultdict(list)
        wanrt: List[float] = []
        if self.tracer is not None:
            for t in done:
                trace = self.tracer.get(t.tid)
                if trace is None:
                    continue
                wanrt.append(trace.sequential_wanrt())
                for span in trace.spans:
                    if span.end_ms is not None:
                        durations[span.kind].append(
                            span.end_ms - span.start_ms)
        for name, kinds in _PHASES:
            values = [d for kind in kinds for d in durations[kind]]
            out[f"phase.{name}_ms_p50"] = \
                statistics.median(values) if values else 0.0
        mean_wanrt = sum(wanrt) / len(wanrt) if wanrt else 0.0
        owner = "core" if self.wl.system.startswith("carousel") \
            else self.wl.system
        for layer in ("core", "tapir", "layered"):
            out[f"{layer}.wanrt_mean"] = \
                mean_wanrt if layer == owner else 0.0
        return out
