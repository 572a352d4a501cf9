"""Simulated network: message delivery, partitions, bandwidth accounting,
and adversarial per-link fault models.

The network connects :class:`~repro.sim.node.Node` instances.  Sending a
message computes a one-way delay from the topology (RTT/2 between
datacenters), applies optional deterministic jitter, accounts the message's
bytes against per-node bandwidth meters, and schedules delivery on the
kernel.  Crashed destinations and partitioned pairs silently drop messages,
matching the fail-stop, asynchronous model the paper assumes (§3.1).

Every directed link is **ordered**, like the gRPC/TCP streams the paper's
prototype runs on: a message never arrives before one sent earlier on the
same ``src -> dst`` link (its arrival is the later of its own sampled
arrival and the previous arrival on that link).  Jitter therefore varies
delay but never reorders.  Reordering is a *fault*, not a property of the
link: only the delay spikes and duplicates of an installed
:class:`LinkFaults` model deliver out of order.

Chaos testing (see :mod:`repro.chaos`) additionally attaches
:class:`LinkFaults` to directed links: probabilistic message drop,
duplication, and extra-delay spikes.  Fault decisions come from a
dedicated RNG seeded from the kernel seed — *not* from ``kernel.random``
— so (a) the same seed always yields the same drop/dup/delay decisions,
and (b) enabling faults on one link never shifts the RNG stream the
protocols and jitter draw from.  The fault RNG is consulted only for
sends on links with faults installed, so fault-free runs are untouched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple, TYPE_CHECKING

from repro.sim.kernel import Kernel
from repro.sim.message import Message
from repro.sim.topology import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.node import Node


@dataclass(frozen=True)
class LinkFaults:
    """Adversarial behaviour of one directed link.

    Parameters
    ----------
    drop_prob:
        Probability that a message on this link is silently lost.
    dup_prob:
        Probability that a (non-dropped) message is delivered twice; the
        duplicate trails the original by up to ``dup_lag_ms``.
    delay_prob / delay_ms:
        Probability that a (non-dropped) message suffers an extra delay
        spike, drawn uniformly from ``(0, delay_ms]`` — enough to reorder
        it behind later traffic on the same link.

    Spikes and duplicates are the only way a link reorders: their extra
    delay is added past the link's ordered arrival, so later traffic
    overtakes them.  A model whose probabilities are all zero changes
    nothing.
    """

    drop_prob: float = 0.0
    dup_prob: float = 0.0
    delay_prob: float = 0.0
    delay_ms: float = 0.0
    dup_lag_ms: float = 20.0

    def __post_init__(self) -> None:
        for name in ("drop_prob", "dup_prob", "delay_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.delay_prob > 0 and self.delay_ms <= 0:
            raise ValueError("delay_ms must be positive when delay_prob "
                             "is nonzero")
        if self.dup_lag_ms < 0:
            raise ValueError("dup_lag_ms must be non-negative")

    def describe(self) -> str:
        """Compact human-readable summary, e.g. ``drop=0.20 dup=0.30``."""
        parts = []
        if self.drop_prob:
            parts.append(f"drop={self.drop_prob:.2f}")
        if self.dup_prob:
            parts.append(f"dup={self.dup_prob:.2f}")
        if self.delay_prob:
            parts.append(f"delay={self.delay_prob:.2f}"
                         f"x{self.delay_ms:.0f}ms")
        return " ".join(parts) or "none"


class LinkStats:
    """Per-link fault counters, kept for every link that ever had faults
    installed (the fault-free fast path never creates these)."""

    __slots__ = ("sent", "delivered", "dropped", "duplicated", "delayed")

    def __init__(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0


class BandwidthAccount:
    """Bytes sent and received by one node inside the measurement window."""

    __slots__ = ("bytes_sent", "bytes_received", "messages_sent",
                 "messages_received")

    def __init__(self) -> None:
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.messages_received = 0


class Network:
    """Delivers messages between registered nodes.

    Parameters
    ----------
    kernel:
        The simulation kernel providing the clock and RNG.
    topology:
        Datacenter latency model.
    jitter_fraction:
        If nonzero, each one-way delay is multiplied by a factor drawn
        uniformly from ``[1, 1 + jitter_fraction]`` using the kernel RNG.
        A small jitter (the default 2%) breaks pathological synchronization
        between concurrent transactions without materially changing medians.
    """

    def __init__(self, kernel: Kernel, topology: Topology,
                 jitter_fraction: float = 0.02):
        self.kernel = kernel
        self.topology = topology
        self.jitter_fraction = jitter_fraction
        self.nodes: Dict[str, "Node"] = {}
        self._partitioned: Set[Tuple[str, str]] = set()
        self._accounts: Dict[str, BandwidthAccount] = {}
        self._accounting = False
        self._accounting_start: Optional[float] = None
        self._accounting_end: Optional[float] = None
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        #: Directed-link fault models, installed by the chaos harness.
        self._link_faults: Dict[Tuple[str, str], LinkFaults] = {}
        self._link_stats: Dict[Tuple[str, str], LinkStats] = {}
        #: Latest ordered arrival time handed out on each directed link
        #: (see :meth:`_fifo_arrival`).
        self._link_tail: Dict[Tuple[str, str], float] = {}
        # Dedicated fault RNG: string-seeded from the kernel seed
        # (deterministic across processes, unlike tuple seeds) and
        # separate from kernel.random so installing faults never shifts
        # the protocol RNG stream.
        # detlint: ignore[unseeded-random]
        self._fault_rng = random.Random(f"link-faults:{kernel.seed}")
        self._trace_hook: Optional[Callable[[Message, float], None]] = None
        # Hot-path caches: the bound delivery callback (a fresh bound
        # method per send is an allocation), the topology lookup, and the
        # raw uniform [0,1) draw — `uniform(0, j)` computes `0 + j *
        # random()`, so `random() * j` yields bit-identical jitter.
        self._deliver_cb = self._deliver
        self._one_way = topology.one_way
        self._rand = kernel.random.random
        #: True while no accounting window, link faults, or protocol
        #: trace hook is active — sends then take a short inline path.
        self._fast = True

    def _refresh_fast_path(self) -> None:
        self._fast = not (self._accounting or self._link_faults
                          or self._trace_hook is not None)

    @property
    def trace_hook(self) -> Optional[Callable[[Message, float], None]]:
        """Optional hook called as ``trace(msg, delay_ms)`` for every
        send; used by the protocol-trace benchmarks (Figures 2 and 3)."""
        return self._trace_hook

    @trace_hook.setter
    def trace_hook(self,
                   hook: Optional[Callable[[Message, float], None]]) -> None:
        self._trace_hook = hook
        self._refresh_fast_path()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def claim(self, node_id: str, kind: str, dc: str) -> bool:
        """Placement hook of the runtime interface
        (:data:`repro.runtime.api.TRANSPORT_ATTRS`): deployment builders
        ask which logical process hosts ``node_id`` before constructing
        it.  The simulated network is single-process, so it hosts
        everything."""
        return True

    def hosts(self, node_id: str) -> bool:
        """Whether this transport hosts ``node_id`` (always, for the
        single-process simulated network)."""
        return True

    def register(self, node: "Node") -> None:
        """Attach a node to the network. Node ids must be unique."""
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        if node.dc not in self.topology:
            raise ValueError(f"node {node.node_id!r} is in unknown "
                             f"datacenter {node.dc!r}")
        self.nodes[node.node_id] = node

    def node(self, node_id: str) -> "Node":
        """Look up a node by id."""
        return self.nodes[node_id]

    # ------------------------------------------------------------------
    # Bandwidth accounting
    # ------------------------------------------------------------------
    def start_accounting(self) -> None:
        """Begin counting bytes (e.g. after workload warmup)."""
        self._accounting = True
        self._accounting_start = self.kernel.now
        self._refresh_fast_path()

    def stop_accounting(self) -> None:
        """Stop counting bytes (e.g. before workload cooldown)."""
        self._accounting = False
        self._accounting_end = self.kernel.now
        self._refresh_fast_path()

    @property
    def accounting_window_ms(self) -> float:
        """Length of the closed accounting window, in milliseconds."""
        if self._accounting_start is None:
            return 0.0
        end = (self._accounting_end if self._accounting_end is not None
               else self.kernel.now)
        return max(0.0, end - self._accounting_start)

    def account(self, node_id: str) -> BandwidthAccount:
        """The bandwidth account for ``node_id`` (created on demand)."""
        if node_id not in self._accounts:
            self._accounts[node_id] = BandwidthAccount()
        return self._accounts[node_id]

    def bandwidth_mbps(self, node_id: str) -> Tuple[float, float]:
        """(send, receive) rates in megabits/s over the accounting window."""
        window_s = self.accounting_window_ms / 1000.0
        if window_s <= 0:
            return (0.0, 0.0)
        acct = self.account(node_id)
        to_mbps = 8.0 / 1_000_000.0 / window_s
        return (acct.bytes_sent * to_mbps, acct.bytes_received * to_mbps)

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def partition(self, a: str, b: str) -> None:
        """Block messages in both directions between nodes ``a`` and ``b``."""
        self._partitioned.add((a, b))
        self._partitioned.add((b, a))

    def heal(self, a: str, b: str) -> None:
        """Remove a partition between nodes ``a`` and ``b``."""
        self._partitioned.discard((a, b))
        self._partitioned.discard((b, a))

    def heal_all(self) -> None:
        """Remove all partitions."""
        self._partitioned.clear()

    def is_partitioned(self, a: str, b: str) -> bool:
        """Whether messages from ``a`` to ``b`` are currently blocked."""
        return (a, b) in self._partitioned

    # ------------------------------------------------------------------
    # Link faults (chaos harness)
    # ------------------------------------------------------------------
    def set_link_faults(self, a: str, b: str, faults: LinkFaults,
                        bidirectional: bool = True) -> None:
        """Install an adversarial fault model on the ``a -> b`` link (and,
        by default, on ``b -> a`` too)."""
        pairs = [(a, b), (b, a)] if bidirectional else [(a, b)]
        for pair in pairs:
            self._link_faults[pair] = faults
            if pair not in self._link_stats:
                self._link_stats[pair] = LinkStats()
        self._refresh_fast_path()

    def clear_link_faults(self, a: str, b: str,
                          bidirectional: bool = True) -> None:
        """Remove the fault model from the ``a -> b`` link (counters are
        kept, so post-run reports still see what happened)."""
        self._link_faults.pop((a, b), None)
        if bidirectional:
            self._link_faults.pop((b, a), None)
        self._refresh_fast_path()

    def clear_all_link_faults(self) -> None:
        """Remove every installed link fault model (counters are kept)."""
        self._link_faults.clear()
        self._refresh_fast_path()

    def link_faults(self, a: str, b: str) -> Optional[LinkFaults]:
        """The fault model currently on ``a -> b``, if any."""
        return self._link_faults.get((a, b))

    def link_stats(self) -> Dict[Tuple[str, str], LinkStats]:
        """Counters for every link that ever had faults installed."""
        return dict(self._link_stats)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: "Node", dst_id: str, msg: Message) -> None:
        """Send ``msg`` from ``src`` to the node named ``dst_id``.

        The message is stamped, accounted, delayed by the topology's one-way
        latency (with jitter) but never ahead of earlier traffic on the
        same link, and delivered unless the sender or receiver has crashed
        or the pair is partitioned.  Dropped messages are simply lost: the
        model is asynchronous and protocols must use timeouts.

        When no accounting window, link faults, or protocol trace hook is
        active (``self._fast``), the send takes an inline path that
        allocates only what scheduling the delivery needs — payload
        sizing, fault lookups, and per-link stats are all skipped — and
        whose jitter draw and link order (:meth:`_fifo_arrival`) are
        bit-identical to the slow path's.
        """
        try:
            dst = self.nodes[dst_id]
        except KeyError:
            raise KeyError(f"unknown destination node {dst_id!r}") from None
        kernel = self.kernel
        msg.src = src.node_id
        msg.dst = dst_id
        msg.sent_at = kernel._now
        self.messages_sent += 1

        if self._fast:
            if src.crashed:
                self.messages_dropped += 1
                return
            delay = self._one_way(src.dc, dst.dc)
            jitter = self.jitter_fraction
            if jitter > 0:
                delay *= 1.0 + self._rand() * jitter
            arrival = self._fifo_arrival(src.node_id, dst_id, delay)
            event = kernel.schedule_at(arrival, self._deliver_cb, msg, dst)
            tracer = kernel.tracer
            if tracer.enabled:
                event.ctx = tracer.on_send(msg, src, dst,
                                           arrival - kernel._now)
            return

        # Sizing walks the whole payload, so only pay for it while the
        # bandwidth experiment's accounting window is open.
        if self._accounting and not src.crashed:
            acct = self.account(src.node_id)
            acct.bytes_sent += msg.size_bytes()
            acct.messages_sent += 1

        if src.crashed:
            self.messages_dropped += 1
            return

        delay = self.topology.one_way(src.dc, dst.dc)
        if self.jitter_fraction > 0:
            delay *= 1.0 + self.kernel.random.uniform(0, self.jitter_fraction)

        arrival = self._fifo_arrival(src.node_id, dst_id, delay)

        # Adversarial link faults: only links with an installed model pay
        # for (or draw) anything, keeping the hot path and RNG streams
        # unchanged in fault-free runs.  A spike or a duplicate lands its
        # extra delay past the ordered arrival without moving the link's
        # tail, so later traffic overtakes it: faults are what reorders.
        duplicate: Optional[float] = None
        if self._link_faults:
            faults = self._link_faults.get((src.node_id, dst_id))
            if faults is not None:
                stats = self._link_stats[(src.node_id, dst_id)]
                stats.sent += 1
                rng = self._fault_rng
                if faults.drop_prob > 0 and \
                        rng.random() < faults.drop_prob:
                    stats.dropped += 1
                    self.messages_dropped += 1
                    return
                if faults.delay_prob > 0 and \
                        rng.random() < faults.delay_prob:
                    arrival += rng.uniform(0.0, faults.delay_ms)
                    stats.delayed += 1
                if faults.dup_prob > 0 and \
                        rng.random() < faults.dup_prob:
                    duplicate = arrival + rng.uniform(
                        0.0, faults.dup_lag_ms)
                    stats.duplicated += 1

        self._schedule_delivery(src, dst, msg, arrival)
        if duplicate is not None:
            # The duplicate is a second wire copy: traced and delivered
            # independently of the original.
            self._schedule_delivery(src, dst, msg, duplicate)

    def _fifo_arrival(self, src_id: str, dst_id: str, delay: float) -> float:
        """Absolute arrival time of a message sent now on the
        ``src_id -> dst_id`` link: its sampled ``delay`` from now, but
        never before the previous arrival on that link (equal arrival
        times fire in send order — the kernel breaks ties by sequence)."""
        arrival = self.kernel._now + delay
        link = (src_id, dst_id)
        tail = self._link_tail.get(link, 0.0)
        if tail > arrival:
            return tail
        self._link_tail[link] = arrival
        return arrival

    def _schedule_delivery(self, src: "Node", dst: "Node", msg: Message,
                           arrival: float) -> None:
        kernel = self.kernel
        delay = arrival - kernel.now
        if self._trace_hook is not None:
            self._trace_hook(msg, delay)
        event = kernel.schedule_at(arrival, self._deliver, msg, dst)
        tracer = kernel.tracer
        if tracer.enabled:
            # The delivery event carries a child context: the sender's
            # causal chain extended by this hop (cross-DC hops deepen it).
            event.ctx = tracer.on_send(msg, src, dst, delay)

    def _deliver(self, msg: Message, dst: "Node") -> None:
        if dst.crashed or (self._partitioned and
                           (msg.src, msg.dst) in self._partitioned):
            self.messages_dropped += 1
            return
        if self._accounting:
            acct = self.account(dst.node_id)
            acct.bytes_received += msg.size_bytes()
            acct.messages_received += 1
        self.messages_delivered += 1
        if self._link_stats:
            stats = self._link_stats.get((msg.src, dst.node_id))
            if stats is not None:
                stats.delivered += 1
        dst.enqueue(msg)
