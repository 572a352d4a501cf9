"""The asyncio/TCP backend: wall clock, real sockets, same protocol code.

One :class:`AioRuntime` is one logical *process* of a deployment (named
``driver`` for the workload clients or ``dc-<name>`` for a datacenter's
servers — see :func:`proc_for`).  Several runtimes may share a single OS
process and event loop (the in-process cluster used by the conformance
harness) or live in separate OS processes (``python -m repro serve``);
either way every inter-process message crosses a real TCP connection
through the length-prefixed codec in :mod:`repro.runtime.wire`.

Clock and timers map onto the event loop: ``now`` is wall-clock
milliseconds since the runtime started, ``schedule`` is
``loop.call_later``.  The kernel keeps the same deterministic operation
counters as the DES kernel so reports stay comparable, but the asyncio
backend makes **no determinism promise** — that is exactly what the DES
oracle is for.

Per-peer connection management uses the existing
:class:`repro.core.backoff.RetryPolicy`: one outbound link per peer
process, lazily connected on first send, reconnecting with capped
exponential backoff and re-queuing the unsent frame.  Replies travel over
the *receiver's* own outbound link back, so links are one-directional and
need no handshake.
"""

# Wall-clock reads (`loop.time`) are this backend's clock by design;
# detlint's DL003 allowlist covers `runtime/` (see analysis/detlint.py).

from __future__ import annotations

import asyncio
import random
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.core.backoff import RetryPolicy
from repro.runtime.api import Runtime
from repro.runtime.wire import (
    WireError,
    decode_message,
    encode_message,
    frame,
    read_frame,
)
from repro.sim.topology import Topology
from repro.trace.tracer import NULL_TRACER

#: Logical process hosting the workload clients.
DRIVER_PROC = "driver"

#: Default reconnect schedule: 50 ms doubling to a 2 s cap, 20 % jitter.
DEFAULT_RECONNECT = RetryPolicy(base_ms=50.0, multiplier=2.0,
                                max_ms=2000.0, jitter_fraction=0.2)


def proc_for(kind: str, dc: str) -> str:
    """Default placement: clients on the driver, servers grouped per
    datacenter (one serve process per DC, like the paper's deployment
    of one CDS host per datacenter)."""
    return DRIVER_PROC if kind == "client" else f"dc-{dc}"


class AioTimerHandle:
    """Cancellable wrapper around ``loop.call_later``."""

    __slots__ = ("_handle", "_kernel", "cancelled")

    def __init__(self, handle, kernel: "AioKernel"):
        self._handle = handle
        self._kernel = kernel
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        self._handle.cancel()
        self._kernel.events_cancelled += 1


class AioKernel:
    """Wall-clock kernel over an asyncio event loop.

    Exposes the same interface as :class:`repro.sim.kernel.Kernel`
    (:data:`repro.runtime.api.KERNEL_ATTRS`): millisecond clock, seeded
    RNG, cancellable one-shot timers, tracer/digest hooks.
    """

    def __init__(self, seed: int, loop: asyncio.AbstractEventLoop,
                 label: str = "aio"):
        self._loop = loop
        self._t0 = loop.time()
        self.seed = seed
        #: Per-process stream: string-seeded so distinct processes of the
        #: same deployment seed draw independent election jitter.
        self.random = random.Random(f"{label}:{seed}")
        self.tracer = NULL_TRACER
        self.digest = None
        self.events_scheduled = 0
        self.events_executed = 0
        self.events_cancelled = 0

    @property
    def now(self) -> float:
        """Wall-clock milliseconds since this runtime started."""
        return (self._loop.time() - self._t0) * 1000.0

    def schedule(self, delay_ms: float, callback: Callable[..., None],
                 *args: Any) -> AioTimerHandle:
        """Run ``callback(*args)`` after ``delay_ms`` of wall time."""
        if delay_ms < 0:
            delay_ms = 0.0
        self.events_scheduled += 1
        handle = AioTimerHandle(None, self)

        def fire() -> None:
            if handle.cancelled:  # pragma: no cover - cancel races
                return
            self.events_executed += 1
            callback(*args)

        handle._handle = self._loop.call_later(delay_ms / 1000.0, fire)
        return handle

    def schedule_at(self, time_ms: float, callback: Callable[..., None],
                    *args: Any) -> AioTimerHandle:
        """Schedule at an absolute runtime-clock time."""
        return self.schedule(time_ms - self.now, callback, *args)

    def spawn(self, callback: Callable[..., None],
              *args: Any) -> AioTimerHandle:
        """Run ``callback(*args)`` on the next loop iteration."""
        return self.schedule(0.0, callback, *args)

    def op_counters(self) -> dict:
        """Operation counters, same keys as the DES kernel's."""
        return {
            "events_scheduled": self.events_scheduled,
            "events_executed": self.events_executed,
            "events_cancelled": self.events_cancelled,
            "pending_events": 0,
            "compactions": 0,
        }


class _PeerLink:
    """One outbound connection to a peer process, with reconnect."""

    def __init__(self, transport: "TcpTransport", proc: str):
        self.transport = transport
        self.proc = proc
        self.queue: "asyncio.Queue[bytes]" = asyncio.Queue()
        self.connects = 0
        self._task = transport._loop.create_task(self._run())

    def enqueue(self, data: bytes) -> None:
        self.queue.put_nowait(data)

    async def _run(self) -> None:
        transport = self.transport
        policy = transport.reconnect_policy
        writer = None
        attempt = 0
        try:
            while True:
                data = await self.queue.get()
                while True:
                    if writer is None:
                        addr = await transport._address_of(self.proc)
                        try:
                            _, writer = await asyncio.open_connection(*addr)
                            self.connects += 1
                            attempt = 0
                        except OSError:
                            writer = None
                            await self._backoff(policy, attempt)
                            attempt += 1
                            continue
                    try:
                        writer.write(frame(data))
                        await writer.drain()
                        break
                    except (ConnectionError, OSError):
                        writer = None
                        await self._backoff(policy, attempt)
                        attempt += 1
        except asyncio.CancelledError:
            pass
        finally:
            if writer is not None:
                writer.close()

    async def _backoff(self, policy: RetryPolicy, attempt: int) -> None:
        delay_ms = policy.delay_ms(attempt, self.transport.kernel.random)
        await asyncio.sleep(delay_ms / 1000.0)

    async def close(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:  # pragma: no cover - py<3.11 quirk
            pass


class TcpTransport:
    """Message delivery over localhost TCP, duck-typed as the simulated
    :class:`~repro.sim.network.Network` (:data:`TRANSPORT_ATTRS`).

    ``placement`` maps node ids to logical process names; the deployment
    builders populate it through :meth:`claim` while constructing the
    cluster, so the transport can route any destination id either to a
    locally-registered node or onto the right peer link.
    """

    def __init__(self, proc: str, kernel: AioKernel, topology: Topology,
                 loop: asyncio.AbstractEventLoop,
                 host: str = "127.0.0.1",
                 reconnect_policy: Optional[RetryPolicy] = None,
                 placement_fn: Callable[[str, str], str] = proc_for):
        self.proc = proc
        self.kernel = kernel
        self.topology = topology
        self.host = host
        self.port: Optional[int] = None
        self.reconnect_policy = reconnect_policy or DEFAULT_RECONNECT
        self._loop = loop
        self._placement_fn = placement_fn
        self.nodes: Dict[str, Any] = {}
        self.placement: Dict[str, str] = {}
        self._addresses: Dict[str, Tuple[str, int]] = {}
        self._addresses_changed = asyncio.Event()
        self._links: Dict[str, _PeerLink] = {}
        self._closed = False
        self._server: Optional[asyncio.AbstractServer] = None
        #: Called with each decoded control dataclass (see
        #: :mod:`repro.runtime.harness`); ``None`` drops control frames.
        self.control_handler: Optional[Callable[[Any], None]] = None
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        #: Sender-side per-message-type counters, for the conformance
        #: harness's count reconciliation.
        self.sent_by_type: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Placement and registration
    # ------------------------------------------------------------------
    def claim(self, node_id: str, kind: str, dc: str) -> bool:
        """Record which process hosts ``node_id``; True when it is us."""
        proc = self._placement_fn(kind, dc)
        self.placement[node_id] = proc
        return proc == self.proc

    def hosts(self, node_id: str) -> bool:
        """Whether this process hosts ``node_id``."""
        return self.placement.get(node_id) == self.proc

    def register(self, node: Any) -> None:
        """Attach a locally-hosted node."""
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self.placement.setdefault(node.node_id, self.proc)
        if self.placement[node.node_id] != self.proc:
            raise ValueError(f"{node.node_id!r} is placed on "
                             f"{self.placement[node.node_id]!r}, not here")
        self.nodes[node.node_id] = node

    def node(self, node_id: str) -> Any:
        """Look up a locally-hosted node by id."""
        return self.nodes[node_id]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> int:
        """Begin listening; returns the bound port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port or 0)
        self.port = self._server.sockets[0].getsockname()[1]
        self._addresses[self.proc] = (self.host, self.port)
        return self.port

    def set_addresses(self, table: Dict[str, Tuple[str, int]]) -> None:
        """Install (or extend) the peer-process address table."""
        for proc, (host, port) in table.items():
            self._addresses[proc] = (host, int(port))
        self._addresses_changed.set()

    async def _address_of(self, proc: str) -> Tuple[str, int]:
        while proc not in self._addresses:
            self._addresses_changed.clear()
            await self._addresses_changed.wait()
        return self._addresses[proc]

    async def close(self) -> None:
        """Stop listening and tear down every peer link.  Later sends
        are counted as dropped instead of spawning fresh links (node
        timers keep firing while a multi-runtime harness shuts its
        transports down one by one)."""
        self._closed = True
        for link in list(self._links.values()):
            await link.close()
        self._links.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: Any, dst_id: str, msg: Any) -> None:
        """Send ``msg`` from local node ``src`` to node ``dst_id``."""
        msg.src = src.node_id
        msg.dst = dst_id
        msg.sent_at = self.kernel.now
        self.messages_sent += 1
        name = msg.type_name
        self.sent_by_type[name] = self.sent_by_type.get(name, 0) + 1
        if src.crashed:
            self.messages_dropped += 1
            return
        proc = self.placement.get(dst_id)
        if proc is None:
            raise KeyError(f"unknown destination node {dst_id!r}")
        if proc == self.proc:
            dst = self.nodes[dst_id]
            # Preserve the DES semantics that a send never re-enters the
            # receiver synchronously from inside the sender's handler.
            self._loop.call_soon(self._deliver_local, msg, dst)
        elif self._closed:
            self.messages_dropped += 1
        else:
            self._link(proc).enqueue(encode_message(msg))

    def _link(self, proc: str) -> _PeerLink:
        link = self._links.get(proc)
        if link is None:
            link = self._links[proc] = _PeerLink(self, proc)
        return link

    def _deliver_local(self, msg: Any, dst: Any) -> None:
        if dst.crashed:
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        dst.enqueue(msg)

    # ------------------------------------------------------------------
    # Control frames (driver <-> serve orchestration)
    # ------------------------------------------------------------------
    def send_control(self, proc: str, ctl: Any) -> None:
        """Ship a control dataclass to a peer process."""
        from repro.runtime.harness import encode_control
        if proc == self.proc:
            self._loop.call_soon(self._dispatch_control, ctl)
        elif not self._closed:
            self._link(proc).enqueue(encode_control(ctl))

    def _dispatch_control(self, ctl: Any) -> None:
        if self.control_handler is not None:
            self.control_handler(ctl)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                data = await read_frame(reader)
                if data is None:
                    break
                self._on_frame(data)
        except asyncio.CancelledError:
            pass  # server shutdown cancels in-flight readers
        finally:
            writer.close()

    def _on_frame(self, data: bytes) -> None:
        from repro.runtime.harness import decode_control, is_control
        try:
            if is_control(data):
                self._dispatch_control(decode_control(data))
                return
            msg = decode_message(data)
        except WireError:
            self.messages_dropped += 1
            return
        dst = self.nodes.get(msg.dst)
        if dst is None:
            self.messages_dropped += 1
            return
        self._deliver_local(msg, dst)


class AioRuntime(Runtime):
    """One logical process of an asyncio/TCP deployment."""

    backend = "asyncio"

    def __init__(self, proc: str, seed: int, topology: Topology,
                 loop: Optional[asyncio.AbstractEventLoop] = None,
                 host: str = "127.0.0.1",
                 reconnect_policy: Optional[RetryPolicy] = None):
        if loop is None:
            loop = asyncio.get_event_loop()
        self.proc = proc
        kernel = AioKernel(seed, loop, label=proc)
        network = TcpTransport(proc, kernel, topology, loop, host=host,
                               reconnect_policy=reconnect_policy)
        super().__init__(kernel, network)

    async def start(self) -> int:
        """Start listening; returns the bound port."""
        return await self.network.start()

    async def close(self) -> None:
        """Tear down the transport (listener and peer links)."""
        await self.network.close()



async def follow(kernel: AioKernel, targets: Iterable[float]) -> None:
    """The asyncio clock of :mod:`repro.scenario`'s driver: sleep until
    each target time (ms on ``kernel``'s clock) in turn."""
    for target in targets:
        await asyncio.sleep(max(0.0, target - kernel.now) / 1000.0)
