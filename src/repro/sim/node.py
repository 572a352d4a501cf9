"""Base class for simulated processes.

A :class:`Node` is an event-driven state machine attached to a network.  It
receives messages through :meth:`handle_message`, which runs the method its
:attr:`~Node.HANDLERS` table names for the message type (bound once, as
:class:`Handlers`), sends with :meth:`send`, and sets timers with
:meth:`set_timer`.  A class whose state
is a small machine declares it the same way, in a ``TRANSITIONS`` table
that :func:`goto` checks on every state change.

CPU model
---------
Each node is a single server with a FIFO queue: a message delivered at time
``t`` begins processing at ``max(t, busy_until)`` and occupies the node for a
per-message service time.  With ``service_time_ms=0`` (the default, used by
protocol-correctness tests) messages are handled on delivery.  The throughput
experiments (Figures 5 and 6) set a nonzero service time on servers so that
queues grow under load and committed throughput saturates — the mechanism the
paper identifies for TAPIR's collapse in §6.4.1.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.sim.kernel import Event, Kernel
from repro.sim.message import Message
from repro.sim.network import Network
from repro.wal.log import WriteAheadLog


def goto(owner: object, current: str, new: str) -> str:
    """Return ``new`` if ``owner``'s class declares ``current -> new`` in
    its ``TRANSITIONS = {state: (next, ...)}`` table, else raise.  Each
    machine's ``_goto`` stores the result; nothing else writes its state.
    """
    if new not in type(owner).TRANSITIONS.get(current, ()):
        raise RuntimeError(f"{type(owner).__name__} has no transition "
                           f"{current!r} -> {new!r}")
    return new


class Handlers(dict):
    """``*HANDLERS`` tables bound to their targets: message type -> bound
    method.  Built once per receiver at construction, so a handler patched
    onto its class before then (``repro.chaos.bugs``) is what runs; a type
    with no entry raises ``TypeError`` naming the receiving node's class.
    """

    def __init__(self, node: "Node", *bindings: Tuple[Dict[type, str],
                                                      object]):
        super().__init__((msg_type, getattr(target, name))
                         for table, target in bindings
                         for msg_type, name in table.items())
        self.node_class = type(node).__name__

    def __missing__(self, msg_type: type):
        raise TypeError(f"{self.node_class} has no handler for "
                        f"{msg_type.__name__}")


class Node:
    """A simulated process: data server, coordinator group member, or client.

    Subclasses declare :attr:`HANDLERS` and may override :meth:`on_crash` /
    :meth:`on_recover` to reset volatile state.
    """

    #: Message type -> name of the method that handles it; bound into
    #: :attr:`handlers` at construction.
    HANDLERS: Dict[type, str] = {}

    def __init__(self, node_id: str, dc: str, kernel: Kernel,
                 network: Network, service_time_ms: float = 0.0):
        self.node_id = node_id
        self.dc = dc
        self.kernel = kernel
        self.network = network
        self.service_time_ms = service_time_ms
        self.crashed = False
        self._busy_until = 0.0
        self.messages_handled = 0
        #: Incarnation counter: bumped on every crash so timers armed by a
        #: previous incarnation are dead on arrival after recovery.
        self.epoch = 0
        #: How many times this node has been power-cycled (WAL restarts).
        self.restarts = 0
        #: Durable write-ahead log, or ``None`` for purely volatile nodes
        #: (clients, bare test hosts).  Subclasses that support restart
        #: call :meth:`attach_wal`.
        self.wal: Optional[WriteAheadLog] = None
        self.handlers = Handlers(self, (self.HANDLERS, self))
        network.register(self)

    def attach_wal(self) -> None:
        """Give this node a durable log on its clock, with fsync latency
        billed to its CPU queue."""
        self.wal = WriteAheadLog(self.node_id)
        self.wal.attach_host(self)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, dst_id: str, msg: Message) -> None:
        """Send a message to another node (or to self, via the network)."""
        self.network.send(self, dst_id, msg)

    def service_time_for(self, msg: Message) -> float:
        """Per-message CPU cost in ms.  Subclasses may make this depend on
        message type or internal state (e.g. OCC validation scans the
        pending-transaction list, so its cost grows with backlog)."""
        return self.service_time_ms

    def enqueue(self, msg: Message) -> None:
        """Called by the network on delivery; applies the CPU queue model."""
        if self.crashed:
            return
        service = self.service_time_for(msg)
        if service <= 0:
            self._process(msg)
            return
        start = max(self.kernel.now, self._busy_until)
        finish = start + service
        self._busy_until = finish
        self.kernel.schedule(finish - self.kernel.now, self._process, msg)

    def _process(self, msg: Message) -> None:
        if self.crashed:
            return
        self.messages_handled += 1
        self.handle_message(msg)

    def handle_message(self, msg: Message) -> None:
        """Run the handler bound for ``msg``'s exact type (a table key is
        never subclassed)."""
        self.handlers[type(msg)](msg)

    @property
    def queue_delay_ms(self) -> float:
        """Current backlog: how long a new arrival would wait for the CPU."""
        return max(0.0, self._busy_until - self.kernel.now)

    @property
    def tracer(self):
        """The kernel's attached tracer (the disabled default when off)."""
        return self.kernel.tracer

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def set_timer(self, delay_ms: float, callback: Callable[..., None],
                  *args) -> Event:
        """Run ``callback(*args)`` after ``delay_ms`` unless cancelled.

        Timers are suppressed while the node is crashed, and a timer armed
        before a crash never fires on the recovered incarnation: the arming
        epoch is captured here and checked at fire time.
        """
        epoch = self.epoch

        def fire(*fire_args):
            if not self.crashed and self.epoch == epoch:
                callback(*fire_args)

        return self.kernel.schedule(delay_ms, fire, *args)

    # ------------------------------------------------------------------
    # Failure model
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop: drop all queued work and stop responding.

        Power loss also truncates the WAL to its durable image at this
        instant — a later :meth:`restart` replays exactly what had been
        fsynced before the crash.
        """
        if self.crashed:
            return
        self.crashed = True
        self.epoch += 1
        self._busy_until = 0.0
        if self.wal is not None:
            self.wal.crash(self.kernel.now)
        self.on_crash()

    def recover(self) -> None:
        """Resume the node with its in-memory state intact (fail-stop
        recovery; volatile state was reset by :meth:`on_crash`)."""
        if not self.crashed:
            return
        self.crashed = False
        self.on_recover()

    def restart(self) -> None:
        """Power-cycle: crash (if not already down), discard ALL in-memory
        state, and re-instantiate from the WAL image via :meth:`on_restart`
        before rejoining through the normal :meth:`on_recover` path."""
        if self.wal is None:
            raise RuntimeError(
                f"{self.node_id} has no WAL; restart requires durable state")
        if not self.crashed:
            self.crash()
        self.restarts += 1
        self.on_restart()
        self.crashed = False
        self.on_recover()

    def on_crash(self) -> None:
        """Hook for subclasses to clear volatile state. Default: no-op."""

    def on_recover(self) -> None:
        """Hook for subclasses to restart timers etc. Default: no-op."""

    def on_restart(self) -> None:
        """Hook: wipe in-memory state and rebuild it from ``self.wal``.
        Subclasses that attach a WAL must override."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement WAL restart")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.node_id} @{self.dc}>"
