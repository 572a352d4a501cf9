"""The runtime interface the protocol code is written against.

Every protocol class (coordinator, participant, replica, Raft member,
client) binds to exactly two collaborator objects:

* a **kernel** — virtual or wall clock (``now`` in milliseconds), one
  seeded ``random.Random``, one-shot timers (``schedule`` returning a
  cancellable handle), ``spawn`` for run-soon callbacks, and the tracer
  observability hook;
* a **transport** (historically "network") — ``register`` for local
  nodes, ``send(src, dst_id, msg)``, the deployment ``topology`` (used by
  clients for nearest-leader decisions), and ``claim`` so deployment
  builders can ask which logical process hosts a node id.

This module states that contract as attribute lists plus structural
:class:`typing.Protocol` types, and provides ``missing_*_attrs``
validators that the test suite runs against **both** backends — a new
backend (or a new kernel feature) cannot silently drift from the
interface the protocols rely on.

Nothing here is imported by the hot simulation path: the DES kernel and
network satisfy the interface natively, and :mod:`repro.runtime.des`
merely wraps them.
"""

from __future__ import annotations

from typing import Any, Callable, List, Protocol, runtime_checkable

#: Supported runtime backends.
BACKENDS = ("des", "asyncio")

#: Attributes every runtime kernel must expose.  ``now`` is milliseconds
#: since the run began (virtual for DES, wall-clock for asyncio);
#: ``random`` is the single seeded RNG every protocol draw must use;
#: ``tracer`` is the observability hook (a disabled tracer when off).
KERNEL_ATTRS = (
    "now", "seed", "random", "tracer",
    "schedule", "schedule_at", "spawn",
    "events_scheduled", "events_executed", "events_cancelled",
)

#: Attributes every transport must expose.  ``claim`` is the placement
#: hook: deployment builders call it for every node id (hosted or not)
#: so the transport can route remote destinations; it returns whether
#: this process hosts the node.  ``hosts`` answers the same question
#: later without re-recording placement.
TRANSPORT_ATTRS = (
    "topology", "register", "send", "claim", "hosts",
    "messages_sent", "messages_delivered", "messages_dropped",
)


@runtime_checkable
class TimerHandle(Protocol):
    """A scheduled callback that can be cancelled before it fires."""

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent)."""


@runtime_checkable
class RuntimeKernel(Protocol):
    """Clock + RNG + timers (see :data:`KERNEL_ATTRS`)."""

    seed: Any
    random: Any
    tracer: Any

    @property
    def now(self) -> float:
        """Milliseconds since the run began (virtual or wall-clock)."""

    def schedule(self, delay_ms: float, callback: Callable[..., None],
                 *args: Any) -> TimerHandle:
        """Run ``callback(*args)`` after ``delay_ms``."""

    def schedule_at(self, time_ms: float, callback: Callable[..., None],
                    *args: Any) -> TimerHandle:
        """Run ``callback(*args)`` at absolute time ``time_ms``."""

    def spawn(self, callback: Callable[..., None],
              *args: Any) -> TimerHandle:
        """Run ``callback(*args)`` as soon as possible."""


@runtime_checkable
class RuntimeTransport(Protocol):
    """Message delivery between nodes (see :data:`TRANSPORT_ATTRS`)."""

    topology: Any

    def register(self, node: Any) -> None:
        """Attach a locally-hosted node."""

    def send(self, src: Any, dst_id: str, msg: Any) -> None:
        """Deliver ``msg`` from node ``src`` to node ``dst_id``."""

    def claim(self, node_id: str, kind: str, dc: str) -> bool:
        """Record placement of ``node_id``; True when hosted here."""

    def hosts(self, node_id: str) -> bool:
        """Whether this transport hosts ``node_id``."""


def missing_kernel_attrs(kernel: Any) -> List[str]:
    """Interface drift check: kernel attributes the object lacks."""
    return [name for name in KERNEL_ATTRS if not hasattr(kernel, name)]


def missing_transport_attrs(transport: Any) -> List[str]:
    """Interface drift check: transport attributes the object lacks."""
    return [name for name in TRANSPORT_ATTRS if not hasattr(transport, name)]


class Runtime:
    """A kernel/transport pair a deployment builder can run against.

    Deployment builders (:mod:`repro.bench.cluster`) accept a runtime and
    use ``runtime.kernel`` and ``runtime.network`` wherever they used to
    construct :class:`~repro.sim.kernel.Kernel` and
    :class:`~repro.sim.network.Network` directly; passing no runtime
    preserves the original construction byte for byte.
    """

    #: Backend name, one of :data:`BACKENDS`.
    backend: str = "abstract"

    def __init__(self, kernel: Any, network: Any):
        self.kernel = kernel
        self.network = network

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} backend={self.backend}>"
