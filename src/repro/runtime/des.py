"""The DES backend: the existing kernel and simulated network, wrapped.

This is a zero-behaviour adapter.  Building a :class:`DesRuntime` performs
exactly the constructions :mod:`repro.bench.cluster` has always performed
— ``Kernel(seed=...)`` then ``Network(kernel, topology, jitter)`` — so a
deployment built through the runtime interface is byte-identical to one
built directly (same event order, same RNG stream, same op counters).
The regression gate is ``python -m repro perf compare --ops-only``
against the committed ``BENCH_seed.json``.
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.api import Runtime
from repro.sim.kernel import Kernel
from repro.sim.network import Network
from repro.sim.topology import Topology


class DesRuntime(Runtime):
    """Discrete-event runtime: virtual clock, simulated WAN."""

    backend = "des"

    def __init__(self, seed: int, topology: Topology,
                 jitter_fraction: float = 0.02,
                 kernel: Optional[Kernel] = None,
                 network: Optional[Network] = None):
        if kernel is None:
            kernel = Kernel(seed=seed)
        if network is None:
            network = Network(kernel, topology,
                              jitter_fraction=jitter_fraction)
        super().__init__(kernel, network)

    def run(self, until_ms: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Advance virtual time (delegates to :meth:`Kernel.run`)."""
        return self.kernel.run(until=until_ms, max_events=max_events)
