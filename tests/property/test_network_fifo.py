"""Property tests: fault-free links of the simulated network are FIFO.

For any send schedule — bursts inside the jitter, idle gaps, traffic on
several links at once, and an accounting window or trace hook opening and
closing mid-stream (which moves sends between the network's inline and
general send paths), with or without a never-firing fault model
installed — every arrival must equal a per-link model: the
sampled arrival, or the previous arrival *on that link* when that is
later.  The model keeps no cross-link state and draws jitter from a twin
RNG, so agreeing with it proves per-link order, independence of links,
"never earlier than the sampled delay", and that the jitter stream is
still one draw per send.
"""

import random
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Kernel
from repro.sim.message import Message
from repro.sim.network import LinkFaults, Network
from repro.sim.node import Node
from repro.sim.topology import ec2_five_regions

JITTER = 0.02
N_NODES = 4


@dataclass
class Numbered(Message):
    n: int = 0


class Recorder(Node):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def handle_message(self, msg):
        self.received.append((self.kernel.now, msg.src, msg.n))


#: One step of a schedule: wait ``gap`` ms, then either send on the
#: ``src -> dst`` link or flip one of the send-path switches.
step_st = st.tuples(
    st.sampled_from((0.0, 0.0, 0.001, 0.05, 0.5, 3.0, 40.0, 400.0)),
    st.sampled_from(("send", "send", "send", "send", "send",
                     "accounting", "hook")),
    st.integers(0, N_NODES - 1), st.integers(0, N_NODES - 1))


def _run(seed, steps, faulted=None):
    """Play ``steps``; returns ``(nodes, sends, kernel)`` where ``sends``
    lists ``(send time, src, dst, n)`` in send order.  ``faulted`` is
    ``(src, dst, LinkFaults)`` to install on that directed link."""
    kernel = Kernel(seed=seed)
    topo = ec2_five_regions()
    net = Network(kernel, topo, jitter_fraction=JITTER)
    nodes = [Recorder(f"n{i}", topo.datacenters[i], kernel, net)
             for i in range(N_NODES)]
    if faulted is not None:
        net.set_link_faults(*faulted, bidirectional=False)
    sends = []

    def act(kind, src, dst, n):
        if kind == "send":
            sends.append((kernel.now, f"n{src}", f"n{dst}", n))
            nodes[src].send(f"n{dst}", Numbered(n=n))
        elif kind == "accounting":
            (net.stop_accounting if net._accounting
             else net.start_accounting)()
        elif kind == "hook":
            net.trace_hook = None if net.trace_hook else (lambda m, d: None)

    at = 0.0
    for n, (gap, kind, src, dst) in enumerate(steps):
        at += gap
        kernel.schedule_at(at, act, kind, src, dst, n)
    kernel.run()
    return nodes, sends, kernel


class TestFifoLinks:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           steps=st.lists(step_st, min_size=1, max_size=80),
           zero_model=st.booleans())
    def test_arrivals_match_the_per_link_model(self, seed, steps,
                                               zero_model):
        # An installed model that never fires must change nothing.
        nodes, sends, kernel = _run(
            seed, steps,
            faulted=("n0", "n1", LinkFaults()) if zero_model else None)
        topo = ec2_five_regions()
        twin = random.Random(seed)
        tails = {}
        expected = {node.node_id: [] for node in nodes}
        for sent_at, src, dst, n in sends:
            one_way = topo.one_way(topo.datacenters[int(src[1:])],
                                   topo.datacenters[int(dst[1:])])
            sampled = sent_at + one_way * (1.0 + twin.random() * JITTER)
            arrival = max(sampled, tails.get((src, dst), 0.0))
            tails[(src, dst)] = arrival
            expected[dst].append((arrival, src, n))
        for node in nodes:
            # Per directed link: delivery order is send order, at exactly
            # the modelled times.
            for src in expected:
                got = [r for r in node.received if r[1] == src]
                want = [r for r in expected[node.node_id] if r[1] == src]
                assert got == want
            assert len(node.received) == len(expected[node.node_id])
        # One jitter draw per send, no more: the streams are still in step.
        assert kernel.random.random() == twin.random()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           gaps=st.lists(st.sampled_from((0.0, 0.01, 0.5, 5.0)),
                         min_size=20, max_size=60))
    def test_only_a_faulted_link_reorders(self, seed, gaps):
        """A delay fault on ``n0 -> n1`` may reorder that link; the
        clean ``n0 -> n2`` link carrying the same schedule stays FIFO."""
        steps = [(gap, "send", 0, 1 + i % 2) for i, gap in enumerate(gaps)]
        nodes, _, _ = _run(seed, steps, faulted=(
            "n0", "n1", LinkFaults(delay_prob=0.5, delay_ms=50.0)))
        clean = [n for _, _, n in nodes[2].received]
        assert clean == sorted(clean)
        assert sorted(n for _, _, n in nodes[1].received) == \
            [n for n in range(len(steps)) if n % 2 == 0]
