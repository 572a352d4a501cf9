"""Localhost TCP round-trips through the asyncio transport.

Fast enough for tier-1: every test binds ephemeral listeners on
127.0.0.1, pushes a handful of frames, and tears down — no protocol
clusters, no child processes (those live in ``test_conformance.py``
behind the ``cluster`` marker).
"""

import asyncio

import pytest

from repro.core.messages import ReadReply
from repro.runtime.aio import AioRuntime, proc_for
from repro.runtime.harness import CtlPeers, CtlShutdown
from repro.runtime.wire import encode_message, frame
from repro.sim.topology import ec2_five_regions
from repro.txn import TID


class FakeNode:
    """The minimum the transport needs of a node: id, liveness, inbox."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.crashed = False
        self.inbox = []

    def enqueue(self, msg):
        self.inbox.append(msg)


async def _pair():
    """Two started runtimes ("driver" and "dc-oregon") that know each
    other's addresses, each hosting one FakeNode."""
    loop = asyncio.get_running_loop()
    topology = ec2_five_regions()
    a = AioRuntime("driver", seed=0, topology=topology, loop=loop)
    b = AioRuntime("dc-oregon", seed=0, topology=topology, loop=loop)
    port_a = await a.start()
    port_b = await b.start()
    table = {"driver": ("127.0.0.1", port_a),
             "dc-oregon": ("127.0.0.1", port_b)}
    a.network.set_addresses(table)
    b.network.set_addresses(table)
    assert a.network.claim("c1", "client", "oregon") is True
    assert a.network.claim("s1", "server", "oregon") is False
    assert b.network.claim("c1", "client", "oregon") is False
    assert b.network.claim("s1", "server", "oregon") is True
    a.network.register(FakeNode("c1"))
    b.network.register(FakeNode("s1"))
    # Mirror the builders: every process records the full placement map.
    b.network.placement["c1"] = "driver"
    return a, b


def _reply(tid):
    return ReadReply(tid=tid, partition_id="p0", replica_id="s1",
                     values={"k": ("v", 3)})


async def _settle(predicate, timeout=5.0):
    async with asyncio.timeout(timeout):
        while not predicate():
            await asyncio.sleep(0.005)


def test_remote_send_crosses_tcp():
    async def scenario():
        a, b = await _pair()
        try:
            msg = _reply(TID("c1", 1))
            b.network.send(b.network.node("s1"), "c1", msg)
            await _settle(lambda: a.network.node("c1").inbox)
            got = a.network.node("c1").inbox[0]
            assert isinstance(got, ReadReply)
            assert got is not msg  # a real copy came over the socket
            assert (got.tid, got.values) == (msg.tid, msg.values)
            assert (got.src, got.dst) == ("s1", "c1")
            assert b.network.messages_sent == 1
            assert b.network.sent_by_type == {"ReadReply": 1}
            assert a.network.messages_delivered == 1
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_local_send_is_never_synchronous():
    # DES semantics: a send must not re-enter the receiver from inside
    # the sender's stack frame, even when both nodes share a process.
    async def scenario():
        a, b = await _pair()
        try:
            peer = FakeNode("c2")
            a.network.placement["c2"] = "driver"
            a.network.register(peer)
            a.network.send(a.network.node("c1"), "c2", _reply(TID("c1", 2)))
            assert peer.inbox == []  # not yet: queued via call_soon
            await _settle(lambda: peer.inbox)
            assert a.network.messages_delivered == 1
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_crashed_nodes_drop_traffic():
    async def scenario():
        a, b = await _pair()
        try:
            b.network.node("s1").crashed = True
            b.network.send(b.network.node("s1"), "c1", _reply(TID("c1", 3)))
            a.network.node("c1").crashed = True
            b.network.node("s1").crashed = False
            b.network.send(b.network.node("s1"), "c1", _reply(TID("c1", 4)))
            await _settle(lambda: a.network.messages_dropped)
            assert a.network.node("c1").inbox == []
            assert b.network.messages_dropped == 1  # sender-side drop
            assert a.network.messages_dropped == 1  # receiver-side drop
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_malformed_frame_is_dropped_and_the_connection_reads_on():
    async def scenario():
        a, b = await _pair()
        try:
            reader, writer = await asyncio.open_connection(
                b.network.host, b.network.port)
            good = _reply(TID("c1", 5))
            good.src, good.dst = "c1", "s1"
            writer.write(frame(b'{"t":"ReadReply","p":{"bogus":1}}')
                         + frame(encode_message(good)))
            await writer.drain()
            inbox = b.network.node("s1").inbox
            await _settle(lambda: inbox)
            assert b.network.messages_dropped == 1
            assert [(m.tid, m.values) for m in inbox] == \
                [(good.tid, good.values)]
            writer.close()
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_control_frames_bypass_the_message_path():
    async def scenario():
        a, b = await _pair()
        try:
            seen = []
            b.network.control_handler = seen.append
            table = {"driver": ["127.0.0.1", 1], "dc-oregon": ["h", 2]}
            a.network.send_control("dc-oregon", CtlPeers(addresses=table))
            a.network.send_control("dc-oregon", CtlShutdown(reason="bye"))
            await _settle(lambda: len(seen) == 2)
            assert isinstance(seen[0], CtlPeers)
            # The codec round-trips lists as lists; consumers (serve.py)
            # normalize to tuples themselves.
            assert seen[0].addresses == table
            assert seen[1] == CtlShutdown(reason="bye")
            # Control traffic never shows up in the message counters.
            assert b.network.messages_delivered == 0
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_link_retries_until_the_listener_appears():
    # The peer link's RetryPolicy loop: sending toward an address with
    # no listener yet must back off and retry, then deliver the queued
    # frame once the listener comes up — the same path a real deployment
    # takes when one serve process starts slower than its peers.
    async def scenario():
        import socket

        loop = asyncio.get_running_loop()
        topology = ec2_five_regions()
        a = AioRuntime("driver", seed=0, topology=topology, loop=loop)
        b = AioRuntime("dc-oregon", seed=0, topology=topology, loop=loop)
        with socket.socket() as probe:  # reserve a free port, then free it
            probe.bind(("127.0.0.1", 0))
            port_a = probe.getsockname()[1]
        port_b = await b.start()
        table = {"driver": ("127.0.0.1", port_a),
                 "dc-oregon": ("127.0.0.1", port_b)}
        a.network.set_addresses(table)
        b.network.set_addresses(table)
        a.network.placement.update({"c1": "driver", "s1": "dc-oregon"})
        b.network.placement.update({"c1": "driver", "s1": "dc-oregon"})
        a.network.register(FakeNode("c1"))
        b.network.register(FakeNode("s1"))
        try:
            b.network.send(b.network.node("s1"), "c1", _reply(TID("c1", 1)))
            await asyncio.sleep(0.15)  # at least one refused connect
            assert a.network.node("c1").inbox == []
            a.network.port = port_a
            await a.start()
            await _settle(lambda: a.network.node("c1").inbox)
            assert b.network._links["driver"].connects == 1
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_sends_after_close_are_dropped_not_queued():
    # Node timers keep firing while a multi-runtime harness closes its
    # transports one by one; a send after close must not spawn a fresh
    # peer link (it would leak a pending reconnect task).
    async def scenario():
        a, b = await _pair()
        await b.close()
        b.network.send(b.network.node("s1"), "c1", _reply(TID("c1", 5)))
        assert b.network.messages_dropped == 1
        assert b.network._links == {}
        await a.close()

    asyncio.run(scenario())


def test_send_to_unknown_destination_raises():
    async def scenario():
        a, b = await _pair()
        try:
            with pytest.raises(KeyError):
                a.network.send(a.network.node("c1"), "ghost",
                               _reply(TID("c1", 9)))
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_default_placement_function():
    assert proc_for("client", "oregon") == "driver"
    assert proc_for("server", "oregon") == "dc-oregon"
    assert proc_for("replica", "tokyo") == "dc-tokyo"
