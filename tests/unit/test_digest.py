"""The bisector's compared log: record format, counters, round-trip."""

from dataclasses import dataclass
from typing import List

from repro.analysis.digest import (parse_send_fields, read_log, send_log,
                                   write_log)
from repro.sim.kernel import Kernel
from repro.sim.message import Message
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.topology import ec2_five_regions
from repro.trace.tracer import NULL_TRACER, Tracer


@dataclass
class Ping(Message):
    payload: str = "ping"


class Echo(Node):
    """Replies to every ping once."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received: List = []

    def handle_message(self, msg):
        self.received.append(msg)
        if isinstance(msg, Ping) and msg.payload == "ping":
            self.send(msg.src, Ping(payload="pong"))


def run_pings(traced=True):
    kernel = Kernel(seed=1)
    net = Network(kernel, ec2_five_regions(), jitter_fraction=0.0)
    if traced:
        Tracer(kernel)
    a = Echo("a", "us-west", kernel, net)
    Echo("b", "us-east", kernel, net)
    a.send("b", Ping())
    kernel.run()
    return kernel


def run_logged():
    kernel = run_pings()
    return send_log(kernel.tracer, kernel.op_counters())


def test_send_records_capture_route_type_and_bytes():
    sends = [r for r in run_logged() if r.startswith("S ")]
    assert len(sends) == 2
    first = parse_send_fields(sends[0])
    assert first["route"] == "a->b"
    assert first["type"] == "Ping"
    assert int(first["bytes"]) > 0
    assert float(first["at"]) > float(first["t"])
    reply = parse_send_fields(sends[1])
    assert reply["route"] == "b->a"
    # The reply's causal parent is the ping that caused it.
    assert reply["parent"] == first["msg"]


def test_log_ends_with_the_op_counters():
    kernel = run_pings()
    records = send_log(kernel.tracer, kernel.op_counters())
    counters = [r for r in records if not r.startswith("S ")]
    assert records[-len(counters):] == counters
    assert f"C events_executed={kernel.events_executed}" in counters


def test_identical_runs_produce_identical_digests():
    assert run_logged() == run_logged()


def test_untraced_send_has_none_trace_fields():
    # A send outside any transaction has no owner and is a chain's root.
    fields = parse_send_fields(run_logged()[0])
    assert fields["tid"] == "None"
    assert fields["msg"] == "0"
    assert fields["parent"] == "None"


def test_parse_send_fields_rejects_event_records():
    assert parse_send_fields("E t=1.000000 seq=3") == {}
    assert parse_send_fields("C events_executed=3") == {}


def test_write_read_round_trip(tmp_path):
    records = run_logged()
    out = tmp_path / "log.txt"
    write_log(str(out), records)
    assert read_log(str(out)) == records


def test_kernel_without_digest_is_unaffected():
    # Tracing observes: an untraced run does the same work.
    untraced = run_pings(traced=False)
    assert untraced.tracer is NULL_TRACER
    assert untraced.op_counters() == run_pings().op_counters()
