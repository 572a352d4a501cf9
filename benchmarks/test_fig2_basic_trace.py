"""Figure 2: message timeline of Carousel's basic transaction protocol.

Runs one two-partition 2FI transaction (client + coordinator + local
participant in DC1, remote participant in DC2) and checks the structural
properties of the captured trace against the figure: prepares piggyback on
reads at transaction start, prepare results flow to the coordinator, the
client reply precedes the (asynchronous) writeback acknowledgments.
"""

from repro.scenario import run
from repro.trace.scenarios import figure_sends, render_figure, \
    traced_scenario


def _fig2(seed):
    return run(traced_scenario("carousel-basic", "fig2", seed))


def test_fig2_basic_protocol_trace(benchmark):
    result = benchmark.pedantic(lambda: _fig2(42), rounds=1, iterations=1)
    print()
    print(render_figure(result, "Figure 2: Carousel basic protocol, "
                                "two-partition transaction"))
    trace = figure_sends(result)
    types = [m.msg_type for m in trace]

    # (1) The prepare phase starts with the reads: the client's very first
    # sends are the coordinator registration and the piggybacked
    # read+prepare requests (§4.1.4).
    first_batch = [m for m in trace if m.send_ms == trace[0].send_ms]
    first_types = {m.msg_type for m in first_batch}
    assert first_types == {"CoordPrepareRequest", "ReadPrepareRequest"}
    assert sum(1 for m in first_batch
               if m.msg_type == "ReadPrepareRequest") == 2  # two partitions

    # (2) Each participant leader answers the read to the client and a
    # prepare result to the coordinator.
    assert types.count("ReadReply") == 2
    assert types.count("PrepareResult") == 2

    # (3) The commit request reaches the coordinator after the reads, and
    # the client learns the outcome before the writeback completes (§4.1.3:
    # writeback latency is not exposed to the client).
    reply_at = next(m.send_ms for m in trace if m.msg_type == "TxnReply")
    writeback_acks = [m for m in trace if m.msg_type == "WritebackAck"]
    assert writeback_acks, "writeback phase missing"
    assert all(m.send_ms >= reply_at for m in writeback_acks)

    # (4) No fast votes in the basic protocol.
    assert "FastVote" not in types


def test_fig2_client_latency_at_most_two_wanrt(benchmark):
    trace = figure_sends(benchmark.pedantic(lambda: _fig2(43), rounds=1,
                                            iterations=1))
    start = trace[0].send_ms
    reply_at = next(m.send_ms for m in trace
                    if m.msg_type == "TxnReply")
    # The remote participant in this scenario is at most one worst-case
    # WAN round trip away; two WANRTs bound the commit latency (§4.1).
    from repro.sim.topology import EC2_FIVE_REGIONS
    worst = max(EC2_FIVE_REGIONS.rtt("us-west", dc)
                for dc in EC2_FIVE_REGIONS.datacenters)
    assert reply_at - start <= 2 * worst + 5.0
