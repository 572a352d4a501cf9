"""Figure 7: bandwidth usage at a target throughput of 5000 tps.

Paper shapes (§6.4.2): TAPIR clients use the most client bandwidth (they
coordinate everything); Carousel servers — especially the leaders — use
more bandwidth than TAPIR servers because they replicate both 2PC state
and data to their consensus groups; Carousel Fast servers use more than
Carousel Basic servers (fast and slow paths run concurrently); nothing
approaches link saturation (the paper measures < 70 Mbps on 1 Gbps
links).
"""

from repro import systems
from repro.bench.experiments import bandwidth_roles as _roles
from repro.bench.report import render_bandwidth


def test_fig7_bandwidth_breakdown(bandwidth_results, benchmark):
    rows = benchmark.pedantic(
        lambda: {systems.get(s).label: _roles(r)
                 for s, r in bandwidth_results.items()},
        rounds=1, iterations=1)

    print("\nFigure 7: average bandwidth at 5000 tps target "
          "(Mbps per node)")
    print(render_bandwidth(rows))

    tapir = rows["TAPIR"]
    basic = rows["Carousel Basic"]
    fast = rows["Carousel Fast"]

    # TAPIR clients send and receive more than Carousel clients: the
    # client is the coordinator and talks to every replica.
    assert tapir["client_send"] > basic["client_send"]
    assert tapir["client_send"] > fast["client_send"]
    assert tapir["client_recv"] > basic["client_recv"]

    # Carousel leaders carry more traffic than TAPIR servers: they
    # replicate 2PC state and data to their groups.
    assert basic["leader_send"] > tapir["leader_send"]
    assert fast["leader_send"] > tapir["leader_send"]

    # Fast runs both paths concurrently: its servers out-talk Basic's.
    fast_server = fast["leader_send"] + fast["follower_send"]
    basic_server = basic["leader_send"] + basic["follower_send"]
    assert fast_server > basic_server

    # Sanity: far from saturating a 1 Gbps link (paper: < 70 Mbps).
    for cells in rows.values():
        for value in cells.values():
            assert value < 500.0


def test_fig7_followers_receive_more_than_send(bandwidth_results,
                                               benchmark):
    def follower_asymmetry():
        roles = _roles(bandwidth_results["carousel-basic"])
        return roles["follower_send"], roles["follower_recv"]

    send, recv = benchmark.pedantic(follower_asymmetry, rounds=1,
                                    iterations=1)
    # Followers mostly absorb replicated state (AppendEntries bodies) and
    # answer with small acks.
    assert recv > send
