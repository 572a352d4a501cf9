"""Figure 5: committed throughput versus target throughput.

Local-cluster setup (§6.4): five simulated datacenters at 5 ms RTT,
Retwis workload.  Paper shapes: all three systems satisfy ~5000 tps;
past that TAPIR's committed throughput drops precipitously (excessive
queuing of pending transactions); Carousel Basic's committed throughput
falls below target around 8000 tps but keeps increasing to 10000;
Carousel Fast levels off around 8000 tps (it sends more messages per
transaction than Basic).
"""

import pytest

from repro import systems
from repro.bench.report import render_throughput_sweep


def _series(sweep):
    return {
        systems.get(system).label: [
            (r.target_tps, r.stats.committed_tps, r.stats.abort_rate)
            for r in points]
        for system, points in sweep.items()
    }


def _committed(points):
    return {r.target_tps: r.stats.committed_tps for r in points}


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: red since the FIFO-link rebaseline -- at target 10k "
    "Fast 8759 >= Basic 8702, and TAPIR sits at 0.903 x its peak "
    "(bound < 0.9); strict, so turning green fails until the mark goes"))
def test_fig5_committed_vs_target(throughput_sweep, benchmark):
    series = benchmark.pedantic(lambda: _series(throughput_sweep),
                                rounds=1, iterations=1)
    print("\nFigure 5: committed throughput vs target throughput "
          "(Retwis, 5 ms uniform RTT)")
    print(render_throughput_sweep(series))

    tapir = _committed(throughput_sweep["tapir"])
    basic = _committed(throughput_sweep["carousel-basic"])
    fast = _committed(throughput_sweep["carousel-fast"])
    targets = sorted(tapir)
    low = targets[0]

    # All systems satisfy light load.
    for committed in (tapir, basic, fast):
        assert committed[low] > 0.9 * low

    # TAPIR satisfies ~5000 tps, then declines: committed throughput at
    # the highest target sits *below* its peak (a drop, not a plateau —
    # the closed-loop pool makes the drop gentler than the paper's
    # open-loop cliff, but the shape is the same).
    tapir_peak = max(tapir.values())
    peak_target = max(tapir, key=lambda t: tapir[t])
    assert tapir_peak > 0.85 * 5000
    assert peak_target <= 6500, "TAPIR peaked too late"
    assert tapir[targets[-1]] < 0.9 * tapir_peak, \
        "TAPIR did not decline past its knee"

    # Carousel Basic keeps the highest committed throughput at the top of
    # the sweep and does not collapse.
    assert basic[targets[-1]] == max(
        c[targets[-1]] for c in (tapir, basic, fast))
    assert basic[targets[-1]] >= 0.95 * max(basic.values())

    # Carousel Fast levels off earlier than Basic (more messages per
    # transaction) but also does not collapse.
    assert fast[targets[-1]] <= basic[targets[-1]]
    assert fast[targets[-1]] >= 0.6 * max(fast.values())


def test_fig5_knee_ordering(throughput_sweep, benchmark):
    """The paper's knee ordering: TAPIR's knee is the lowest."""
    def knees():
        result = {}
        for system, points in throughput_sweep.items():
            # Knee = highest target still satisfied within 10%.
            satisfied = [r.target_tps for r in points
                         if r.stats.committed_tps >= 0.9 * r.target_tps]
            result[system] = max(satisfied) if satisfied else 0.0
        return result

    knee = benchmark.pedantic(knees, rounds=1, iterations=1)
    print("\nknees (highest satisfied target):", knee)
    # TAPIR's knee is the lowest (the paper's headline ordering).  Between
    # the Carousel variants the paper distinguishes them at the *top* of
    # the sweep (Basic highest, asserted in test_fig5_committed_vs_target)
    # rather than by knee position.
    assert knee["tapir"] <= knee["carousel-fast"]
    assert knee["tapir"] <= knee["carousel-basic"]
