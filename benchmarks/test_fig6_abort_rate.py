"""Figure 6: abort rate versus target throughput.

Paper shapes (§6.4.1): TAPIR's abort rate increases sharply past ~5000 tps
(the same point its committed throughput drops); Carousel Fast's abort
rate is above Carousel Basic's at high load (stale local-replica reads:
9% vs 7% at 8000 tps); both Carousel variants stay far below TAPIR's
spike.
"""

import pytest

from repro import systems
from repro.bench.report import render_throughput_sweep


def _aborts(points):
    return {r.target_tps: r.stats.abort_rate for r in points}


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: red since the FIFO-link rebaseline -- the Basic/TAPIR "
    "loaded-half abort ratio is 0.77 (bound < 0.75); strict, so turning "
    "green fails until the mark goes"))
def test_fig6_abort_rate_vs_target(throughput_sweep, benchmark):
    aborts = benchmark.pedantic(
        lambda: {system: _aborts(points)
                 for system, points in throughput_sweep.items()},
        rounds=1, iterations=1)

    series = {
        systems.get(system).label: [
            (r.target_tps, r.stats.committed_tps, r.stats.abort_rate)
            for r in points]
        for system, points in throughput_sweep.items()
    }
    print("\nFigure 6: abort rate vs target throughput "
          "(Retwis, 5 ms uniform RTT)")
    print(render_throughput_sweep(series))

    targets = sorted(aborts["tapir"])
    low, high = targets[0], targets[-1]

    # TAPIR: sharp abort-rate increase past its knee.
    assert aborts["tapir"][high] > 2.5 * max(aborts["tapir"][low], 0.02)

    # Carousel stays clearly below TAPIR's spike over the loaded half of
    # the sweep (the paper compares at 8000: 7-9% vs TAPIR's climb).
    loaded = [t for t in targets if t >= 6500]
    tapir_avg = sum(aborts["tapir"][t] for t in loaded) / len(loaded)
    basic_avg = sum(aborts["carousel-basic"][t]
                    for t in loaded) / len(loaded)
    assert basic_avg < 0.75 * tapir_avg

    # Stale local reads give Fast a higher abort rate than Basic at high
    # load (paper: 9% vs 7% at 8000 tps).
    high_loads = [t for t in targets if t >= 6500]
    fast_avg = sum(aborts["carousel-fast"][t]
                   for t in high_loads) / len(high_loads)
    basic_avg = sum(aborts["carousel-basic"][t]
                    for t in high_loads) / len(high_loads)
    assert fast_avg > basic_avg


def test_fig6_stale_reads_only_in_fast(throughput_sweep, benchmark):
    def stale_counts():
        result = {}
        for system in ("carousel-basic", "carousel-fast"):
            total = 0
            for r in throughput_sweep[system]:
                total += r.stats.abort_reasons.get("stale_read", 0)
            result[system] = total
        return result

    stale = benchmark.pedantic(stale_counts, rounds=1, iterations=1)
    print("\nstale-read aborts:", stale)
    # Basic never reads from followers, so it can never abort on staleness.
    assert stale["carousel-basic"] == 0
    assert stale["carousel-fast"] > 0
