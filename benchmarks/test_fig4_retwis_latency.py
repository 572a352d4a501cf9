"""Figure 4: latency CDF for the Retwis workload (EC2 topology, 200 tps).

Paper result (§6.3): median latencies TAPIR 334 ms, Carousel Basic 290 ms,
Carousel Fast 232 ms; both Carousel variants are below TAPIR across the
whole distribution and the gap widens at higher percentiles.  TAPIR's
median is ~44% above Carousel Fast's.
"""

from repro import systems
from repro.bench.report import render_cdf, render_latency_table

PAPER_MEDIANS_MS = {"tapir": 334.0, "carousel-basic": 290.0,
                    "carousel-fast": 232.0}


def _recorders(results):
    return {systems.get(s).label: r.stats.latency
            for s, r in results.items()}


def test_fig4_latency_cdf(fig4_results, benchmark):
    medians = benchmark.pedantic(
        lambda: {s: r.stats.latency.median()
                 for s, r in fig4_results.items()},
        rounds=1, iterations=1)

    print("\nFigure 4: Retwis latency (EC2 topology, 200 tps)")
    print(render_latency_table(_recorders(fig4_results)))
    print("\nCDF series:")
    print(render_cdf(_recorders(fig4_results)))
    print("\npaper medians:", {systems.get(s).label: v
                               for s, v in PAPER_MEDIANS_MS.items()})

    # Ordering: Carousel Fast < Carousel Basic < TAPIR at the median.
    assert medians["carousel-fast"] < medians["carousel-basic"] \
        < medians["tapir"]

    # Rough agreement with the paper's absolute medians (the simulator
    # shares the paper's RTT matrix, so these land close).
    for system, paper in PAPER_MEDIANS_MS.items():
        assert abs(medians[system] - paper) / paper < 0.25, \
            (system, medians[system], paper)

    # TAPIR's median is roughly 44% above Carousel Fast's (paper: 1.44x).
    ratio = medians["tapir"] / medians["carousel-fast"]
    assert 1.2 <= ratio <= 1.7, ratio


def test_fig4_gap_widens_at_higher_percentiles(fig4_results, benchmark):
    def gaps():
        tapir = fig4_results["tapir"].stats.latency
        fast = fig4_results["carousel-fast"].stats.latency
        return {p: tapir.p(p) - fast.p(p) for p in (50, 95)}

    gap = benchmark.pedantic(gaps, rounds=1, iterations=1)
    # "The performance gap widens at higher percentiles" (§6.3).
    assert gap[95] > gap[50] > 0


def test_fig4_read_only_optimization_visible(fig4_results, benchmark):
    def timeline_median():
        stats = fig4_results["carousel-basic"].stats
        return (stats.by_type["load_timeline"].median(),
                stats.by_type["post_tweet"].median())

    ro_median, rw_median = benchmark.pedantic(timeline_median, rounds=1,
                                              iterations=1)
    # Read-only transactions complete in one WANRT (§4.4.2): visibly
    # cheaper than read-write transactions.
    assert ro_median < rw_median
