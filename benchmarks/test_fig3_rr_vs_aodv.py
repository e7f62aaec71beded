"""Figure 3 — Routeless Routing vs AODV without failures.

Regenerates the four panels (delay, delivery ratio, MAC packets, average
hops against the number of communicating pairs) and asserts the paper's
qualitative findings.
"""

import pytest

from benchmarks.conftest import run_once
from repro.experiments import registry
from repro.experiments.fig3_rr_vs_aodv import Fig3Config
from repro.stats.series import format_table
from repro.viz.ascii_chart import line_chart

PANELS = (
    ("avg_delay_s", "End-to-End Delay (s)"),
    ("delivery_ratio", "Delivery Ratio"),
    ("mac_packets", "Number of MAC Packets"),
    ("avg_hops", "Average Hops"),
)


def test_fig3_sweep(benchmark, report):
    config = Fig3Config.active()
    results = run_once(benchmark, registry.get("fig3").run, config)

    series = list(results.values())
    panels = []
    for metric, label in PANELS:
        panels.append(f"=== Figure 3: {label} vs Number of Communicating Pairs ===")
        panels.append(format_table(series, metric, x_label="pairs", precision=3))
        panels.append(line_chart(
            {s.label: s.curve(metric) for s in series},
            title=label, x_label="communicating pairs"))
    report("fig3_rr_vs_aodv", "\n\n".join(panels))

    aodv, rr = results["aodv"], results["routeless"]
    xs = aodv.xs
    mean = lambda series, metric: sum(series.metric(x, metric).mean for x in xs) / len(xs)

    # Delivery ratio ≈ 1.0 for both ("roughly the same delivery ratio").
    assert mean(aodv, "delivery_ratio") > 0.95
    assert mean(rr, "delivery_ratio") > 0.95

    # Routeless Routing pays latency per hop for its elections.
    assert mean(rr, "avg_delay_s") > mean(aodv, "avg_delay_s")

    # Routeless Routing keeps finding the shortest paths; AODV is stuck with
    # what discovery established.
    assert mean(rr, "avg_hops") <= mean(aodv, "avg_hops") + 0.1

    # MAC packet counts grow with offered load for both protocols.
    assert aodv.metric(xs[-1], "mac_packets").mean > aodv.metric(xs[0], "mac_packets").mean
    assert rr.metric(xs[-1], "mac_packets").mean > rr.metric(xs[0], "mac_packets").mean
