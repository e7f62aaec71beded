"""Figure 4 — Routeless Routing vs AODV under transceiver failures.

Regenerates the four panels against the node failure percentage and asserts
the paper's central resilience result: AODV's delay and MAC packet count
climb with the failure rate while Routeless Routing's stay flat, at
comparable delivery.
"""

import pytest

from benchmarks.conftest import run_once
from repro.experiments import registry
from repro.experiments.fig4_failures import Fig4Config
from repro.stats.series import format_table
from repro.viz.ascii_chart import line_chart

PANELS = (
    ("avg_delay_s", "End-to-End Delay (s)"),
    ("delivery_ratio", "Delivery Ratio"),
    ("mac_packets", "Number of MAC Packets"),
    ("avg_hops", "Average Hops"),
)


def test_fig4_sweep(benchmark, report):
    config = Fig4Config.active()
    results = run_once(benchmark, registry.get("fig4").run, config)

    series = list(results.values())
    panels = []
    for metric, label in PANELS:
        panels.append(f"=== Figure 4: {label} vs Node Failure Percentage ===")
        panels.append(format_table(series, metric, x_label="failure", precision=3))
        panels.append(line_chart(
            {s.label: s.curve(metric) for s in series},
            title=label, x_label="node failure fraction"))
    report("fig4_failures", "\n\n".join(panels))

    aodv, rr = results["aodv"], results["routeless"]
    lo, hi = min(aodv.xs), max(aodv.xs)

    # AODV: repair machinery cost grows with the failure rate.
    assert aodv.metric(hi, "mac_packets").mean > \
        1.4 * aodv.metric(lo, "mac_packets").mean
    assert aodv.metric(hi, "avg_delay_s").mean > \
        aodv.metric(lo, "avg_delay_s").mean

    # Routeless Routing: "completely resilient to node failures".
    assert rr.metric(hi, "mac_packets").mean < \
        1.3 * rr.metric(lo, "mac_packets").mean
    assert rr.metric(hi, "avg_delay_s").mean < \
        2.0 * max(rr.metric(lo, "avg_delay_s").mean, 1e-3)
    assert rr.metric(hi, "delivery_ratio").mean > 0.95

    # Under failures AODV burns more MAC packets than Routeless Routing.
    assert aodv.metric(hi, "mac_packets").mean > rr.metric(hi, "mac_packets").mean
