"""Extension bench — routing under random-waypoint mobility.

Beyond the paper's evaluation (its dynamics are transceiver failures); this
extends the Figure 4 argument to the classic MANET stressor and adds the DSR
and DSDV baselines the paper cites.
"""

import pytest

from benchmarks.conftest import run_once
from repro.experiments import registry
from repro.experiments.ext_mobility import MobilityExpConfig
from repro.stats.series import format_table
from repro.viz.ascii_chart import line_chart


def test_mobility_sweep(benchmark, report):
    config = MobilityExpConfig.active()
    results = run_once(benchmark, registry.get("mobility").run, config)

    series = list(results.values())
    panels = []
    for metric, label in (
        ("delivery_ratio", "Delivery Ratio"),
        ("avg_delay_s", "End-to-End Delay (s)"),
        ("mac_packets", "Number of MAC Packets"),
    ):
        panels.append(f"=== Extension: {label} vs Max Node Speed (m/s) ===")
        panels.append(format_table(series, metric, x_label="speed"))
        panels.append(line_chart({s.label: s.curve(metric) for s in series},
                                 title=label, x_label="max node speed (m/s)"))
    report("ext_mobility", "\n\n".join(panels))

    rr, aodv = results["routeless"], results["aodv"]
    top_speed = max(rr.xs)

    # Routeless Routing stays serviceable at speed...
    assert rr.metric(top_speed, "delivery_ratio").mean > 0.85
    # ...and does not pay a growing control bill: AODV's MAC packets grow
    # faster with speed than Routeless Routing's.
    aodv_growth = aodv.metric(top_speed, "mac_packets").mean / \
        max(aodv.metric(0.0, "mac_packets").mean, 1.0)
    rr_growth = rr.metric(top_speed, "mac_packets").mean / \
        max(rr.metric(0.0, "mac_packets").mean, 1.0)
    assert aodv_growth > rr_growth
