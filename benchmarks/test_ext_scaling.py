"""Extension bench — cost scaling with network size at constant density.

The paper's scalability motivation, quantified: flooding's per-packet cost
grows with the node count; election routing's grows with the route length.
"""

import pytest

from benchmarks.conftest import run_once
from repro.experiments import registry
from repro.experiments.ext_scaling import ScalingConfig
from repro.stats.series import format_table
from repro.viz.ascii_chart import line_chart


def test_scaling_sweep(benchmark, report):
    config = ScalingConfig.active()
    results = run_once(benchmark, registry.get("scaling").run, config)

    series = list(results.values())
    panels = []
    for metric, label in (
        ("mac_packets", "Number of MAC Packets"),
        ("delivery_ratio", "Delivery Ratio"),
        ("avg_delay_s", "End-to-End Delay (s)"),
    ):
        panels.append(f"=== Extension: {label} vs Network Size ===")
        panels.append(format_table(series, metric, x_label="nodes"))
        panels.append(line_chart({s.label: s.curve(metric) for s in series},
                                 title=label, x_label="network size (nodes)"))
    report("ext_scaling", "\n\n".join(panels))

    flood, rr = results["counter1"], results["routeless"]
    small, large = min(flood.xs), max(flood.xs)

    # Flooding's transmissions scale ~linearly with N; routing's with the
    # route length (~√N at constant density): flooding's growth factor must
    # be clearly larger.
    flood_growth = flood.metric(large, "mac_packets").mean / \
        max(flood.metric(small, "mac_packets").mean, 1.0)
    rr_growth = rr.metric(large, "mac_packets").mean / \
        max(rr.metric(small, "mac_packets").mean, 1.0)
    assert flood_growth > rr_growth * 1.3

    # Everyone still delivers at every size.
    for s in series:
        for x in s.xs:
            assert s.metric(x, "delivery_ratio").mean > 0.85
