"""Figure 1 — SSAF vs counter-1 flooding.

Regenerates the three panels (end-to-end delay, average hops, delivery
ratio against the packet generation interval) and asserts the paper's
qualitative findings:

* SSAF averages fewer hops at every interval;
* SSAF's delay is lower, with the gap largest at the smallest interval;
* SSAF's delivery ratio is at least as good on average.
"""

import pytest

from benchmarks.conftest import run_once
from repro.experiments import registry
from repro.experiments.fig1_ssaf import Fig1Config
from repro.stats.series import format_table
from repro.viz.ascii_chart import line_chart

PANELS = (
    ("avg_delay_s", "End-to-End Delay (s)"),
    ("avg_hops", "Average Hops"),
    ("delivery_ratio", "Delivery Ratio"),
)


@pytest.fixture(scope="module")
def fig1_results():
    return {}


def test_fig1_sweep(benchmark, report, fig1_results):
    config = Fig1Config.active()
    results = run_once(benchmark, registry.get("fig1").run, config)
    fig1_results.update(results)

    series = list(results.values())
    panels = []
    for metric, label in PANELS:
        panels.append(f"=== Figure 1: {label} vs Packet Generation Interval ===")
        panels.append(format_table(series, metric, x_label="interval_s"))
        panels.append(line_chart(
            {s.label: s.curve(metric) for s in series},
            title=label, x_label="packet generation interval (s)"))
    report("fig1_ssaf_vs_counter1", "\n\n".join(panels))

    counter1, ssaf = results["counter1"], results["ssaf"]
    xs = counter1.xs

    # Hops: SSAF's relays are farther out, so routes are shorter on average.
    mean = lambda series, metric: sum(series.metric(x, metric).mean for x in xs) / len(xs)
    assert mean(ssaf, "avg_hops") < mean(counter1, "avg_hops")

    # Delay: lower overall, and the advantage is largest under load
    # (smallest interval) thanks to the priority queue.
    assert mean(ssaf, "avg_delay_s") < mean(counter1, "avg_delay_s")
    smallest = xs[0]
    ratio_loaded = (counter1.metric(smallest, "avg_delay_s").mean /
                    max(ssaf.metric(smallest, "avg_delay_s").mean, 1e-9))
    assert ratio_loaded > 1.2, f"expected a clear delay win under load, got {ratio_loaded:.2f}x"

    # Delivery: at least as good on average.
    assert mean(ssaf, "delivery_ratio") >= mean(counter1, "delivery_ratio") - 0.02
