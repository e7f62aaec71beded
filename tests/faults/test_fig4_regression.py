"""A Figure 4 cell is a Figure 3 cell with ``fig4_plan`` installed.

The exact fig4 metrics are pinned in
``tests/experiments/test_golden_equivalence.py``.
"""

from repro.experiments.fig3_rr_vs_aodv import Fig3Config, run_one
from repro.experiments.fig4_failures import Fig4Config, run_cell
from repro.faults import fig4_plan

SMALL = Fig3Config(n_nodes=40, terrain_m=620.0, duration_s=10.0)


def test_run_cell_drives_the_plan_path():
    config = Fig4Config(base=SMALL, n_pairs=2)
    via_cell = run_cell("routeless", 0.1, 1, config)
    via_plan = run_one("routeless", 2, 1, SMALL,
                       faults=fig4_plan(0.1, mean_cycle_s=4.0))
    assert via_cell.metrics == via_plan.metrics


def test_zero_fraction_matches_no_faults():
    config = Fig4Config(base=SMALL, n_pairs=2)
    baseline = run_one("routeless", 2, 1, SMALL)
    via_cell = run_cell("routeless", 0.0, 1, config)
    assert via_cell.metrics == baseline.metrics
