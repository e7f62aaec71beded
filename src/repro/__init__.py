"""repro — a reproduction of Chen, Branch & Szymanski (WMAN'05):
"Local Leader Election, Signal Strength Aware Flooding, and Routeless Routing".

The package provides, from the ground up:

* a deterministic discrete-event wireless network simulator
  (:mod:`repro.sim`, :mod:`repro.phy`, :mod:`repro.mac`) standing in for the
  authors' SENSE simulator;
* the paper's contribution — the local leader election primitive with
  metric-derived backoff policies (:mod:`repro.core`);
* the protocols built on it — SSAF and Routeless Routing — plus the
  baselines they are evaluated against: counter-1 flooding, blind flooding,
  AODV and Gradient Routing (:mod:`repro.net`);
* workload, topology, failure and metrics infrastructure
  (:mod:`repro.app`, :mod:`repro.topology`, :mod:`repro.stats`);
* the paper's four evaluation figures as runnable experiments
  (:mod:`repro.experiments`) and terminal visualization (:mod:`repro.viz`).

The public surface is :mod:`repro.api`; this package module only carries
``__version__`` and imports nothing, so ``import repro.sim.engine`` (or the
daemon's ``repro.serve``) loads just what it uses.

Quickstart::

    from repro.api import SSAF, ScenarioConfig, attach_cbr, build_network
    net = build_network(
        lambda ctx, nid, mac, m: SSAF(ctx, nid, mac, metrics=m),
        ScenarioConfig(n_nodes=50, seed=7),
    )
    attach_cbr(net, [(0, 42)], interval_s=2.0)
    net.run(until=60.0)
    print(net.summary())
"""

__version__ = "1.0.0"
