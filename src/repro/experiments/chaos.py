"""Chaos smoke gate — small cells under a mixed fault plan, with teeth.

Not a paper figure: this is the CI experiment that keeps the fault-injection
subsystem honest.  It runs one small fig1 cell per flooding protocol and one
small fig3 cell per on-demand routing protocol (AODV, DSR, Gradient and
Routeless Routing) under :func:`~repro.faults.plan.mixed_chaos_plan` —
duty-cycled outages, a mid-run crash with recovery, degraded links and
packet corruption all at once — and then asserts two things:

* **invariants** — the end-of-run ledger properties in
  :mod:`repro.faults.invariants` hold (no traffic through an OFF radio,
  ledger conservation, ≤1 uncancelled election winner per hop);
* **replay** — running the identical cell a second time from the same seed
  produces a bit-identical :class:`~repro.experiments.result.ExperimentResult`
  and the identical fault-event sequence, the FaultPlan determinism
  guarantee.

Exit status is non-zero on any violation, so CI can gate on
``python -m repro.experiments chaos``.
"""

from __future__ import annotations

import sys

from repro.experiments.registry import register_script

__all__ = ["main", "run_chaos"]


def _fault_ledger(obs) -> list[tuple]:
    """The run's fault events as comparable tuples."""
    return [(e.time, e.node, e.detail.get("kind"), e.detail.get("action"))
            for e in obs.ledger.entries if e.layer == "fault"]


def _chaos_cells():
    """(label, callable(obs) -> ExperimentResult, single_forwarder) cells."""
    from repro.experiments.fig1_ssaf import Fig1Config
    from repro.experiments.fig1_ssaf import run_one as fig1_run_one
    from repro.experiments.fig3_rr_vs_aodv import Fig3Config
    from repro.experiments.fig3_rr_vs_aodv import run_one as fig3_run_one
    from repro.faults import mixed_chaos_plan

    fig1_cfg = Fig1Config(n_nodes=30, terrain_m=550.0, n_connections=3,
                          duration_s=8.0)
    fig3_cfg = Fig3Config(n_nodes=40, terrain_m=620.0, duration_s=10.0)
    fig1_plan = mixed_chaos_plan(fig1_cfg.n_nodes)
    fig3_plan = mixed_chaos_plan(fig3_cfg.n_nodes)

    cells = []
    for protocol in ("counter1", "ssaf"):
        cells.append((
            f"fig1/{protocol}",
            lambda obs, p=protocol: fig1_run_one(
                p, 0.5, 1, fig1_cfg, obs=obs, faults=fig1_plan),
            # Many nodes relay each packet, but each relays it at most once;
            # the check is per (uid, node).
            True,
        ))
    for protocol in ("aodv", "dsr", "gradient", "routeless"):
        cells.append((
            f"fig3/{protocol}",
            lambda obs, p=protocol: fig3_run_one(
                p, 2, 1, fig3_cfg, obs=obs, faults=fig3_plan),
            # Routeless retransmits on election timeouts; the others forward
            # each packet at most once per node.
            protocol != "routeless",
        ))
    return cells


def run_chaos(verbose: bool = True) -> dict:
    """Run every chaos cell; returns a report dict (see keys below)."""
    from repro.faults.invariants import check_invariants
    from repro.obs.observe import Observability

    report = {"cells": [], "violations": 0, "replay_mismatches": 0}
    for label, run, single_forwarder in _chaos_cells():
        obs = Observability()
        result = run(obs)
        violations = check_invariants(obs, single_forwarder=single_forwarder)

        obs2 = Observability()
        result2 = run(obs2)
        fault_events = _fault_ledger(obs)
        replay_ok = (result == result2
                     and fault_events == _fault_ledger(obs2))

        cell = {
            "cell": label,
            "metrics": dict(result.metrics),
            "fault_events": len(fault_events),
            "violations": [f"{v.invariant}: {v.message}" for v in violations],
            "replay_ok": replay_ok,
        }
        report["cells"].append(cell)
        report["violations"] += len(violations)
        report["replay_mismatches"] += 0 if replay_ok else 1
        if verbose:
            status = "ok" if not violations and replay_ok else "FAIL"
            print(f"[chaos] {label:<16} {status}  "
                  f"delivery={result.metrics['delivery_ratio']:.2f}  "
                  f"fault_events={len(fault_events)}  "
                  f"violations={len(violations)}  "
                  f"replay={'bit-identical' if replay_ok else 'MISMATCH'}")
            for line in cell["violations"]:
                print(f"[chaos]   violation: {line}", file=sys.stderr)
    report["ok"] = (report["violations"] == 0
                    and report["replay_mismatches"] == 0)
    return report


@register_script(name="chaos",
                 description="Chaos smoke gate: mixed fault plan on small "
                             "fig1+fig3 cells, invariant + replay checks")
def main(argv: list[str] | None = None) -> int:
    report = run_chaos()
    if report["ok"]:
        print(f"[chaos] all {len(report['cells'])} cells passed "
              "(invariants hold, replays bit-identical)")
        return 0
    print(f"[chaos] FAILED: {report['violations']} invariant violations, "
          f"{report['replay_mismatches']} replay mismatches", file=sys.stderr)
    return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
