"""Deterministic, seed-reproducible fault injection.

Declarative :class:`FaultPlan`\\ s (JSON-serializable, content-addressable,
picklable) describe *what* goes wrong; :func:`install_plan` schedules it
against a built network; :func:`check_invariants` verifies after the run
that chaos broke only efficiency, never correctness.  See ``docs/FAULTS.md``
for the taxonomy, the plan schema and the replay guarantees.

::

    from repro import faults

    plan = faults.FaultPlan(name="demo", faults=(
        faults.DutyCycleOutage(off_fraction=0.1),
        faults.NodeCrash(nodes=(7,), start_s=3.0, recover_s=6.0),
    ))
    net = build_protocol_network("ssaf", scenario, obs=obs)
    faults.install_plan(net, plan, exempt=endpoints)
    net.run(until=10.0)
    faults.check_invariants(obs, raise_on_violation=True)
"""

from repro.faults.injector import DutyCycleFailure, FaultController, install_plan
from repro.faults.invariants import (
    InvariantViolation,
    Violation,
    check_invariants,
    ledger_accounting,
    off_windows,
)
from repro.faults.plan import (
    ClockSkew,
    DutyCycleOutage,
    EnergyDepletion,
    FaultPlan,
    FaultSpec,
    LinkDegradation,
    NodeCrash,
    PacketCorruption,
    Partition,
    fig4_plan,
    mixed_chaos_plan,
)

__all__ = [
    "FaultSpec",
    "NodeCrash",
    "DutyCycleOutage",
    "LinkDegradation",
    "Partition",
    "PacketCorruption",
    "ClockSkew",
    "EnergyDepletion",
    "FaultPlan",
    "fig4_plan",
    "mixed_chaos_plan",
    "DutyCycleFailure",
    "FaultController",
    "install_plan",
    "Violation",
    "InvariantViolation",
    "check_invariants",
    "ledger_accounting",
    "off_windows",
]
