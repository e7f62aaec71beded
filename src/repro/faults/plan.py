"""Declarative, seed-reproducible fault plans.

The paper's Figure 4 stresses the protocols with exactly one failure shape:
duty-cycled transceiver outages (:class:`~repro.faults.injector
.DutyCycleFailure`).  The related leader-election literature (Czumaj &
Davies; Ghaffari et al.) analyses a much richer adversary — crashed
participants, missed wake slots, asymmetric links, partitions — and the
ROADMAP's north star asks for "as many scenarios as you can imagine".

A :class:`FaultPlan` is the declarative answer: an ordered tuple of
:class:`FaultSpec` values, each describing one fault process with explicit
timing.  Plans are plain frozen dataclasses, so they

* serialize to/from JSON (``to_json``/``from_json``) for the campaign
  ``--faults PLAN.json`` axis,
* pickle across campaign worker processes,
* canonicalize through :func:`repro.campaign.fingerprint.canonicalize`, so
  a cell's content address changes with its fault plan exactly like it
  changes with any other config field, and
* replay **bit-identically**: every stochastic fault draws from named
  :mod:`repro.sim.rng` streams, so the same (plan, seed) pair produces the
  same fault event sequence every time.

Execution lives in :mod:`repro.faults.injector`; end-of-run property checks
in :mod:`repro.faults.invariants`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from typing import Any, ClassVar, Iterable, Optional

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
    "fault_spec",
    "fig4_plan",
    "mixed_chaos_plan",
]

#: kind string -> spec class; filled by the :func:`fault_spec` decorator.
SPEC_TYPES: dict[str, type["FaultSpec"]] = {}


def fault_spec(kind: str):
    """Class decorator registering a :class:`FaultSpec` subclass under its
    wire-format ``kind`` string (the discriminator used by JSON plans)."""

    def register(cls: type["FaultSpec"]) -> type["FaultSpec"]:
        if kind in SPEC_TYPES:
            raise ValueError(f"fault kind {kind!r} already registered "
                             f"({SPEC_TYPES[kind].__name__})")
        cls.kind = kind
        SPEC_TYPES[kind] = cls
        return cls

    return register


@dataclass(frozen=True, kw_only=True)
class FaultSpec:
    """Base class for one declarative fault process.

    ``nodes`` selects the affected node ids; ``None`` means *every*
    non-exempt node (the injector receives the experiment's exemption set —
    the CBR endpoints, mirroring Figure 4's "all nodes but those that
    generate and receive CBR traffic").
    """

    kind: ClassVar[str] = "abstract"

    nodes: Optional[tuple[int, ...]] = None
    start_s: float = 0.0

    def __post_init__(self) -> None:
        # NaN slips past every ordered comparison below and an infinite
        # offset cancels to NaN, so float fields must be finite.
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{self.kind}: {field.name} must be "
                                 f"finite, got {value}")
        if self.start_s < 0:
            raise ValueError("start_s must be non-negative")
        if self.nodes is not None:
            object.__setattr__(self, "nodes", tuple(int(n) for n in self.nodes))
            if len(set(self.nodes)) != len(self.nodes):
                raise ValueError(f"duplicate node ids in {self.nodes}")

    # ------------------------------------------------------------------ wire

    def to_dict(self) -> dict:
        payload: dict[str, Any] = {"kind": self.kind}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, tuple):
                value = [list(v) if isinstance(v, tuple) else v for v in value]
            payload[field.name] = value
        return payload

    @staticmethod
    def from_dict(payload: dict) -> "FaultSpec":
        payload = dict(payload)
        kind = payload.pop("kind", None)
        cls = SPEC_TYPES.get(kind)
        if cls is None:
            known = " ".join(sorted(SPEC_TYPES))
            raise ValueError(f"unknown fault kind {kind!r} "
                             f"(known kinds: {known})")
        known_fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known_fields
        if unknown:
            raise ValueError(f"unknown field(s) {sorted(unknown)} for fault "
                             f"kind {kind!r}")
        for name, value in payload.items():
            if isinstance(value, list):
                payload[name] = tuple(
                    tuple(v) if isinstance(v, list) else v for v in value
                )
        return cls(**payload)


@fault_spec("node_crash")
@dataclass(frozen=True, kw_only=True)
class NodeCrash(FaultSpec):
    """Hard transceiver shutdown at ``start_s``; optional later recovery.

    The crashed node is deaf and mute for the whole outage — receptions in
    flight are lost, queued frames are purged (``DropReason.RADIO_OFF``).
    """

    recover_s: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.nodes is None:
            raise ValueError("node_crash needs an explicit node set "
                             "(crashing every node ends the simulation)")
        if self.recover_s is not None and self.recover_s <= self.start_s:
            raise ValueError("recover_s must be after start_s")


@fault_spec("duty_cycle")
@dataclass(frozen=True, kw_only=True)
class DutyCycleOutage(FaultSpec):
    """Figure 4's failure shape: an alternating ON/OFF renewal process per
    node with exponential period lengths, long-run OFF fraction
    ``off_fraction`` (see :class:`repro.faults.injector.DutyCycleFailure`).
    """

    off_fraction: float = 0.1
    mean_cycle_s: float = 4.0
    sleep: bool = False
    #: Honour the experiment's exemption set (the CBR endpoints).  Turn off
    #: to duty-cycle even traffic endpoints.
    exempt_endpoints: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.off_fraction < 1.0:
            raise ValueError("off_fraction must be in [0, 1)")
        if self.mean_cycle_s <= 0:
            raise ValueError("mean_cycle_s must be positive")


@fault_spec("link_degradation")
@dataclass(frozen=True, kw_only=True)
class LinkDegradation(FaultSpec):
    """Extra pathloss on selected links between ``start_s`` and ``stop_s``.

    ``loss_db`` is subtracted from the link budget of every ``(src, dst)``
    pair; ``symmetric=False`` degrades only the given direction, producing
    the *unidirectional links* whose effect on Routeless Routing the paper
    discusses.  A large ``loss_db`` (≥ the link margin) severs the link.
    """

    pairs: tuple[tuple[int, int], ...] = ()
    loss_db: float = 10.0
    stop_s: Optional[float] = None
    symmetric: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.pairs:
            raise ValueError("link_degradation needs at least one (src, dst) pair")
        object.__setattr__(
            self, "pairs",
            tuple((int(a), int(b)) for a, b in self.pairs))
        for a, b in self.pairs:
            if a == b:
                raise ValueError(f"link ({a}, {b}) is a self-loop")
        if self.loss_db <= 0:
            raise ValueError("loss_db must be positive")
        if self.stop_s is not None and self.stop_s <= self.start_s:
            raise ValueError("stop_s must be after start_s")


@fault_spec("partition")
@dataclass(frozen=True, kw_only=True)
class Partition(FaultSpec):
    """Block every link between the groups for the fault's lifetime.

    Nodes not named in any group keep their links to everyone (they sit on
    the "border"); name every node to make the cut total.
    """

    groups: tuple[tuple[int, ...], ...] = ()
    stop_s: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.groups) < 2:
            raise ValueError("partition needs at least two groups")
        object.__setattr__(
            self, "groups",
            tuple(tuple(int(n) for n in group) for group in self.groups))
        seen: set[int] = set()
        for group in self.groups:
            overlap = seen.intersection(group)
            if overlap:
                raise ValueError(f"node(s) {sorted(overlap)} appear in more "
                                 "than one partition group")
            seen.update(group)
        if self.stop_s is not None and self.stop_s <= self.start_s:
            raise ValueError("stop_s must be after start_s")


@fault_spec("packet_corruption")
@dataclass(frozen=True, kw_only=True)
class PacketCorruption(FaultSpec):
    """Corrupt each otherwise-intact reception with probability
    ``probability`` at the affected radios (random bit errors at the PHY).
    Dropped copies carry ``DropReason.FAULT_CORRUPTED``."""

    probability: float = 0.1
    stop_s: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        if self.stop_s is not None and self.stop_s <= self.start_s:
            raise ValueError("stop_s must be after start_s")


@fault_spec("clock_skew")
@dataclass(frozen=True, kw_only=True)
class ClockSkew(FaultSpec):
    """Gaussian per-node oscillator skew applied to node-local timers.

    Each affected node draws a rate factor ``max(min_factor, N(1, sigma))``
    from its own named RNG stream and runs its MAC contention backoffs and
    application traffic cadence at that rate — a node with factor 1.02 has a
    2 % slow clock.  Skew models the cheap-crystal drift that breaks wake
    slot alignment in real duty-cycled deployments.
    """

    sigma: float = 0.01
    min_factor: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.min_factor <= 0:
            raise ValueError("min_factor must be positive")


@fault_spec("energy_depletion")
@dataclass(frozen=True, kw_only=True)
class EnergyDepletion(FaultSpec):
    """Shut a node's transceiver down for good once its energy meter has
    integrated ``capacity_j`` joules.  Needs the scenario built with
    ``with_energy=True`` (each radio owns an
    :class:`~repro.phy.energy.EnergyMeter`)."""

    capacity_j: float = 1.0
    poll_s: float = 0.25

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.capacity_j <= 0:
            raise ValueError("capacity_j must be positive")
        if self.poll_s <= 0:
            raise ValueError("poll_s must be positive")


@dataclass(frozen=True, kw_only=True)
class FaultPlan:
    """An ordered, named collection of fault specs — one chaos scenario."""

    name: str = "plan"
    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for spec in self.faults:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"not a FaultSpec: {spec!r}")

    def merged(self, other: "FaultPlan") -> "FaultPlan":
        """Both plans' faults under a combined name."""
        return FaultPlan(name=f"{self.name}+{other.name}",
                         faults=self.faults + other.faults)

    # ------------------------------------------------------------------ wire

    def to_dict(self) -> dict:
        return {"name": self.name,
                "faults": [spec.to_dict() for spec in self.faults]}

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        return cls(
            name=str(payload.get("name", "plan")),
            faults=tuple(FaultSpec.from_dict(spec)
                         for spec in payload.get("faults", ())),
        )

    def to_json(self, indent: int | None = 1) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, blob: str) -> "FaultPlan":
        return cls.from_dict(json.loads(blob))

    def save(self, path: str | os.PathLike) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "FaultPlan":
        with open(path) as handle:
            return cls.from_json(handle.read())


# --------------------------------------------------------------- built-ins

def fig4_plan(off_fraction: float, mean_cycle_s: float = 4.0,
              sleep: bool = False) -> FaultPlan:
    """The paper's Figure 4 workload as a plan: duty-cycled outages on every
    node except the CBR endpoints."""
    return FaultPlan(name=f"fig4-{off_fraction:g}", faults=(
        DutyCycleOutage(off_fraction=off_fraction, mean_cycle_s=mean_cycle_s,
                        sleep=sleep),
    ))


def mixed_chaos_plan(n_nodes: int,
                     exempt: Iterable[int] = ()) -> FaultPlan:
    """A deliberately nasty mixed plan for chaos smoke runs: duty-cycled
    outages, one mid-run crash with recovery, degraded links around the
    crash victim, and light packet corruption everywhere."""
    exempt_set = set(int(n) for n in exempt)
    victims = [n for n in range(n_nodes) if n not in exempt_set]
    if not victims:
        raise ValueError("no non-exempt nodes to inject faults into")
    crash = victims[len(victims) // 2]
    neighbor = victims[len(victims) // 3]
    pairs: tuple[tuple[int, int], ...] = ((crash, neighbor),) \
        if crash != neighbor else ((crash, victims[0]),) \
        if crash != victims[0] else ()
    faults: tuple[FaultSpec, ...] = (
        DutyCycleOutage(off_fraction=0.05, mean_cycle_s=2.0),
        NodeCrash(nodes=(crash,), start_s=3.0, recover_s=7.0),
        PacketCorruption(probability=0.02, start_s=1.0),
        ClockSkew(sigma=0.01),
    )
    if pairs:
        faults = faults + (LinkDegradation(pairs=pairs, loss_db=30.0,
                                           start_s=2.0, stop_s=9.0),)
    return FaultPlan(name="mixed-chaos", faults=faults)
