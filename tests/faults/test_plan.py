"""FaultPlan / FaultSpec: validation, wire format, builders."""

import dataclasses
import math

import pytest

from repro.faults.plan import (
    SPEC_TYPES,
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

ONE_OF_EACH = FaultPlan(name="everything", faults=(
    NodeCrash(nodes=(3,), start_s=1.0, recover_s=4.0),
    DutyCycleOutage(off_fraction=0.1, mean_cycle_s=2.0),
    LinkDegradation(pairs=((1, 2), (4, 5)), loss_db=20.0,
                    start_s=2.0, stop_s=8.0, symmetric=False),
    Partition(groups=((0, 1), (2, 3)), start_s=3.0, stop_s=6.0),
    PacketCorruption(probability=0.05, start_s=1.0, stop_s=9.0),
    ClockSkew(sigma=0.02, min_factor=0.6),
    EnergyDepletion(nodes=(7,), capacity_j=0.5, poll_s=0.5),
))


class TestRoundTrip:
    def test_plan_json_round_trip_is_equal(self):
        assert FaultPlan.from_json(ONE_OF_EACH.to_json()) == ONE_OF_EACH

    def test_each_spec_dict_round_trip(self):
        for spec in ONE_OF_EACH.faults:
            assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_save_load(self, tmp_path):
        path = tmp_path / "plan.json"
        ONE_OF_EACH.save(path)
        assert FaultPlan.load(path) == ONE_OF_EACH

    def test_nested_tuples_survive_json(self):
        plan = FaultPlan.from_json(ONE_OF_EACH.to_json())
        link = next(f for f in plan.faults if isinstance(f, LinkDegradation))
        assert link.pairs == ((1, 2), (4, 5))
        part = next(f for f in plan.faults if isinstance(f, Partition))
        assert part.groups == ((0, 1), (2, 3))

    def test_merged_concatenates(self):
        merged = fig4_plan(0.1).merged(ONE_OF_EACH)
        assert merged.name == "fig4-0.1+everything"
        assert len(merged.faults) == 1 + len(ONE_OF_EACH.faults)


#: The smallest valid payload of every fault kind.
MINIMAL_SPECS = {
    "node_crash": {"nodes": [1]},
    "duty_cycle": {},
    "link_degradation": {"pairs": [[0, 1]]},
    "partition": {"groups": [[0], [1]]},
    "packet_corruption": {},
    "clock_skew": {},
    "energy_depletion": {},
}

FLOAT_FIELDS = [
    (kind, field.name)
    for kind, cls in sorted(SPEC_TYPES.items())
    for field in dataclasses.fields(cls)
    if "float" in str(field.type)
]


class TestFiniteFields:
    def test_every_kind_covered(self):
        assert set(MINIMAL_SPECS) == set(SPEC_TYPES)
        for kind, payload in MINIMAL_SPECS.items():
            FaultSpec.from_dict({"kind": kind, **payload})

    @pytest.mark.parametrize("kind, name", FLOAT_FIELDS)
    def test_non_finite_value_rejected(self, kind, name):
        for value in (math.nan, math.inf, -math.inf):
            payload = {"kind": kind, **MINIMAL_SPECS[kind], name: value}
            with pytest.raises(ValueError, match=name):
                FaultSpec.from_dict(payload)

    def test_nan_link_degradation_plan_rejected(self):
        """NaN passes ``start_s < 0`` and ``loss_db <= 0`` alike; the plan
        must fail to load instead of leaving NaN offsets in the channel."""
        with pytest.raises(ValueError, match="finite"):
            FaultPlan.from_dict({"faults": [
                {"kind": "link_degradation", "pairs": [[0, 1]],
                 "loss_db": math.nan, "start_s": math.nan}]})

    def test_infinite_loss_with_stop_rejected(self):
        # -inf + inf on the stop edge would leave NaN behind.
        with pytest.raises(ValueError, match="loss_db"):
            LinkDegradation(pairs=((0, 1),), loss_db=math.inf, stop_s=5.0)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec.from_dict({"kind": "cosmic_rays"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            FaultSpec.from_dict({"kind": "node_crash", "nodes": [1],
                                 "severity": 11})

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start_s"):
            PacketCorruption(probability=0.1, start_s=-1.0)

    def test_crash_needs_nodes(self):
        with pytest.raises(ValueError, match="explicit node set"):
            NodeCrash()

    def test_crash_recover_after_start(self):
        with pytest.raises(ValueError, match="recover_s"):
            NodeCrash(nodes=(1,), start_s=5.0, recover_s=5.0)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            NodeCrash(nodes=(1, 1))

    def test_off_fraction_bounds(self):
        with pytest.raises(ValueError, match="off_fraction"):
            DutyCycleOutage(off_fraction=1.0)

    def test_link_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            LinkDegradation(pairs=((2, 2),))

    def test_link_needs_pairs(self):
        with pytest.raises(ValueError, match="at least one"):
            LinkDegradation(pairs=())

    def test_link_loss_positive(self):
        with pytest.raises(ValueError, match="loss_db"):
            LinkDegradation(pairs=((0, 1),), loss_db=0.0)

    def test_partition_needs_two_groups(self):
        with pytest.raises(ValueError, match="two groups"):
            Partition(groups=((0, 1),))

    def test_partition_groups_disjoint(self):
        with pytest.raises(ValueError, match="more than one"):
            Partition(groups=((0, 1), (1, 2)))

    def test_corruption_probability_bounds(self):
        with pytest.raises(ValueError, match="probability"):
            PacketCorruption(probability=0.0)
        with pytest.raises(ValueError, match="probability"):
            PacketCorruption(probability=1.5)

    def test_stop_after_start(self):
        with pytest.raises(ValueError, match="stop_s"):
            PacketCorruption(probability=0.1, start_s=3.0, stop_s=3.0)

    def test_positional_construction_rejected(self):
        with pytest.raises(TypeError):
            PacketCorruption(0.5)
        with pytest.raises(TypeError):
            FaultPlan("name")

    def test_plan_rejects_non_specs(self):
        with pytest.raises(TypeError, match="not a FaultSpec"):
            FaultPlan(faults=({"kind": "node_crash"},))


class TestBuilders:
    def test_fig4_plan_shape(self):
        plan = fig4_plan(0.05, mean_cycle_s=3.0)
        assert plan.name == "fig4-0.05"
        (outage,) = plan.faults
        assert isinstance(outage, DutyCycleOutage)
        assert outage.off_fraction == 0.05
        assert outage.mean_cycle_s == 3.0
        assert outage.exempt_endpoints

    def test_mixed_chaos_avoids_exempt_victims(self):
        plan = mixed_chaos_plan(10, exempt=(5,))
        crash = next(f for f in plan.faults if isinstance(f, NodeCrash))
        assert 5 not in crash.nodes

    def test_mixed_chaos_all_exempt_raises(self):
        with pytest.raises(ValueError, match="no non-exempt"):
            mixed_chaos_plan(2, exempt=(0, 1))
