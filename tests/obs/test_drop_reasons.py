"""Drop-reason accounting across the stack (the satellite acceptance test):
queue-overflow, duplicate-suppression and TTL-expiry paths each leave the
right ledger entry AND the matching metric increment, and per-reason counts
always sum to the run's total drops."""

import json

import pytest

from repro.core.backoff import RandomBackoff
from repro.mac.csma import MacConfig
from repro.mac.queue import DropReason as QueueDropReason
from repro.mac.queue import TxJob, TxQueue
from repro.net.flooding import FloodingConfig
from repro.net.packet import Packet, PacketKind
from repro.obs.ledger import DropReason, PacketStage
from repro.obs.observe import Observability
from repro.sim.components import SimContext
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from tests.conftest import line_network, line_positions, make_mac_stack


def drops_metric(obs: Observability) -> dict[tuple[str, str], float]:
    """``repro_drops_total`` samples as ``{(reason, layer): count}``."""
    samples = obs.registry.get("repro_drops_total").describe()["samples"]
    return {tuple(json.loads(key)): value for key, value in samples.items()}


def assert_reasons_sum_to_total(obs: Observability) -> None:
    counts = obs.ledger.drop_counts()
    assert sum(counts.values()) == obs.ledger.total_drops()
    assert sum(drops_metric(obs).values()) == obs.ledger.total_drops()


class TestQueueOverflow:
    def test_queue_tracks_per_reason_counts(self):
        q = TxQueue(capacity=1)
        assert q.push(TxJob(packet="a", dst=None, size_bytes=64, priority=0))
        assert not q.push(TxJob(packet="b", dst=None, size_bytes=64, priority=0))
        assert q.dropped == 1
        assert q.dropped_overflow == 1
        assert q.dropped_other == 0
        assert q.drops_by_reason == {QueueDropReason.QUEUE_OVERFLOW: 1}

    def test_purge_counts_under_given_reason(self):
        q = TxQueue()
        q.push(TxJob(packet="a", dst=None, size_bytes=64, priority=0))
        purged = q.purge(QueueDropReason.RADIO_OFF)
        assert [j.packet for j in purged] == ["a"]
        assert q.dropped == 1
        assert q.dropped_overflow == 0
        assert q.dropped_other == 1

    def test_mac_overflow_hits_ledger_and_metric(self):
        obs = Observability()
        ctx = SimContext(Simulator(), RandomStreams(1), obs=obs)
        _channel, _radios, macs = make_mac_stack(
            ctx, line_positions(2), mac_config=MacConfig(queue_capacity=1))
        mac = macs[0]
        refused = 0
        for seq in range(4):
            packet = Packet(kind=PacketKind.DATA, origin=0, seq=seq)
            if not mac.send(packet):
                refused += 1
        assert refused > 0
        assert mac.queue.dropped_overflow == refused
        counts = obs.ledger.drop_counts()
        assert counts[DropReason.QUEUE_OVERFLOW] == refused
        assert drops_metric(obs)[("queue_overflow", "mac")] == refused
        # Accepted packets left enqueue entries with a queue-depth detail.
        enqueues = list(obs.ledger.of_stage(PacketStage.ENQUEUE))
        assert enqueues and all("depth" in e.detail for e in enqueues)
        assert_reasons_sum_to_total(obs)


class TestDuplicateSuppression:
    def test_blind_flooding_drops_duplicates(self):
        # On a clique every rebroadcast re-delivers an already-seen packet;
        # blind flooding (no suppression) discards each copy as DUPLICATE.
        obs = Observability()
        net = line_network("blind", n=6, spacing=20.0, obs=obs)
        net.protocols[0].send_data(5)
        net.run(until=5.0)
        counts = obs.ledger.drop_counts()
        assert counts[DropReason.DUPLICATE] > 0
        assert drops_metric(obs)[("duplicate", "net")] == \
            counts[DropReason.DUPLICATE]
        assert_reasons_sum_to_total(obs)

    def test_counter1_suppression_leaves_suppress_entries(self):
        # Counter-based suppression cancels pending rebroadcasts instead of
        # just dropping copies: SUPPRESS stage entries, matching the
        # protocols' own suppression counters.
        obs = Observability()
        net = line_network("counter1", n=8, spacing=20.0, obs=obs)
        net.protocols[0].send_data(7)
        net.run(until=5.0)
        suppressed = sum(p.suppressed for p in net.protocols)
        entries = list(obs.ledger.of_stage(PacketStage.SUPPRESS))
        assert suppressed > 0
        assert len(entries) == suppressed
        assert_reasons_sum_to_total(obs)


class TestTtlExpiry:
    def test_hop_budget_exhaustion_recorded(self):
        obs = Observability()
        config = FloodingConfig(policy=RandomBackoff(max_delay=0.02),
                                suppress_on_duplicate=True, max_hops=2)
        net = line_network("counter1", n=6, protocol_config=config, obs=obs)
        net.protocols[0].send_data(5)
        net.run(until=5.0)
        assert net.metrics.delivered == 0  # needs 5 hops, only 2 allowed
        counts = obs.ledger.drop_counts()
        assert counts[DropReason.TTL_EXPIRED] > 0
        assert drops_metric(obs)[("ttl_expired", "net")] == \
            counts[DropReason.TTL_EXPIRED]
        expired = [e for e in obs.ledger.entries
                   if e.reason is DropReason.TTL_EXPIRED]
        assert all(e.detail["hops"] >= 2 for e in expired)
        assert_reasons_sum_to_total(obs)


class TestDisabledObservability:
    def test_no_obs_means_no_collection_and_no_crash(self):
        net = line_network("counter1", n=5)
        net.protocols[0].send_data(4)
        net.run(until=5.0)
        assert net.metrics.delivered == 1
        assert net.ctx.obs is None and not net.ctx.observing

    @pytest.mark.parametrize("protocol", ["ssaf", "routeless", "aodv",
                                          "gradient", "dsr", "dsdv"])
    def test_every_protocol_runs_observed(self, protocol):
        """Instrumentation smoke: each protocol's hooks fire without error
        and the invariant holds."""
        obs = Observability()
        net = line_network(protocol, n=4, obs=obs)
        net.protocols[0].send_data(3)
        net.run(until=8.0)
        assert len(obs.ledger) > 0
        assert_reasons_sum_to_total(obs)
