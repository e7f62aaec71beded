"""The one route-discovery rule, as AODV, DSR, Gradient and Routeless
Routing apply it through :class:`repro.net.base.RouteDiscovery`."""

import pytest

from repro.net.aodv import AodvConfig, Route
from repro.net.dsr import DsrConfig
from repro.net.gradient import GradientConfig
from repro.net.routeless import RoutelessConfig
from repro.obs.ledger import DropReason
from repro.obs.observe import Observability
from tests.conftest import line_network

TIMEOUT_S = 0.2
MAX_RETRIES = 2
PROTOCOLS = ("aodv", "dsr", "gradient", "routeless")


def config(protocol: str, **overrides):
    if protocol in ("aodv", "dsr"):
        cls = AodvConfig if protocol == "aodv" else DsrConfig
        return cls(rreq_timeout_s=TIMEOUT_S, max_rreq_retries=MAX_RETRIES,
                   **overrides)
    cls = GradientConfig if protocol == "gradient" else RoutelessConfig
    return cls(discovery_timeout_s=TIMEOUT_S,
               max_discovery_retries=MAX_RETRIES, **overrides)


def requests_sent(net, protocol: str) -> int:
    kind = "rreq" if protocol in ("aodv", "dsr") else "path_discovery"
    return net.channel.tx_count_by_kind[kind]


def net_drops(obs, reason: DropReason):
    return [e for e in obs.ledger.entries
            if e.layer == "net" and e.reason is reason]


def isolated(protocol: str, **overrides):
    """Three nodes far out of each other's range: node 0 is alone."""
    obs = Observability()
    net = line_network(protocol, n=3, spacing=2000.0, obs=obs,
                       protocol_config=config(protocol, **overrides))
    return net, obs


def learn_route(protocol: str, source, now: float) -> None:
    """Give ``source`` a route to node 2 that only the request timeout
    finds.  (AODV's ``_learn`` would release the buffer at once; see
    ``test_aodv.py``.)"""
    if protocol == "aodv":
        source.routes[2] = Route(next_hop=1, hops=2,
                                 expires_at=now + source.config.route_lifetime_s)
    elif protocol == "dsr":
        source.route_cache[2] = (0, 1, 2)
    else:
        source.table.update(2, 2, now)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_unreachable_target_gets_max_plus_one_requests(protocol):
    net, obs = isolated(protocol)
    source = net.protocols[0]
    sent = [source.send_data(2), source.send_data(2)]
    net.run(until=5.0)

    assert requests_sent(net, protocol) == MAX_RETRIES + 1
    drops = net_drops(obs, DropReason.NO_ROUTE)
    assert [e.uid for e in drops] == [p.uid for p in sent]
    assert all(e.node == 0 and e.detail == {"target": 2} for e in drops)
    assert source.data_dropped == 2
    assert 2 not in source.discovery


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_second_round_gets_the_same_retries(protocol):
    net, obs = isolated(protocol)
    source = net.protocols[0]
    source.send_data(2)
    net.run(until=5.0)
    again = source.send_data(2)
    net.run(until=10.0)

    assert requests_sent(net, protocol) == 2 * (MAX_RETRIES + 1)
    assert net_drops(obs, DropReason.NO_ROUTE)[-1].uid == again.uid
    assert source.data_dropped == 2


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_packet_past_the_buffer_cap_overflows(protocol):
    net, obs = isolated(protocol, max_pending_data=1)
    source = net.protocols[0]
    kept, extra = source.send_data(2), source.send_data(2)

    overflow = net_drops(obs, DropReason.QUEUE_OVERFLOW)
    assert [e.uid for e in overflow] == [extra.uid]
    assert overflow[0].detail == {"where": "pending_discovery"}
    assert source.data_dropped == 1

    net.run(until=5.0)
    assert [e.uid for e in net_drops(obs, DropReason.NO_ROUTE)] == [kept.uid]
    assert source.data_dropped == 2


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_route_known_at_timeout_releases_the_buffer(protocol):
    net, obs = isolated(protocol)
    source = net.protocols[0]
    source.send_data(2)
    net.run(until=TIMEOUT_S / 2)
    learn_route(protocol, source, source.now)
    net.run(until=TIMEOUT_S + 0.005)

    assert requests_sent(net, protocol) == 1
    # AODV and DSR unicast to a neighbour that never acks, so the MAC may
    # retry; the packet left the buffer either way.
    assert net.channel.tx_count_by_kind["data"] >= 1
    assert 2 not in source.discovery
    assert source.data_dropped == 0
