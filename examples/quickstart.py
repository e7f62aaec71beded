#!/usr/bin/env python
"""Quickstart: the local leader election primitive in five minutes.

Builds a 8-node neighborhood on a shared wireless channel, then runs
Section 2's election protocol three ways:

1. a random backoff — any node may win;
2. a signal-strength backoff — the node farthest from the trigger wins;
3. a custom metric (here: remaining battery) via ``FunctionBackoff`` —
   the paper's point is precisely that *any* per-node metric can be turned
   into a leader election by mapping it to a backoff delay.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.api import (
    BackoffInput,
    ElectionConfig,
    ElectionNode,
    FreeSpace,
    FunctionBackoff,
    RandomBackoff,
    ScenarioConfig,
    SignalStrengthBackoff,
    build_network,
)
from repro.phy.propagation import range_to_threshold_dbm


def build_neighborhood(seed: int):
    """A small fully-connected neighborhood (everyone hears everyone)."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0, 150, size=(8, 2))  # well within the 250 m range
    scenario = ScenarioConfig(n_nodes=8, positions=positions, range_m=250.0,
                              seed=seed)
    # The protocol layer is the election itself, so the factory returns the
    # MAC untouched and we attach ElectionNodes afterwards.
    net = build_network(lambda ctx, nid, mac, metrics: mac, scenario)
    return net


def run_election(title: str, policy, observe=None, seed: int = 7) -> None:
    net = build_neighborhood(seed)
    config = ElectionConfig(policy=policy, use_arbiter=True)
    nodes = [
        ElectionNode(net.ctx, i, mac, config, candidate=(i != 0), observe=observe)
        for i, mac in enumerate(net.macs)
    ]
    uid = nodes[0].trigger()  # node 0 creates the implicit sync point
    net.run(until=2.0)

    leader = nodes[0].leader_of(uid)
    views = {node.node_id: node.leader_of(uid) for node in nodes}
    agreed = len(set(views.values())) == 1
    print(f"{title}")
    print(f"  elected leader: node {leader}   (all nodes agree: {agreed})")
    print(f"  transmissions: {dict(net.channel.tx_count_by_kind)}\n")


def main() -> None:
    print("=" * 64)
    print("Local leader election (Chen, Branch & Szymanski, WMAN'05)")
    print("=" * 64 + "\n")

    run_election("1) Random backoff — an arbitrary node wins:",
                 RandomBackoff(max_delay=0.05))

    threshold = range_to_threshold_dbm(FreeSpace(), 15.0, 250.0)
    run_election("2) Signal-strength backoff — the farthest node wins:",
                 SignalStrengthBackoff(lam=0.05, rx_threshold_dbm=threshold,
                                       jitter=0.0))

    # Pretend each node has a battery level; fuller battery ⇒ shorter delay.
    # The observe hook is where per-node knowledge enters the election: here
    # it smuggles the local battery charge to the policy (reusing the
    # rx_power_dbm field as the metric carrier).
    battery = {i: 0.1 + 0.1 * i for i in range(8)}  # node 7 is the fullest
    policy = FunctionBackoff(fn=lambda observed: 0.05 * (1.0 - observed.rx_power_dbm))

    def battery_observe_factory(node_id):
        def observe(packet, rx):
            return BackoffInput(rng=np.random.default_rng(node_id),
                                rx_power_dbm=battery[node_id])
        return observe

    net = build_neighborhood(seed=7)
    config = ElectionConfig(policy=policy, use_arbiter=True)
    nodes = [ElectionNode(net.ctx, i, mac, config, candidate=(i != 0),
                          observe=battery_observe_factory(i))
             for i, mac in enumerate(net.macs)]
    uid = nodes[0].trigger()
    net.run(until=2.0)
    print("3) Custom metric (battery charge) — the fullest node wins:")
    print(f"  elected leader: node {nodes[0].leader_of(uid)} "
          f"(battery {battery[nodes[0].leader_of(uid)]:.1f})\n")

    print("Flooding and routing are the same pattern with different metrics —")
    print("see examples/flooding_comparison.py and examples/routeless_routing_demo.py.")


if __name__ == "__main__":
    main()
