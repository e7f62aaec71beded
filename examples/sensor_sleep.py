#!/usr/bin/env python
"""Energy: sleeping relays under Routeless Routing vs AODV.

Section 4.2: "any node, even if it is on the route, can freely switch to a
sleep or a standby mode to save energy, making Routeless Routing well suited
for energy limited sensor networks."  Under AODV, a sleeping relay is a
broken route: MAC retries, a RERR, and a rediscovery flood.

This example runs the same scenario — relays duty-cycling to sleep 30% of
the time — under both protocols with energy metering on, and reports
delivery, control cost, and network-wide energy use.

Run:  python examples/sensor_sleep.py
"""

from repro.experiments.common import (
    ScenarioConfig,
    attach_cbr,
    build_protocol_network,
    pick_flows,
)
from repro.faults import DutyCycleOutage, FaultPlan, install_plan
from repro.phy.radio import RadioState
from repro.sim.rng import RandomStreams

DURATION_S = 30.0
SLEEP_FRACTION = 0.3


def run(protocol: str, seed: int = 2):
    scenario = ScenarioConfig(n_nodes=80, width_m=800.0, height_m=800.0,
                              range_m=250.0, seed=seed, with_energy=True)
    net = build_protocol_network(protocol, scenario)
    flows = pick_flows(80, 3, RandomStreams(seed + 77).stream("flows"),
                       bidirectional=True)
    endpoints = {node for flow in flows for node in flow}
    # Every non-endpoint node naps 30% of the time, in ~1-second bursts.
    naps = DutyCycleOutage(off_fraction=SLEEP_FRACTION, mean_cycle_s=3.0,
                           sleep=True)
    install_plan(net, FaultPlan(faults=(naps,)), exempt=endpoints)
    attach_cbr(net, flows, interval_s=1.0, stop_s=DURATION_S - 4.0)
    net.run(until=DURATION_S)

    total_j = sum(meter.finalize(net.simulator.now) for meter in net.energy)
    sleep_s = sum(meter.time_by_state[RadioState.OFF] +
                  meter.time_by_state[RadioState.SLEEP]
                  for meter in net.energy)
    return net, total_j, sleep_s


def main() -> None:
    print(f"80 nodes, 3 bidirectional CBR pairs, relays asleep "
          f"{SLEEP_FRACTION:.0%} of the time\n")
    header = (f"{'protocol':>10} {'delivery':>9} {'delay_s':>9} "
              f"{'mac_pkts':>9} {'ctrl_pkts':>10} {'energy_J':>9}")
    print(header)
    print("-" * len(header))
    for protocol in ("aodv", "routeless"):
        net, total_j, sleep_s = run(protocol)
        s = net.summary()
        kinds = net.channel.tx_count_by_kind
        control = sum(count for kind, count in kinds.items()
                      if kind not in ("data", "mac_ack"))
        print(f"{protocol:>10} {s.delivery_ratio:>9.3f} {s.avg_delay_s:>9.4f} "
              f"{s.mac_packets:>9} {control:>10} {total_j:>9.1f}")
    print()
    print("Routeless Routing keeps delivering with napping relays and spends")
    print("nothing on route repair; AODV pays for every nap with retries,")
    print("RERRs and rediscovery floods.")


if __name__ == "__main__":
    main()
