#!/usr/bin/env python
"""Routing under mobility: Routeless Routing vs AODV, DSR and DSDV.

An extension beyond the paper's evaluation: instead of duty-cycled
transceivers (Figure 4), nodes physically move under the random-waypoint
model.  Explicit-route protocols pay per broken link; Routeless Routing
re-elects every hop per packet and just keeps working.

Run:  python examples/mobility_comparison.py [max_speed_mps]
"""

import sys

from repro.experiments.ext_mobility import MobilityExpConfig, run_one

PROTOCOLS = ("aodv", "dsr", "dsdv", "routeless")


def main() -> None:
    max_speed = float(sys.argv[1]) if len(sys.argv) > 1 else 15.0
    config = MobilityExpConfig()
    print(f"{config.n_nodes} nodes, {config.n_pairs} bidirectional pairs, "
          f"random waypoint at up to {max_speed} m/s\n")
    header = (f"{'protocol':>10} | {'static':^28} | {'mobile':^28}")
    sub = (f"{'':>10} | {'deliv':>6} {'delay':>8} {'mac_pkts':>9} | "
           f"{'deliv':>6} {'delay':>8} {'mac_pkts':>9}")
    print(header)
    print(sub)
    print("-" * len(sub))
    for protocol in PROTOCOLS:
        static = run_one(protocol, 0.0, seed=1, config=config).to_summary()
        mobile = run_one(protocol, max_speed, seed=1,
                         config=config).to_summary()
        print(f"{protocol:>10} | {static.delivery_ratio:>6.3f} "
              f"{static.avg_delay_s:>8.4f} {static.mac_packets:>9} | "
              f"{mobile.delivery_ratio:>6.3f} {mobile.avg_delay_s:>8.4f} "
              f"{mobile.mac_packets:>9}")
    print()
    print("Watch the mac_pkts columns: explicit-route protocols buy mobility")
    print("tolerance with control traffic; Routeless Routing's bill is flat.")


if __name__ == "__main__":
    main()
