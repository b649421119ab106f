"""Adaptive AP operation: resource management + per-user boundary fitting.

Shows the Sec. III-B-1 / V-B operational side of reshaping that the
other examples skip: an AP with a finite virtual-address budget
admitting clients, recycling idle ones, rebalancing when capacity frees
up — plus a client fitting its OR boundaries to its own traffic
(automated Sec. III-C-3 parameter selection) and the privacy-entropy
arithmetic of the resulting WLAN.

Run:  python examples/adaptive_ap.py
"""

import numpy as np

from repro.analysis.privacy import wlan_privacy_entropy_bits
from repro.core.adaptive import QuantileBoundaryReshaper
from repro.core.base import ReshaperScheme
from repro.mac.addresses import MacAddress
from repro.mac.pool import AddressPool
from repro.mac.resource import ResourceManager
from repro.traffic.apps import AppType
from repro.traffic.generator import TrafficGenerator


class Clock:
    """Manual clock so the demo controls idle timeouts."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def main() -> None:
    clock = Clock()
    pool = AddressPool(np.random.default_rng(4))
    manager = ResourceManager(
        pool, budget=12, max_per_client=5, min_per_client=2,
        idle_timeout=300.0, clock=clock,
    )

    print("== AP admission under a 12-address budget ==")
    clients = [MacAddress(0x00AA00000000 + i) for i in range(4)]
    for index, client in enumerate(clients):
        requested = 5
        grant = manager.admit(client, requested)
        if grant is None:
            print(f"  client {index}: requested {requested} -> REFUSED (no headroom)")
        else:
            print(f"  client {index}: requested {requested} -> granted {grant.interfaces}")
    print(f"  allocated {manager.allocated}/12, headroom {manager.headroom}")

    print("\n== Client 0 goes idle; AP recycles and rebalances ==")
    clock.now = 200.0
    for client in clients[1:]:
        manager.touch(client)
    clock.now = 450.0  # client 0 idle 450 s > timeout; the rest only 250 s
    reclaimed = manager.reclaim_idle()
    print(f"  reclaimed: {len(reclaimed)} client(s)")
    additions = manager.rebalance()
    for client, extra in additions.items():
        print(f"  topped up {client} by {extra} interface(s)")

    print("\n== Per-user boundary fitting (automated parameter selection) ==")
    trace = TrafficGenerator(seed=4).generate(AppType.BITTORRENT, 90.0)
    calibration = trace.time_slice(0.0, 30.0)
    reshaper = QuantileBoundaryReshaper.fit(calibration, interfaces=3)
    print(f"  fitted boundaries from 30 s of traffic: {reshaper.boundaries}")
    result = ReshaperScheme("reshaper", reshaper).apply(trace)
    for iface, flow in sorted(result.flows.items()):
        print(f"  interface {iface}: {len(flow):5d} packets "
              f"({100.0 * len(flow) / len(trace):4.1f}% of traffic)")

    print("\n== Privacy entropy of the WLAN (Sec. III-C-3) ==")
    for interfaces in (1, 3, 5):
        bits = wlan_privacy_entropy_bits(stations=3, interfaces_per_station=interfaces)
        print(f"  3 stations x {interfaces} interfaces -> H = {bits:.2f} bits")


if __name__ == "__main__":
    main()
