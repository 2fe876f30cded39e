#!/usr/bin/env python
"""Porting the device to a different bus: PCI -> Wishbone.

The methodology's library claim in action: the same application and the
same functional IP models run behind the PCI element, then behind the
Wishbone element — picked from the interface library by name — and the
observable transaction traces are identical. The application is never
edited.

Run:  python examples/wishbone_port.py
"""

from repro.core import default_library, generate_workload
from repro.flow import build_platform
from repro.kernel import MS, NS


def main():
    library = default_library()
    print("library elements available:")
    for bus, abstraction in library.available():
        print(f"  {bus:10s} {abstraction:14s} "
              f"{library.lookup(bus, abstraction).__name__}")
    print()

    workload = generate_workload(seed=99, n_commands=30, address_span=0x400,
                                 max_burst=4)
    runs = {
        bus: build_platform([workload], bus=bus).run(200 * MS)
        for bus in ("functional", "pci", "wishbone")
    }

    reference = runs["functional"].traces
    print(f"{'platform':12s} {'txns':>5s} {'deltas':>8s} {'sim ns':>8s}  trace")
    for name, result in runs.items():
        same = result.traces == reference
        print(f"{name:12s} {result.transactions:>5d} "
              f"{result.delta_cycles:>8d} {result.sim_time // NS:>8d}  "
              f"{'== reference' if same else 'DIVERGED'}")
        assert same

    print()
    print("the application was not modified between platforms — the")
    print("communication refinement was a one-line library swap.")
    print("wishbone_port OK")


if __name__ == "__main__":
    main()
