#!/usr/bin/env python
"""Communication refinement by interface swap (the paper's Figure 3).

The same application and the same functional IP models run twice:

* against the **functional** library interface element (transaction
  level — fast simulation), then
* against the **pin-accurate PCI** element (the implementation).

Nothing in the application changes; the observable transaction traces
are identical; the simulation cost difference is the price of pin-level
detail — which is why the methodology models high and refines late.

Run:  python examples/refinement.py
"""

from repro.core import compare_refinement, default_library, generate_workload
from repro.flow import PciPlatformConfig, build_platform
from repro.kernel import MS


def main():
    library = default_library()
    print("interface library contents:")
    for bus, abstraction in library.available():
        print(f"  bus={bus!r}  abstraction={abstraction!r}  "
              f"-> {library.lookup(bus, abstraction).__name__}")
    print()

    workload = generate_workload(
        seed=2024, n_commands=40, address_span=0x800, max_burst=4,
        partial_byte_enable_fraction=0.25,
    )
    config = PciPlatformConfig()

    report = compare_refinement(
        lambda: build_platform([workload], config, bus="functional").handle,
        lambda: build_platform([workload], config, bus="pci").handle,
        max_time=20 * MS,
    )
    print(report.summary())
    assert report.consistent, report.mismatches
    assert report.delta_ratio > 2, "pin-level detail should cost kernel activity"
    print()
    print(f"the functional model needed {report.delta_ratio:.0f}x fewer "
          "delta cycles for the same observable behaviour")
    print("refinement OK")


if __name__ == "__main__":
    main()
