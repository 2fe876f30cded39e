#!/usr/bin/env python
"""PCI bus enumeration: discovering and programming devices.

Two devices with configuration spaces sit on the bus with unprogrammed
BARs. Software (running on the bus master) probes each slot's IDSEL,
sizes BAR0 with the all-ones handshake, assigns disjoint windows,
enables memory decoding — and then uses the freshly-mapped devices.

Run:  python examples/enumeration.py
"""

from collections import Counter

from repro.hdl import Clock, Module
from repro.kernel import MS, NS, Simulator
from repro.pci import (
    PciBus,
    PciCentralArbiter,
    PciConfigSpace,
    PciMaster,
    PciMonitor,
    PciOperation,
    PciTarget,
    enumerate_bus,
)
from repro.tlm import Memory


class System(Module):
    def __init__(self, parent, name):
        super().__init__(parent, name)
        self.clock = Clock(self, "clock", period=30 * NS)
        self.bus = PciBus(self, "bus")
        PciCentralArbiter(self, "arbiter", self.bus, self.clock.clk)
        self.monitor = PciMonitor(self, "monitor", self.bus, self.clock.clk)
        self.devices = []
        for slot, (vendor, device, size) in enumerate(
            [(0x104C, 0xAC10, 0x1000), (0x8086, 0x1229, 0x4000)]
        ):
            memory = Memory(size)
            target = PciTarget(
                self, f"dev{slot}", self.bus, self.clock.clk, memory,
                base=0, size=size,
                config_space=PciConfigSpace(vendor, device, bar0_size=size),
                idsel_index=slot,
            )
            self.devices.append((target, memory))
        self.master = PciMaster(self, "host_bridge", self.bus, self.clock.clk)


def main():
    sim = Simulator()
    system = System(sim, "system")
    log = {}

    def firmware():
        print("probing slots 0..3 ...")
        devices = yield from enumerate_bus(system.master, n_slots=4)
        for device in devices:
            print(f"  found {device!r}")
        log["devices"] = devices

        # Exercise the mapped windows.
        for index, device in enumerate(devices):
            pattern = 0xA5A50000 | index
            write = PciOperation.write(device.bar0_base, [pattern])
            yield from system.master.transact(write)
            read = PciOperation.read(device.bar0_base)
            yield from system.master.transact(read)
            print(f"  slot {device.slot}: wrote {pattern:#010x}, "
                  f"read back {read.data[0]:#010x}")
            assert read.data == [pattern]
        sim.stop()

    sim.spawn(firmware, "firmware")
    sim.run(50 * MS)

    assert len(log["devices"]) == 2
    assert not system.monitor.violations
    endings = Counter(
        t.terminated_by for t in system.monitor.completed_transactions
    )
    print(f"\ntransactions by termination: {dict(sorted(endings.items()))}")
    print("enumeration OK")


if __name__ == "__main__":
    main()
