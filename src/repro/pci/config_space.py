"""PCI configuration space (type-0 header, simplified).

Gives targets the discoverable/relocatable behaviour real PCI devices
have: a vendor/device identity, a command register with a memory-space
enable bit, and a size-encoded BAR0 that system software can probe
(write all-ones, read back the size mask) and program with a base
address. :func:`repro.pci.enumeration.enumerate_bus` is the matching
software side.

Register map (byte offsets, 32-bit registers):

====  ==========================================
0x00  device_id[31:16] | vendor_id[15:0]
0x04  status[31:16]    | command[15:0]
0x08  class_code[31:8] | revision[7:0]
0x10  BAR0 (memory, 32-bit, size-encoded)
====  ==========================================
"""

from __future__ import annotations

from ..errors import ProtocolError
from ..tlm.interfaces import apply_byte_enables

#: Command-register bit: respond to memory-space accesses.
CMD_MEMORY_ENABLE = 0x0002

#: Offsets.
REG_ID = 0x00
REG_COMMAND_STATUS = 0x04
REG_CLASS_REV = 0x08
REG_BAR0 = 0x10

#: Value an empty slot's read returns (bus pull-ups / master abort).
EMPTY_SLOT_ID = 0xFFFFFFFF


class PciConfigSpace:
    """One function's configuration registers.

    :param vendor_id / device_id: identity (16 bits each).
    :param class_code: 24-bit class code.
    :param revision: 8-bit revision id.
    :param bar0_size: BAR0 window size in bytes; must be a power of two
        >= 16 (the PCI minimum for memory BARs).
    :param bar0_base: initial base address (0 = not yet programmed).
    """

    def __init__(
        self,
        vendor_id: int,
        device_id: int,
        bar0_size: int,
        class_code: int = 0x058000,  # memory controller, by default
        revision: int = 0x01,
        bar0_base: int = 0,
    ) -> None:
        if not 0 <= vendor_id <= 0xFFFF or not 0 <= device_id <= 0xFFFF:
            raise ProtocolError("vendor/device ids are 16-bit")
        if bar0_size < 16 or bar0_size & (bar0_size - 1):
            raise ProtocolError(
                f"BAR0 size must be a power of two >= 16, got {bar0_size}"
            )
        if bar0_base % bar0_size:
            raise ProtocolError(
                f"BAR0 base {bar0_base:#x} not aligned to size {bar0_size:#x}"
            )
        self.vendor_id = vendor_id
        self.device_id = device_id
        self.class_code = class_code & 0xFFFFFF
        self.revision = revision & 0xFF
        self.bar0_size = bar0_size
        self.bar0_base = bar0_base
        self.command = 0
        self.status = 0x0200  # DEVSEL timing: medium
        self._bar0_probing = False

    # -- decode helpers ------------------------------------------------------

    @property
    def memory_enabled(self) -> bool:
        return bool(self.command & CMD_MEMORY_ENABLE)

    def decodes_memory(self, address: int) -> bool:
        """Memory decode: enabled and inside the programmed BAR0 window."""
        if not self.memory_enabled:
            return False
        return self.bar0_base <= address < self.bar0_base + self.bar0_size

    # -- register access -----------------------------------------------------

    def config_read(self, offset: int) -> int:
        register = offset & 0xFC
        if register == REG_ID:
            return (self.device_id << 16) | self.vendor_id
        if register == REG_COMMAND_STATUS:
            return (self.status << 16) | self.command
        if register == REG_CLASS_REV:
            return (self.class_code << 8) | self.revision
        if register == REG_BAR0:
            if self._bar0_probing:
                # Size probe: ones in the size-mask bits, zeros below.
                return (~(self.bar0_size - 1)) & 0xFFFFFFFF
            return self.bar0_base & 0xFFFFFFFF
        # Unimplemented registers read as zero (per common practice).
        return 0

    def config_write(self, offset: int, data: int, byte_enables: int = 0xF) -> None:
        register = offset & 0xFC
        if register == REG_COMMAND_STATUS:
            merged = apply_byte_enables(self.command, data, byte_enables & 0x3)
            self.command = merged & 0xFFFF
        elif register == REG_BAR0:
            merged = apply_byte_enables(
                self.bar0_base if not self._bar0_probing else 0xFFFFFFFF,
                data,
                byte_enables,
            )
            if merged == 0xFFFFFFFF:
                # Size-probe handshake: next read returns the size mask.
                self._bar0_probing = True
            else:
                self._bar0_probing = False
                self.bar0_base = merged & ~(self.bar0_size - 1) & 0xFFFFFFF0
        # Identity and class registers are read-only: writes ignored.
