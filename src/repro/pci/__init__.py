"""Pin-level simplified PCI bus substrate."""

from .arbiter import PciCentralArbiter
from .config_space import (
    CMD_MEMORY_ENABLE,
    PciConfigSpace,
    REG_BAR0,
    REG_COMMAND_STATUS,
    REG_ID,
)
from .enumeration import FoundDevice, config_read, config_write, enumerate_bus
from .constants import (
    AD_WIDTH,
    CBE_WIDTH,
    CMD_CONFIG_READ,
    CMD_CONFIG_WRITE,
    CMD_IO_READ,
    CMD_IO_WRITE,
    CMD_MEM_READ,
    CMD_MEM_READ_LINE,
    CMD_MEM_READ_MULTIPLE,
    CMD_MEM_WRITE,
    CMD_MEM_WRITE_INVALIDATE,
    COMMAND_NAMES,
    DEVSEL_TIMEOUT,
    MEMORY_COMMANDS,
    READ_COMMANDS,
    STATUS_MASTER_ABORT,
    STATUS_OK,
    STATUS_PENDING,
    STATUS_TARGET_ABORT,
    WRITE_COMMANDS,
)
from .master import PciMaster
from .monitor import PciMonitor
from .parity import parity_of, parity_of_vectors
from .signals import PciAgentPins, PciBus, is_asserted
from .target import PciTarget
from .transaction import PciOperation, PciTransaction

__all__ = [
    "AD_WIDTH",
    "CBE_WIDTH",
    "CMD_MEMORY_ENABLE",
    "FoundDevice",
    "PciConfigSpace",
    "REG_BAR0",
    "REG_COMMAND_STATUS",
    "REG_ID",
    "config_read",
    "config_write",
    "enumerate_bus",
    "CMD_CONFIG_READ",
    "CMD_CONFIG_WRITE",
    "CMD_IO_READ",
    "CMD_IO_WRITE",
    "CMD_MEM_READ",
    "CMD_MEM_READ_LINE",
    "CMD_MEM_READ_MULTIPLE",
    "CMD_MEM_WRITE",
    "CMD_MEM_WRITE_INVALIDATE",
    "COMMAND_NAMES",
    "DEVSEL_TIMEOUT",
    "MEMORY_COMMANDS",
    "PciAgentPins",
    "PciBus",
    "PciCentralArbiter",
    "PciMaster",
    "PciMonitor",
    "PciOperation",
    "PciTarget",
    "PciTransaction",
    "READ_COMMANDS",
    "STATUS_MASTER_ABORT",
    "STATUS_OK",
    "STATUS_PENDING",
    "STATUS_TARGET_ABORT",
    "WRITE_COMMANDS",
    "parity_of",
    "parity_of_vectors",
    "is_asserted",
]
