"""Transaction-level modeling substrate: the target interface, functional IP
models (memory, peripheral), the address router and the generic payload."""

from .interfaces import (
    ALL_BYTES,
    TlmTarget,
    apply_byte_enables,
    check_word_address,
    check_word_data,
)
from .memory import Memory
from .peripheral import StatusRegisterBlock
from .router import AddressRange, AddressRouter

#: Generic-payload names resolved lazily: generic_payload pulls in the
#: interface-element stack (repro.core), which itself imports
#: tlm.interfaces — an eager import here would close that cycle while
#: this package is still initialising.
_GENERIC_PAYLOAD_NAMES = (
    "GP_ADDRESS_ERROR",
    "GP_GENERIC_ERROR",
    "GP_INCOMPLETE",
    "GP_OK",
    "GP_READ",
    "GP_STATUSES",
    "GP_WRITE",
    "GenericPayload",
    "GpTargetSocket",
    "TlmGpBusInterface",
    "TlmGpFunctionalInterface",
)


def __getattr__(name: str):
    if name in _GENERIC_PAYLOAD_NAMES:
        from . import generic_payload

        return getattr(generic_payload, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ALL_BYTES",
    "AddressRange",
    "AddressRouter",
    "GP_ADDRESS_ERROR",
    "GP_GENERIC_ERROR",
    "GP_INCOMPLETE",
    "GP_OK",
    "GP_READ",
    "GP_STATUSES",
    "GP_WRITE",
    "GenericPayload",
    "GpTargetSocket",
    "Memory",
    "StatusRegisterBlock",
    "TlmGpBusInterface",
    "TlmGpFunctionalInterface",
    "TlmTarget",
    "apply_byte_enables",
    "check_word_address",
    "check_word_data",
]
