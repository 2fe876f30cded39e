"""Wishbone bus substrate — the interface library's second bus."""

from .interface import WishboneBusInterface, WishboneFunctionalInterface
from .master import WishboneMaster
from .monitor import WishboneMonitor, WishboneTransfer
from .signals import WishboneBus
from .slave import WishboneSlave

__all__ = [
    "WishboneBus",
    "WishboneBusInterface",
    "WishboneFunctionalInterface",
    "WishboneMaster",
    "WishboneMonitor",
    "WishboneSlave",
    "WishboneTransfer",
]
