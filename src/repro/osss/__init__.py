"""OSSS / SystemC+ layer: global objects, guarded methods, arbitration,
hardware polymorphism — the language extension the ODETTE project adds on
top of the synthesisable SystemC subset."""

from .arbiter import (
    Arbiter,
    FcfsArbiter,
    RandomArbiter,
    RoundRobinArbiter,
    StaticPriorityArbiter,
)
from .global_object import GlobalObject, SharedStateSpace, connect
from .guarded_method import (
    GuardedMethodDescriptor,
    guarded_method,
    guarded_methods_of,
)
from .polymorphism import PolymorphicVar
from .request import MethodRequest, RequestStats

__all__ = [
    "Arbiter",
    "FcfsArbiter",
    "GlobalObject",
    "GuardedMethodDescriptor",
    "MethodRequest",
    "PolymorphicVar",
    "RandomArbiter",
    "RequestStats",
    "RoundRobinArbiter",
    "SharedStateSpace",
    "StaticPriorityArbiter",
    "connect",
    "guarded_method",
    "guarded_methods_of",
]
