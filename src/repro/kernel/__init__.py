"""Discrete-event simulation kernel (SystemC-like scheduler in Python).

Public surface::

    from repro.kernel import Simulator, Timeout, AnyOf, NS, US

    sim = Simulator()

    def producer():
        yield Timeout(10 * NS)
        ...

    sim.spawn(producer, "producer")
    sim.run(1 * US)
"""

from .event import AnyOf, Event
from .process import Process, Timeout
from .scheduler import Scheduler
from .signal_base import UpdateTarget
from .simtime import FS, MS, NS, PS, SEC, US, format_time
from .simulator import BlockedProcess, DetectionRecord, Simulator

__all__ = [
    "AnyOf",
    "BlockedProcess",
    "DetectionRecord",
    "Event",
    "FS",
    "MS",
    "NS",
    "PS",
    "Process",
    "SEC",
    "Scheduler",
    "Simulator",
    "Timeout",
    "US",
    "UpdateTarget",
    "format_time",
]
