"""The shared skeleton of the pin-level bus agents.

The interface IPs of the library differ only in the pin-level protocol
they drive, so the agents share everything else:

* :class:`BusOperation` — one requested transfer on a Wishbone or
  AXI4-Lite segment (PCI's :class:`~repro.pci.transaction.PciOperation`
  adds a command code, retries and parity);
* :class:`PinMaster` — the operation queue, :meth:`~PinMaster.submit`,
  :meth:`~PinMaster.transact` and the ``engine`` thread's bookkeeping;
  a bus master supplies only :meth:`~PinMaster._execute`;
* :class:`BusMonitor` — the ``watch`` thread and the violation log; a
  bus monitor supplies only ``_watch``, its per-edge checks.
"""

from __future__ import annotations

import typing
from collections import deque

from ..errors import ProtocolError
from ..hdl.module import Module
from ..hdl.signal import Signal
from ..instrument.probes import TRANSACTION_BEGIN, TRANSACTION_END
from ..kernel.event import Event


class BusOperation:
    """One requested operation (possibly a burst) on a single-master bus.

    :param is_write: direction.
    :param address: word-aligned byte start address.
    :param data: words to write (writes only).
    :param count: words to read (reads only).
    :param byte_enables: active-high byte-lane mask applied to every
        word (Wishbone drives it on SEL, AXI4-Lite on WSTRB); ``None``
        enables every lane.
    :param byte_lanes: byte lanes of the bus this operation targets
        (the validation bound; 4 for the default 32-bit data path).
    """

    def __init__(
        self,
        is_write: bool,
        address: int,
        data=None,
        count: int = 1,
        byte_enables: int | None = None,
        byte_lanes: int = 4,
    ) -> None:
        if address % 4 or not 0 <= address < 2**32:
            raise ProtocolError(f"bad bus address {address:#x}")
        if byte_lanes < 1:
            raise ProtocolError(f"byte_lanes must be >= 1, got {byte_lanes}")
        if byte_enables is None:
            byte_enables = (1 << byte_lanes) - 1
        if not 0 <= byte_enables < (1 << byte_lanes):
            raise ProtocolError(f"bad byte enables {byte_enables:#x}")
        self.is_write = is_write
        self.address = address
        self.byte_enables = byte_enables
        self.byte_lanes = byte_lanes
        if is_write:
            if not data:
                raise ProtocolError("write operation needs data")
            self.data = list(data)
            self.count = len(self.data)
        else:
            if data is not None:
                raise ProtocolError("read operation must not carry data")
            if count < 1:
                raise ProtocolError("read count must be >= 1")
            self.data = []
            self.count = count
        self.status = "pending"
        self.enqueue_time: int | None = None
        self.start_time: int | None = None
        self.complete_time: int | None = None
        #: Correlation id inherited from the issuing CommandType.
        self.corr_id: str | None = None
        #: Stable id for transaction.begin/end probe pairing; drawn only
        #: while a probe bus is attached.
        self.txn_id: int | None = None

    @classmethod
    def read(cls, address: int, count: int = 1,
             byte_enables: int | None = None, byte_lanes: int = 4):
        return cls(False, address, count=count, byte_enables=byte_enables,
                   byte_lanes=byte_lanes)

    @classmethod
    def write(cls, address: int, data, byte_enables: int | None = None,
              byte_lanes: int = 4):
        words = [data] if isinstance(data, int) else list(data)
        return cls(True, address, data=words, byte_enables=byte_enables,
                   byte_lanes=byte_lanes)

    def __repr__(self) -> str:
        kind = "write" if self.is_write else "read"
        return f"BusOperation({kind} @{self.address:#010x} x{self.count})"


class PinMaster(Module):
    """A bus master executing queued operations in order.

    :meth:`submit` queues an operation and returns the event that fires
    (one delta after completion) when it is done; :meth:`transact` is
    the blocking helper for thread processes. The ``engine`` thread
    stamps the operation's start and completion times and status, and
    emits its ``transaction.begin``/``end`` probes (with a txn id, drawn
    only while a probe bus is attached); a bus subclass drives the pins
    in :meth:`_execute`.
    """

    def __init__(
        self, parent: Module, name: str, bus: typing.Any, clk: Signal
    ) -> None:
        super().__init__(parent, name)
        self.bus = bus
        self.clk = clk
        self._queue: deque[tuple[typing.Any, Event]] = deque()
        self._op_available = self.event("op_available")
        self.thread(self._engine, "engine")

    # -- public API ----------------------------------------------------------

    def submit(self, operation) -> Event:
        """Queue *operation*; the returned event fires on completion."""
        done = self.event(self._done_event_name(operation))
        operation.enqueue_time = self.sim.time
        self._queue.append((operation, done))
        self._op_available.notify()
        return done

    def transact(self, operation):
        """Blocking helper: ``yield from master.transact(op)`` returns *op*."""
        yield self.submit(operation)
        return operation

    # -- the bus protocol ----------------------------------------------------

    def _execute(self, operation, posedge):
        """Drive *operation* on the pins; a generator returning its status.

        It starts in the engine's current activation and waits on
        *posedge*, the clock's rising-edge event; a status other than
        ``"ok"`` names the failure.
        """
        raise NotImplementedError

    def _idle(self) -> None:
        """Called each time the engine finds the queue empty."""

    def _done_event_name(self, operation) -> str:
        return "op_done"

    # -- engine --------------------------------------------------------------

    def _engine(self):
        posedge = self.clk.posedge
        queue = self._queue
        while True:
            if not queue:
                self._idle()
                yield self._op_available
                continue
            operation, done = queue.popleft()
            operation.start_time = self.sim.time
            probes = self.sim._probes
            if probes is not None:
                if operation.txn_id is None:
                    operation.txn_id = next(self.sim.txn_ids)
                probes.emit(
                    TRANSACTION_BEGIN, self.sim.time, self.path, operation
                )
            status = yield from self._execute(operation, posedge)
            operation.status = status
            operation.complete_time = self.sim.time
            if probes is not None:
                probes.emit(TRANSACTION_END, self.sim.time, self.path, operation)
            done.notify_delta()


class BusMonitor(Module):
    """A passive monitor: the ``watch`` thread and its violation log.

    :param strict: raise :class:`~repro.errors.ProtocolError` on a rule
        violation (otherwise it is only recorded in :attr:`violations`).

    A bus subclass implements ``_watch``, the thread that samples the
    wires on every rising edge, records what it observes and reports
    broken rules through :meth:`_violation`.
    """

    def __init__(
        self,
        parent: Module,
        name: str,
        bus: typing.Any,
        clk: Signal,
        strict: bool = True,
    ) -> None:
        super().__init__(parent, name)
        self.bus = bus
        self.clk = clk
        self.strict = strict
        self.violations: list[str] = []
        self.thread(self._watch, "watch")

    def _watch(self):
        raise NotImplementedError

    def _violation(self, message: str) -> None:
        """Record one broken rule: log it, report it as a detection (so
        fault campaigns classify the run as *detected* whether or not
        the monitor is strict) and, when strict, raise."""
        text = f"{self.sim.time_str()}: {message}"
        self.violations.append(text)
        self.sim.report_detection(self.path, text)
        if self.strict:
            raise ProtocolError(f"{self.path}: {text}")
