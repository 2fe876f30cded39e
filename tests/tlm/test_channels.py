"""Unit tests for transaction-level channels."""

import pytest

from repro.errors import SimulationError
from repro.kernel import NS, Simulator, Timeout
from repro.tlm import ReqRspChannel, TlmFifo


@pytest.fixture
def sim():
    return Simulator()


class TestNonBlocking:
    def test_try_put_get(self, sim):
        fifo = TlmFifo(sim, "f", capacity=2)
        assert fifo.try_put(1)
        assert fifo.try_put(2)
        assert not fifo.try_put(3)  # full
        assert fifo.is_full
        ok, item = fifo.try_get()
        assert ok and item == 1
        ok, item = fifo.try_get()
        assert ok and item == 2
        ok, __ = fifo.try_get()
        assert not ok
        assert fifo.is_empty

    def test_peek(self, sim):
        fifo = TlmFifo(sim, "f")
        fifo.try_put("x")
        assert fifo.peek() == "x"
        assert len(fifo) == 1

    def test_peek_empty_raises(self, sim):
        with pytest.raises(SimulationError):
            TlmFifo(sim, "f").peek()

    def test_bad_capacity(self, sim):
        with pytest.raises(SimulationError):
            TlmFifo(sim, "f", capacity=0)


class TestBlocking:
    def test_get_blocks_until_put(self, sim):
        fifo = TlmFifo(sim, "f")
        log = []

        def consumer():
            item = yield from fifo.get()
            log.append((item, sim.time))

        def producer():
            yield Timeout(30 * NS)
            yield from fifo.put("data")

        sim.spawn(consumer, "c")
        sim.spawn(producer, "p")
        sim.run(100 * NS)
        assert log == [("data", 30 * NS)]

    def test_put_blocks_when_full(self, sim):
        fifo = TlmFifo(sim, "f", capacity=1)
        log = []

        def producer():
            yield from fifo.put(1)
            yield from fifo.put(2)
            log.append(("put2", sim.time))

        def consumer():
            yield Timeout(40 * NS)
            item = yield from fifo.get()
            log.append(("got", item))

        sim.spawn(producer, "p")
        sim.spawn(consumer, "c")
        sim.run(100 * NS)
        assert ("got", 1) in log
        assert ("put2", 40 * NS) in log
        assert len(fifo) == 1 and fifo.peek() == 2

    def test_fifo_ordering_under_concurrency(self, sim):
        fifo = TlmFifo(sim, "f")
        received = []

        def producer():
            for i in range(5):
                yield from fifo.put(i)
                yield Timeout(1 * NS)

        def consumer():
            for __ in range(5):
                item = yield from fifo.get()
                received.append(item)

        sim.spawn(producer, "p")
        sim.spawn(consumer, "c")
        sim.run(100 * NS)
        assert received == [0, 1, 2, 3, 4]


class TestReqRsp:
    def test_transport_roundtrip(self, sim):
        channel = ReqRspChannel(sim, "ch")
        results = []

        def master():
            response = yield from channel.transport({"op": "double", "value": 21})
            results.append(response)

        def slave():
            yield from channel.serve(lambda req: req["value"] * 2)

        sim.spawn(master, "m")
        sim.spawn(slave, "s")
        sim.run(100 * NS)
        assert results == [42]

    def test_multiple_transactions_in_order(self, sim):
        channel = ReqRspChannel(sim, "ch")
        results = []

        def master():
            for i in range(4):
                response = yield from channel.transport(i)
                results.append(response)

        def slave():
            yield from channel.serve(lambda request: request + 100)

        sim.spawn(master, "m")
        sim.spawn(slave, "s")
        sim.run(100 * NS)
        assert results == [100, 101, 102, 103]
