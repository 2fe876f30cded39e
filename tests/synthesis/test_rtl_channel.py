"""Tests of the executable RT-level method channel."""

import pytest

from repro.errors import SynthesisError
from repro.hdl import Clock, Module
from repro.kernel import MS, NS, Simulator, Timeout
from repro.osss import (
    GlobalObject,
    RoundRobinArbiter,
    StaticPriorityArbiter,
    connect,
    guarded_method,
)
from repro.synthesis import SynthesisConfig, synthesize_communication
from repro.telemetry.scorecard import fairness_index

CLOCK_PERIOD = 10 * NS


class TokenStore:
    def __init__(self):
        self.tokens = 0
        self.history = []

    @guarded_method()
    def deposit(self, n=1):
        self.tokens += n
        self.history.append(("deposit", n))
        return self.tokens

    @guarded_method(lambda self: self.tokens > 0)
    def withdraw(self):
        self.tokens -= 1
        self.history.append(("withdraw", 1))
        return self.tokens

    @guarded_method()
    def explode(self):
        raise RuntimeError("kaboom")


class Host(Module):
    def __init__(self, parent, name, arbiter=None):
        super().__init__(parent, name)
        self.obj = GlobalObject(self, "obj", TokenStore, arbiter=arbiter)


def _build(n_hosts=2, arbiter=None, body_cycles=1):
    sim = Simulator()
    clock = Clock(sim, "clock", period=CLOCK_PERIOD)
    hosts = [Host(sim, f"h{i}", arbiter if i == 0 else None)
             for i in range(n_hosts)]
    connect(*[h.obj for h in hosts])
    result = synthesize_communication(
        sim, clock.clk, SynthesisConfig(body_cycles=body_cycles, emit_hdl=False)
    )
    return sim, hosts, result.groups[0].channel


class TestLoweredCalls:
    def test_basic_call_roundtrip(self):
        sim, hosts, channel = _build()
        results = []

        def caller():
            value = yield from hosts[0].obj.deposit(5)
            results.append((value, sim.time))

        sim.spawn(caller, "c")
        sim.run(1 * MS)
        assert results and results[0][0] == 5
        # The call took a handful of clock cycles, not zero time.
        assert results[0][1] >= 2 * CLOCK_PERIOD
        assert channel.calls_serviced == 1

    def test_guard_blocks_until_state_allows(self):
        sim, hosts, channel = _build()
        log = []

        def consumer():
            value = yield from hosts[1].obj.withdraw()
            log.append(("withdraw_done", sim.time))

        def producer():
            yield Timeout(500 * NS)
            yield from hosts[0].obj.deposit(1)

        sim.spawn(consumer, "c")
        sim.spawn(producer, "p")
        sim.run(2 * MS)
        assert log and log[0][1] > 500 * NS

    def test_exception_propagates(self):
        sim, hosts, __ = _build()
        caught = []

        def caller():
            try:
                yield from hosts[0].obj.explode()
            except RuntimeError as error:
                caught.append(str(error))

        sim.spawn(caller, "c")
        sim.run(1 * MS)
        assert caught == ["kaboom"]

    def test_concurrent_callers_serialised(self):
        sim, hosts, channel = _build(n_hosts=4)
        done = []

        def make(index):
            def caller():
                yield from hosts[index].obj.deposit(1)
                done.append(index)
            return caller

        for i in range(4):
            sim.spawn(make(i), f"c{i}")
        sim.run(2 * MS)
        assert sorted(done) == [0, 1, 2, 3]
        assert hosts[0].obj.state.tokens == 4
        assert channel.calls_serviced == 4

    def test_two_processes_share_one_port(self):
        sim, hosts, channel = _build(n_hosts=1)
        done = []

        def caller_a():
            yield from hosts[0].obj.deposit(1)
            done.append("a")

        def caller_b():
            yield from hosts[0].obj.deposit(1)
            done.append("b")

        sim.spawn(caller_a, "a")
        sim.spawn(caller_b, "b")
        sim.run(2 * MS)
        assert sorted(done) == ["a", "b"]
        assert hosts[0].obj.state.tokens == 2

    def test_body_cycles_charged(self):
        def run_with(body_cycles):
            sim, hosts, channel = _build(body_cycles=body_cycles)
            stamp = []

            def caller():
                yield from hosts[0].obj.deposit(1)
                stamp.append(sim.time)

            sim.spawn(caller, "c")
            sim.run(2 * MS)
            return stamp[0]

        assert run_with(8) > run_with(1)

    def test_timeout_not_supported(self):
        sim, hosts, __ = _build()

        def caller():
            yield from hosts[0].obj.call("deposit", 1, timeout=100 * NS)

        sim.spawn(caller, "c")
        with pytest.raises(SynthesisError):
            sim.run(1 * MS)

    def test_stats_still_recorded(self):
        sim, hosts, channel = _build()

        def caller():
            yield from hosts[0].obj.deposit(1)
            yield from hosts[0].obj.withdraw()

        sim.spawn(caller, "c")
        sim.run(2 * MS)
        stats = hosts[0].obj.stats
        assert stats.total_completed == 2
        assert channel.mean_call_cycles(CLOCK_PERIOD) > 0


class TestArbitrationPolicies:
    def test_priority_order_under_contention(self):
        arbiter = StaticPriorityArbiter({"h2.obj": 0, "h1.obj": 1, "h0.obj": 2})
        sim, hosts, channel = _build(n_hosts=3, arbiter=arbiter)
        order = []

        def make(index):
            def caller():
                yield from hosts[index].obj.deposit(1)
                order.append(index)
            return caller

        # All three request in the same delta; priority decides service order.
        for i in range(3):
            sim.spawn(make(i), f"c{i}")
        sim.run(2 * MS)
        assert order == [2, 1, 0]

    def test_round_robin_shares_under_load(self):
        sim, hosts, channel = _build(n_hosts=2, arbiter=RoundRobinArbiter())
        counts = {0: 0, 1: 0}

        def make(index):
            def caller():
                for __ in range(10):
                    yield from hosts[index].obj.deposit(1)
                    counts[index] += 1
            return caller

        for i in range(2):
            sim.spawn(make(i), f"c{i}")
        sim.run(20 * MS)
        assert counts == {0: 10, 1: 10}
        fairness = fairness_index(hosts[0].obj.stats.grants_by_client.values())
        assert fairness > 0.95
