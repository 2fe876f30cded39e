"""Unit tests for global objects: shared state, blocking guards, queueing."""

import pytest

from repro.errors import ArbitrationError, GuardTimeoutError, SimulationError
from repro.hdl import Module
from repro.instrument.probes import METHOD_GRANT
from repro.kernel import NS, Simulator, Timeout
from repro.osss import (
    FcfsArbiter,
    GlobalObject,
    StaticPriorityArbiter,
    connect,
    guarded_method,
)
from repro.telemetry.scorecard import fairness_index


class Mailbox:
    """One-slot mailbox: the canonical guarded-method object."""

    def __init__(self):
        self.slot = None

    @guarded_method(lambda self: self.slot is None)
    def put(self, item):
        self.slot = item

    @guarded_method(lambda self: self.slot is not None)
    def get(self):
        item, self.slot = self.slot, None
        return item


class Host(Module):
    def __init__(self, parent, name, cls=Mailbox, **kwargs):
        super().__init__(parent, name)
        self.obj = GlobalObject(self, "obj", cls, **kwargs)


@pytest.fixture
def sim():
    return Simulator()


class TestSharedState:
    def test_figure1_shared_bistable(self, sim):
        """The paper's Figure 1 scenario, exactly."""

        class Bistable:
            def __init__(self):
                self.state = False

            @guarded_method()
            def set(self):
                self.state = True

            @guarded_method()
            def get_state(self):
                return self.state

        host_a = Host(sim, "m1", Bistable)
        host_b = Host(sim, "m2", Bistable)
        top = GlobalObject(host_a, "top_b", Bistable)
        connect(host_a.obj, host_b.obj, top)
        log = []

        def setter():
            yield Timeout(10 * NS)
            yield from host_a.obj.set()

        def getter():
            yield Timeout(20 * NS)
            value = yield from host_b.obj.get_state()
            log.append(value)

        sim.spawn(setter, "s")
        sim.spawn(getter, "g")
        sim.run(100 * NS)
        assert log == [True]
        assert host_b.obj.state is host_a.obj.state

    def test_unconnected_objects_have_separate_state(self, sim):
        host_a = Host(sim, "a")
        host_b = Host(sim, "b")
        assert host_a.obj.state is not host_b.obj.state

    def test_connect_is_transitive(self, sim):
        hosts = [Host(sim, f"h{i}") for i in range(4)]
        hosts[0].obj.connect(hosts[1].obj)
        hosts[2].obj.connect(hosts[3].obj)
        hosts[1].obj.connect(hosts[2].obj)
        spaces = {id(h.obj.space) for h in hosts}
        assert len(spaces) == 1

    def test_connect_different_classes_rejected(self, sim):
        class Other:
            @guarded_method()
            def noop(self):
                pass

        host_a = Host(sim, "a")
        host_b = Host(sim, "b", Other)
        with pytest.raises(SimulationError):
            host_a.obj.connect(host_b.obj)

    def test_connect_empty_rejected(self):
        with pytest.raises(SimulationError):
            connect()

    def test_double_connect_is_noop(self, sim):
        host_a = Host(sim, "a")
        host_b = Host(sim, "b")
        host_a.obj.connect(host_b.obj)
        host_a.obj.connect(host_b.obj)
        assert host_a.obj.space is host_b.obj.space

    def test_two_explicit_arbiters_rejected(self, sim):
        host_a = Host(sim, "a", arbiter=FcfsArbiter())
        host_b = Host(sim, "b", arbiter=FcfsArbiter())
        with pytest.raises(ArbitrationError):
            host_a.obj.connect(host_b.obj)

    def test_explicit_arbiter_wins_group(self, sim):
        arbiter = StaticPriorityArbiter({"b.obj": 0})
        host_a = Host(sim, "a")
        host_b = Host(sim, "b", arbiter=arbiter)
        host_a.obj.connect(host_b.obj)
        assert host_a.obj.space.arbiter is arbiter


class TestBlockingSemantics:
    def test_guard_suspends_until_true(self, sim):
        host = Host(sim, "h")
        log = []

        def consumer():
            item = yield from host.obj.get()  # blocks: slot empty
            log.append((item, sim.time))

        def producer():
            yield Timeout(30 * NS)
            yield from host.obj.put("hello")

        sim.spawn(consumer, "c")
        sim.spawn(producer, "p")
        sim.run(100 * NS)
        assert log == [("hello", 30 * NS)]

    def test_put_blocks_when_full(self, sim):
        host = Host(sim, "h")
        log = []

        def producer():
            yield from host.obj.put(1)
            yield from host.obj.put(2)  # blocks until get
            log.append(("second put", sim.time))

        def consumer():
            yield Timeout(50 * NS)
            item = yield from host.obj.get()
            log.append(("got", item, sim.time))

        sim.spawn(producer, "p")
        sim.spawn(consumer, "c")
        sim.run(200 * NS)
        assert ("got", 1, 50 * NS) in log
        assert log[-1] == ("second put", 50 * NS)

    def test_timeout_raises(self, sim):
        host = Host(sim, "h")
        errors = []

        def consumer():
            try:
                yield from host.obj.call("get", timeout=20 * NS)
            except GuardTimeoutError:
                errors.append(sim.time)

        sim.spawn(consumer, "c")
        sim.run(100 * NS)
        assert errors == [20 * NS]

    def test_timeout_cancels_request(self, sim):
        host = Host(sim, "h")

        def consumer():
            try:
                yield from host.obj.call("get", timeout=10 * NS)
            except GuardTimeoutError:
                pass

        sim.spawn(consumer, "c")
        sim.run(50 * NS)
        assert host.obj.space.pending == []

    def test_method_exception_propagates_to_caller(self, sim):
        class Exploder:
            @guarded_method()
            def boom(self):
                raise ValueError("bang")

        host = Host(sim, "h", Exploder)
        caught = []

        def caller():
            try:
                yield from host.obj.boom()
            except ValueError as error:
                caught.append(str(error))

        sim.spawn(caller, "c")
        sim.run(10 * NS)
        assert caught == ["bang"]

    def test_unknown_method_rejected(self, sim):
        host = Host(sim, "h")

        def caller():
            yield from host.obj.call("no_such_method")

        sim.spawn(caller, "c")
        with pytest.raises(SimulationError):
            sim.run(10 * NS)

    def test_attribute_sugar_unknown_name(self, sim):
        host = Host(sim, "h")
        with pytest.raises(AttributeError):
            host.obj.no_such_method

    def test_plain_method_callable_through_channel(self, sim):
        class WithPlain:
            def helper(self):
                return 99

        host = Host(sim, "h", WithPlain)
        results = []

        def caller():
            value = yield from host.obj.call("helper")
            results.append(value)

        sim.spawn(caller, "c")
        sim.run(10 * NS)
        assert results == [99]


class TestQueueingAndStats:
    def test_concurrent_calls_are_serialised(self, sim):
        class Appender:
            def __init__(self):
                self.log = []

            @guarded_method()
            def add(self, tag):
                self.log.append(tag)

        host = Host(sim, "h", Appender)
        others = [Host(sim, f"o{i}", Appender) for i in range(3)]
        connect(host.obj, *[o.obj for o in others])

        def make_caller(handle, tag):
            def caller():
                yield from handle.add(tag)
            return caller

        for i, other in enumerate(others):
            sim.spawn(make_caller(other.obj, i), f"c{i}")
        sim.run(100 * NS)
        assert sorted(host.obj.state.log) == [0, 1, 2]
        assert host.obj.stats.total_completed == 3

    def test_wait_time_recorded(self, sim):
        host = Host(sim, "h")
        granted = []
        sim.probes.subscribe(
            METHOD_GRANT, lambda time, space, request: granted.append(request)
        )

        def consumer():
            yield from host.obj.get()

        def producer():
            yield Timeout(40 * NS)
            yield from host.obj.put("x")

        sim.spawn(consumer, "c")
        sim.spawn(producer, "p")
        sim.run(100 * NS)
        (get,) = [request for request in granted if request.method == "get"]
        assert get.grant_time - get.arrival_time >= 40 * NS

    def test_service_time_delays_completion(self, sim):
        host = Host(sim, "h", service_time=25 * NS)
        done = []

        def caller():
            yield from host.obj.put("x")
            done.append(sim.time)

        sim.spawn(caller, "c")
        sim.run(100 * NS)
        assert done == [25 * NS]

    def test_connect_after_traffic_rejected(self, sim):
        host_a = Host(sim, "a")
        host_b = Host(sim, "b")

        def caller():
            yield from host_a.obj.put(1)

        sim.spawn(caller, "c")
        sim.run(10 * NS)
        with pytest.raises(SimulationError):
            host_a.obj.connect(host_b.obj)

    def test_fairness_index(self, sim):
        host = Host(sim, "h")
        stats = host.obj.stats
        assert fairness_index(stats.grants_by_client.values()) is None
        stats.grants_by_client = {"a": 5, "b": 5}
        assert fairness_index(stats.grants_by_client.values()) == 1.0
        stats.grants_by_client = {"a": 9, "b": 1}
        assert fairness_index(stats.grants_by_client.values()) == (
            pytest.approx(100 / 164)
        )
