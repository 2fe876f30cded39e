"""Unit tests for the BusInterfaceChannel guarded-method contract."""

import pytest

from repro.core import CommandType, DataType
from repro.core.bus_interface import BusInterfaceChannel
from repro.hdl import Module
from repro.iface import InterfaceElement
from repro.kernel import NS, Simulator, Timeout
from repro.osss import GlobalObject, RoundRobinArbiter


class TestChannelStateMachine:
    """Direct (non-simulated) exercise of the shared object's semantics."""

    def test_put_then_get(self):
        channel = BusInterfaceChannel()
        command = CommandType.read(0x0)
        assert not channel.is_pending_command
        epoch = channel.put_command(command)
        assert channel.is_pending_command
        got_epoch, got = channel.get_command()
        assert got is command and got_epoch == epoch
        assert not channel.is_pending_command

    def test_guards_reflect_state(self):
        channel = BusInterfaceChannel()
        put_guard = type(channel).put_command.guard
        get_guard = type(channel).get_command.guard
        data_guard = type(channel).app_data_get.guard
        assert put_guard(channel)           # empty: put allowed
        assert not get_guard(channel)       # nothing pending
        assert not data_guard(channel)      # no responses
        channel.put_command(CommandType.read(0x0))
        assert not put_guard(channel)
        assert get_guard(channel)

    def test_response_roundtrip(self):
        channel = BusInterfaceChannel()
        epoch = channel.put_command(CommandType.read(0x0))
        channel.get_command()
        response = DataType([42])
        assert channel.put_response(epoch, response)
        assert channel.is_application_read_data
        assert channel.app_data_get() is response
        assert not channel.is_application_read_data

    def test_reset_cancels_everything(self):
        channel = BusInterfaceChannel()
        epoch = channel.put_command(CommandType.read(0x0))
        channel.reset()
        assert not channel.is_pending_command
        # An in-flight response from before the reset is dropped.
        assert not channel.put_response(epoch, DataType([1]))
        assert not channel.is_application_read_data

    def test_response_capacity_guard(self):
        channel = BusInterfaceChannel(response_capacity=1)
        epoch = channel.epoch
        assert channel.has_response_space
        channel.put_response(epoch, DataType([1]))
        assert not channel.has_response_space

    def test_counters(self):
        channel = BusInterfaceChannel()
        epoch = channel.put_command(CommandType.write(0x0, [1]))
        channel.get_command()
        channel.put_response(epoch, DataType([]))
        channel.app_data_get()
        assert channel.commands_put == 1
        assert channel.commands_taken == 1
        assert channel.responses_delivered == 1


class TestBlockingThroughGlobalObject:
    """The channel's blocking semantics under the kernel."""

    @pytest.fixture
    def sim(self):
        return Simulator()

    def test_get_command_blocks_until_put(self, sim):
        top = Module(sim, "top")
        channel = GlobalObject(top, "ch", BusInterfaceChannel)
        log = []

        def protocol_side():
            __, command = yield from channel.call("get_command")
            log.append((command.address, sim.time))

        def application_side():
            yield Timeout(25 * NS)
            yield from channel.call("put_command", CommandType.read(0x40))

        sim.spawn(protocol_side, "proto")
        sim.spawn(application_side, "app")
        sim.run(100 * NS)
        assert log == [(0x40, 25 * NS)]

    def test_second_put_blocks_until_get(self, sim):
        top = Module(sim, "top")
        channel = GlobalObject(top, "ch", BusInterfaceChannel)
        order = []

        def application_side():
            yield from channel.call("put_command", CommandType.read(0x0))
            order.append("put1")
            yield from channel.call("put_command", CommandType.read(0x4))
            order.append("put2")

        def protocol_side():
            yield Timeout(50 * NS)
            yield from channel.call("get_command")
            order.append("get1")

        sim.spawn(application_side, "app")
        sim.spawn(protocol_side, "proto")
        sim.run(200 * NS)
        assert order == ["put1", "get1", "put2"]


class TestBusInterfaceBase:
    def test_describe_metadata(self):
        sim = Simulator()
        iface = InterfaceElement(sim, "iface", arbiter=RoundRobinArbiter())
        info = iface.describe()
        assert info["bus"] == "abstract"
        assert info["path"] == "iface"
        assert iface.channel.space.arbiter.kind == "round_robin"

    def test_connect_application_merges_spaces(self):
        sim = Simulator()
        iface = InterfaceElement(sim, "iface")
        top = Module(sim, "app_host")
        app_handle = GlobalObject(top, "port", BusInterfaceChannel)
        iface.connect_application(app_handle)
        assert app_handle.space is iface.channel.space
