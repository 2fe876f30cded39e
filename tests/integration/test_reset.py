"""End-to-end tests of the interface's reset() guarded method.

The paper: *"This method is invoked in order to reset the interface. It
cancels all the pending commands and perform other initialising
operations."* The epoch mechanism additionally drops responses of
operations that were already in flight on the bus when reset hit.
"""

from repro.core import CommandType, FunctionalBusInterface
from repro.flow import build_platform
from repro.hdl import Module
from repro.kernel import MS, NS, Simulator, Timeout
from repro.tlm import AddressRouter, Memory


def _functional_fixture(word_latency=0):
    sim = Simulator()
    top = Module(sim, "top")
    memory = Memory(1 << 12)
    router = AddressRouter()
    router.add_target(0, 1 << 12, memory, "mem")
    iface = FunctionalBusInterface(top, "iface", router,
                                   word_latency=word_latency)
    return sim, top, memory, iface


class TestResetSemantics:
    def test_reset_cancels_pending_command(self):
        sim, top, memory, iface = _functional_fixture(word_latency=10**9)
        log = []

        def controller():
            # Stuff the single command slot, then reset before the slow
            # dispatcher finishes; a second put must then go straight in.
            yield from iface.channel.call(
                "put_command", CommandType.write(0x0, [1])
            )
            yield from iface.channel.call(
                "put_command", CommandType.write(0x4, [2])
            )
            yield from iface.channel.call("reset")
            log.append("reset done")
            # The slot is free immediately after reset.
            yield from iface.channel.call(
                "put_command", CommandType.write(0x8, [3])
            )
            log.append("post-reset put accepted")

        sim.spawn(controller, "ctrl")
        sim.run(100 * MS)
        assert log == ["reset done", "post-reset put accepted"]

    def test_stale_response_dropped_after_reset(self):
        # 1 ms per word: the read is still "on the bus" when reset hits.
        sim, top, memory, iface = _functional_fixture(word_latency=10**12)
        memory.load(0x0, [0x1234])
        outcome = {}

        def controller():
            yield from iface.channel.call(
                "put_command", CommandType.read(0x0)
            )
            yield Timeout(10 * NS)       # dispatcher has taken the command
            yield from iface.channel.call("reset")
            # Wait long enough for the in-flight read to try delivering.
            yield Timeout(3 * 10**12)
            state = iface.channel_state
            outcome["responses"] = len(state.responses)
            outcome["epoch"] = state.epoch
            sim.stop()

        sim.spawn(controller, "ctrl")
        sim.run(10**13)
        assert outcome["responses"] == 0      # stale response was dropped
        assert outcome["epoch"] == 1

    def _second_user_platform(self, synthesize):
        """A platform plus a second application-style user with its own
        port.

        Post-synthesis, every handle is one hardware port with a single
        outstanding call; a process must not funnel its calls through the
        *dispatcher's* handle (that can deadlock, exactly as sharing a
        physical port would) — it gets its own connected global object,
        like any application module.
        """
        from repro.core.bus_interface import BusInterfaceChannel
        from repro.osss import GlobalObject

        commands = [CommandType.write(0x10, [0xAA])]
        # Build without synthesis first so the extra handle joins the
        # group before lowering.
        bundle = build_platform([commands], bus="pci", synthesize=False)
        sim = bundle.handle.sim
        iface = bundle.interface
        user_port = GlobalObject(bundle.top, "user2_port", BusInterfaceChannel)
        iface.connect_application(user_port)
        if synthesize:
            from repro.synthesis import synthesize_communication

            synthesize_communication(sim, bundle.clock.clk)
        return bundle, sim, iface, user_port

    def _run_second_user(self, synthesize):
        bundle, sim, iface, user_port = self._second_user_platform(synthesize)
        results = {}

        def second_user():
            from repro.core.application import wait_for_all

            yield from wait_for_all(bundle.handle.applications)
            yield from user_port.call("reset")
            yield from user_port.call(
                "put_command", CommandType.write(0x20, [0xBB])
            )
            yield from user_port.call(
                "put_command", CommandType.read(0x20)
            )
            response = yield from user_port.call("app_data_get")
            results["data"] = response.data
            sim.stop()

        sim.spawn(second_user, "user2")
        # The platform's quiesce watcher may stop the run between the
        # first application finishing and the second user's traffic;
        # resuming the scheduler continues where it left off.
        for __ in range(5):
            sim.run(100 * MS)
            if "data" in results:
                break
        return bundle, results

    def test_interface_fully_usable_after_reset(self):
        bundle, results = self._run_second_user(synthesize=False)
        assert results["data"] == [0xBB]
        assert bundle.memory.read_word(0x10) == 0xAA
        assert bundle.memory.read_word(0x20) == 0xBB

    def test_reset_works_post_synthesis(self):
        bundle, results = self._run_second_user(synthesize=True)
        assert results["data"] == [0xBB]
        assert bundle.memory.read_word(0x20) == 0xBB
