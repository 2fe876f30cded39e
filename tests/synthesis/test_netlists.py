"""Unit tests for channel/object/polymorphism netlist generation."""

import pytest

from repro.core import CommandType
from repro.errors import SynthesisError
from repro.flow import build_platform
from repro.osss import PolymorphicVar, guarded_method
from repro.synthesis import (
    build_channel_ir,
    estimate_state_bits,
    synthesize_dispatch,
)
from repro.synthesis.object_synth import object_server_ir
from repro.osss.guarded_method import guarded_methods_of


class SharedThing:
    def __init__(self):
        self.flag = False
        self.count = 0
        self.items = [1, 2, 3]

    @guarded_method(lambda self: not self.flag)
    def acquire(self):
        self.flag = True

    @guarded_method(lambda self: self.flag)
    def release(self):
        self.flag = False

    @guarded_method()
    def poke(self):
        self.count += 1


class TestChannelIr:
    def test_port_inventory(self):
        module = build_channel_ir("chan", 3, ["a", "b"], "fcfs")
        names = {p.name for p in module.ports}
        for i in range(3):
            assert {f"req_{i}", f"method_{i}", f"gnt_{i}", f"done_{i}"} <= names
        assert {"clk", "rst_n", "guard_0", "guard_1", "exec_go"} <= names

    def test_has_server_fsm(self):
        module = build_channel_ir("chan", 2, ["m"], "round_robin")
        assert len(module.fsms) == 1
        assert module.fsms[0].states == ["IDLE", "EXEC", "DONE"]

    def test_body_cycles_sizes_counter(self):
        small = build_channel_ir("c1", 1, ["m"], "fcfs", body_cycles=1)
        large = build_channel_ir("c2", 1, ["m"], "fcfs", body_cycles=9)
        reg = lambda m: next(r for r in m.registers if r.name == "exec_counter")
        assert reg(large).width > reg(small).width

    def test_validation(self):
        with pytest.raises(SynthesisError):
            build_channel_ir("c", 0, ["m"], "fcfs")
        with pytest.raises(SynthesisError):
            build_channel_ir("c", 1, [], "fcfs")

    def test_resources_scale_with_clients(self):
        small = build_channel_ir("c1", 1, ["m"], "round_robin")
        large = build_channel_ir("c2", 6, ["m"], "round_robin")
        assert large.mux_count() > small.mux_count()
        assert large.flip_flop_bits() >= small.flip_flop_bits()


class TestObjectIr:
    def test_state_estimation(self):
        estimate = estimate_state_bits(SharedThing())
        assert estimate["flag"] == 1
        assert estimate["count"] == 32
        assert estimate["items"] == 96

    def test_estimation_handles_odd_types(self):
        class Odd:
            def __init__(self):
                self.nothing = None
                self.text = "hi"
                self.mapping = {"a": 1}

        estimate = estimate_state_bits(Odd())
        assert estimate["nothing"] == 1
        assert estimate["text"] == 16
        assert estimate["mapping"] == 32

    @staticmethod
    def _object_ir(thing):
        methods = guarded_methods_of(type(thing))
        return object_server_ir(
            "obj", type(thing).__name__, estimate_state_bits(thing),
            [(name, methods[name].guard is not None)
             for name in sorted(methods)],
        )

    def test_guard_ports_and_strobes(self):
        module = self._object_ir(SharedThing())
        names = {p.name for p in module.ports}
        for i in range(len(guarded_methods_of(SharedThing))):
            assert f"guard_{i}" in names
            assert f"run_{i}" in names

    def test_state_registers_created(self):
        module = self._object_ir(SharedThing())
        reg_names = {r.name for r in module.registers}
        assert {"state_flag", "state_count", "state_items"} <= reg_names

    def test_empty_methods_rejected(self):
        with pytest.raises(SynthesisError):
            object_server_ir("obj", "SharedThing", {}, [])


class Base:
    def work(self):
        raise NotImplementedError


class VariantA(Base):
    def __init__(self):
        self.small = True

    def work(self):
        return "a"


class VariantB(Base):
    def __init__(self):
        self.big = [0] * 8

    def work(self):
        return "b"


class TestDispatchSynthesis:
    def test_dispatch_module(self):
        var = PolymorphicVar(Base, [VariantA, VariantB], name="v")
        module, info = synthesize_dispatch(var)
        assert info.tag_bits == 1
        assert info.variants == ["VariantA", "VariantB"]
        # Union sized by the largest variant (8 * 32 bits).
        assert info.union_state_bits == 256
        names = {p.name for p in module.ports}
        assert "run_varianta_work" in names
        assert "run_variantb_work" in names

    def test_mux_inputs_metric(self):
        var = PolymorphicVar(Base, [VariantA, VariantB])
        __, info = synthesize_dispatch(var)
        assert info.mux_inputs == len(info.variants) * len(info.methods)

    def test_base_without_methods_rejected(self):
        class Empty:
            pass

        class Sub(Empty):
            pass

        var = PolymorphicVar(Empty, [Sub])
        with pytest.raises(SynthesisError):
            synthesize_dispatch(var)


#: The interface channel's state registers: what BusInterfaceChannel's
#: guards and bodies read (the pending command, the response FIFO and
#: its capacity, the epoch) and what the platform's drain predicate
#: reads (``commands_put``). A tally added to the shared state would be
#: synthesized as one more register that nothing reads.
INTERFACE_STATE_REGISTERS = {
    "state_commands_put",
    "state_epoch",
    "state_pending_command",
    "state_response_capacity",
    "state_responses",
}


class TestInterfaceChannelState:
    @pytest.mark.parametrize("bus", ["pci", "wishbone", "axi4lite", "tlmgp"])
    def test_only_read_state_becomes_registers(self, bus):
        bundle = build_platform(
            [[CommandType.write(0x100, [1]), CommandType.read(0x100)]],
            bus=bus, synthesize=True,
        )
        (group,) = bundle.synthesis.groups
        registers = {
            register.name for register in group.object_ir.registers
            if register.name.startswith("state_")
        }
        assert registers == INTERFACE_STATE_REGISTERS
        assert bundle.synthesis.report.total_flip_flop_bits == 184
