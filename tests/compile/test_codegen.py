"""Code generation semantics of the compiled fast-sim backend.

Every check here pins the generated Python to the interpreted
reference: expression lowering against :func:`evaluate_expr` semantics,
the two-phase register commit, external-input closure errors, and the
seeded random cross-check against :class:`EvalSchedule` on a real
synthesized channel netlist.
"""

import pytest

from repro.analyze import ModuleAnalysis
from repro.analyze.schedule import EvaluationError
from repro.compile import CodegenError, compile_module, emit_yosys_script
from repro.core.workload import _Lcg
from repro.synthesis.channel_synth import build_channel_ir
from repro.synthesis.ir import BinOp, Concat, Const, Fsm, Mux, RtlModule, UnOp

from tests.analyze.test_passes import build_synthesized_design


def _comb_module():
    module = RtlModule("comb")
    a = module.add_port("a", "in", 4)
    b = module.add_port("b", "in", 4)
    out = module.add_port("out", "out", 4)
    w = module.add_net("w", 4)
    module.add_assign(w, BinOp("+", a.ref(), b.ref()))
    module.add_assign(out, UnOp("~", w.ref()))
    return module


class TestCombLowering:
    def test_matches_schedule_on_vectors(self):
        analysis = ModuleAnalysis(_comb_module())
        netlist = compile_module(analysis)
        schedule = analysis.schedule
        for a in range(16):
            for b in range(16):
                env = {"a": a, "b": b}
                assert netlist.comb(env) == schedule.evaluate(env)

    def test_arithmetic_wraps_to_width(self):
        module = _comb_module()
        netlist = compile_module(ModuleAnalysis(module))
        out = netlist.comb({"a": 15, "b": 1})
        assert out["w"] == 0 and out["out"] == 15

    def test_boundary_values_masked_on_entry(self):
        module = _comb_module()
        netlist = compile_module(ModuleAnalysis(module))
        # Over-wide boundary values behave like the wires they name —
        # exactly the EvalSchedule.evaluate semantics.
        assert netlist.comb({"a": 0x13, "b": 0}) == \
            netlist.comb({"a": 0x3, "b": 0})

    def test_missing_input_raises_evaluation_error(self):
        netlist = compile_module(ModuleAnalysis(_comb_module()))
        with pytest.raises(EvaluationError, match="no value for net 'b'"):
            netlist.comb({"a": 1})

    def test_mux_and_concat_lowering(self):
        module = RtlModule("m")
        s = module.add_port("s", "in", 1)
        a = module.add_port("a", "in", 2)
        out = module.add_port("out", "out", 3)
        module.add_assign(
            out, Mux(s.ref(), Concat(Const(1, 1), a.ref()), Const(0, 3))
        )
        netlist = compile_module(ModuleAnalysis(module))
        assert netlist.comb({"s": 1, "a": 0b10})["out"] == 0b110
        assert netlist.comb({"s": 0, "a": 0b10})["out"] == 0


class TestCycleSemantics:
    def _register_chain(self):
        module = RtlModule("chain")
        d = module.add_port("d", "in", 4)
        q0 = module.add_register("q0", 4, 0)
        q1 = module.add_register("q1", 4, 0)
        out = module.add_port("out", "out", 4)
        module.add_clocked_assign(q0, d.ref())
        module.add_clocked_assign(q1, q0.ref())
        module.add_assign(out, q1.ref())
        return module

    def test_two_phase_commit(self):
        """q1 must load q0's OLD value — registers update together."""
        netlist = compile_module(ModuleAnalysis(self._register_chain()))
        regs = netlist.reset_registers()
        outs = {}
        netlist.cycle(regs, {"d": 5}, outs)
        assert (regs["q0"], regs["q1"]) == (5, 0)
        netlist.cycle(regs, {"d": 9}, outs)
        assert (regs["q0"], regs["q1"]) == (9, 5)
        assert outs["out"] == 5  # output cone sees the NEW registers

    def test_reset_registers_fresh_dict(self):
        netlist = compile_module(ModuleAnalysis(self._register_chain()))
        regs = netlist.reset_registers()
        regs["q0"] = 7
        assert netlist.reset_registers()["q0"] == 0

    def test_fsm_dispatch(self):
        module = RtlModule("fsm")
        go = module.add_port("go", "in", 1)
        busy = module.add_port("busy", "out", 1)
        fsm = Fsm("ctrl", ["IDLE", "RUN"], "IDLE")
        fsm.add_transition("IDLE", go.ref(), "RUN")
        fsm.add_transition("RUN", None, "IDLE")
        fsm.moore_outputs["RUN"] = [(busy, 1)]
        module.add_fsm(fsm)
        netlist = compile_module(ModuleAnalysis(module))
        regs = netlist.reset_registers()
        state = fsm.state_register.name
        outs = {}
        netlist.cycle(regs, {"go": 0}, outs)
        assert regs[state] == fsm.encode("IDLE") and outs["busy"] == 0
        netlist.cycle(regs, {"go": 1}, outs)
        assert regs[state] == fsm.encode("RUN") and outs["busy"] == 1
        netlist.cycle(regs, {"go": 0}, outs)
        assert regs[state] == fsm.encode("IDLE") and outs["busy"] == 0


class TestClosureErrors:
    def test_comb_loop_rejected(self):
        module = RtlModule("loop")
        a = module.add_net("a", 1)
        b = module.add_net("b", 1)
        module.add_assign(a, b.ref())
        module.add_assign(b, a.ref())
        with pytest.raises(CodegenError, match="loop"):
            compile_module(ModuleAnalysis(module))

    def test_skipped_register_read_rejected(self):
        module = RtlModule("m")
        out = module.add_port("out", "out", 4)
        r = module.add_register("arb_age", 4, 0)
        module.add_clocked_assign(r, Const(1, 4))
        module.add_assign(out, r.ref())
        with pytest.raises(CodegenError, match="arb_age"):
            compile_module(ModuleAnalysis(module), skip_register_prefixes=("arb_",))

    def test_external_inputs_stay_external(self):
        module = RtlModule("m")
        out = module.add_port("out", "out", 4)
        sel = module.add_net("ext_sel", 4)
        module.add_assign(out, sel.ref())
        netlist = compile_module(ModuleAnalysis(module), external=("ext_sel",))
        assert "ext_sel" in netlist.input_names
        regs = netlist.reset_registers()
        outs = {}
        netlist.cycle(regs, {"ext_sel": 3}, outs)
        assert outs["out"] == 3


class TestChannelNetlistCrossCheck:
    def test_random_vectors_match_schedule(self):
        """The generated comb code of a real synthesized channel netlist
        agrees with the interpreted EvalSchedule on seeded vectors."""
        __, result = build_synthesized_design()
        analysis = result.groups[0].analyses[0]
        netlist = compile_module(analysis)
        schedule = analysis.schedule
        boundary = sorted(
            schedule.boundary_nets(), key=lambda net: net.name
        )
        rng = _Lcg(0xC0DE)
        for _ in range(64):
            env = {
                net.name: rng.next_int(1 << min(net.width, 30))
                for net in boundary
            }
            assert netlist.comb(env) == schedule.evaluate(env)

    @pytest.mark.parametrize("arbiter", ["fcfs", "round_robin", "random"])
    def test_positional_step_matches_cycle(self, arbiter):
        """``_step`` on register and input slots is ``_cycle`` without
        the dicts: the same next registers for every in-range pre-edge
        picture."""
        n = 3
        module = build_channel_ir("ch", n, ["get", "put"], arbiter)
        external = ["arb_grant_index"] + [f"eligible_{i}" for i in range(n)]
        netlist = compile_module(
            ModuleAnalysis(module), external=external, skip_register_prefixes=("arb_",),
        )
        nets = {net.name: net for net in module.all_nets()}
        assert netlist.step_inputs == (
            [f"req_{i}" for i in range(n)] + [f"method_{i}" for i in range(n)]
            + ["arg_data"] + external
        )
        rng = _Lcg(0x5EED)
        for _ in range(200):
            regs = {
                name: rng.next_int(1 << nets[name].width)
                for name in netlist.register_names
            }
            ins = {
                name: rng.next_int(1 << min(nets[name].width, 30))
                for name in netlist.step_inputs
            }
            stepped = netlist.step(*regs.values(), *ins.values())
            netlist.cycle(regs, ins, {})
            assert stepped == tuple(regs.values())

    def test_stats_and_describe(self):
        __, result = build_synthesized_design()
        netlist = compile_module(result.groups[0].analyses[0])
        assert netlist.stats["comb_steps"] > 0
        assert netlist.stats["levels"] >= 2
        assert netlist.register_names
        assert "registers" in netlist.describe()
        assert "def _cycle" in netlist.source


class TestYosysScript:
    def test_conventional_pass_ladder(self):
        script = emit_yosys_script(
            ["chan.v", "obj.v"], "chan", liberty="cells.lib",
            output="mapped.v",
        )
        lines = script.splitlines()
        assert "read -sv chan.v" in lines
        assert "read -sv obj.v" in lines
        assert "hierarchy -check -top chan" in lines
        # The proc/fsm/memory/techmap ladder, in order, then mapping.
        order = [
            lines.index("proc; opt"),
            lines.index("fsm; opt"),
            lines.index("memory; opt"),
            lines.index("techmap; opt"),
            lines.index("dfflibmap -liberty cells.lib"),
            lines.index("abc -liberty cells.lib"),
            lines.index("write_verilog mapped.v"),
        ]
        assert order == sorted(order)
