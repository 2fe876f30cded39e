"""Expression evaluation, levelization and the EvalSchedule artifact."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.analyze import EvaluationError, NetGraph, evaluate_expr, levelize
from repro.synthesis.ir import (
    BinOp,
    BitSelect,
    Concat,
    Const,
    Fsm,
    Mux,
    RtlModule,
    UnOp,
)


#: Builds a netlist with twelve two-net loops and a branching cycle (c
#: feeds back through d and through e), declaring the nets in reverse
#: name order with ``argv[1]`` bytes of padding allocated between them,
#: and prints the loops its analysis reports.
_LOOPS_SCRIPT = """
import json
import sys

from repro.analyze.passes import ModuleAnalysis
from repro.synthesis.ir import BinOp, RtlModule

sources = {"c": ("d", "e"), "d": ("c",), "e": ("c",)}
for index in range(12):
    sources[f"p{index:02d}"] = (f"q{index:02d}",)
    sources[f"q{index:02d}"] = (f"p{index:02d}",)
module = RtlModule("loops")
padding, nets = [], {}
for name in sorted(sources, reverse=True):
    padding.append(bytearray(int(sys.argv[1]) * (len(nets) % 7)))
    nets[name] = module.add_net(name, 1)
for target, names in sources.items():
    expr = nets[names[0]].ref()
    for name in names[1:]:
        expr = BinOp("|", expr, nets[name].ref())
    module.add_assign(nets[target], expr)
print(json.dumps(ModuleAnalysis(module).to_dict()["loops"]))
"""


def _net(width=4, name="n"):
    module = RtlModule("scratch")
    return module.add_net(name, width)


class TestEvaluateExpr:
    def test_const_and_ref(self):
        net = _net()
        assert evaluate_expr(Const(9, 4), {}) == 9
        assert evaluate_expr(net.ref(), {"n": 5}) == 5

    def test_missing_net_raises(self):
        net = _net()
        with pytest.raises(EvaluationError):
            evaluate_expr(net.ref(), {})

    def test_unops(self):
        net = _net(4)
        env = {"n": 0b1010}
        assert evaluate_expr(UnOp("~", net.ref()), env) == 0b0101
        assert evaluate_expr(UnOp("|", net.ref()), env) == 1
        assert evaluate_expr(UnOp("&", net.ref()), env) == 0
        assert evaluate_expr(UnOp("&", net.ref()), {"n": 0b1111}) == 1

    def test_binops(self):
        left, right = Const(6, 4), Const(3, 4)
        cases = {"&": 2, "|": 7, "^": 5, "+": 9, "-": 3,
                 "==": 0, "!=": 1, "<": 0}
        for op, expected in cases.items():
            assert evaluate_expr(BinOp(op, left, right), {}) == expected

    def test_arithmetic_wraps_to_width(self):
        assert evaluate_expr(BinOp("+", Const(15, 4), Const(1, 4)), {}) == 0
        assert evaluate_expr(BinOp("-", Const(0, 4), Const(1, 4)), {}) == 15

    def test_mux_bitselect_concat(self):
        sel = Const(1, 1)
        assert evaluate_expr(Mux(sel, Const(3, 4), Const(7, 4)), {}) == 3
        assert evaluate_expr(BitSelect(Const(0b100, 3), 2), {}) == 1
        # First Concat part is most significant.
        assert evaluate_expr(Concat(Const(1, 1), Const(0, 2)), {}) == 0b100

    def test_bitselect_ignores_stale_high_env_bits(self):
        net = _net(4)
        # The top in-range bit reads from the masked wire value, not
        # from stale bits the environment carries above the net width.
        assert evaluate_expr(BitSelect(net.ref(), 3), {"n": 0b10111}) == 0
        assert evaluate_expr(BitSelect(net.ref(), 0), {"n": 0b10111}) == 1

    def test_concat_masks_over_wide_parts(self):
        net = _net(2)
        # A 2-bit ref fed an over-wide environment value must not smear
        # its extra bits into the neighbouring concat lanes.
        expr = Concat(Const(1, 1), net.ref())
        assert evaluate_expr(expr, {"n": 0b1111}) == 0b111


class TestLevelize:
    def test_linear_chain(self):
        module = RtlModule("m")
        a = module.add_port("a", "in", 1)
        w1 = module.add_net("w1", 1)
        w2 = module.add_net("w2", 1)
        module.add_assign(w1, a.ref())
        module.add_assign(w2, w1.ref())
        result = levelize(NetGraph(module))
        assert result.ok and not result.loops
        schedule = result.schedule
        assert schedule.depth == 2
        assert [s.target.name for s in schedule.levels[0]] == ["w1"]
        assert [s.target.name for s in schedule.levels[1]] == ["w2"]
        assert {n.name for n in schedule.boundary_nets()} == {"a"}
        env = schedule.evaluate({"a": 1})
        assert env["w1"] == 1 and env["w2"] == 1

    def test_comb_loop_detected(self):
        module = RtlModule("m")
        a = module.add_net("a", 1)
        b = module.add_net("b", 1)
        module.add_assign(a, b.ref())
        module.add_assign(b, a.ref())
        result = levelize(NetGraph(module))
        assert not result.ok and result.schedule is None
        (loop,) = result.loops
        assert {n.name for n in loop.nets} == {"a", "b"}
        assert loop.describe().count("->") == 2  # closed path

    def test_loop_plus_clean_logic(self):
        """Nets outside the cycle still matter; only the cycle reports."""
        module = RtlModule("m")
        p = module.add_port("p", "in", 1)
        ok = module.add_net("ok", 1)
        a = module.add_net("a", 1)
        b = module.add_net("b", 1)
        tail = module.add_net("tail", 1)
        module.add_assign(ok, p.ref())
        module.add_assign(a, b.ref())
        module.add_assign(b, a.ref())
        module.add_assign(tail, a.ref())  # stuck only through the loop
        result = levelize(NetGraph(module))
        assert len(result.loops) == 1

    def test_loops_report_the_same_in_every_process(self):
        """Which cycle NET003 reports, and in what order, must not follow
        the object addresses: two fresh interpreters that allocate
        differently before building the netlist print the same loops."""
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        path = os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])
        )
        printed = set()
        for padding in ("0", "48"):
            result = subprocess.run(
                [sys.executable, "-c", _LOOPS_SCRIPT, padding],
                env={**os.environ, "PYTHONPATH": path},
                capture_output=True, text=True, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            printed.add(result.stdout)
        (output,) = printed
        assert json.loads(output) == ["d -> c -> d"] + [
            f"q{index:02d} -> p{index:02d} -> q{index:02d}"
            for index in range(12)
        ]

    def test_fsm_output_step(self):
        module = RtlModule("m")
        go = module.add_port("go", "in", 1)
        busy = module.add_net("busy", 1)
        fsm = Fsm("ctrl", ["IDLE", "RUN"], "IDLE")
        fsm.add_transition("IDLE", go.ref(), "RUN")
        fsm.add_transition("RUN", None, "IDLE")
        fsm.moore_outputs["RUN"] = [(busy, 1)]
        module.add_fsm(fsm)
        result = levelize(NetGraph(module))
        assert result.ok
        env = result.schedule.evaluate(
            {fsm.state_register.name: fsm.encode("RUN")}
        )
        assert env["busy"] == 1
        env = result.schedule.evaluate(
            {fsm.state_register.name: fsm.encode("IDLE")}
        )
        assert env["busy"] == 0  # Moore default

    def test_width1_boundary_masked_on_entry(self):
        """A truthy-but-not-1 value on a width-1 boundary net behaves
        like the wire it names: only bit 0 is visible downstream."""
        module = RtlModule("m")
        a = module.add_port("a", "in", 1)
        w = module.add_net("w", 1)
        inv = module.add_net("inv", 1)
        module.add_assign(w, a.ref())
        module.add_assign(inv, UnOp("~", a.ref()))
        schedule = levelize(NetGraph(module)).schedule
        env = schedule.evaluate({"a": 2})  # truthy, but bit 0 is clear
        assert env["a"] == 0
        assert env["w"] == 0
        assert env["inv"] == 1

    def test_over_wide_state_register_decodes_truncated(self):
        """Stale high bits on the state value must not silently turn
        every Moore output into the default 0."""
        module = RtlModule("m")
        go = module.add_port("go", "in", 1)
        busy = module.add_net("busy", 1)
        fsm = Fsm("ctrl", ["IDLE", "RUN"], "IDLE")
        fsm.add_transition("IDLE", go.ref(), "RUN")
        fsm.add_transition("RUN", None, "IDLE")
        fsm.moore_outputs["RUN"] = [(busy, 1)]
        module.add_fsm(fsm)
        schedule = levelize(NetGraph(module)).schedule
        width = fsm.state_register.width
        value = fsm.encode("RUN") | (1 << width)  # one stale bit up top
        env = schedule.evaluate({fsm.state_register.name: value})
        assert env["busy"] == 1
        assert env[fsm.state_register.name] == fsm.encode("RUN")

    def test_constant_folded_boundary_net(self):
        """A boundary net tied to a constant upstream still evaluates
        masked, and comparisons against folded constants hold."""
        module = RtlModule("m")
        a = module.add_port("a", "in", 4)
        eq = module.add_net("eq", 1)
        module.add_assign(eq, BinOp("==", a.ref(), Const(5, 4)))
        schedule = levelize(NetGraph(module)).schedule
        # 0x15 & 0xF == 5: the over-wide constant must still compare equal.
        assert schedule.evaluate({"a": 0x15})["eq"] == 1
        assert schedule.evaluate({"a": 0x25})["eq"] == 1
        assert schedule.evaluate({"a": 6})["eq"] == 0

    def test_describe_lists_levels(self):
        module = RtlModule("m")
        a = module.add_port("a", "in", 1)
        w = module.add_net("w", 1)
        module.add_assign(w, a.ref())
        text = levelize(NetGraph(module)).schedule.describe()
        assert "schedule m" in text and "level 0: w" in text
