"""Whole-design analysis passes over real synthesized netlists.

The headline check here is the EvalSchedule equivalence test: one delta
cycle of the synthesized channel netlist, evaluated through the
levelized schedule, must reproduce the committed handshake values of
the interpreted RTL channel at every delta boundary of a live run.
"""

from repro.analyze import ModuleAnalysis, analyze_design
from repro.hdl import Clock, Module
from repro.instrument.probes import DELTA_END
from repro.kernel import NS, Simulator
from repro.osss import GlobalObject, connect, guarded_method
from repro.synthesis import SynthesisConfig, synthesize_communication
from repro.synthesis.ir import RtlModule


class Latch:
    def __init__(self):
        self.value = 0

    @guarded_method()
    def store(self, v):
        self.value = v

    @guarded_method()
    def load(self):
        return self.value


class Client(Module):
    def __init__(self, parent, name, delay):
        super().__init__(parent, name)
        self.obj = GlobalObject(self, "obj", Latch)
        self._delay = delay
        self.thread(self._work, "work")

    def _work(self):
        from repro.kernel.process import Timeout

        yield Timeout(self._delay)
        for n in range(4):
            yield from self.obj.store(n)
            yield from self.obj.load()


def build_synthesized_design():
    sim = Simulator()
    clock = Clock(sim, "clock", period=10 * NS)
    clients = [Client(sim, f"c{i}", delay=7 * i) for i in range(2)]
    connect(*(c.obj for c in clients))
    result = synthesize_communication(
        sim, clock.clk, SynthesisConfig(emit_hdl=False)
    )
    return sim, result


class TestAnalyzeModule:
    def test_stats(self):
        module = RtlModule("m")
        a = module.add_port("a", "in", 1)
        out = module.add_port("out", "out", 1)
        module.add_register("r", 4, 0)
        module.add_assign(out, a.ref())
        analysis = ModuleAnalysis(module)
        stats = analysis.stats()
        assert stats["ports"] == 2
        assert stats["registers"] == 1
        assert stats["comb_steps"] == 1
        assert stats["comb_depth"] == 1
        assert stats["comb_loops"] == 0
        assert analysis.to_dict()["module"] == "m"


class TestAnalyzeDesign:
    def test_synthesized_design_is_clean(self):
        sim, result = build_synthesized_design()
        report = analyze_design(result, sim, label="unit")
        assert not report.has_errors
        assert len(report.modules) == 2  # channel + object netlists
        assert report.summary_line().startswith("analyze unit: 2 module(s)")

    def test_schedules_cover_every_netlist(self):
        sim, result = build_synthesized_design()
        report = analyze_design(result, sim)
        schedules = report.schedules()
        group = result.groups[0]
        assert set(schedules) == {group.channel_ir.name,
                                  group.object_ir.name}
        assert schedules[group.channel_ir.name].depth >= 2


class TestScheduleEquivalence:
    def test_one_delta_matches_interpreted_channel(self):
        """Schedule-evaluated gnt/done match the live channel's commits.

        At every delta boundary the interpreted channel's committed
        state (server FSM state, latched grant, client requests) is fed
        into the levelized schedule of the *synthesized* netlist; the
        schedule's combinational handshake outputs must agree with the
        signals the interpreted kernel actually committed.
        """
        sim, result = build_synthesized_design()
        group = result.groups[0]
        channel = group.channel
        schedule = analyze_design(result).schedules()[group.channel_ir.name]

        state_net = f"{group.name}_server_state"
        boundary = {net.name: 0 for net in schedule.boundary_nets()}
        assert state_net in boundary and "grant_reg" in boundary

        checked = [0]
        mismatches = []

        def on_delta_end(sim_time, delta_index):
            env = dict(boundary)
            env["rst_n"] = 1
            env[state_net] = channel.state_sig.to_int()
            env["grant_reg"] = channel.grant_sig.to_int()
            for i, req in enumerate(channel.req):
                env[f"req_{i}"] = req.to_int()
            out = schedule.evaluate(env)
            for i in range(len(channel.clients)):
                expected = (channel.gnt[i].to_int(), channel.done[i].to_int())
                got = (out[f"gnt_{i}"], out[f"done_{i}"])
                if got != expected:
                    mismatches.append((sim_time, delta_index, i,
                                       expected, got))
            checked[0] += 1

        sim.probes.subscribe(DELTA_END, on_delta_end)
        sim.run(1000 * NS)

        assert mismatches == []
        assert checked[0] > 20  # the run really exercised the channel
        # The workload must have produced actual grants, otherwise the
        # equivalence above is vacuous.
        assert len(channel.call_log) >= 4
