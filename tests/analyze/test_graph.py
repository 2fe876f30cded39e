"""Driver/reader graph construction over hand-built netlists."""

from repro.analyze import NetGraph, find_cycles
from repro.synthesis.ir import Const, Fsm, RtlModule


def build_module():
    module = RtlModule("m")
    a = module.add_port("a", "in", 4)
    out = module.add_port("out", "out", 4)
    wire = module.add_net("wire", 4)
    reg = module.add_register("reg", 4, 0)
    module.add_assign(wire, a.ref())
    module.add_assign(out, wire.ref())
    module.add_clocked_assign(reg, wire.ref(), enable=Const(1, 1))
    return module, a, out, wire, reg


class TestDrivers:
    def test_assign_driver(self):
        module, a, out, wire, reg = build_module()
        graph = NetGraph(module)
        (driver,) = graph.drivers_of(wire)
        assert driver.kind == "assign"
        assert driver.is_combinational
        assert driver.sources == [a]
        assert driver.expr_width == 4

    def test_clocked_driver(self):
        module, a, out, wire, reg = build_module()
        graph = NetGraph(module)
        (driver,) = graph.drivers_of(reg)
        assert driver.kind == "clocked"
        assert not driver.is_combinational
        assert driver.sources == [wire]

    def test_undriven_input_port(self):
        module, a, *_ = build_module()
        graph = NetGraph(module)
        assert graph.drivers_of(a) == []
        assert not graph.is_comb_driven(a)

    def test_fsm_drivers(self):
        module = RtlModule("f")
        go = module.add_port("go", "in", 1)
        fsm = Fsm("ctrl", ["IDLE", "RUN"], "IDLE")
        fsm.add_transition("IDLE", go.ref(), "RUN")
        fsm.add_transition("RUN", None, "IDLE")
        module.add_fsm(fsm)
        graph = NetGraph(module)
        (state_driver,) = graph.drivers_of(fsm.state_register)
        assert state_driver.kind == "fsm-state"
        assert state_driver.sources == [go]
        assert not state_driver.is_combinational


class TestReaders:
    def test_reader_sites(self):
        module, a, out, wire, reg = build_module()
        graph = NetGraph(module)
        labels = {site.label for site in graph.readers_of(wire)}
        assert len(graph.readers_of(wire)) == 2  # out assign + clocked
        assert any("out" in label for label in labels)
        assert graph.readers_of(out) == []


class TestCombDependencies:
    def test_registers_are_boundary(self):
        """Only comb-driven sources become edges; regs/ports are level 0."""
        module, a, out, wire, reg = build_module()
        graph = NetGraph(module)
        edges = graph.comb_dependencies()
        assert edges[id(wire)] == set()          # reads only a port
        assert edges[id(out)] == {id(wire)}      # reads a comb net
        assert id(reg) not in edges              # clocked: not comb


class TestFindCycles:
    """The one SCC routine behind GRD003 and FSM003."""

    def test_long_ring_is_one_cycle(self):
        # Deeper than the interpreter's recursion limit: only an
        # iterative search returns this cycle.
        n = 3000
        ring = {node: [(node + 1) % n] for node in range(n)}
        (cycle,) = find_cycles(ring)
        assert sorted(cycle) == list(range(n))

    def test_self_loop_is_a_cycle_and_a_lone_node_is_not(self):
        assert find_cycles({"a": ["a"], "b": []}) == [["a"]]

    def test_acyclic_graph_has_none(self):
        assert find_cycles({1: [2, 3], 2: [3], 3: []}) == []

    def test_components_in_completion_order(self):
        # a <-> b feeds c <-> d: Tarjan completes the downstream
        # cycle first, members in stack-pop order.
        graph = {"a": ["b"], "b": ["a", "c"], "c": ["d"], "d": ["c"]}
        assert find_cycles(graph) == [["d", "c"], ["b", "a"]]

    def test_nodes_without_entries_are_still_visited(self):
        # "c" has no successor entry; the cycle through it is found
        # from the root "a".
        graph = {"a": ["b"], "b": ["c"], "c": ["b"]}
        assert find_cycles(graph) == [["c", "b"]]
        assert find_cycles({"a": ["b"], "b": ["x"]}) == []
