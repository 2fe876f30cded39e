"""Property-based tests of the communication semantics."""

from hypothesis import given, settings, strategies as st

from repro.core import expected_memory_image, generate_workload
from repro.flow import build_platform
from repro.hdl import Clock, Module
from repro.kernel import MS, NS, Simulator
from repro.osss import GlobalObject, connect, guarded_method
from repro.synthesis import SynthesisConfig, synthesize_communication


class KeyedStore:
    """Per-key mailbox: client results independent of interleaving."""

    def __init__(self):
        self.slots = {}

    @guarded_method()
    def put(self, key, value):
        self.slots.setdefault(key, []).append(value)
        return len(self.slots[key])

    @guarded_method(lambda self: True)
    def get_all(self, key):
        return tuple(self.slots.get(key, ()))


def _run_clients(call_plans, synthesize):
    """Run per-client call plans; return per-client observed results."""
    sim = Simulator()
    clock = Clock(sim, "clock", period=10 * NS)
    handles = []
    for index in range(len(call_plans)):
        module = Module(sim, f"client{index}")
        handles.append(GlobalObject(module, "store", KeyedStore))
    connect(*handles)
    if synthesize:
        synthesize_communication(sim, clock.clk,
                                 SynthesisConfig(emit_hdl=False))
    results = {index: [] for index in range(len(call_plans))}
    remaining = [len(call_plans)]

    def make(index, plan, handle):
        def client():
            for value in plan:
                count = yield from handle.put(index, value)
                results[index].append(count)
            final = yield from handle.get_all(index)
            results[index].append(final)
            remaining[0] -= 1
            if remaining[0] == 0:
                sim.stop()
        return client

    for index, (plan, handle) in enumerate(zip(call_plans, handles)):
        sim.spawn(make(index, plan, handle), f"proc{index}")
    sim.run(50 * MS)
    assert remaining[0] == 0, "clients did not finish"
    return results, handles[0]


call_plans = st.lists(
    st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=5),
    min_size=1,
    max_size=4,
)


@settings(max_examples=20, deadline=None)
@given(call_plans)
def test_serialisation_invariant(plans):
    """Whatever the interleaving, each client's view is sequential: put
    counts are 1..n and get_all returns its own values in order."""
    results, handle = _run_clients(plans, synthesize=False)
    for index, plan in enumerate(plans):
        observed = results[index]
        assert observed[:-1] == list(range(1, len(plan) + 1))
        assert observed[-1] == tuple(plan)
    assert handle.stats.total_completed == sum(len(p) + 1 for p in plans)


@settings(max_examples=10, deadline=None)
@given(call_plans)
def test_rtl_channel_equivalent_to_behavioural(plans):
    """Per-client observations match between the behavioural server and
    the synthesized RT-level channel."""
    behavioural, __ = _run_clients(plans, synthesize=False)
    lowered, ___ = _run_clients(plans, synthesize=True)
    assert behavioural == lowered


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=15),
    st.integers(min_value=1, max_value=4),
)
def test_pci_platform_matches_golden_model(seed, n_commands, max_burst):
    """Any generated workload leaves the pin-level platform's memory in
    the golden-model state, with zero protocol violations."""
    workload = generate_workload(seed, n_commands, address_span=0x100,
                                 max_burst=max_burst,
                                 partial_byte_enable_fraction=0.3)
    bundle = build_platform([workload], bus="pci")
    bundle.run(100 * MS)
    golden = expected_memory_image(workload, 0x100 // 4)
    assert bundle.memory.dump(0, len(golden)) == golden
    assert not bundle.monitor.violations
    assert not any(t.parity_errors for t in bundle.monitor.transactions)


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_functional_and_pci_traces_agree(seed):
    """Refinement consistency holds for arbitrary workloads."""
    workload = generate_workload(seed, 8, address_span=0x100, max_burst=3)
    functional = build_platform([workload], bus="functional").run(100 * MS)
    pci = build_platform([workload], bus="pci").run(100 * MS)
    assert functional.traces == pci.traces
