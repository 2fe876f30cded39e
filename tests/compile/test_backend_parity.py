"""The equivalence gate: interpreted and compiled backends must agree.

The compiled backend is only allowed to exist because it is
observably identical to the interpreted RTL channel. These tests pin
that down at every level the ISSUE names: committed handshake values
at each delta boundary, cycle accounting and call logs, the committed
``fig4.vcd`` byte for byte, application traces and bus-transaction
signatures on PCI and Wishbone workloads, and span trees.
"""

import os

from repro.compile import CompiledChannel
from repro.core import CommandType, generate_workload
from repro.flow import PciPlatformConfig, build_platform
from repro.hdl import Clock
from repro.instrument.probes import DELTA_END
from repro.kernel import MS, NS, Simulator
from repro.osss import connect
from repro.synthesis import SynthesisConfig, synthesize_communication
from repro.trace import VcdTracer
from repro.trace.attribution import attribute
from repro.trace.spans import SpanTracer
from repro.verify.consistency import check_bus_transactions, check_traces

from tests.analyze.test_passes import Client

COMMITTED_FIG4 = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "fig4.vcd"
)

FIG4_COMMANDS = [
    CommandType.write(0x100, [0xDEADBEEF, 0x12345678, 0xCAFEF00D]),
    CommandType.read(0x100, count=3),
]

WORKLOAD = generate_workload(
    seed=55, n_commands=12, address_span=0x400, max_burst=4,
    partial_byte_enable_fraction=0.2,
)


def _run_latch(backend):
    """The two-client Latch design under one backend; everything an
    outside observer can see, with consecutive identical delta-boundary
    snapshots collapsed (backends may differ in no-op delta counts)."""
    sim = Simulator()
    clock = Clock(sim, "clock", period=10 * NS)
    clients = [Client(sim, f"c{i}", delay=7 * i) for i in range(2)]
    connect(*(c.obj for c in clients))
    result = synthesize_communication(
        sim, clock.clk, SynthesisConfig(emit_hdl=False, backend=backend)
    )
    channel = result.groups[0].channel
    snapshots = []

    def on_delta_end(sim_time, delta_index):
        snap = (
            sim_time,
            channel.state_sig.read().to_int(),
            channel.grant_sig.read().to_int(),
            tuple(s.read().to_int() for s in channel.req),
            tuple(s.read().to_int() for s in channel.gnt),
            tuple(s.read().to_int() for s in channel.done),
        )
        if not snapshots or snapshots[-1] != snap:
            snapshots.append(snap)

    sim.probes.subscribe(DELTA_END, on_delta_end)
    sim.run(1000 * NS)
    log = [
        (r.client, r.method, r.request_time, r.grant_time, r.done_time)
        for r in channel.call_log
    ]
    return {
        "snapshots": snapshots,
        "log": log,
        "serviced": channel.calls_serviced,
        "idle": channel.idle_cycles,
        "busy": channel.busy_cycles,
        "end": sim.time,
        "channel": channel,
    }


class TestLatchParity:
    def test_handshake_and_accounting_identical(self):
        a = _run_latch("interpreted")
        b = _run_latch("compiled")
        assert not isinstance(a["channel"], CompiledChannel)
        assert isinstance(b["channel"], CompiledChannel)
        assert a["log"] == b["log"] and len(a["log"]) >= 8
        assert a["serviced"] == b["serviced"]
        assert a["idle"] == b["idle"]
        assert a["busy"] == b["busy"]
        assert a["end"] == b["end"]
        assert a["snapshots"] == b["snapshots"]
        assert len(a["snapshots"]) > 20  # the run exercised the channel

    def test_mean_call_cycles_identical(self):
        a = _run_latch("interpreted")["channel"]
        b = _run_latch("compiled")["channel"]
        assert a.mean_call_cycles(10 * NS) == b.mean_call_cycles(10 * NS)


class TestFig4Parity:
    def test_compiled_fig4_vcd_byte_identical(self, tmp_path):
        """The non-negotiable gate: the committed Figure-4 waveform
        reproduces byte for byte under the compiled backend."""
        fresh = str(tmp_path / "fig4_compiled.vcd")
        bundle = build_platform(
            [FIG4_COMMANDS],
            PciPlatformConfig(wait_states=1, backend="compiled"), bus="pci",
            synthesize=True,
        )
        channel = bundle.synthesis.groups[0].channel
        assert isinstance(channel, CompiledChannel)
        sim = bundle.handle.sim
        vcd = VcdTracer(fresh)
        vcd.add_signals([bundle.clock.clk] + bundle.bus.shared_signals())
        sim.add_tracer(vcd)
        bundle.run(10 * MS)
        vcd.close(sim.time)
        with open(COMMITTED_FIG4, "rb") as handle:
            expected = handle.read()
        with open(fresh, "rb") as handle:
            actual = handle.read()
        assert actual == expected


def _run_platform(bus, backend, trace_spans=False):
    bundle = build_platform(
        [WORKLOAD],
        PciPlatformConfig(backend=backend),
        bus=bus,
        synthesize=True,
    )
    sim = bundle.handle.sim
    tracer = None
    if trace_spans:
        sim.elaborate()
        tracer = SpanTracer(causal=False).attach(sim.probes)
    result = bundle.run(200 * MS)
    channel = bundle.synthesis.groups[0].channel
    out = {
        "traces": result.traces,
        "signatures": bundle.monitor.signatures(),
        "end": sim.time,
        "serviced": channel.calls_serviced,
        "log_len": len(channel.call_log),
        "memory": bundle.memory.dump(0, 0x400 // 4),
        "compiled": isinstance(channel, CompiledChannel),
    }
    if tracer is not None:
        report = attribute(tracer.finalize())
        out["spans"] = (len(report), int(report.mean_latency))
    return out


class TestWorkloadParity:
    def test_pci_platform_parity(self):
        a = _run_platform("pci", "interpreted")
        b = _run_platform("pci", "compiled")
        assert not a["compiled"] and b["compiled"]
        check_traces(
            a["traces"], b["traces"], "interpreted", "compiled"
        ).require_consistent()
        check_bus_transactions(
            a["signatures"], b["signatures"], "interpreted", "compiled"
        ).require_consistent()
        assert a["end"] == b["end"]
        assert a["serviced"] == b["serviced"] and a["serviced"] > 0
        assert a["log_len"] == b["log_len"]
        assert a["memory"] == b["memory"]

    def test_wishbone_platform_parity(self):
        a = _run_platform("wishbone", "interpreted")
        b = _run_platform("wishbone", "compiled")
        assert not a["compiled"] and b["compiled"]
        check_traces(
            a["traces"], b["traces"], "interpreted", "compiled"
        ).require_consistent()
        check_bus_transactions(
            a["signatures"], b["signatures"], "interpreted", "compiled"
        ).require_consistent()
        assert a["end"] == b["end"]
        assert a["memory"] == b["memory"]

    def test_span_trees_identical(self):
        a = _run_platform("pci", "interpreted",
                          trace_spans=True)
        b = _run_platform("pci", "compiled",
                          trace_spans=True)
        assert a["spans"] == b["spans"]
        assert a["spans"][0] > 0
