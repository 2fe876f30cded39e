"""The per-process memo of synthesized group shapes.

Every connection group of one :class:`GroupShape` shares one
:class:`GroupNetlists`. These tests pin that the sharing is invisible:
warm builds are byte-identical to cold ones, any shape change misses,
failures are never cached, and channels that share compiled code keep
their own register state.
"""

import pytest

from repro.core import generate_workload
from repro.errors import SynthesisError
from repro.fault import demo_campaign_spec, run_campaign
from repro.fault.report import report_as_json
from repro.flow import PciPlatformConfig, build_platform
from repro.iface import IfaceParams
from repro.kernel import MS, NS
from repro.synthesis import Const, RtlModule
from repro.synthesis import tool
from repro.synthesis.tool import GroupShape, synthesize_group_shape

BUSES = ("pci", "wishbone", "axi4lite", "tlmgp")


@pytest.fixture(autouse=True)
def cold_memo():
    synthesize_group_shape.cache_clear()
    yield
    synthesize_group_shape.cache_clear()


def _workloads(apps, params):
    return [
        generate_workload(
            seed=3 + app, n_commands=4, address_span=0x100, params=params
        )
        for app in range(apps)
    ]


def _build(bus, backend, width=32, apps=2):
    params = IfaceParams(data_width=width)
    config = PciPlatformConfig(backend=backend, params=params)
    return build_platform(
        _workloads(apps, params), config, bus=bus, synthesize=True
    )


def _artefacts(bundle):
    synthesis = bundle.synthesis
    channel = synthesis.groups[0].channel
    source = channel.netlist.source if hasattr(channel, "netlist") else ""
    return (
        synthesis.all_verilog(),
        synthesis.all_vhdl(),
        source,
        synthesis.report.render(),
    )


class TestWarmEqualsCold:
    @pytest.mark.parametrize("backend", ["interpreted", "compiled"])
    @pytest.mark.parametrize("bus", BUSES)
    def test_byte_identical_outputs(self, bus, backend):
        # PCI rejects a data path below 32 bits.
        for width in (32, 64) if bus == "pci" else (16, 32, 64):
            for apps in (1, 2, 4):
                synthesize_group_shape.cache_clear()
                cold = _build(bus, backend, width, apps)
                warm = _build(bus, backend, width, apps)
                info = synthesize_group_shape.cache_info()
                assert (info.misses, info.hits) == (1, 1)
                assert (warm.synthesis.groups[0].channel_ir
                        is cold.synthesis.groups[0].channel_ir)
                assert _artefacts(warm) == _artefacts(cold)
                if backend == "compiled":
                    assert _artefacts(cold)[2]

    def test_one_shape_across_buses(self):
        """The channel does not depend on the bus behind it."""
        for bus in BUSES:
            _build(bus, "compiled")
        info = synthesize_group_shape.cache_info()
        assert (info.misses, info.hits) == (1, len(BUSES) - 1)


class Shape:
    def area(self):
        return 0


class Square(Shape):
    pass


class Circle(Shape):
    pass


BASE = GroupShape(
    group_name="chan0_top_obj",
    object_name="obj0_latch",
    n_clients=2,
    methods=(("load", False), ("store", True)),
    arbiter="fcfs",
    priorities=None,
    body_cycles=1,
    data_width=32,
    state_class="Latch",
    state_bits=(("value", 32),),
    dispatches=(("poly0_shape", "shape", Shape, (Square, Circle)),),
    emit_hdl=True,
    backend="interpreted",
)

#: One changed value per shape field.
CHANGES = {
    "group_name": "chan1_top_obj",
    "object_name": "obj1_latch",
    "n_clients": 3,
    "methods": (("load", True), ("store", True)),
    "arbiter": "round_robin",
    "priorities": (1, 0),
    "body_cycles": 2,
    "data_width": 64,
    "state_class": "Register",
    "state_bits": (("value", 16),),
    "dispatches": (),
    "emit_hdl": False,
    "backend": "compiled",
}


class TestShapeKey:
    def test_every_field_is_covered(self):
        assert set(CHANGES) == set(GroupShape._fields)

    @pytest.mark.parametrize("field", sorted(CHANGES))
    def test_changing_one_field_misses(self, field):
        base = synthesize_group_shape(BASE)
        assert synthesize_group_shape(BASE) is base
        changed = synthesize_group_shape(BASE._replace(**{field: CHANGES[field]}))
        info = synthesize_group_shape.cache_info()
        assert (info.misses, info.hits) == (2, 1)
        assert changed is not base


def _broken_channel_ir(name, *args, **kwargs):
    """A channel netlist with a doubly driven net (IR002)."""
    module = RtlModule(name)
    wire = module.add_net("wire", 1)
    out = module.add_port("out", "out", 1)
    module.add_assign(wire, Const(0, 1))
    module.add_assign(wire, Const(1, 1))
    module.add_assign(out, wire.ref())
    return module


class TestFailuresAreNotCached:
    @pytest.mark.parametrize("backend", ["interpreted", "compiled"])
    def test_lint_failure_raises_on_every_build(self, monkeypatch, backend):
        monkeypatch.setattr(tool, "build_channel_ir", _broken_channel_ir)
        for __ in range(2):
            with pytest.raises(SynthesisError, match="IR design rules"):
                _build("pci", backend)
        info = synthesize_group_shape.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 0, 0)


class TestSharedCompiledNetlist:
    def test_channels_keep_independent_registers(self):
        first = _build("wishbone", "compiled")
        second = _build("wishbone", "compiled")
        a = first.synthesis.groups[0].channel
        b = second.synthesis.groups[0].channel
        assert a.netlist is b.netlist
        reset = tuple(a.netlist.reset_registers().values())
        # Step the first platform until its channel leaves reset.
        sim = first.handle.sim
        for __ in range(200):
            sim.run(30 * NS)
            if a._regs != reset:
                break
        assert a._regs != reset
        assert b._regs == reset
        result_a = first.run(20 * MS)
        result_b = second.run(20 * MS)
        synthesize_group_shape.cache_clear()
        cold = _build("wishbone", "compiled")
        result_cold = cold.run(20 * MS)
        assert result_a.traces == result_b.traces == result_cold.traces
        assert result_a.sim_time == result_b.sim_time == result_cold.sim_time
        assert b.calls_serviced == a.calls_serviced > 0


class TestCampaignReports:
    def test_serial_and_pool_reports_identical(self):
        spec = demo_campaign_spec(platform="pci", seed=11, runs=8)
        spec.synthesize = True
        spec.backend = "compiled"
        serial = run_campaign(spec, workers=1, max_runs=8)
        synthesize_group_shape.cache_clear()
        pooled = run_campaign(spec, workers=2, max_runs=8)
        assert report_as_json(serial, canonical=True) == report_as_json(
            pooled, canonical=True
        )
