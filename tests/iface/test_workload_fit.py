"""Workloads must fit the interface parameters they run on.

A command whose address range, byte enables or data exceed the
element's :class:`IfaceParams` used to run anyway: Wishbone and
AXI4-Lite at ``addr_width=8`` read aliased words, and 16- or 24-bit
data paths raised deep inside the run or wrote a wrong memory image.
``build_platform`` now rejects such a workload when it is built, and
``generate_workload(params=...)`` draws one that fits.
"""

import pytest

from repro.core import CommandType, generate_workload
from repro.errors import RefinementError
from repro.flow import PciPlatformConfig, build_platform
from repro.iface import IfaceParams
from repro.kernel import MS
from repro.verify.consistency import check_traces

BUSES = ("pci", "wishbone", "axi4lite", "tlmgp")

#: The draw that exposed the aliasing: its read at 0x3C4 returned
#: another word's data at ``addr_width=8``.
DRAW = dict(seed=3, n_commands=12, address_span=0x1000, max_burst=4)

CASES = [
    (IfaceParams(addr_width=8), ("wishbone", "axi4lite")),
    (IfaceParams(data_width=16), BUSES),
    (IfaceParams(data_width=24), BUSES),
]
#: A known gap: with a fitting workload, a 16-bit PCI element still
#: disagrees with the functional platform.
PCI_16 = pytest.mark.xfail(
    strict=True,
    reason="a 16-bit PCI element ends the read burst at 0xF54 with "
    "master_abort where the functional platform returns data",
)


def _cells(known_gaps=False):
    return [
        pytest.param(
            params, bus, id=f"{bus}-{params.data_width}-{params.addr_width}",
            marks=PCI_16 if known_gaps and (bus, params.data_width) == ("pci", 16)
            else (),
        )
        for params, buses in CASES
        for bus in buses
    ]


def _run(workload, params, bus, synthesize=False):
    bundle = build_platform(
        [workload], PciPlatformConfig(params=params), bus=bus,
        synthesize=synthesize,
    )
    result = bundle.run(50 * MS)
    return result.traces, bundle.memory.dump(0, 0x400)


class TestRejectedAtBuild:
    @pytest.mark.parametrize("params, bus", _cells())
    def test_unfit_workload_names_its_first_command(self, params, bus):
        workload = generate_workload(**DRAW)
        with pytest.raises(
            RefinementError, match=r"workload 0, command 0 \(CommandType"
        ):
            build_platform([workload], PciPlatformConfig(params=params), bus=bus)

    @pytest.mark.parametrize("command, reason", [
        (CommandType.read(0xFC, count=2), "address space"),
        (CommandType.write(0x10, [1], byte_enables=0x4), "byte enables"),
        (CommandType.write(0x10, [0x10000], byte_enables=0x3),
         "exceeds 16 bits"),
    ])
    def test_each_limit(self, command, reason):
        params = IfaceParams(data_width=16, addr_width=8)
        assert reason in params.misfit(command)
        fits = [CommandType.read(0xF8, count=2, byte_enables=0x3)]
        assert params.misfit(fits[0]) is None
        with pytest.raises(RefinementError, match=reason):
            build_platform([fits, [command]], PciPlatformConfig(params=params))


class TestDrawnWithinParams:
    @pytest.mark.parametrize("params", [params for params, __ in CASES])
    def test_every_command_fits(self, params):
        workload = generate_workload(
            **DRAW, partial_byte_enable_fraction=0.3, params=params
        )
        assert all(params.misfit(command) is None for command in workload)

    def test_default_params_draw_the_default_workload(self):
        for params in (IfaceParams(), IfaceParams(data_width=64)):
            assert generate_workload(
                **DRAW, partial_byte_enable_fraction=0.3, params=params
            ) == generate_workload(**DRAW, partial_byte_enable_fraction=0.3)

    @pytest.mark.parametrize("synthesize", [False, True])
    @pytest.mark.parametrize("params, bus", _cells(known_gaps=True))
    def test_matches_the_functional_platform(self, params, bus, synthesize):
        workload = generate_workload(
            **DRAW, partial_byte_enable_fraction=0.3, params=params
        )
        traces, image = _run(workload, params, bus, synthesize)
        reference_traces, reference_image = _run(workload, params, "functional")
        assert check_traces(
            reference_traces, traces, "functional", bus
        ).consistent
        assert image == reference_image
