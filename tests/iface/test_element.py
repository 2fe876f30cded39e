"""The InterfaceElement base: re-seated library IPs and width plumbing."""

import inspect

import pytest

from repro.core import default_library, generate_workload
from repro.errors import RefinementError
from repro.flow import (
    BUS_FAMILIES,
    PciPlatformConfig,
    build_platform,
)
from repro.flow.platforms import _default_element, _family_of_element
from repro.iface import IfaceParams, InterfaceElement
from repro.kernel import MS


def _workload(seed=7, n=6):
    return generate_workload(seed=seed, n_commands=n,
                             address_span=0x200, max_burst=3)


class TestReSeat:
    """Every library IP is an InterfaceElement, not an ad-hoc module."""

    def test_all_library_elements_subclass_the_base(self):
        library = default_library()
        for bus, abstraction in library.available():
            element = library.lookup(bus, abstraction)
            assert issubclass(element, InterfaceElement), element

    def test_all_four_families_registered(self):
        library = default_library()
        buses = {bus for bus, _ in library.available()}
        assert buses == {"pci", "wishbone", "axi4lite", "tlmgp"}

    def test_no_abstract_tags_in_library(self):
        library = default_library()
        for bus, abstraction in library.available():
            element = library.lookup(bus, abstraction)
            assert element.BUS_NAME != "abstract"
            assert element.ABSTRACTION != "abstract"

    @pytest.mark.parametrize("bus", ["pci", "wishbone", "axi4lite", "tlmgp"])
    def test_structural_summary(self, bus):
        bundle = build_platform([_workload()], bus=bus)
        summary = bundle.interface.describe()
        assert summary["element"] == type(bundle.interface).__name__
        assert summary["bus"] == bus
        assert summary["data_width"] == 32
        assert summary["byte_lanes"] == 4
        assert summary["response_capacity"] == 4

    def test_check_bus_widths_rejects_mismatch(self):
        bundle = build_platform([_workload()], bus="wishbone")
        with pytest.raises(RefinementError):
            bundle.interface.check_bus_widths(data_width=64)
        # Matching widths pass silently.
        bundle.interface.check_bus_widths(data_width=32, addr_width=32)


class TestResponseCapacityPlumbing:
    """response_capacity flows config -> element -> channel, and
    IfaceParams is the one place it is set."""

    def test_config_has_no_legacy_knob(self):
        with pytest.raises(TypeError):
            PciPlatformConfig(response_capacity=2)
        assert not hasattr(PciPlatformConfig(), "response_capacity")

    def test_config_params_object(self):
        params = IfaceParams(response_capacity=6)
        config = PciPlatformConfig(params=params)
        assert config.params is params

    @pytest.mark.parametrize("bus", ["pci", "wishbone", "axi4lite", "tlmgp"])
    def test_capacity_reaches_the_channel(self, bus):
        config = PciPlatformConfig(params=IfaceParams(response_capacity=2))
        bundle = build_platform([_workload()], config, bus=bus)
        assert bundle.interface.params.response_capacity == 2
        assert bundle.interface.channel_state.response_capacity == 2

    @pytest.mark.parametrize("bus", BUS_FAMILIES)
    def test_no_element_takes_the_legacy_knob(self, bus):
        for cls in (_default_element(bus), InterfaceElement):
            parameters = inspect.signature(cls).parameters
            assert "response_capacity" not in parameters, cls

    def test_capacity_one_still_consistent(self):
        workload = _workload(seed=9, n=10)
        config = PciPlatformConfig(params=IfaceParams(response_capacity=1))
        reference = build_platform([workload], bus="wishbone").run(100 * MS)
        shallow = build_platform(
            [workload], config, bus="wishbone"
        ).run(200 * MS)
        assert reference.traces == shallow.traces


class TestGenericBuilder:
    def test_bus_families_constant(self):
        assert BUS_FAMILIES == (
            "functional", "pci", "wishbone", "axi4lite", "tlmgp"
        )

    def test_unknown_bus_rejected(self):
        with pytest.raises(RefinementError):
            build_platform([_workload()], bus="vme")

    def test_synthesize_functional_rejected(self):
        with pytest.raises(RefinementError):
            build_platform([_workload()], bus="functional", synthesize=True)

    def test_element_override_picks_the_family(self):
        from repro.wishbone import WishboneBusInterface

        bundle = build_platform(
            [_workload()], element=WishboneBusInterface
        )
        assert type(bundle.interface) is WishboneBusInterface
        assert bundle.top.bus.__class__.__name__ == "WishboneBus"

    def test_family_of_element(self):
        from repro.axi.interface import AxiLiteBusInterface
        from repro.core import FunctionalBusInterface
        from repro.tlm import TlmGpBusInterface

        assert _family_of_element(AxiLiteBusInterface) == "axi4lite"
        assert _family_of_element(FunctionalBusInterface) == "functional"
        assert _family_of_element(TlmGpBusInterface) == "tlmgp"

    @pytest.mark.parametrize("bus", ["pci", "wishbone", "axi4lite", "tlmgp"])
    def test_wide_data_path_elaborates(self, bus):
        """64-bit params flow into the element and (where present) wires."""
        config = PciPlatformConfig(params=IfaceParams(data_width=64))
        bundle = build_platform([_workload()], config, bus=bus)
        assert bundle.interface.params.data_width == 64
        if bus in ("wishbone", "axi4lite"):
            assert bundle.top.bus.data_width == 64


class TestImportOrder:
    """repro.iface and repro.core must both work as the entry point."""

    def test_iface_first(self):
        import subprocess
        import sys

        code = (
            "import repro.iface, repro.core; "
            "print(repro.core.FunctionalBusInterface.__name__)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "FunctionalBusInterface"
