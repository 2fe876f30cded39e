"""Unit tests for the interface library and the refinement comparison."""

import pytest

from repro.core import (
    CommandType,
    FunctionalBusInterface,
    InterfaceLibrary,
    PciBusInterface,
    PlatformHandle,
    compare_refinement,
    default_library,
    generate_workload,
)
from repro.errors import RefinementError
from repro.flow import build_platform
from repro.kernel import MS, Simulator


class TestLibrary:
    def test_default_contents(self):
        library = default_library()
        assert ("pci", "functional") in library.available()
        assert ("pci", "pin_accurate") in library.available()
        assert library.lookup("pci", "functional") is FunctionalBusInterface
        assert library.lookup("pci", "pin_accurate") is PciBusInterface

    def test_unknown_lookup(self):
        with pytest.raises(RefinementError):
            default_library().lookup("pci", "gate_level")

    def test_non_interface_rejected(self):
        with pytest.raises(RefinementError):
            InterfaceLibrary().register(int)

    def test_conflicting_registration_rejected(self):
        library = default_library()

        class Impostor(FunctionalBusInterface):
            BUS_NAME = "pci"
            ABSTRACTION = "functional"

        with pytest.raises(RefinementError):
            library.register(Impostor)

    def test_reregistration_is_idempotent(self):
        library = default_library()
        library.register(FunctionalBusInterface)


class TestPlatformHandle:
    def test_needs_applications(self):
        with pytest.raises(RefinementError):
            PlatformHandle(Simulator(), [], "empty")

    def test_unfinished_application_detected(self):
        workload = generate_workload(1, 50, max_burst=4)
        bundle = build_platform([workload], bus="pci")
        with pytest.raises(RefinementError, match="did not finish"):
            bundle.handle.run(100)  # far too short


class TestRefinementComparison:
    def test_consistent_platforms(self):
        workload = generate_workload(21, 15, address_span=0x200)
        report = compare_refinement(
            lambda: build_platform([workload], bus="functional").handle,
            lambda: build_platform([workload], bus="pci").handle,
            max_time=20 * MS,
        )
        assert report.consistent
        assert report.reference.transactions == 15
        assert report.refined.transactions == 15
        assert report.delta_ratio > 1.0
        assert "trace-consistent: True" in report.summary()

    def test_divergent_platforms_detected(self):
        workload_a = [CommandType.write(0x0, [1]), CommandType.read(0x0)]
        workload_b = [CommandType.write(0x0, [2]), CommandType.read(0x0)]
        report = compare_refinement(
            lambda: build_platform([workload_a], bus="functional").handle,
            lambda: build_platform([workload_b], bus="functional").handle,
            max_time=1 * MS,
        )
        assert not report.consistent
        assert any("app0" in m for m in report.mismatches)
        assert "MISMATCH" in report.summary()
