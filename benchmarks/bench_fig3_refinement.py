"""FIG3 — communication refinement by library-interface swap.

The same application runs against the functional (TLM) and the
pin-accurate PCI interface element. The figure's message, quantified:
identical observable traces, very different simulation cost.
"""

import pytest
from _tables import print_table

from repro.core import compare_refinement, generate_workload
from repro.flow import PciPlatformConfig, build_platform
from repro.kernel import MS

WORKLOAD = generate_workload(seed=2024, n_commands=40, address_span=0x800,
                             max_burst=4, partial_byte_enable_fraction=0.25)
CONFIG = PciPlatformConfig()


def test_fig3_functional_platform(benchmark):
    """Simulation cost of the high-level model (the fast side)."""

    def run():
        return build_platform(
            [WORKLOAD], CONFIG, bus="functional"
        ).run(100 * MS)

    result = benchmark(run)
    assert result.transactions == 40


def test_fig3_pin_accurate_platform(benchmark):
    """Simulation cost of the implementation model (the slow side)."""

    def run():
        return build_platform([WORKLOAD], CONFIG, bus="pci").run(100 * MS)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.transactions == 40


def test_fig3_refinement_comparison(benchmark):
    """Trace consistency + cost ratio: the content of Figure 3."""

    def run():
        return compare_refinement(
            lambda: build_platform(
                [WORKLOAD], CONFIG, bus="functional"
            ).handle,
            lambda: build_platform([WORKLOAD], CONFIG, bus="pci").handle,
            max_time=100 * MS,
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.consistent
    assert report.delta_ratio > 2.0
    print_table(
        "FIG3: interface swap — same traces, different cost",
        ["platform", "transactions", "delta cycles", "wall seconds"],
        [
            ["functional (TLM element)", report.reference.transactions,
             report.reference.delta_cycles,
             f"{report.reference.wall_seconds:.4f}"],
            ["pin-accurate (PCI element)", report.refined.transactions,
             report.refined.delta_cycles,
             f"{report.refined.wall_seconds:.4f}"],
        ],
    )
    print_table(
        "FIG3: summary",
        ["metric", "value"],
        [
            ["observable traces identical", report.consistent],
            ["delta-cycle ratio (pin / tlm)", f"{report.delta_ratio:.1f}x"],
            ["wall-clock ratio (pin / tlm)", f"{report.speedup:.1f}x"],
        ],
    )
