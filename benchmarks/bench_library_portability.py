"""ABL-LIB — the interface library's portability claim.

The methodology's promise: with a proper library of interface elements,
moving a design between buses (or abstraction levels) means swapping one
IP, with the application untouched. This bench runs one application +
workload against every element in the default library and shows the
traces are identical while costs differ.
"""

import pytest
from _tables import print_table

from repro.core import default_library, generate_workload
from repro.flow import build_platform
from repro.kernel import MS, NS

WORKLOAD = generate_workload(seed=404, n_commands=25, address_span=0x400,
                             max_burst=4, partial_byte_enable_fraction=0.2)

PLATFORMS = [
    ("functional (bus-agnostic TLM)",
     lambda: build_platform([WORKLOAD], bus="functional")),
    ("pci pin-accurate", lambda: build_platform([WORKLOAD], bus="pci")),
    ("pci post-synthesis", lambda: build_platform([WORKLOAD], bus="pci",
                                                      synthesize=True)),
    ("wishbone pin-accurate",
     lambda: build_platform([WORKLOAD], bus="wishbone")),
    ("wishbone post-synthesis", lambda: build_platform(
        [WORKLOAD], bus="wishbone", synthesize=True)),
]


@pytest.mark.parametrize("name,builder", PLATFORMS,
                         ids=[p[0].split()[0] + "_" + p[0].split()[1]
                              for p in PLATFORMS])
def test_abl_lib_platform(benchmark, name, builder):
    result = benchmark.pedantic(lambda: builder().run(400 * MS),
                                rounds=1, iterations=1)
    assert result.transactions == 25


def test_abl_lib_portability_table(benchmark):
    def sweep():
        results = []
        for name, builder in PLATFORMS:
            results.append((name, builder().run(400 * MS)))
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    reference = results[0][1].traces
    rows = []
    for name, result in results:
        rows.append([
            name,
            result.transactions,
            result.delta_cycles,
            result.sim_time // NS,
            result.traces == reference,
        ])
    print_table(
        "ABL-LIB: one application, five library elements "
        "(default library: " + ", ".join(
            f"{b}/{a}" for b, a in default_library().available()) + ")",
        ["platform", "txns", "delta cycles", "sim ns", "trace == reference"],
        rows,
    )
    assert all(row[4] for row in rows), "a platform diverged from the reference"
