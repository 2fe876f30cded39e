"""ABL-BUS — PCI throughput through the interface pattern.

Sweeps burst length and target wait states and reports bus efficiency
(words transferred per hundred clock cycles). The shape to expect:
longer bursts amortise the address phase; wait states eat throughput
roughly linearly.
"""

import pytest
from _tables import print_table

from repro.core import CommandType
from repro.flow import PciPlatformConfig, build_platform
from repro.kernel import MS, NS

CLOCK_PERIOD = 30 * NS
TOTAL_WORDS = 32


def _throughput(burst, wait_states):
    n_commands = TOTAL_WORDS // burst
    commands = []
    for i in range(n_commands):
        commands.append(
            CommandType.write(0x100 + 4 * burst * i,
                              list(range(1, burst + 1)))
        )
    config = PciPlatformConfig(clock_period=CLOCK_PERIOD,
                               wait_states=wait_states)
    bundle = build_platform([commands], config, bus="pci")
    result = bundle.run(100 * MS)
    cycles = result.sim_time / CLOCK_PERIOD
    words = sum(t.word_count for t in bundle.monitor.completed_transactions)
    assert words == TOTAL_WORDS
    return 100.0 * words / cycles, cycles


@pytest.mark.parametrize("burst", [1, 4, 16])
def test_abl_bus_burst_sweep(benchmark, burst):
    efficiency, __ = benchmark.pedantic(
        _throughput, args=(burst, 0), rounds=1, iterations=1
    )
    assert efficiency > 0


def test_abl_bus_full_table(benchmark):
    baseline = {}

    def sweep():
        rows = []
        for burst in (1, 2, 4, 8, 16, 32):
            for wait_states in (0, 1, 2, 4):
                efficiency, cycles = _throughput(burst, wait_states)
                if wait_states == 0:
                    baseline[burst] = efficiency
                rows.append([burst, wait_states, f"{efficiency:.1f}",
                             int(cycles)])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        f"ABL-BUS: words per 100 clocks, {TOTAL_WORDS} words total "
        f"(33 MHz PCI clock)",
        ["burst", "wait states", "words/100 cycles", "total cycles"],
        rows,
    )
    # Shape checks: bursts amortise the per-transaction overhead...
    assert baseline[16] > 1.5 * baseline[1]
    # ...and monotonically help (weakly) up the sweep.
    ordered = [baseline[b] for b in (1, 2, 4, 8, 16)]
    assert all(b >= a for a, b in zip(ordered, ordered[1:]))
    # Wait states hurt: compare burst 8 at 0 vs 4 wait states.
    with_waits = [r for r in rows if r[0] == 8 and r[1] == 4][0]
    assert float(with_waits[2]) < baseline[8]
