"""Coverage-driven validation of the adopted test set.

The paper validates "with respect to the test set adopted"; these tests
make that qualification measurable. They run a workload designed to hit
every interesting protocol corner and require the monitor's records to
show each one: every command kind, every termination and every burst
size class.
"""

from repro.core import CommandType, generate_workload
from repro.flow import PciPlatformConfig, build_platform
from repro.kernel import MS

#: Every way a PCI transaction can end, and every burst size class.
TERMINATIONS = {"completion", "retry", "disconnect_with_data", "master_abort"}
BURSTS = {"single", "short", "long"}


def _burst(words):
    return "single" if words <= 1 else ("short" if words <= 4 else "long")


def _transactions(commands, config=None):
    bundle = build_platform(
        [commands], config or PciPlatformConfig(monitor_strict=False),
        bus="pci",
    )
    bundle.run(200 * MS)
    return bundle.monitor.transactions


class TestCoverageClosure:
    def test_full_corner_workload_closes_coverage(self):
        """Two regression runs cover every corner together: a clean
        platform for long bursts, a pathological one for terminations."""
        clean_commands = list(generate_workload(seed=3, n_commands=10,
                                                address_span=0x200,
                                                max_burst=8))
        clean_commands.append(CommandType.read(0x100, count=8))  # long burst
        clean_commands.append(CommandType.read(0x8000_0000))     # master abort
        corner_commands = [CommandType.write(0x0, list(range(1, 9))),
                           CommandType.read(0x0, count=8)]
        config = PciPlatformConfig(retry_count=1, disconnect_after=3,
                                   monitor_strict=False)
        transactions = (_transactions(clean_commands)
                        + _transactions(corner_commands, config))
        assert {t.command_name for t in transactions} >= {"mem_read",
                                                          "mem_write"}
        assert {t.terminated_by for t in transactions} >= TERMINATIONS
        assert {_burst(t.word_count) for t in transactions} == BURSTS

    def test_happy_path_workload_leaves_holes(self):
        """A clean workload cannot cover the termination corners: the
        test set's limits are visible in what it reached."""
        commands = [CommandType.write(0x0, [1]), CommandType.read(0x0)]
        terminations = {t.terminated_by for t in _transactions(commands)}
        assert "retry" not in terminations
        assert "master_abort" not in terminations


class TestChannelInvariants:
    def test_grant_lines_one_hot_post_synthesis(self):
        """At most one client of the synthesized channel is granted at
        any clock edge."""
        workloads = [
            generate_workload(seed=20 + i, n_commands=5,
                              address_base=0x400 * i, address_span=0x400)
            for i in range(3)
        ]
        bundle = build_platform(workloads, bus="pci", synthesize=True)
        channel = bundle.synthesis.groups[0].channel
        granted, violations = [], []

        def probe():
            while True:
                yield bundle.clock.clk.posedge
                asserted = [index for index, gnt in enumerate(channel.gnt)
                            if gnt.read().to_int_default(0)]
                granted.extend(asserted)
                if len(asserted) > 1:
                    violations.append((bundle.handle.sim.time, asserted))

        bundle.handle.sim.spawn(probe, "probe")
        bundle.run(400 * MS)
        assert set(granted) == set(range(len(channel.gnt)))
        assert not violations

    def test_done_implies_grant(self):
        """DONE is only ever asserted for the currently granted client."""
        workloads = [generate_workload(seed=33, n_commands=6,
                                       address_span=0x200)]
        bundle = build_platform(workloads, bus="pci", synthesize=True)
        channel = bundle.synthesis.groups[0].channel
        violations = []

        def probe():
            while True:
                yield bundle.clock.clk.posedge
                for index in range(len(channel.clients)):
                    done = channel.done[index].read().to_int_default(0)
                    gnt = channel.gnt[index].read().to_int_default(0)
                    if done and not gnt:
                        violations.append(bundle.handle.sim.time)

        bundle.handle.sim.spawn(probe, "probe")
        bundle.run(200 * MS)
        assert not violations
