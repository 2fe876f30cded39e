"""Coverage-driven validation of the adopted test set.

The paper validates "with respect to the test set adopted"; functional
coverage makes that qualification measurable. These tests run a workload
designed to hit every interesting protocol corner and require the
covergroups to close.
"""

from repro.core import CommandType, generate_workload
from repro.flow import PciPlatformConfig, build_platform
from repro.kernel import MS
from repro.verify import CoverageCollector, OneHotChecker


def _make_collector():
    coverage = CoverageCollector("pci")
    coverage.add_point("kind", ["mem_read", "mem_write"])
    coverage.add_point("termination", ["completion", "retry",
                                       "disconnect_with_data",
                                       "master_abort"])
    coverage.add_point("burst_bucket", ["single", "short", "long"])
    return coverage


def _covered_run(commands, config=None, coverage=None):
    bundle = build_platform(
        [commands], config or PciPlatformConfig(monitor_strict=False),
        bus="pci",
    )
    bundle.run(200 * MS)
    coverage = coverage or _make_collector()
    for transaction in bundle.monitor.transactions:
        coverage.sample("kind", transaction.command_name)
        coverage.sample("termination", transaction.terminated_by)
        words = transaction.word_count
        bucket = "single" if words <= 1 else ("short" if words <= 4 else "long")
        coverage.sample("burst_bucket", bucket)
    return bundle, coverage


class TestCoverageClosure:
    def test_full_corner_workload_closes_coverage(self):
        """Two regression runs close the covergroups together: a clean
        platform for long bursts, a pathological one for terminations."""
        coverage = _make_collector()
        clean_commands = list(generate_workload(seed=3, n_commands=10,
                                                address_span=0x200,
                                                max_burst=8))
        clean_commands.append(CommandType.read(0x100, count=8))  # long burst
        clean_commands.append(CommandType.read(0x8000_0000))     # master abort
        __, coverage = _covered_run(
            clean_commands, PciPlatformConfig(monitor_strict=False), coverage
        )
        corner_commands = [CommandType.write(0x0, list(range(1, 9))),
                           CommandType.read(0x0, count=8)]
        config = PciPlatformConfig(retry_count=1, disconnect_after=3,
                                   monitor_strict=False)
        __, coverage = _covered_run(corner_commands, config, coverage)
        coverage.require(goal=1.0)

    def test_happy_path_workload_leaves_holes(self):
        """A clean workload cannot cover the termination corners: the
        coverage model proves the test set's limits."""
        commands = [CommandType.write(0x0, [1]), CommandType.read(0x0)]
        __, coverage = _covered_run(commands)
        holes = coverage.point("termination").holes()
        assert "retry" in holes
        assert "master_abort" in holes

    def test_report_names_the_holes(self):
        commands = [CommandType.write(0x0, [1])]
        __, coverage = _covered_run(commands)
        text = coverage.report()
        assert "holes" in text


class TestChannelInvariants:
    def test_grant_lines_one_hot_post_synthesis(self):
        """At most one client of the synthesized channel is granted at
        any instant — checked live by an invariant monitor."""
        workloads = [
            generate_workload(seed=20 + i, n_commands=5,
                              address_base=0x400 * i, address_span=0x400)
            for i in range(3)
        ]
        bundle = build_platform(workloads, bus="pci", synthesize=True)
        channel = bundle.synthesis.groups[0].channel
        checker = OneHotChecker(
            bundle.top, "gnt_checker", channel.gnt, strict=True
        )
        bundle.run(400 * MS)
        assert checker.checks > 0
        assert not checker.violations

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
