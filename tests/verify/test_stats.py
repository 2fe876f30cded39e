"""Tests for the platform statistics report."""

import pytest

from repro.core import generate_workload
from repro.flow import build_platform
from repro.kernel import MS
from repro.verify import LatencySummary, PlatformStats, percentile


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_single(self):
        assert percentile([7], 0.5) == 7.0
        assert percentile([7], 0.99) == 7.0

    def test_ordering_independent(self):
        values = [5, 1, 9, 3, 7]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 0.99) == 9.0
        assert percentile(values, 0.5) == 5.0


class TestLatencySummary:
    def test_basic_stats(self):
        summary = LatencySummary([10, 20, 30, 40])
        assert summary.count == 4
        assert summary.mean == 25.0
        assert summary.minimum == 10
        assert summary.maximum == 40

    def test_empty_samples(self):
        summary = LatencySummary([])
        assert summary.count == 0
        assert summary.mean == 0.0

    def test_row_scaling(self):
        summary = LatencySummary([1000, 3000])
        row = summary.row(unit=1000)
        assert row[0] == 2
        assert row[2] == 1  # min scaled


class TestPlatformStats:
    @pytest.fixture(scope="class")
    def bundle(self):
        workload = generate_workload(seed=71, n_commands=12,
                                     address_span=0x200, max_burst=3)
        bundle = build_platform([workload], bus="pci", synthesize=True)
        bundle.run(100 * MS)
        return bundle

    def test_bus_utilization_in_range(self, bundle):
        stats = PlatformStats(bundle)
        assert 0.0 < stats.bus_utilization < 1.0
        assert stats.bus_cycles > 0

    def test_channel_utilization_present_post_synthesis(self, bundle):
        stats = PlatformStats(bundle)
        assert stats.channel_utilization is not None
        assert 0.0 < stats.channel_utilization <= 1.0
        assert stats.channel_calls > 0

    def test_app_latency_summaries(self, bundle):
        stats = PlatformStats(bundle)
        assert "app0" in stats.app_latencies
        assert stats.app_latencies["app0"].count == 12

    def test_render_text(self, bundle):
        text = PlatformStats(bundle).render()
        assert "bus utilization" in text
        assert "app0" in text
        assert "p95" in text
