"""Unit tests for method requests and servicing statistics."""

import collections

import pytest

from repro.core import generate_workload
from repro.flow import build_platform
from repro.instrument.probes import METHOD_COMPLETE
from repro.kernel import MS, Simulator
from repro.kernel.event import Event
from repro.osss import MethodRequest, RequestStats


def _request(client="c", method="m", arrival=0, priority=0):
    sim = Simulator()
    return MethodRequest(
        client=client,
        method=method,
        args=(1, 2),
        kwargs={"k": 3},
        arrival_time=arrival,
        done_event=Event(sim.scheduler, "done"),
        priority=priority,
    )


class TestMethodRequest:
    def test_initial_state(self):
        request = _request()
        assert not request.completed
        assert request.error is None
        assert request.grant_time is None
        assert request.args == (1, 2)
        assert request.kwargs == {"k": 3}

    def test_sequence_numbers_monotonic(self):
        first = _request()
        second = _request()
        assert second.seq > first.seq

    def test_wait_time(self):
        request = _request(arrival=100)
        assert request.wait_time == 0  # never granted
        request.grant_time = 250
        assert request.wait_time == 150

    def test_repr_reflects_state(self):
        request = _request(client="app", method="go")
        assert "pending" in repr(request)
        request.completed = True
        assert "done" in repr(request)


class TestRequestStats:
    def test_grant_and_completion_bookkeeping(self):
        stats = RequestStats()
        request = _request(client="a", arrival=10)
        request.grant_time = 30
        stats.record_grant(request)
        stats.record_completion(request)
        assert stats.grants_by_client == {"a": 1}
        assert stats.total_completed == 1
        assert stats.mean_wait_time == 20.0
        assert stats.max_wait_time == 20
        second = _request(client="b", arrival=40)
        second.grant_time = 45
        stats.record_grant(second)
        stats.record_completion(second)
        assert stats.grants_by_client == {"a": 1, "b": 1}
        assert stats.total_completed == 2
        assert stats.mean_wait_time == 12.5
        assert stats.max_wait_time == 20

    def test_mean_and_max_wait(self):
        stats = RequestStats()
        for arrival, grant in ((0, 10), (0, 30)):
            request = _request(arrival=arrival)
            request.grant_time = grant
            stats.record_completion(request)
        assert stats.mean_wait_time == 20.0
        assert stats.max_wait_time == 30

    def test_empty_stats(self):
        stats = RequestStats()
        assert stats.mean_wait_time == 0.0
        assert stats.max_wait_time == 0
        assert stats.fairness_index() == 1.0

    def test_fairness_values(self):
        stats = RequestStats()
        stats.grants_by_client = {"a": 1, "b": 1, "c": 1}
        assert stats.fairness_index() == 1.0
        stats.grants_by_client = {"a": 3, "b": 0, "c": 0}
        assert 0.3 < stats.fairness_index() < 0.4


def _contending_workloads():
    return [
        generate_workload(seed=40 + app, n_commands=8,
                          address_base=0x400 * app, address_span=0x400,
                          max_burst=3)
        for app in range(3)
    ]


def _assert_stats_match(stats, waits, clients):
    """*stats* holds the aggregates of the per-call *waits* and
    *clients*, and no per-call list."""
    assert stats.total_completed == len(waits)
    assert stats.mean_wait_time == sum(waits) / len(waits)
    assert stats.max_wait_time == max(waits)
    assert stats.grants_by_client == dict(collections.Counter(clients))
    assert not any(isinstance(value, list) for value in vars(stats).values())


class TestStatsOfAFinishedRun:
    """A run's constant-size statistics give what its per-call records
    give when recomputed."""

    @pytest.mark.parametrize("bus", ["pci", "wishbone", "axi4lite", "tlmgp"])
    def test_synthesized_stats_match_the_call_log(self, bus):
        bundle = build_platform(_contending_workloads(), bus=bus,
                                synthesize=True)
        bundle.run(100 * MS)
        channels = [group.channel for group in bundle.synthesis.groups]
        assert channels
        for channel in channels:
            log = channel.call_log
            assert log
            _assert_stats_match(
                channel.space.stats,
                [record.wait_time for record in log],
                [record.client for record in log],
            )
        assert any(channel.space.stats.max_wait_time for channel in channels)

    def test_behavioural_stats_match_the_completed_calls(self):
        bundle = build_platform(_contending_workloads(), bus="pci")
        completed = collections.defaultdict(list)
        bundle.handle.sim.probes.subscribe(
            METHOD_COMPLETE,
            lambda time, space, request: completed[space].append(request),
        )
        bundle.run(100 * MS)
        assert completed
        for space, requests in completed.items():
            _assert_stats_match(
                space.stats,
                [request.wait_time for request in requests],
                [request.client for request in requests],
            )
        assert any(space.stats.max_wait_time for space in completed)
