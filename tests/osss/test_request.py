"""Unit tests for method requests and servicing statistics."""

import collections

import pytest

from repro.core import generate_workload
from repro.flow import build_platform
from repro.instrument.probes import METHOD_COMPLETE
from repro.kernel import MS, Simulator
from repro.kernel.event import Event
from repro.osss import MethodRequest, RequestStats
from repro.telemetry.scorecard import fairness_index


def _request(client="c", method="m", arrival=0, sim=None):
    sim = sim or Simulator()
    return MethodRequest(
        client=client,
        method=method,
        args=(1, 2),
        kwargs={"k": 3},
        arrival_time=arrival,
        done_event=Event(sim.scheduler, "done"),
        seq=next(sim.request_seqs),
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
        sim = Simulator()
        first = _request(sim=sim)
        second = _request(sim=sim)
        assert second.seq > first.seq
        # Each simulator counts its own calls from 0.
        assert _request().seq == first.seq == 0

    def test_repr_reflects_state(self):
        request = _request(client="app", method="go")
        assert "pending" in repr(request)
        request.completed = True
        assert "done" in repr(request)


class TestRequestStats:
    def test_grant_and_completion_bookkeeping(self):
        stats = RequestStats()
        stats.record_grant(_request(client="a", arrival=10))
        assert stats.grants_by_client == {"a": 1}
        stats.record_grant(_request(client="b", arrival=40))
        stats.record_grant(_request(client="a", arrival=50))
        assert stats.grants_by_client == {"a": 2, "b": 1}

    def test_empty_stats(self):
        stats = RequestStats()
        assert stats.total_requests == stats.total_completed == 0
        assert fairness_index(stats.grants_by_client.values()) is None

    def test_fairness_values(self):
        stats = RequestStats()
        stats.grants_by_client = {"a": 1, "b": 1, "c": 1}
        assert fairness_index(stats.grants_by_client.values()) == 1.0
        stats.grants_by_client = {"a": 4, "b": 1, "c": 1}
        assert 0.6 < fairness_index(stats.grants_by_client.values()) < 0.7


def _contending_workloads():
    return [
        generate_workload(seed=40 + app, n_commands=8,
                          address_base=0x400 * app, address_span=0x400,
                          max_burst=3)
        for app in range(3)
    ]


def _assert_stats_match(stats, clients):
    """*stats* holds the counts of the per-call *clients*, and no
    per-call list."""
    assert stats.total_completed == len(clients)
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
                channel.space.stats, [record.client for record in log]
            )

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
                space.stats, [request.client for request in requests]
            )
