"""Unit and property tests for the scheduling algorithms."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ArbitrationError
from repro.kernel import Simulator
from repro.osss import (
    FcfsArbiter,
    MethodRequest,
    RandomArbiter,
    RoundRobinArbiter,
    StaticPriorityArbiter,
)


#: One simulator draws every request's sequence number, so submission
#: order breaks ties as it does within a run.
_SIM = Simulator()


def _request(client, arrival=0):
    from repro.kernel.event import Event

    return MethodRequest(
        client=client,
        method="m",
        args=(),
        kwargs={},
        arrival_time=arrival,
        done_event=Event(_SIM.scheduler, "done"),
        seq=next(_SIM.request_seqs),
    )


class TestFcfs:
    def test_earliest_arrival_wins(self):
        arbiter = FcfsArbiter()
        late = _request("a", arrival=10)
        early = _request("b", arrival=5)
        assert arbiter.select([late, early]) is early

    def test_ties_broken_by_submission_order(self):
        arbiter = FcfsArbiter()
        first = _request("a", arrival=7)
        second = _request("b", arrival=7)
        assert arbiter.select([second, first]) is first

    def test_empty_rejected(self):
        with pytest.raises(ArbitrationError):
            FcfsArbiter().select([])


class TestRoundRobin:
    def test_rotation(self):
        arbiter = RoundRobinArbiter()
        a, b, c = _request("a"), _request("b"), _request("c")
        assert arbiter.select([a, b, c]).client == "a"
        # a rotates to the back: b now wins.
        a2 = _request("a")
        assert arbiter.select([a2, b, c]).client == "b"
        assert arbiter.select([a2, _request("b"), c]).client == "c"
        assert arbiter.select([a2, _request("b"), _request("c")]).client == "a"

    def test_absent_clients_skipped(self):
        arbiter = RoundRobinArbiter()
        arbiter.select([_request("a"), _request("b")])
        # Only a requests now; it wins despite having just been served.
        assert arbiter.select([_request("a")]).client == "a"


class TestStaticPriority:
    def test_lowest_number_wins(self):
        arbiter = StaticPriorityArbiter({"low": 10, "high": 1})
        low = _request("low")
        high = _request("high")
        assert arbiter.select([low, high]) is high

    def test_default_priority_for_unknown(self):
        arbiter = StaticPriorityArbiter({"vip": 1}, default_priority=50)
        assert arbiter.priority_of("vip") == 1
        assert arbiter.priority_of("anyone") == 50

    def test_equal_priority_falls_back_to_fcfs(self):
        arbiter = StaticPriorityArbiter({})
        early = _request("a", arrival=1)
        late = _request("b", arrival=2)
        assert arbiter.select([late, early]) is early


class TestRandom:
    def test_deterministic_for_seed(self):
        requests = [_request(c) for c in "abcd"]
        picks_1 = [RandomArbiter(seed=3).select(requests).client for __ in range(5)]
        picks_2 = [RandomArbiter(seed=3).select(requests).client for __ in range(5)]
        assert picks_1 == picks_2

    def test_selects_within_eligible(self):
        arbiter = RandomArbiter(seed=9)
        requests = [_request(c) for c in "ab"]
        for __ in range(20):
            assert arbiter.select(requests) in requests

    def test_spreads_over_clients(self):
        arbiter = RandomArbiter(seed=1)
        requests = [_request(c) for c in "abcd"]
        picks = {arbiter.select(requests).client for __ in range(50)}
        assert len(picks) >= 3


# -- properties ---------------------------------------------------------------

client_names = st.lists(
    st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=5, unique=True
)


@given(client_names, st.integers(min_value=0, max_value=3))
def test_every_arbiter_selects_from_eligible(clients, which):
    arbiter = [FcfsArbiter(), RoundRobinArbiter(),
               StaticPriorityArbiter({}), RandomArbiter(seed=7)][which]
    requests = [_request(c, arrival=i) for i, c in enumerate(clients)]
    chosen = arbiter.select(requests)
    assert chosen in requests


@given(client_names)
def test_round_robin_no_starvation(clients):
    """Every persistent requester is served within len(clients) grants."""
    arbiter = RoundRobinArbiter()
    served = set()
    for __ in range(len(clients)):
        requests = [_request(c) for c in clients]
        served.add(arbiter.select(requests).client)
    assert served == set(clients)
