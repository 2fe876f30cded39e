"""The synthesized channel's fast paths against the full-edge RTL poll.

Unperturbed, the channel core takes two fast paths: an IDLE edge that
nothing has moved since an edge that granted nothing does constant work
(the arbiter's clock is deferred), and a waiting client sleeps until
the edge where DONE is first sampled. Each test runs one scenario
twice, once as is and once with the fast paths removed (the channel's
predicate is patched to false, so every edge is a full edge and every
client polls), and requires the same outcome: every committed
handshake value, the call log, the cycle counts, the clients' results,
the end of the run and any error it raised.
"""

import random

import pytest

from repro.fault.models import (
    BitFlipFault,
    DelayedGrantFault,
    StuckAtFault,
    TransientGlitchFault,
)
from repro.hdl import Clock, Module
from repro.instrument.probes import PROCESS_ACTIVATE, SIGNAL_COMMIT
from repro.kernel import NS, Simulator
from repro.kernel.process import Timeout
from repro.osss import GlobalObject, connect, guarded_method
from repro.osss.arbiter import (
    FcfsArbiter,
    RandomArbiter,
    RoundRobinArbiter,
    StaticPriorityArbiter,
)
from repro.synthesis import SynthesisConfig, synthesize_communication
from repro.synthesis.arbiter_synth import (
    RtlFcfsPolicy,
    RtlRandomPolicy,
    RtlRoundRobinPolicy,
    RtlStaticPriorityPolicy,
)

PERIOD = 10 * NS
END = 3000 * NS
CHANNEL = "odette_synth.chan0_keeper_gate"


class Gate:
    """Takers block until the keeper opens the gate."""

    def __init__(self):
        self.open = False
        self.taken = 0

    @guarded_method(lambda self: self.open)
    def take(self):
        self.taken += 1
        return self.taken

    @guarded_method()
    def toggle(self):
        self.open = not self.open
        return self.open


class Taker(Module):
    def __init__(self, parent, name, delay):
        super().__init__(parent, name)
        self.gate = GlobalObject(self, "gate", Gate)
        self.results = []
        self._delay = delay
        self.thread(self._work, "work")

    def _work(self):
        for __ in range(6):
            yield Timeout(self._delay)
            value = yield from self.gate.take()
            self.results.append((self.sim.time, value))


class Keeper(Module):
    """Opens and closes the gate on a fixed schedule."""

    def __init__(self, parent, name, arbiter):
        super().__init__(parent, name)
        self.gate = GlobalObject(self, "gate", Gate, arbiter=arbiter)
        self.thread(self._work, "work")

    def _work(self):
        for delay in (170, 90, 260, 60, 310, 140, 200, 400):
            yield Timeout(delay * NS)
            yield from self.gate.toggle()


ARBITERS = {
    "fcfs": FcfsArbiter,
    "round_robin": RoundRobinArbiter,
    "static_priority": lambda: StaticPriorityArbiter(
        {"t0.gate": 3, "t1.gate": 1, "t2.gate": 2}
    ),
    "random": lambda: RandomArbiter(seed=5),
}


def _build(backend="interpreted", arbiter="fcfs"):
    sim = Simulator()
    clock = Clock(sim, "clock", period=PERIOD)
    takers = [Taker(sim, f"t{i}", (3 + 7 * i) * NS) for i in range(3)]
    keeper = Keeper(sim, "keeper", ARBITERS[arbiter]())
    connect(keeper.gate, *(taker.gate for taker in takers))
    result = synthesize_communication(
        sim, clock.clk, SynthesisConfig(emit_hdl=False, backend=backend)
    )
    channel = result.groups[0].channel
    assert channel.path == CHANNEL
    return sim, channel, takers


def _outcome(fast, scenario, backend="interpreted", arbiter="fcfs"):
    """Run *scenario* (a list of ``(time, action)``) on a fresh design;
    everything an observer of the run can see."""
    sim, channel, takers = _build(backend, arbiter)
    if not fast:
        channel._quiet = lambda: False
    commits = []

    def on_commit(time, signal, value):
        # Integer wires only: payload and result carry live objects.
        if signal.name.startswith(CHANNEL) and signal.width is not None:
            commits.append((time, signal.name, str(value)))

    sim.probes.subscribe(SIGNAL_COMMIT, on_commit)
    error = None
    armed = []
    try:
        for time, action in scenario:
            sim.run(time - sim.time)
            armed.append(action(sim, channel))
        sim.run(END - sim.time)
    except Exception as raised:  # compared, not swallowed
        error = f"{type(raised).__name__}: {raised}"
    return {
        "error": error,
        "activations": [fault.activations for fault in armed if fault],
        "end": (sim.time, sim.delta_count),
        "commits": commits,
        "log": [
            (r.client, r.method, r.request_time, r.grant_time, r.done_time)
            for r in channel.call_log
        ],
        "cycles": (channel.idle_cycles, channel.busy_cycles),
        "results": [taker.results for taker in takers],
    }


def _same_as_polling(scenario, backend="interpreted", arbiter="fcfs"):
    fast = _outcome(True, scenario, backend, arbiter)
    assert fast == _outcome(False, scenario, backend, arbiter)
    return fast


def _first_time(predicate, hold=0):
    """The first posedge after which *predicate* (on the channel) holds,
    then *hold* further clocks while it keeps holding."""
    sim, channel, __ = _build()
    while not predicate(channel):
        sim.run(PERIOD)
        assert sim.time < END, "scenario never reached"
    for __ in range(hold):
        sim.run(PERIOD)
        assert predicate(channel)
    return sim.time


def _blocked_with_request(channel):
    return channel._blocked and any(wire.to_int() for wire in channel.req)


def _sleeping(channel):
    return bool(channel._sleepers)


BACKENDS = ["interpreted", "compiled"]


@pytest.fixture(scope="module")
def blocked_time():
    return _first_time(_blocked_with_request, hold=3)


@pytest.fixture(scope="module")
def sleeping_time():
    return _first_time(_sleeping)


@pytest.fixture(scope="module")
def called_time():
    """The first posedge after a call completed: the channel's wires
    carry requests."""
    return _first_time(lambda channel: bool(channel.call_log))


@pytest.fixture(scope="module")
def blocked_after_call_time():
    return _first_time(
        lambda channel: bool(channel.call_log) and _blocked_with_request(channel),
        hold=3,
    )


@pytest.fixture(scope="module")
def sleeping_port(sleeping_time):
    sim, channel, __ = _build()
    sim.run(sleeping_time)
    return channel.client_paths.index(channel._sleepers[0].client)


class TestUnperturbed:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fast_paths_run_and_match(self, backend):
        outcome = _same_as_polling([], backend)
        assert all(len(results) == 6 for results in outcome["results"])

    def test_backends_agree(self):
        assert _outcome(True, [], "interpreted") == _outcome(True, [], "compiled")


def _arm(make):
    """An action that arms a fresh fault from *make* and returns it."""

    def arm(sim, channel):
        fault = make()
        fault.arm(sim)
        return fault

    return arm


class TestFaultArmedMidBlockedPhase:
    FAULTS = {
        "bit_flip_state": lambda t: BitFlipFault(
            f"{CHANNEL}.server_state", window=(t, END), bit=0
        ),
        "stuck_state": lambda t: StuckAtFault(
            f"{CHANNEL}.server_state", window=(t, t + 200 * NS), value=2
        ),
        "delayed_grant": lambda t: DelayedGrantFault(
            "keeper.gate", window=(t, t + 400 * NS)
        ),
        "glitch_req": lambda t: TransientGlitchFault(
            f"{CHANNEL}.req_1", window=(t + 5 * NS, t + 45 * NS), value=0
        ),
        "stuck_done": lambda t: StuckAtFault(
            f"{CHANNEL}.done_1", window=(t, t + 300 * NS), value=0
        ),
    }

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_same_outcome(self, fault, backend, blocked_time):
        make = self.FAULTS[fault]
        _same_as_polling(
            [(blocked_time, _arm(lambda: make(blocked_time)))], backend
        )


class TestFaultArmedWhileClientSleeps:
    FAULTS = {
        "stuck_done": lambda t, k: StuckAtFault(
            f"{CHANNEL}.done_{k}", window=(t, t + 150 * NS), value=0
        ),
        "glitch_done_high": lambda t, k: TransientGlitchFault(
            f"{CHANNEL}.done_{k}", window=(t + 3 * NS, t + 30 * NS), value=1
        ),
        "bit_flip_done": lambda t, k: BitFlipFault(
            f"{CHANNEL}.done_{k}", window=(t, END), bit=0
        ),
        "bit_flip_req": lambda t, k: BitFlipFault(
            f"{CHANNEL}.req_{k}", window=(t, END), bit=0
        ),
    }

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_same_outcome(self, fault, backend, sleeping_time, sleeping_port):
        make = self.FAULTS[fault]
        _same_as_polling(
            [(sleeping_time, _arm(lambda: make(sleeping_time, sleeping_port)))],
            backend,
        )


class TestFullEdgeWritePattern:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_state_written_every_edge_under_a_hook(self, backend):
        """A per-instance update hook on ``server_state`` sees one
        commit per edge, as the RTL server writes it."""
        sim, channel, __ = _build(backend)
        calls = [0]
        original = channel.state_sig._perform_update

        def counted():
            calls[0] += 1
            original()

        channel.state_sig._perform_update = counted
        sim.run(END)
        assert calls[0] == channel.idle_cycles + channel.busy_cycles


class TestForcedWire:
    FORCES = {
        "state": lambda channel: channel.state_sig.force(3),
        "req_low": lambda channel: channel.req[1].force(0),
        "done_high": lambda channel: channel.done[2].force(1),
        "gnt_high": lambda channel: channel.gnt[0].force(1),
    }

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("force", sorted(FORCES))
    @pytest.mark.parametrize("when", ["blocked", "sleeping"])
    def test_same_outcome(self, force, when, backend, request):
        time = request.getfixturevalue(f"{when}_time")
        apply = self.FORCES[force]
        _same_as_polling(
            [(time, lambda sim, channel: apply(channel))], backend
        )


class TestOutOfBandState:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_touch_reopens_a_blocked_gate(self, backend, blocked_time):
        def open_gate(sim, channel):
            channel.space.state.open = True
            channel.space.touch()

        outcome = _same_as_polling([(blocked_time, open_gate)], backend)
        granted = [record[3] for record in outcome["log"]]
        # The touch let a blocked taker through at the next edge.
        assert blocked_time + PERIOD in granted or any(
            blocked_time < time <= blocked_time + PERIOD for time in granted
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_checkpoint_restore(
        self, backend, called_time, blocked_after_call_time
    ):
        """The restore reopens the gate and puts the captured requests
        back on the payload wires, while the clients sleep on later
        calls of their own."""
        saved = {}

        def capture(sim, channel):
            saved["checkpoint"] = sim.checkpoint()

        def restore(sim, channel):
            sim.restore(saved["checkpoint"])

        outcome = _same_as_polling(
            [(called_time, capture), (blocked_after_call_time, restore)],
            backend,
        )
        assert outcome["error"] is None
        assert outcome["results"] != _outcome(True, [], backend)["results"]


class TestActivationObserver:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_subscribe_and_unsubscribe_mid_run(
        self, backend, sleeping_time, blocked_time
    ):
        activations = []

        def on_activate(time, process, cause):
            activations.append(time)

        def subscribe(sim, channel):
            sim.probes.subscribe(PROCESS_ACTIVATE, on_activate)

        def unsubscribe(sim, channel):
            sim.probes.unsubscribe(PROCESS_ACTIVATE, on_activate)

        later = max(sleeping_time, blocked_time) + 400 * NS
        _same_as_polling(
            [(sleeping_time, subscribe), (later, unsubscribe)], backend
        )
        assert activations


class TestArbiterCatchUp:
    POLICIES = {
        "fcfs": lambda n: RtlFcfsPolicy(n),
        "round_robin": lambda n: RtlRoundRobinPolicy(n),
        "static_priority": lambda n: RtlStaticPriorityPolicy(
            n, list(range(n, 0, -1))
        ),
        "random": lambda n: RtlRandomPolicy(n),
    }

    @staticmethod
    def _state(policy):
        return (
            getattr(policy, "ages", None), getattr(policy, "lfsr", None),
            getattr(policy, "pointer", None),
        )

    @pytest.mark.parametrize("kind", sorted(POLICIES))
    def test_deferred_clocks_replay_exactly(self, kind):
        rng = random.Random(kind)
        n = 4
        ticked, deferred = self.POLICIES[kind](n), self.POLICIES[kind](n)
        for __ in range(300):
            requesting = [rng.random() < 0.6 for __ in range(n)]
            clocks = rng.choice([1, 1, 2, 3, 7, 40, 300])
            for __ in range(clocks):
                ticked.tick(requesting)
            deferred.tick(requesting)
            deferred.lag += clocks - 1
            eligible = [i for i in range(n) if requesting[i]]
            if eligible and rng.random() < 0.7:
                assert deferred.select(eligible) == ticked.select(eligible)
            assert self._state(deferred) == self._state(ticked)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("arbiter", sorted(ARBITERS))
    def test_channel_arbitrates_as_polling(self, arbiter, backend):
        outcome = _same_as_polling([], backend, arbiter)
        assert len(outcome["log"]) == 3 * 6 + 8

    @pytest.mark.parametrize("arbiter", sorted(ARBITERS))
    def test_policy_state_after_the_run(self, arbiter):
        states = []
        for fast in (True, False):
            sim, channel, __ = _build(arbiter=arbiter)
            if not fast:
                channel._quiet = lambda: False
            sim.run(END)
            states.append(self._state(channel.policy))
        assert states[0] == states[1]
