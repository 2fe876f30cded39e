"""Runs whose fault never activates are answered from the golden run.

A faulty run is the golden run until its fault first activates, so
``execute_run`` returns the golden run's own outcome, relabelled, for
every run whose ``first_activation`` on the golden trajectory is None.
The check throughout: simulating such a run against a golden reference
without a trajectory (which screens nothing) gives the same outcome.
"""

import copy
import json

import pytest

import repro.fault.campaign as campaign
from repro.fault import (
    BENIGN,
    CampaignSpec,
    FaultSpec,
    GoldenReference,
    RunSpec,
    demo_campaign_spec,
    execute_run,
    make_fault,
    plan_campaign,
)
from repro.fault.spec import fault_targets
from repro.kernel import NS, US

CELLS = ["functional/behavioural"] + [
    f"{bus}/{level}"
    for bus in ("pci", "wishbone", "axi4lite", "tlmgp")
    for level in ("behavioural", "interpreted", "compiled")
]

CHANNEL = "top.interface.channel"


def _demo_spec(cell, seed, extras=()):
    bus, level = cell.split("/")
    spec = demo_campaign_spec(platform=bus, seed=seed)
    spec.resilience = spec.trace_spans = "resilience+spans" in extras
    spec.telemetry = "telemetry" in extras
    if level != "behavioural":
        spec.synthesize = True
        spec.backend = level
    return spec


def _spec(faults, **kwargs):
    kwargs.setdefault("platform", "pci")
    kwargs.setdefault("n_apps", 2)
    kwargs.setdefault("commands_per_app", 4)
    return CampaignSpec("screen-test", faults, **kwargs)


def _unscreened(golden):
    """The same reference without a trajectory: every run simulates."""
    return GoldenReference(golden.traces, golden.image, golden.horizon)


def _predicted(run, golden):
    fault = make_fault(run.kind, run.target_path, run.window, **run.params)
    return fault.first_activation(golden.trajectory, golden.horizon)


@pytest.fixture
def builds(monkeypatch):
    """Names of the campaign platforms built while the test runs."""
    built = []
    original = campaign.build_campaign_platform

    def counting(spec):
        built.append(spec.name)
        return original(spec)

    monkeypatch.setattr(campaign, "build_campaign_platform", counting)
    return built


def _check_screen(spec):
    """Simulate every run of *spec* against an unscreened reference.

    Every run the screen answers must simulate to zero activations and
    the same canonical outcome, and every run that simulates to zero
    activations must be answered. The one exception: a scorecard counts
    the guard-block wake a delayed_grant's window-end touch can cause,
    so under telemetry every delayed_grant window that closes inside
    the run simulates, whether or not the touch changes anything."""
    golden, runs = plan_campaign(spec)
    unscreened = _unscreened(golden)
    for run in runs:
        simulated = execute_run(spec, run, unscreened)
        assert (run.kind, run.target_path) in golden.trajectory.targets
        if _predicted(run, golden) is None:
            assert simulated.activations == 0, run
            screened = execute_run(spec, run, golden)
            assert screened.to_dict(canonical=True) == \
                simulated.to_dict(canonical=True), run
        elif not (spec.telemetry and run.kind == "delayed_grant"):
            assert simulated.activations > 0, run


class TestSoundness:
    @pytest.mark.parametrize("seed", [11, 55])
    @pytest.mark.parametrize("cell", CELLS)
    def test_demo_cell(self, cell, seed):
        _check_screen(_demo_spec(cell, seed))

    @pytest.mark.slow
    @pytest.mark.parametrize("extras", [
        ("resilience+spans",), ("telemetry",),
        ("resilience+spans", "telemetry"),
    ], ids=["resilience+spans", "telemetry", "all"])
    @pytest.mark.parametrize("seed", [11, 55])
    @pytest.mark.parametrize("cell", CELLS)
    def test_demo_cell_with_observers(self, cell, seed, extras):
        _check_screen(_demo_spec(cell, seed, extras))


class TestBoundaries:
    """Windows at the very end of the run: a timed event due exactly at
    the horizon still fires, one due after it never does, and a pending
    one must not extend the run."""

    SPEC_FAULTS = [
        FaultSpec("stuck_at", "top.bus.devsel_n", params={"value": 1}),
        FaultSpec("glitch", "top.bus.frame_n", params={"value": 0}),
        FaultSpec("delayed_grant", CHANNEL),
    ]

    @pytest.fixture(scope="class")
    def planned(self):
        spec = _spec(self.SPEC_FAULTS)
        return spec, plan_campaign(spec)[0]

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("kind, target, params", [
        ("stuck_at", "top.bus.devsel_n", {"value": 1}),
        ("glitch", "top.bus.frame_n", {"value": 0}),
        ("delayed_grant", CHANNEL, {}),
    ])
    def test_window_start_at_the_horizon(
        self, planned, kind, target, params, offset
    ):
        spec, golden = planned
        start = golden.horizon + offset
        run = RunSpec(0, kind, target, (start, start + 50 * NS), params)
        predicted = _predicted(run, golden)
        simulated = execute_run(spec, run, _unscreened(golden))
        assert (predicted is None) == (simulated.activations == 0)
        if kind != "delayed_grant":
            # Strikes due at or before the horizon fire.
            assert (predicted is None) == (offset > 0)
        if predicted is None:
            assert simulated.sim_time == golden.horizon
            assert execute_run(spec, run, golden).to_dict(canonical=True) \
                == simulated.to_dict(canonical=True)

    def _quiet_window(self, golden):
        """A window inside the longest stretch with no guard
        evaluation, closing well before the horizon."""
        lookups = golden.trajectory.lookups[CHANNEL]
        __, before, after = max(
            (b - a, a, b) for a, b in zip(lookups, lookups[1:])
        )
        assert after < golden.horizon
        return (before + 1, (before + after) // 2)

    def test_delayed_grant_window_closing_without_activating(
        self, planned
    ):
        spec, golden = planned
        run = RunSpec(0, "delayed_grant", CHANNEL, self._quiet_window(golden),
                      {})
        simulated = execute_run(spec, run, _unscreened(golden))
        # The window-end touch fires inside the run, wakes the channel
        # server, and changes nothing a plain campaign observes.
        assert _predicted(run, golden) is None
        assert simulated.activations == 0
        assert simulated.sim_time == golden.horizon
        assert execute_run(spec, run, golden).to_dict(canonical=True) == \
            simulated.to_dict(canonical=True)

    def test_scorecard_sees_the_window_end_touch(self):
        # The server waits with a call pending across the quiet window,
        # so the touch makes it re-check guards: one more guard block.
        spec = _spec(self.SPEC_FAULTS, telemetry=True)
        golden = plan_campaign(spec)[0]
        window = self._quiet_window(golden)
        run = RunSpec(0, "delayed_grant", CHANNEL, window, {})
        simulated = execute_run(spec, run, _unscreened(golden))
        assert simulated.activations == 0
        assert simulated.score["guard_blocks"] == \
            golden.outcome.score["guard_blocks"] + 1
        assert _predicted(run, golden) == window[1]
        assert execute_run(spec, run, golden).to_dict(canonical=True) == \
            simulated.to_dict(canonical=True)


class TestScreenPaths:
    @pytest.fixture(scope="class")
    def planned(self):
        spec = _spec([FaultSpec("stuck_at", "top.bus.devsel_n")])
        return spec, plan_campaign(spec)[0]

    def _late(self, golden, run_id=0, kind="stuck_at",
              target="top.bus.devsel_n"):
        start = 2 * golden.horizon
        return RunSpec(run_id, kind, target, (start, start + 1000),
                       {"value": 1})

    def test_screened_run_builds_nothing(self, planned, builds):
        spec, golden = planned
        run = self._late(golden, run_id=7)
        outcome = execute_run(spec, run, golden)
        assert builds == []
        assert (outcome.run_id, outcome.kind, outcome.target_path,
                outcome.window) == (7, run.kind, run.target_path, run.window)
        assert outcome.classification == BENIGN
        assert outcome.detail == "fault never activated"
        assert outcome.sim_time == golden.horizon
        assert outcome.wall_seconds > 0
        assert outcome.to_dict(canonical=True) == execute_run(
            spec, run, _unscreened(golden)
        ).to_dict(canonical=True)

    def test_screened_outcome_is_a_private_copy(self, planned):
        spec, golden = planned
        first = execute_run(spec, self._late(golden, run_id=1), golden)
        first.detail = "edited"
        assert golden.outcome.detail == "fault never activated"

    def test_relabel_copies_only_the_score(self):
        spec = _spec([FaultSpec("stuck_at", "top.bus.devsel_n")],
                     telemetry=True, trace_spans=True, resilience=True)
        golden = plan_campaign(spec)[0]
        run = self._late(golden, run_id=5)
        outcome = campaign._screen(spec, run, golden)
        # The relabel the screen made before: a deep copy of the golden
        # outcome carrying the run's identity.
        expected = copy.deepcopy(golden.outcome)
        expected.run_id = run.run_id
        expected.kind = run.kind
        expected.target_path = run.target_path
        expected.window = run.window
        expected.score["label"] = run.label
        for canonical in (False, True):
            assert json.dumps(outcome.to_dict(canonical)) == \
                json.dumps(expected.to_dict(canonical))
        assert outcome.spans_assembled and outcome.score["transactions"]

        def containers(value):
            if isinstance(value, (dict, list, set)):
                yield id(value)
                items = value.values() if isinstance(value, dict) else value
                for item in items:
                    yield from containers(item)

        def mutable_state(result):
            return {i for value in vars(result).values()
                    for i in containers(value)}

        assert mutable_state(outcome)
        assert not mutable_state(outcome) & mutable_state(golden.outcome)

    @pytest.mark.parametrize("kind, target", [
        ("stuck_at", "top.bus.frame_n"),  # not matched by the spec
        ("glitch", "top.bus.devsel_n"),  # a kind the spec does not use
    ])
    def test_target_outside_the_fault_lines_simulates(
        self, planned, builds, kind, target
    ):
        spec, golden = planned
        outcome = execute_run(
            spec, self._late(golden, kind=kind, target=target), golden
        )
        assert builds == [spec.name]
        assert outcome.classification == BENIGN

    def test_golden_without_trajectory_screens_nothing(self, planned, builds):
        spec, golden = planned
        execute_run(spec, self._late(golden), _unscreened(golden))
        assert builds == [spec.name]

    def test_flight_recording_campaign_simulates(
        self, planned, builds, tmp_path
    ):
        spec, golden = planned
        spec = _spec(spec.faults, flight_record_dir=str(tmp_path))
        execute_run(spec, self._late(golden), golden)
        assert builds == [spec.name]
        assert (tmp_path / "run000.jsonl").exists()

    def test_score_label_is_the_runs_own(self):
        spec = _spec([FaultSpec("stuck_at", "top.bus.devsel_n")],
                     telemetry=True)
        golden = plan_campaign(spec)[0]
        run = self._late(golden, run_id=3)
        outcome = execute_run(spec, run, golden)
        assert outcome.score["label"] == run.label
        assert outcome.score == execute_run(
            spec, run, _unscreened(golden)
        ).score

    def test_golden_stopped_by_stall_supervision_screens_nothing(self):
        # A think time past the stall watchdog's five 10 us ticks stops
        # even the fault-free run; plan from an unobserved golden run.
        spec = _spec([FaultSpec("stuck_at", "top.bus.devsel_n")],
                     commands_per_app=2, think_time=60 * US,
                     resilience=True, max_time=2000 * US)
        golden, runs = plan_campaign(spec)
        assert golden.trajectory is None and golden.outcome is None
        outcome = execute_run(spec, runs[0], golden)
        assert outcome.detail.startswith("stall watchdog")


class TestFaultTargets:
    def test_matches_like_the_expansion(self):
        spec = _spec([
            FaultSpec("bit_flip", "top.bus.*_n"),
            FaultSpec("delayed_grant", "top.*.channel"),
            FaultSpec("glitch", "no.such.path"),
        ])
        targets = fault_targets(
            spec, ["top.bus.frame_n", "top.bus.ad", "top.bus.irdy_n"],
            [CHANNEL, "top.app0.port"],
        )
        assert targets == {
            ("bit_flip", "top.bus.frame_n"),
            ("bit_flip", "top.bus.irdy_n"),
            ("delayed_grant", CHANNEL),
        }


class TestSynthesizedChannelCoverage:
    """``dropped_request`` and ``command_corruption`` wrap
    ``space.submit``, which a synthesized channel's ``client_call``
    never calls, so on the interpreted and compiled levels they never
    fire. Kept failing on purpose until the models patch a seam the
    synthesized channel uses."""

    def _activations(self, level):
        spec = demo_campaign_spec(platform="wishbone", seed=11)
        if level != "behavioural":
            spec.synthesize = True
            spec.backend = level
        golden = plan_campaign(spec)[0]
        run = RunSpec(0, "dropped_request", CHANNEL, (0, golden.horizon),
                      {"method": "put_command"})
        return execute_run(spec, run, _unscreened(golden)).activations

    def test_behavioural_channel_drops_a_request(self):
        assert self._activations("behavioural") == 1

    @pytest.mark.xfail(strict=True, reason=(
        "synthesized channels bypass space.submit, so request faults "
        "never fire on the interpreted and compiled levels"
    ))
    @pytest.mark.parametrize("level", ["interpreted", "compiled"])
    def test_synthesized_channel_drops_a_request(self, level):
        assert self._activations(level) == 1
