"""Tests for golden planning and single-run classification.

These run real (small) platforms, so each test costs a platform build
plus one or two bounded simulations.
"""

import hashlib
import json

import pytest

from repro.fault import (
    BENIGN,
    DETECTED,
    SILENT,
    CampaignSpec,
    FaultSpec,
    RunOutcome,
    RunSpec,
    classify_counts,
    detection_coverage,
    execute_run,
    injectable_targets,
    build_campaign_platform,
    demo_campaign_spec,
    plan_campaign,
    run_golden,
)
from repro.fault.durable import campaign_content_hash


def _spec(faults, **kwargs):
    kwargs.setdefault("platform", "pci")
    kwargs.setdefault("n_apps", 2)
    kwargs.setdefault("commands_per_app", 4)
    return CampaignSpec("campaign-test", faults, **kwargs)


@pytest.fixture(scope="module")
def golden_and_horizon():
    spec = _spec([FaultSpec("stuck_at", "top.bus.devsel_n")])
    golden = run_golden(spec)
    return spec, golden


class TestPlanning:
    def test_golden_reference_is_populated(self, golden_and_horizon):
        __, golden = golden_and_horizon
        assert golden.horizon > 0
        assert sum(len(t) for t in golden.traces.values()) == 8
        assert len(golden.image) > 0

    def test_injectable_targets_cover_bus_and_channel(self):
        spec = _spec([FaultSpec("stuck_at", "top.bus.devsel_n")])
        bundle = build_campaign_platform(spec)
        signal_paths, channel_paths = injectable_targets(bundle)
        assert "top.bus.ad" in signal_paths
        assert "top.interface.channel" in channel_paths

    def test_plan_expands_against_probe_build(self):
        spec = _spec([
            FaultSpec("stuck_at", "top.bus.devsel_n", repeats=2,
                      params={"value": 1}),
            FaultSpec("delayed_grant", "top.interface.channel"),
        ])
        golden, runs = plan_campaign(spec)
        assert len(runs) == 3
        assert {r.kind for r in runs} == {"stuck_at", "delayed_grant"}


#: Demo campaigns (seed 11): the run count and a digest of the expanded
#: run list per bus/level. Synthesis lowers the channel but keeps every
#: injectable path, so both backends expand identically.
EXPANSIONS = {
    "functional/behavioural": (60, "84c955b76f2c198e"),
    "pci/behavioural": (60, "34b983e118c2ee5b"),
    "pci/interpreted": (60, "c32bf7dec71f078c"),
    "pci/compiled": (60, "c32bf7dec71f078c"),
    "wishbone/behavioural": (60, "a4e8bc99f4b69367"),
    "wishbone/interpreted": (60, "acd34887cc3719f8"),
    "wishbone/compiled": (60, "acd34887cc3719f8"),
    "axi4lite/behavioural": (60, "6e7da3e531c8a817"),
    "axi4lite/interpreted": (60, "25f9216cda88f3ff"),
    "axi4lite/compiled": (60, "25f9216cda88f3ff"),
    "tlmgp/behavioural": (60, "b9865e343c31896b"),
    "tlmgp/interpreted": (60, "96082503064e1c80"),
    "tlmgp/compiled": (60, "96082503064e1c80"),
}

#: The durable content hash (first 16 hex digits) of the same specs,
#: plain and with ``resilience`` and ``trace_spans`` on.
CONTENT_HASHES = {
    "functional/behavioural": ("5fc1f26b2aa322c8", "82b6464fa8d37c4d"),
    "pci/behavioural": ("ae4e6f90c4c60716", "95b2f8563760370f"),
    "pci/interpreted": ("e7217833ba7d1fd9", "6ace674bdee912b6"),
    "pci/compiled": ("29f1d7410c562cee", "92206547e8153aa8"),
    "wishbone/behavioural": ("09a0cfcf48769f3c", "fa1a97e45f0da09e"),
    "wishbone/interpreted": ("28f160e3ff9381c1", "24dbbeebe9abf50e"),
    "wishbone/compiled": ("f8aad0bb3131a809", "1f003335209ec392"),
    "axi4lite/behavioural": ("84088f76ebded7c1", "43d88f5abdf904fc"),
    "axi4lite/interpreted": ("eb4f43280b3fc4f3", "6763c4edf60faad8"),
    "axi4lite/compiled": ("d719dc85c91f1531", "0e99cbb359ecbb5f"),
    "tlmgp/behavioural": ("0e5437afa5086d4f", "fb507a8741873b22"),
    "tlmgp/interpreted": ("4a19051857d81476", "915b8616a6c99b93"),
    "tlmgp/compiled": ("ad1fed47803b78c7", "7a14e5147eea675a"),
}


def _demo_spec(cell, extras):
    bus, level = cell.split("/")
    spec = demo_campaign_spec(platform=bus, seed=11)
    spec.resilience = spec.trace_spans = extras
    if level != "behavioural":
        spec.synthesize = True
        spec.backend = level
    return spec


class TestPlanPins:
    """The plan reads its targets off the golden build; it must expand
    exactly as planning against a separate probe build did."""

    @pytest.mark.parametrize("extras", [False, True],
                             ids=["plain", "resilience+spans"])
    @pytest.mark.parametrize("cell", sorted(EXPANSIONS))
    def test_demo_expansion_and_content_hash(self, cell, extras):
        spec = _demo_spec(cell, extras)
        __, runs = plan_campaign(spec)
        rows = [
            [run.run_id, run.kind, run.target_path,
             list(run.window) if run.window else None, run.params]
            for run in runs
        ]
        digest = hashlib.sha256(
            json.dumps(rows, sort_keys=True).encode()
        ).hexdigest()[:16]
        assert (len(runs), digest) == EXPANSIONS[cell]
        assert campaign_content_hash(spec)[:16] == CONTENT_HASHES[cell][extras]


class TestClassification:
    def _run(self, spec, kind, target, window, params):
        golden = run_golden(spec)
        run = RunSpec(0, kind, target, window, params)
        return execute_run(spec, run, golden)

    def test_post_horizon_fault_is_benign(self, golden_and_horizon):
        spec, golden = golden_and_horizon
        run = RunSpec(
            0, "stuck_at", "top.bus.devsel_n",
            (golden.horizon * 2, golden.horizon * 2 + 1000),
            {"value": 1},
        )
        outcome = execute_run(spec, run, golden)
        assert outcome.classification == BENIGN
        assert outcome.detail == "fault never activated"

    def test_stuck_devsel_mid_transaction_is_detected(
        self, golden_and_horizon
    ):
        # DEVSEL# dies while the target is already transferring: the
        # monitor sees TRDY# asserted without DEVSEL#.
        spec, golden = golden_and_horizon
        run = RunSpec(
            0, "stuck_at", "top.bus.devsel_n",
            (golden.horizon // 10, golden.horizon), {"value": 1},
        )
        outcome = execute_run(spec, run, golden)
        assert outcome.classification == DETECTED
        assert "DEVSEL" in outcome.detail

    def test_stuck_devsel_from_reset_is_silent(self, golden_and_horizon):
        # Stuck before any transaction starts, the target is never
        # selected: masters abort quietly and no monitor rule fires —
        # a genuine coverage gap the campaign is meant to expose.
        spec, golden = golden_and_horizon
        run = RunSpec(
            0, "stuck_at", "top.bus.devsel_n", (0, golden.horizon),
            {"value": 1},
        )
        outcome = execute_run(spec, run, golden)
        assert outcome.classification == SILENT
        assert outcome.detections == 0

    def test_corrupted_write_data_is_silent(self):
        # All-write workload: the first put_command carries data, the
        # corruption lands in memory, and nothing on the platform
        # checks payload integrity end to end.
        spec = _spec(
            [FaultSpec("command_corruption", "top.interface.channel")],
            write_fraction=1.0,
        )
        golden = run_golden(spec)
        run = RunSpec(
            0, "command_corruption", "top.interface.channel",
            (0, golden.horizon), {"field": "data", "mask": 0xFF00},
        )
        outcome = execute_run(spec, run, golden)
        assert outcome.classification == SILENT
        assert "diverge" in outcome.detail
        assert outcome.activations == 1

    def test_dropped_command_trips_the_watchdog(self, golden_and_horizon):
        spec, golden = golden_and_horizon
        run = RunSpec(
            0, "dropped_request", "top.interface.channel",
            (0, golden.horizon), {"method": "put_command"},
        )
        outcome = execute_run(spec, run, golden)
        assert outcome.classification == DETECTED
        assert "deadlock watchdog" in outcome.detail

    def test_outcome_to_dict_roundtrips_window(self, golden_and_horizon):
        spec, golden = golden_and_horizon
        run = RunSpec(
            7, "stuck_at", "top.bus.devsel_n",
            (golden.horizon * 2, golden.horizon * 2 + 1000),
            {"value": 1},
        )
        data = execute_run(spec, run, golden).to_dict()
        assert data["run_id"] == 7
        assert data["window"] == [golden.horizon * 2,
                                  golden.horizon * 2 + 1000]
        assert data["classification"] == BENIGN


class TestCounting:
    def _outcomes(self, classifications):
        return [
            RunOutcome(i, "stuck_at", "x", None, c)
            for i, c in enumerate(classifications)
        ]

    def test_classify_counts(self):
        counts = classify_counts(
            self._outcomes([DETECTED, DETECTED, SILENT, BENIGN])
        )
        assert counts[DETECTED] == 2
        assert counts[SILENT] == 1
        assert counts[BENIGN] == 1
        assert counts["error"] == 0

    def test_coverage_ignores_benign(self):
        coverage = detection_coverage(
            self._outcomes([DETECTED, SILENT, SILENT, BENIGN, BENIGN])
        )
        assert coverage == pytest.approx(1 / 3)

    def test_coverage_none_without_effective_faults(self):
        assert detection_coverage(self._outcomes([BENIGN, BENIGN])) is None
