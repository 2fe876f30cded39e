"""Self-healing campaigns: recovered outcomes, crash survival, parity
of serial and parallel execution."""

import json

import pytest

from repro.fault import (
    RECOVERED,
    WORKER_ERROR,
    CampaignSpec,
    FaultSpec,
    RunOutcome,
    RunSpec,
    demo_campaign_spec,
    execute_run,
    plan_campaign,
    recovery_rate,
    recovery_stats,
    report_as_dict,
    run_campaign,
)
from repro.kernel.simtime import NS, US


def _spec(**kwargs):
    kwargs.setdefault("platform", "pci")
    kwargs.setdefault("seed", 55)
    kwargs.setdefault("n_apps", 2)
    kwargs.setdefault("commands_per_app", 4)
    kwargs.setdefault("think_time", 240 * NS)
    kwargs.setdefault("resilience", True)
    faults = kwargs.pop(
        "faults", [FaultSpec("delayed_grant", "top.interface.channel")]
    )
    return CampaignSpec("resilience-test", faults, **kwargs)


class TestRecoveredClassification:
    def test_delayed_grant_outliving_the_policy_timeout_recovers(self):
        """The grant starves callers past the 20 us attempt deadline:
        the guard policy times out, retries, and completes once the
        window closes — damage fully absorbed at the call level."""
        spec = _spec()
        golden = plan_campaign(spec)[0]
        run = RunSpec(
            0, "delayed_grant", "top.interface.channel",
            (300 * NS, 25 * US), {},
        )
        outcome = execute_run(spec, run, golden)
        assert outcome.classification == RECOVERED
        assert outcome.recovery_events >= 1
        assert outcome.recovery_latency > 0
        assert "recoveries absorbed" in outcome.detail

    def test_master_abort_replay_recovers_the_demo_run(self):
        """Seed-55 run 7 of the stock demo campaign: DEVSEL# stuck
        deasserted mid-run, the masters abort, the interface element
        replays once the wire heals — silent becomes recovered."""
        spec = demo_campaign_spec("pci", seed=55, runs=20)
        spec.resilience = True
        golden = plan_campaign(spec)[0]
        run = RunSpec(
            7, "stuck_at", "top.bus.devsel_n",
            (881617522, 1545367522), {"value": 1},
        )
        outcome = execute_run(spec, run, golden)
        assert outcome.classification == RECOVERED
        assert outcome.recovery_latency > 0

    def test_without_resilience_the_same_run_stays_damaged(self):
        spec = _spec(resilience=False)
        golden = plan_campaign(spec)[0]
        run = RunSpec(
            0, "delayed_grant", "top.interface.channel",
            (300 * NS, 25 * US), {},
        )
        outcome = execute_run(spec, run, golden)
        assert outcome.classification != RECOVERED
        assert outcome.recovery_events == 0


class TestSerialParallelParity:
    def test_serial_equals_parallel_with_resilience(self):
        spec = _spec(
            faults=[
                FaultSpec("stuck_at", "top.bus.devsel_n", repeats=2,
                          params={"value": 1}),
                FaultSpec("delayed_grant", "top.interface.channel",
                          repeats=2),
            ],
        )
        serial = run_campaign(spec, workers=1)
        parallel = run_campaign(spec, workers=2)
        assert [o.to_dict() | {"wall_seconds": 0}
                for o in serial.outcomes] == \
               [o.to_dict() | {"wall_seconds": 0}
                for o in parallel.outcomes]

    def test_serial_equals_parallel_with_crashes(self):
        spec = _spec(
            faults=[FaultSpec("delayed_grant", "top.interface.channel",
                              repeats=4)],
            crash_run_ids=(1,),
        )
        serial = run_campaign(spec, workers=1)
        parallel = run_campaign(spec, workers=2)
        assert [(o.run_id, o.classification, o.detail)
                for o in serial.outcomes] == \
               [(o.run_id, o.classification, o.detail)
                for o in parallel.outcomes]


class TestSelfHealingRunner:
    def test_completed_runs_survive_a_worker_crash(self):
        spec = _spec(
            faults=[FaultSpec("delayed_grant", "top.interface.channel",
                              repeats=4)],
            crash_run_ids=(2,),
        )
        result = run_campaign(spec, workers=2)
        assert len(result.outcomes) == 4
        by_id = {o.run_id: o for o in result.outcomes}
        assert by_id[2].classification == WORKER_ERROR
        assert "worker process died" in by_id[2].detail
        for run_id in (0, 1, 3):
            assert by_id[run_id].classification != WORKER_ERROR
        assert result.pool_restarts >= 1

    def test_crashes_fail_the_cli_exit_code_path(self):
        spec = _spec(
            faults=[FaultSpec("delayed_grant", "top.interface.channel",
                              repeats=2)],
            crash_run_ids=(0,),
        )
        result = run_campaign(spec, workers=1)
        assert any(
            o.classification == WORKER_ERROR for o in result.outcomes
        )


class TestRecoveryReporting:
    def _outcomes(self):
        def outcome(run_id, classification, events=0, latency=0):
            return RunOutcome(
                run_id, "stuck_at", "top.bus.devsel_n", (0, 1),
                classification, recovery_events=events,
                recovery_latency=latency,
            )

        return [
            outcome(0, "recovered", events=2, latency=1000),
            outcome(1, "recovered", events=1, latency=3000),
            outcome(2, "detected"),
            outcome(3, "silent"),
            outcome(4, "benign"),
        ]

    def test_recovery_rate_counts_effective_faults_only(self):
        assert recovery_rate(self._outcomes()) == pytest.approx(0.5)
        assert recovery_rate([]) is None

    def test_recovery_stats_aggregate_latencies(self):
        stats = recovery_stats(self._outcomes())
        assert stats["recovery_events"] == 3
        assert stats["mean_recovery_latency"] == 2000
        assert stats["max_recovery_latency"] == 3000

    def test_report_dict_carries_resilience_fields(self):
        spec = _spec(
            faults=[FaultSpec("delayed_grant", "top.interface.channel")],
        )
        result = run_campaign(spec, workers=1)
        report = report_as_dict(result)
        assert report["resilience"] is True
        assert "recovered" in report["classifications"]
        assert "recovery" in report
        assert "pool_restarts" in report
        assert "recovery_rate" in report
        json.dumps(report)  # stays JSON-serialisable

    def test_outcome_dict_carries_recovery_fields(self):
        outcome = RunOutcome(
            0, "stuck_at", "top.bus.devsel_n", (0, 1), RECOVERED,
            recovery_events=1, recovery_latency=42,
        )
        data = outcome.to_dict()
        assert data["recovery_events"] == 1
        assert data["recovery_latency"] == 42


@pytest.mark.slow
class TestSeedFiftyFiveAcceptance:
    def test_demo_campaign_reclassifies_damage_as_recovered(self):
        spec = demo_campaign_spec("pci", seed=55, runs=20)
        spec.resilience = True
        result = run_campaign(spec, workers=2, max_runs=20)
        recovered = [
            o for o in result.outcomes if o.classification == RECOVERED
        ]
        assert recovered
        assert all(o.recovery_latency > 0 for o in recovered)

        baseline = demo_campaign_spec("pci", seed=55, runs=20)
        baseline_result = run_campaign(baseline, workers=2, max_runs=20)
        assert all(
            o.classification != RECOVERED for o in baseline_result.outcomes
        )
