"""Tests for the parallel campaign runner and the report renderers."""

import concurrent.futures
import json
from concurrent.futures.process import BrokenProcessPool

from repro.fault import (
    CampaignSpec,
    FaultSpec,
    default_workers,
    demo_campaign_spec,
    per_kind_breakdown,
    render_report,
    report_as_dict,
    report_as_json,
    run_campaign,
)
from repro.fault.campaign import execute_run
from repro.telemetry.progress import CampaignProgress


def _small_spec(seed=19):
    return CampaignSpec(
        "runner-test",
        [
            FaultSpec("stuck_at", "top.bus.devsel_n", repeats=3,
                      params={"value": 1}),
            FaultSpec("dropped_request", "top.interface.channel",
                      repeats=3, params={"method": "put_command"}),
        ],
        platform="pci",
        seed=seed,
        n_apps=2,
        commands_per_app=4,
    )


def _fingerprint(result):
    """Everything that must be invariant across runner modes/reruns."""
    return [
        (o.run_id, o.kind, o.target_path, o.window, o.classification,
         o.detail, o.activations)
        for o in result.outcomes
    ]


class TestRunner:
    def test_serial_and_parallel_agree(self):
        serial = run_campaign(_small_spec(), workers=1)
        parallel = run_campaign(_small_spec(), workers=2)
        assert serial.workers == 1
        assert parallel.workers == 2
        assert _fingerprint(serial) == _fingerprint(parallel)

    def test_same_seed_reproduces_classifications(self):
        first = run_campaign(_small_spec(seed=5), workers=1)
        second = run_campaign(_small_spec(seed=5), workers=1)
        assert _fingerprint(first) == _fingerprint(second)

    def test_outcomes_sorted_by_run_id(self):
        result = run_campaign(_small_spec(), workers=2)
        assert [o.run_id for o in result.outcomes] == list(range(6))

    def test_max_runs_truncates(self):
        result = run_campaign(_small_spec(), workers=1, max_runs=2)
        assert len(result.outcomes) == 2

    def test_progress_callback_sees_every_run(self):
        seen = []

        class Recorder(CampaignProgress):
            def record_outcome(self, outcome):
                seen.append(outcome.run_id)

        run_campaign(_small_spec(), workers=1, monitor=Recorder())
        assert sorted(seen) == list(range(6))

    def test_throughput_accounting(self):
        result = run_campaign(_small_spec(), workers=1, max_runs=2)
        assert result.wall_seconds > 0
        assert result.runs_per_second > 0

    def test_default_workers_at_least_one(self):
        assert default_workers() >= 1


class _PoolBrokenOnSubmit:
    """A process pool whose ``submit`` raises ``BrokenProcessPool`` once
    it has taken ``limit`` runs, as a real pool does when a worker died
    before the last submit. The runs it takes execute in-process."""

    limit = 2

    def __init__(self, max_workers, initializer, initargs):
        self.spec, self.golden = initargs[0], initargs[1]
        self.taken = 0

    def submit(self, fn, run):
        if self.taken == self.limit:
            raise BrokenProcessPool("a worker died")
        self.taken += 1
        future = concurrent.futures.Future()
        future.set_result(execute_run(self.spec, run, self.golden))
        return future

    def shutdown(self, wait=True):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()


class TestBrokenSubmit:
    def test_runs_not_submitted_are_quarantined(self, monkeypatch):
        serial = run_campaign(_small_spec(), workers=1)
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _PoolBrokenOnSubmit
        )
        parallel = run_campaign(_small_spec(), workers=2)
        assert _fingerprint(parallel) == _fingerprint(serial)
        # Runs 0 and 1 were taken; the other four were retried alone,
        # each in its own single-worker pool.
        assert parallel.pool_restarts == 4


class TestReport:
    def _result(self):
        return run_campaign(demo_campaign_spec("pci", seed=11, runs=12),
                            workers=1, max_runs=12)

    def test_render_mentions_kinds_and_coverage(self):
        result = self._result()
        text = render_report(result)
        assert "demo-pci" in text
        assert "detection coverage" in text
        assert "stuck_at" in text
        assert "runs/s" in text

    def test_verbose_render_has_per_run_rows(self):
        result = self._result()
        text = render_report(result, verbose=True)
        assert "\n000  " in text
        assert "detail" in text

    def test_dict_report_shape(self):
        result = self._result()
        data = report_as_dict(result)
        assert data["campaign"] == "demo-pci"
        assert data["runs"] == 12
        assert sum(data["classifications"].values()) == 12
        assert len(data["outcomes"]) == 12
        assert data["golden"]["horizon"] > 0
        assert set(per_kind_breakdown(result)) == \
            {o.kind for o in result.outcomes}

    def test_json_report_parses(self):
        result = self._result()
        assert json.loads(report_as_json(result))["campaign"] == "demo-pci"
