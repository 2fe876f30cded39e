"""Campaign telemetry: scorecards, flight records and live progress.

These run real campaigns (small ones), so each test costs a golden
reference plus a handful of bounded simulations.
"""

import collections
import json
import os

import pytest

from repro.fault import run_campaign
from repro.fault.campaign import WORKER_ERROR, flight_record_path
from repro.fault.report import merged_telemetry, render_report, report_as_dict
from repro.fault.spec import demo_campaign_spec
from repro.telemetry.progress import CampaignProgress


def _spec(runs=6, **overrides):
    spec = demo_campaign_spec(platform="pci", seed=11, runs=runs)
    for name, value in overrides.items():
        setattr(spec, name, value)
    return spec


class TestCampaignScorecards:
    def test_outcomes_carry_scores(self):
        result = run_campaign(_spec(telemetry=True), max_runs=4)
        scored = [o for o in result.outcomes if o.score]
        assert len(scored) == 4
        for outcome in scored:
            assert outcome.score["bus"] == "pci"
            assert outcome.score["level"] == "functional"
            assert outcome.to_dict()["telemetry"] == outcome.score

    def test_telemetry_off_by_default(self):
        result = run_campaign(_spec(), max_runs=2)
        assert all(o.score is None for o in result.outcomes)
        assert merged_telemetry(result) is None
        assert report_as_dict(result)["telemetry"] is None
        assert "telemetry:" not in render_report(result)

    def test_serial_and_pool_merge_to_identical_digests(self):
        serial = run_campaign(_spec(telemetry=True), workers=1, max_runs=6)
        pooled = run_campaign(_spec(telemetry=True), workers=2, max_runs=6)
        merged_serial = merged_telemetry(serial).to_dict()
        merged_pooled = merged_telemetry(pooled).to_dict()
        assert merged_serial == merged_pooled
        assert merged_serial["transactions"] > 0
        assert merged_serial["latency"]["count"] > 0

    def test_report_renders_telemetry_line(self):
        result = run_campaign(_spec(telemetry=True), max_runs=3)
        text = render_report(result)
        assert "telemetry:" in text
        assert "p50/p95/p99" in text


class TestFlightRecords:
    def test_every_run_dumps_a_record(self, tmp_path):
        spec = _spec(flight_record_dir=str(tmp_path))
        result = run_campaign(spec, max_runs=3)
        for outcome in result.outcomes:
            path = flight_record_path(str(tmp_path), outcome.run_id)
            assert os.path.exists(path)
            with open(path) as stream:
                header = json.loads(stream.readline())
            assert header["type"] == "header"
            assert header["run_id"] == outcome.run_id
            assert header["classification"] == outcome.classification
            assert header["retained"] > 0

    def test_records_replay_through_loader(self, tmp_path):
        from repro.telemetry.recorder import (
            load_flight_record,
            render_flight_record,
        )

        spec = _spec(flight_record_dir=str(tmp_path))
        run_campaign(spec, max_runs=1)
        header, events = load_flight_record(
            flight_record_path(str(tmp_path), 0)
        )
        kinds = {event["kind"] for event in events}
        assert "run.start" in kinds and "run.end" in kinds
        assert any(k.startswith("method.") for k in kinds)
        text = render_flight_record(header, events)
        assert "run.end" in text

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_error_leaves_post_mortem_stub(self, tmp_path, workers):
        spec = _spec(
            flight_record_dir=str(tmp_path / f"w{workers}"),
            crash_run_ids=(1,),
        )
        result = run_campaign(spec, workers=workers, max_runs=3)
        assert result.outcomes[1].classification == WORKER_ERROR
        with open(flight_record_path(spec.flight_record_dir, 1)) as stream:
            stub = json.loads(stream.readline())
        assert stub["post_mortem_stub"] is True
        assert stub["classification"] == WORKER_ERROR
        assert stub["retained"] == 0
        # The healthy siblings still dumped real records.
        with open(flight_record_path(spec.flight_record_dir, 0)) as stream:
            assert json.loads(stream.readline())["retained"] > 0


class TestLiveProgress:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_monitor_sees_every_run(self, workers):
        monitor = CampaignProgress()
        result = run_campaign(
            _spec(), workers=workers, max_runs=4, monitor=monitor
        )
        assert monitor.total == 4
        assert monitor.completed == 4
        assert monitor.done
        assert sum(monitor.classifications.values()) == 4
        assert monitor.classifications == dict(
            collections.Counter(o.classification for o in result.outcomes)
        )

    def test_snapshot_is_json_ready(self):
        monitor = CampaignProgress()
        run_campaign(_spec(), max_runs=2, monitor=monitor)
        snapshot = monitor.snapshot()
        json.dumps(snapshot)
        assert snapshot["done"] is True
        assert snapshot["completed"] == 2
