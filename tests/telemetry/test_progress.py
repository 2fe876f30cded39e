"""Tests for live campaign progress aggregation."""

import json

from repro.telemetry.progress import CampaignProgress


class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def _progress(**kwargs):
    clock = _FakeClock()
    return CampaignProgress(clock=clock, **kwargs), clock


class TestGauges:
    def test_initial_state(self):
        progress, __ = _progress()
        assert progress.completed == 0
        assert progress.runs_per_second == 0.0
        assert progress.eta_seconds is None
        assert not progress.done

    def test_rate_and_eta(self):
        progress, clock = _progress()
        progress.begin(10)
        clock.now += 2.0
        for __ in range(4):
            progress.record_outcome("benign")
        assert progress.runs_per_second == 2.0
        assert progress.eta_seconds == 3.0
        assert not progress.done

    def test_done_and_finish_freeze_elapsed(self):
        progress, clock = _progress()
        progress.begin(2)
        clock.now += 1.0
        progress.record_outcome("benign")
        progress.record_outcome("silent")
        progress.finish()
        clock.now += 50.0
        assert progress.done
        assert progress.elapsed == 1.0

    def test_record_outcome_accepts_objects(self):
        class Outcome:
            classification = "detected"

        progress, __ = _progress()
        progress.record_outcome(Outcome())
        assert progress.classifications == {"detected": 1}

    def test_recovery_rate(self):
        progress, __ = _progress()
        for classification in ("recovered", "recovered", "detected",
                               "silent", "benign"):
            progress.record_outcome(classification)
        assert progress.recovery_rate == 0.5

    def test_recovery_rate_none_without_effective_faults(self):
        progress, __ = _progress()
        progress.record_outcome("benign")
        assert progress.recovery_rate is None


class TestTicker:
    def test_tick_is_rate_limited(self):
        ticks = []
        clock = _FakeClock()
        progress = CampaignProgress(
            on_tick=ticks.append, tick_seconds=0.5, clock=clock
        )
        assert progress.tick()
        assert not progress.tick()  # same instant: suppressed
        clock.now += 1.0
        assert progress.tick()
        assert progress.tick(force=True)
        assert len(ticks) == 3

    def test_ticker_line_mentions_everything(self):
        progress, clock = _progress()
        progress.begin(8)
        clock.now += 2.0
        progress.record_outcome("recovered")
        progress.record_outcome("detected")
        line = progress.render_ticker()
        assert "runs 2/8" in line
        assert "runs/s" in line
        assert "eta" in line
        assert "recovered:1" in line
        assert "recovery 50%" in line

    def test_snapshot_and_json(self, tmp_path):
        progress, clock = _progress()
        progress.begin(4)
        clock.now += 1.0
        progress.record_outcome("benign")
        path = tmp_path / "progress.json"
        progress.write_json(path)
        document = json.loads(path.read_text())
        assert document["total"] == 4
        assert document["completed"] == 1
        assert document["classifications"] == {"benign": 1}
