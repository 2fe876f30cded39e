"""Dynamic race sanitizer: unit behaviour plus RACE001 confirmation."""

from repro.instrument.probes import ProbeBus
from repro.instrument.sanitizer import RaceSanitizer
from repro.lint import lint_design

from tests.analyze.test_races import build_race_design


class _Sig:
    def __init__(self, name):
        self.name = name


class TestSanitizerUnit:
    def test_same_timestamp_distinct_values_conflict(self):
        bus = ProbeBus()
        sig = _Sig("top.s")
        sanitizer = RaceSanitizer().attach(bus)
        bus.signal_commit(5, sig, 1)
        bus.signal_commit(5, sig, 0)
        assert sanitizer.observed("top.s")
        assert sanitizer.conflicts["top.s"] == 1
        (obs,) = sanitizer.observations["top.s"]
        assert obs.time == 5 and obs.values == [1, 0]

    def test_same_value_recommit_is_benign(self):
        bus = ProbeBus()
        sig = _Sig("top.s")
        sanitizer = RaceSanitizer().attach(bus)
        bus.signal_commit(5, sig, 1)
        bus.signal_commit(5, sig, 1)
        assert not sanitizer.observed("top.s")

    def test_distinct_timestamps_are_benign(self):
        bus = ProbeBus()
        sig = _Sig("top.s")
        sanitizer = RaceSanitizer().attach(bus)
        bus.signal_commit(5, sig, 1)
        bus.signal_commit(6, sig, 0)
        assert sanitizer.racy_signals == set()

    def test_watch_filter(self):
        bus = ProbeBus()
        sanitizer = RaceSanitizer(watch=["top.wanted"]).attach(bus)
        other = _Sig("top.other")
        bus.signal_commit(5, other, 1)
        bus.signal_commit(5, other, 0)
        assert not sanitizer.observed("top.other")

    def test_detach_stops_recording(self):
        bus = ProbeBus()
        sig = _Sig("top.s")
        sanitizer = RaceSanitizer().attach(bus)
        sanitizer.detach()
        bus.signal_commit(5, sig, 1)
        bus.signal_commit(5, sig, 0)
        assert sanitizer.racy_signals == set()

    def test_summary_line(self):
        sanitizer = RaceSanitizer()
        assert "no same-timestamp" in sanitizer.summary_line()
        bus = ProbeBus()
        sanitizer.attach(bus)
        sig = _Sig("top.s")
        bus.signal_commit(5, sig, 1)
        bus.signal_commit(5, sig, 0)
        assert "1 same-timestamp conflict(s)" in sanitizer.summary_line()
        assert "top.s" in sanitizer.summary_line()


class TestSanitizerConfirmsRace001:
    def test_seeded_race_is_confirmed(self):
        """The static RACE001 report is confirmed by the live commit trace."""
        sim, top = build_race_design()
        report = lint_design(sim)
        (diag,) = report.by_rule("RACE001")

        sanitizer = RaceSanitizer(
            watch=[diag.extra["signal"]]
        ).attach(sim.probes)
        sim.run(50)

        assert sanitizer.observed(top.strobe.name)
        ((finding, verdict),) = sanitizer.verdicts([diag])
        assert finding is diag
        assert verdict == "confirmed"

    def test_unexercised_finding_stays_unobserved(self):
        sim, top = build_race_design()
        report = lint_design(sim)
        (diag,) = report.by_rule("RACE001")
        sanitizer = RaceSanitizer().attach(sim.probes)
        # Simulation never runs: the static claim is not dynamically
        # corroborated and must not be reported as confirmed.
        ((_, verdict),) = sanitizer.verdicts([diag])
        assert verdict == "unobserved"
