"""Unit tests for campaign declaration and deterministic expansion."""

import pytest

from repro.fault import (
    CampaignSpec,
    FaultInjectionError,
    FaultSpec,
    demo_campaign_spec,
    expand_campaign,
    match_targets,
    plan_campaign,
    run_campaign,
)
from repro.fault.spec import check_target_widths
from repro.kernel import NS

SIGNALS = ["top.bus.ad", "top.bus.frame_n", "top.bus.irdy_n", "top.clk"]
CHANNELS = ["top.interface.channel"]
HORIZON = 100_000 * NS


def _spec(faults, **kwargs):
    return CampaignSpec("unit", faults, **kwargs)


class TestDeclarations:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultInjectionError, match="unknown fault kind"):
            FaultSpec("cosmic", "top.*")

    def test_zero_repeats_rejected(self):
        with pytest.raises(FaultInjectionError, match="repeats"):
            FaultSpec("stuck_at", "top.*", repeats=0)

    def test_target_kind_derived_from_model(self):
        assert FaultSpec("stuck_at", "x").target_kind == "signal"
        assert FaultSpec("dropped_request", "x").target_kind == "channel"

    def test_unknown_platform_rejected(self):
        with pytest.raises(FaultInjectionError, match="platform"):
            _spec([FaultSpec("stuck_at", "top.*")], platform="vmebus")

    def test_empty_fault_list_rejected(self):
        with pytest.raises(FaultInjectionError, match="at least one"):
            _spec([])

    def test_workload_seeds_one_per_app(self):
        spec = _spec([FaultSpec("stuck_at", "x")], seed=7, n_apps=3)
        assert spec.workload_seeds() == [7, 8, 9]

    def test_match_targets_sorted_glob(self):
        assert match_targets("top.bus.*", SIGNALS) == [
            "top.bus.ad", "top.bus.frame_n", "top.bus.irdy_n",
        ]
        assert match_targets("*.clk", SIGNALS) == ["top.clk"]


class TestSpecsFailWhenBuilt:
    """A bad fault line raises before any run starts, naming the line."""

    def test_misspelt_param(self):
        with pytest.raises(
            FaultInjectionError,
            match=r"FaultSpec\(glitch @ 'top.bus.ack' x1\): glitch takes no "
                  r"param 'vlaue'",
        ):
            FaultSpec("glitch", "top.bus.ack", params={"vlaue": 1})

    def test_reversed_window(self):
        with pytest.raises(
            FaultInjectionError,
            match=r"FaultSpec\(glitch @ 'top.bus.ack' x1\): window "
                  r"\(1000000000, 10\) ends before it starts",
        ):
            FaultSpec("glitch", "top.bus.ack", window=(10**9, 10))

    def test_params_every_model_takes_pass(self):
        for spec in (demo_campaign_spec(bus) for bus in (
            "pci", "wishbone", "axi4lite", "tlmgp", "functional"
        )):
            for fault in spec.faults:
                FaultSpec(fault.kind, fault.target, params=fault.params)
        FaultSpec("glitch", "x", window=(10, 10), params={"duration": 5})

    def test_widths_checked_per_matched_target(self):
        widths = {"top.bus.ad": 32, "top.bus.frame_n": 1, "top.obj": None}

        def check(kind, target, **params):
            check_target_widths(
                _spec([FaultSpec(kind, target, params=params)]), widths
            )

        check("bit_flip", "top.bus.ad", bit=31)
        check("bit_flip", "top.*", bit=None)  # drawn per run
        check("bit_flip", "top.obj", bit=99)  # a plain-value signal
        check("stuck_at", "top.bus.frame_n", value=1)
        check("glitch", "top.bus.*", value=0)
        for kind, target, params, problem in (
            ("bit_flip", "top.bus.ad", {"bit": 32}, "bit 32 is outside"),
            ("bit_flip", "top.bus.*", {"bit": 5}, "bit 5 is outside"),
            ("bit_flip", "top.bus.ad", {"bit": -1}, "bit -1 is outside"),
            ("stuck_at", "top.bus.frame_n", {"value": 2},
             "value 2 does not fit"),
            ("glitch", "top.bus.frame_n", {"value": -1},
             "value -1 does not fit"),
        ):
            with pytest.raises(FaultInjectionError, match=problem):
                check(kind, target, **params)

    @pytest.mark.parametrize("fault, problem", [
        (FaultSpec("bit_flip", "top.bus.dat_w", params={"bit": 40}),
         "bit 40 is outside the 32-bit target 'top.bus.dat_w'"),
        (FaultSpec("stuck_at", "top.bus.ack", params={"value": 7}),
         "value 7 does not fit the 1-bit target 'top.bus.ack'"),
    ], ids=["bit", "value"])
    def test_planning_rejects_what_does_not_fit(self, fault, problem):
        spec = _spec([fault], platform="wishbone")
        with pytest.raises(FaultInjectionError) as error:
            run_campaign(spec, workers=1)
        assert f"fault line {fault!r}: {problem}" in str(error.value)


class TestExpansion:
    def test_glob_times_repeats(self):
        spec = _spec([FaultSpec("bit_flip", "top.bus.*", repeats=3)])
        runs = expand_campaign(spec, SIGNALS, CHANNELS, HORIZON)
        assert len(runs) == 3 * 3
        assert [r.run_id for r in runs] == list(range(9))
        assert {r.target_path for r in runs} == set(SIGNALS) - {"top.clk"}

    def test_channel_faults_match_channel_paths(self):
        spec = _spec([FaultSpec("delayed_grant", "top.interface.*")])
        runs = expand_campaign(spec, SIGNALS, CHANNELS, HORIZON)
        assert [r.target_path for r in runs] == CHANNELS

    def test_empty_match_is_loud(self):
        spec = _spec([FaultSpec("stuck_at", "nothing.*")])
        with pytest.raises(FaultInjectionError, match="matches no"):
            expand_campaign(spec, SIGNALS, CHANNELS, HORIZON)

    def test_expansion_is_deterministic(self):
        def expand():
            spec = _spec(
                [
                    FaultSpec("bit_flip", "top.bus.ad", repeats=4,
                              params={"bit": None}),
                    FaultSpec("glitch", "top.bus.frame_n", repeats=4,
                              params={"value": 0}),
                ],
                seed=23,
            )
            return expand_campaign(spec, SIGNALS, CHANNELS, HORIZON)

        first, second = expand(), expand()
        assert [(r.kind, r.target_path, r.window, r.params) for r in first] \
            == [(r.kind, r.target_path, r.window, r.params) for r in second]

    def test_appending_a_line_never_perturbs_earlier_draws(self):
        line = FaultSpec("bit_flip", "top.bus.ad", repeats=4,
                         params={"bit": None})
        alone = expand_campaign(_spec([line]), SIGNALS, CHANNELS, HORIZON)
        extended = expand_campaign(
            _spec([line, FaultSpec("delayed_grant", "*.channel")]),
            SIGNALS, CHANNELS, HORIZON,
        )
        assert [(r.window, r.params) for r in alone] \
            == [(r.window, r.params) for r in extended[:4]]

    def test_drawn_windows_cover_past_horizon(self):
        spec = _spec(
            [FaultSpec("stuck_at", "top.bus.ad", repeats=64,
                       params={"value": 0})],
            seed=5,
        )
        runs = expand_campaign(spec, SIGNALS, CHANNELS, HORIZON)
        starts = [r.window[0] for r in runs]
        assert all(0 <= s < (3 * HORIZON) // 2 for s in starts)
        # Some runs must deliberately land after traffic has drained.
        assert any(s >= HORIZON for s in starts)
        assert all(r.window[1] > r.window[0] for r in runs)

    def test_fixed_window_honoured(self):
        window = (5 * NS, 25 * NS)
        spec = _spec([FaultSpec("stuck_at", "top.clk", window=window)])
        runs = expand_campaign(spec, SIGNALS, CHANNELS, HORIZON)
        assert runs[0].window == window

    def test_unset_bit_drawn_set_bit_kept(self):
        spec = _spec([
            FaultSpec("bit_flip", "top.bus.ad", params={"bit": None}),
            FaultSpec("bit_flip", "top.clk", params={"bit": 9}),
        ])
        drawn, fixed = expand_campaign(spec, SIGNALS, CHANNELS, HORIZON)
        assert 0 <= drawn.params["bit"] < 32
        assert fixed.params["bit"] == 9

    def test_drawn_bit_fits_a_narrow_target(self):
        """A bit_flip line without a bit draws every run's bit below its
        target's width: the PCI byte enables are 4 bits wide."""
        line = FaultSpec("bit_flip", "top.bus.cbe_n", repeats=6,
                         params={"bit": None})
        __, runs = plan_campaign(_spec([line], platform="pci"))
        assert len(runs) == 6
        assert all(0 <= run.params["bit"] < 4 for run in runs), \
            [run.params["bit"] for run in runs]

    def test_32_bit_draws_unchanged_by_widths(self):
        spec = _spec([FaultSpec("bit_flip", "top.bus.ad", repeats=4,
                                params={"bit": None})], seed=23)
        widths = dict.fromkeys(SIGNALS, 32)
        assert [r.params for r in expand_campaign(
            spec, SIGNALS, CHANNELS, HORIZON, widths
        )] == [r.params for r in expand_campaign(
            spec, SIGNALS, CHANNELS, HORIZON
        )]


class TestDemoSpec:
    def test_pci_demo_shape(self):
        spec = demo_campaign_spec("pci", seed=3, runs=60)
        assert spec.platform == "pci"
        assert spec.seed == 3
        assert len(spec.faults) == 6
        assert all(f.repeats == 10 for f in spec.faults)
        kinds = {f.kind for f in spec.faults}
        assert {"bit_flip", "glitch", "stuck_at", "command_corruption",
                "dropped_request", "delayed_grant"} == kinds

    def test_functional_demo_has_no_pin_lines(self):
        spec = demo_campaign_spec("functional")
        assert {f.target_kind for f in spec.faults} == {"channel"}
        assert spec.think_time == 0
