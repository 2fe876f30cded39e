"""Fault campaigns must classify identically under both backends.

A compiled channel that changed any run's classification would mean the
backends are not observably equivalent under faults — the third leg of
the equivalence gate, checked serially and through the worker pool, on
the demo campaign and on faults aimed at the channel's own wires.
"""

import pytest

from repro.compile import CompiledChannel
from repro.errors import ProtocolError
from repro.fault.campaign import (
    build_campaign_platform,
    execute_run,
    plan_campaign,
)
from repro.fault.models import FaultInjectionError, TransientGlitchFault
from repro.fault.runner import run_campaign
from repro.fault.spec import CampaignSpec, FaultSpec, demo_campaign_spec
from repro.kernel import NS


def _spec(backend, runs=8, **kwargs):
    spec = demo_campaign_spec(platform="pci", seed=11, runs=runs)
    spec.synthesize = True
    spec.backend = backend
    for key, value in kwargs.items():
        setattr(spec, key, value)
    return spec


def _outcome_rows(result):
    return [
        (o.run_id, o.kind, o.target_path, o.window, o.classification,
         o.detail, o.activations, o.detections)
        for o in result.outcomes
    ]


class TestSpecValidation:
    def test_compiled_requires_synthesize(self):
        with pytest.raises(FaultInjectionError, match="synthesize=True"):
            CampaignSpec(
                "bad", [FaultSpec("delayed_grant", "*")],
                backend="compiled",
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(FaultInjectionError, match="unknown backend"):
            CampaignSpec(
                "bad", [FaultSpec("delayed_grant", "*")], backend="jit",
            )

    def test_functional_platform_cannot_synthesize(self):
        with pytest.raises(FaultInjectionError, match="functional"):
            CampaignSpec(
                "bad", [FaultSpec("delayed_grant", "*")],
                platform="functional", synthesize=True,
            )


class TestCampaignPlatform:
    def test_compiled_spec_builds_compiled_channel(self):
        bundle = build_campaign_platform(_spec("compiled"))
        channel = bundle.synthesis.groups[0].channel
        assert isinstance(channel, CompiledChannel)

    def test_interpreted_spec_builds_interpreted_channel(self):
        bundle = build_campaign_platform(_spec("interpreted"))
        channel = bundle.synthesis.groups[0].channel
        assert not isinstance(channel, CompiledChannel)


class TestClassificationParity:
    def test_serial_campaigns_classify_identically(self):
        a = run_campaign(_spec("interpreted"), workers=1, max_runs=8)
        b = run_campaign(_spec("compiled"), workers=1, max_runs=8)
        assert _outcome_rows(a) == _outcome_rows(b)
        assert len(a.outcomes) == 6  # one run per demo fault line
        # The campaign must have produced at least one non-benign run,
        # otherwise the parity above is vacuous.
        assert any(
            o.classification != "benign" for o in a.outcomes
        )

    @pytest.mark.slow
    def test_pool_campaigns_classify_identically(self):
        a = run_campaign(_spec("interpreted"), workers=2, max_runs=8)
        b = run_campaign(_spec("compiled"), workers=2, max_runs=8)
        assert _outcome_rows(a) == _outcome_rows(b)


# -- faults on the synthesized channel's own wires ---------------------------

CHANNEL = "odette_synth.chan0_top_interface_channel"
_LETTERS = {"benign": "b", "detected": "d", "silent": "s", "error": "e"}

#: Classification of every run of :func:`_wire_spec`, one letter per
#: run id, as the interpreted backend classified them before the two
#: backends shared a channel core. Two changes since, each a broken
#: handshake that crashed the channel with a Python error (``e``) and
#: now raises a ProtocolError naming the port (``d``): run 14 at seed
#: 55, a glitch on ``done_1`` before any result was written (the
#: client indexed the wire's initial value), and run 2 at seed 11, a
#: glitch raising ``req_1`` before port 1 ever issued (the server read
#: ``payload_1``'s initial ``False`` as a request).
WIRE_CLASSIFICATIONS = {
    11: "bbdbbdbbbbbbbbbbbbbbddddbbbbbbbbbddbbbbbbsbsdbbbbbbbbdddddbb",
    55: "bsdbbbbbbbbbbbdbbsbbbddddbbbbbbbbdddbdbbbbsbdsbbbbbbbsbbbdbb",
}

#: Runs the two backends classified differently before they shared a
#: core, plus one run of each kind on ``server_state``.
WIRE_SUBSET = {11: (18, 38, 41, 43, 53, 58), 55: (1, 14, 17, 18, 38, 42, 45, 53, 58)}


def _wire_spec(seed, backend):
    """glitch, stuck_at and bit_flip on every req/gnt/done wire and on
    ``server_state`` of the synthesized Wishbone channel, twice each."""
    faults = [
        FaultSpec(kind, f"{CHANNEL}.{wire}", repeats=2)
        for kind in ("glitch", "stuck_at", "bit_flip")
        for wire in ("req_*", "gnt_*", "done_*", "server_state")
    ]
    return CampaignSpec(
        f"wires-{seed}", faults, platform="wishbone", seed=seed,
        think_time=240 * NS, synthesize=True, backend=backend,
    )


class TestChannelWireFaults:
    """Both backends follow the RTL poll under faults on the channel's
    own wires, so they classify every run identically, and as the
    interpreted backend did before they shared a core."""

    @pytest.mark.parametrize("seed", sorted(WIRE_SUBSET))
    def test_subset_matches_pinned_classifications(self, seed):
        for backend in ("interpreted", "compiled"):
            spec = _wire_spec(seed, backend)
            golden, runs = plan_campaign(spec)
            assert len(runs) == len(WIRE_CLASSIFICATIONS[seed])
            got = {
                run_id: _LETTERS[
                    execute_run(spec, runs[run_id], golden).classification
                ]
                for run_id in WIRE_SUBSET[seed]
            }
            assert got == {
                run_id: WIRE_CLASSIFICATIONS[seed][run_id]
                for run_id in WIRE_SUBSET[seed]
            }, backend

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", sorted(WIRE_CLASSIFICATIONS))
    def test_full_set_matches_pinned_classifications(self, seed):
        rows = {}
        for backend in ("interpreted", "compiled"):
            result = run_campaign(_wire_spec(seed, backend), workers=1)
            rows[backend] = _outcome_rows(result)
            letters = "".join(
                _LETTERS[o.classification] for o in result.outcomes
            )
            assert letters == WIRE_CLASSIFICATIONS[seed], backend
        assert rows["interpreted"] == rows["compiled"]


class TestDoneSampledWithoutResult:
    """A glitch raises ``done_1`` before the server wrote ``result_1``:
    the client reports the broken handshake instead of indexing the
    wire's initial value."""

    @pytest.mark.parametrize("backend", ["interpreted", "compiled"])
    def test_client_raises_protocol_error_naming_the_port(self, backend):
        bundle = build_campaign_platform(_wire_spec(55, backend))
        TransientGlitchFault(
            f"{CHANNEL}.done_1", window=(454689024, 578589024), value=1,
        ).arm(bundle.handle.sim)
        with pytest.raises(ProtocolError, match="port 1 .* result_1"):
            bundle.run(200_000 * NS)

    def test_campaign_run_classifies_detected(self):
        spec = _wire_spec(55, "interpreted")
        golden, runs = plan_campaign(spec)
        run = runs[14]
        assert (run.kind, run.target_path, run.window) == (
            "glitch", f"{CHANNEL}.done_1", (454689024, 578589024),
        )
        outcome = execute_run(spec, run, golden)
        assert outcome.classification == "detected"
        assert "ProtocolError" in outcome.detail


class TestRequestWithoutPayload:
    """A glitch raises ``req_1`` before port 1 ever issued a call: the
    server reports the broken handshake instead of reading the payload
    wire's initial value as a request."""

    WINDOW = (58252074, 198952074)

    @pytest.mark.parametrize("backend", ["interpreted", "compiled"])
    def test_server_raises_protocol_error_naming_the_port(self, backend):
        bundle = build_campaign_platform(_wire_spec(11, backend))
        TransientGlitchFault(
            f"{CHANNEL}.req_1", window=self.WINDOW, value=1,
        ).arm(bundle.handle.sim)
        with pytest.raises(ProtocolError, match="port 1 .* payload_1"):
            bundle.run(200_000 * NS)

    def test_campaign_run_classifies_detected(self):
        spec = _wire_spec(11, "interpreted")
        golden, runs = plan_campaign(spec)
        run = runs[2]
        assert (run.kind, run.target_path, run.window) == (
            "glitch", f"{CHANNEL}.req_1", self.WINDOW,
        )
        outcome = execute_run(spec, run, golden)
        assert outcome.classification == "detected"
        assert "ProtocolError" in outcome.detail
