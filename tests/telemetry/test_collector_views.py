"""Collector pins: both views of one run's communication traffic.

A :class:`~repro.telemetry.scorecard.ScorecardProbe` is the one
subscriber to the communication probe kinds; the
:class:`~repro.instrument.metrics.MetricsCollector` reports its
guarded-method and transaction rows from a probe it owns. Both views
of four fixed runs are pinned here: a change to how traffic is paired,
counted or reduced shows even when each view still looks plausible.

Each pin is the digest of the view's sorted JSON (the collector's flow
stages without their wall seconds), plus a few headline values for a
readable failure. Update them only for a change that is meant to alter
what the collectors report, and say so in its description.
"""

import hashlib
import json

import pytest

from repro.core.workload import generate_workload
from repro.flow import build_platform
from repro.instrument import MetricsCollector
from repro.kernel.simtime import MS
from repro.telemetry import ScorecardProbe

#: (bus, level) -> (CellScore digest, MetricsCollector digest,
#: scored transactions, guarded calls, method rows).
PINS = {
    ("pci", "behavioural"): ("c0981812ce5eeb89", "0da12f113c006094", 24, 77, 4),
    ("pci", "interpreted"): ("aba9c588e90a30f9", "17480f886086f244", 24, 77, 4),
    ("wishbone", "behavioural"): (
        "c1ad0a72af33c37c", "6341fdd8724414cc", 24, 77, 4,
    ),
    ("wishbone", "interpreted"): (
        "5d1e94401ae39b40", "233dc62397dab297", 24, 77, 4,
    ),
}


def _workloads():
    """Two seed-55 applications contending for the one interface."""
    return [
        generate_workload(
            seed=55 + app, n_commands=12, address_base=app * 0x400,
            address_span=0x400, max_burst=4, partial_byte_enable_fraction=0.2,
        )
        for app in range(2)
    ]


def _digest(document) -> str:
    encoded = json.dumps(document, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()[:16]


@pytest.mark.parametrize("bus, level", sorted(PINS))
def test_both_views_match_their_pins(bus, level):
    bundle = build_platform(
        _workloads(), bus=bus, synthesize=level != "behavioural"
    )
    probes = bundle.handle.sim.probes
    metrics = MetricsCollector().attach(probes)
    probe = ScorecardProbe(cycle_fs=bundle.clock.period).attach(probes)
    bundle.run(100 * MS)

    score = probe.score(bus, level, "pin").to_dict()
    view = metrics.to_dict()
    for stage in view["flow_stages"]:
        stage.pop("seconds")
    actual = (
        _digest(score), _digest(view),
        score["transactions"], score["calls"], len(view["methods"]),
    )
    assert actual == PINS[bus, level]
