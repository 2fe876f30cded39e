"""CI gate: every opt-in subsystem must cost nothing when it is off.

Probes, spans, telemetry, resilience and durability each promise to
add nothing but an ``is None`` check when off. Three off-path workloads
carry those promises:

* ``method``: six clients calling one guarded method through a
  synthesized channel, with no probe bus;
* ``pci``: the synthesized PCI platform over a seed-55, 60-command
  workload, with no probe bus and no resilience config;
* ``campaign``: a serial 12-run demo campaign with no journal or cache.

Each off path is gated against ``benchmarks/offpath_baseline.json`` on
its exact ``sys.setprofile`` call count, taken after the timed runs
have warmed the synthesis shape memo. The count repeats run to run, so
a 2% bound fires on one added call per signal write and never flakes.
Best-of-7 wall time, normalized by a pure-Python calibration loop timed
on the same host, is held to the same tolerance as a coarse backstop
for slowdowns that add no call; it moves 5-9% between identical runs.

Five feature rows then run each subsystem's on-mode over its off path's
workload, keep that subsystem's correctness checks, and print its cost
relative to the off path.

Usage::

    python benchmarks/offpath_gate.py            # gate (exit 1 on failure)
    python benchmarks/offpath_gate.py --update   # re-measure call counts
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(_ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.core import generate_workload  # noqa: E402
from repro.fault import demo_campaign_spec, run_campaign  # noqa: E402
from repro.flow import PciPlatformConfig, build_platform  # noqa: E402
from repro.hdl import Clock, Module  # noqa: E402
from repro.instrument import EVENT_NOTIFY, PROCESS_ACTIVATE, MetricsCollector  # noqa: E402
from repro.kernel import MS, NS, Simulator  # noqa: E402
from repro.osss import GlobalObject, connect, guarded_method  # noqa: E402
from repro.resilience import ResilienceConfig  # noqa: E402
from repro.synthesis import SynthesisConfig, synthesize_communication  # noqa: E402
from repro.telemetry import FlightRecorder, ScorecardProbe  # noqa: E402
from repro.trace import SpanTracer, attribute  # noqa: E402

BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "offpath_baseline.json")
SEED = 55
N_CLIENTS = 6
CALLS_PER_CLIENT = 40
N_COMMANDS = 60
CAMPAIGN_RUNS = 12
REPEATS = 7
CALIBRATION_LOOPS = 200_000

# Every run below takes a *meter*, ``meter(fn, *args, **kwargs)``, and
# passes it exactly the section the gate covers: the simulation for
# ``method`` and ``pci``, the whole campaign for ``campaign``.


class Accumulator:
    def __init__(self):
        self.total = 0

    @guarded_method()
    def add(self, n):
        self.total += n
        return self.total


def _method_run(meter, observe=None):
    sim = Simulator()
    observed = observe(sim.probes) if observe else None
    clock = Clock(sim, "clock", period=10 * NS)
    handles = [
        GlobalObject(Module(sim, f"client{i}"), "acc", Accumulator)
        for i in range(N_CLIENTS)
    ]
    connect(*handles)
    synthesize_communication(sim, clock.clk, SynthesisConfig(emit_hdl=False))
    finished = [0]

    def client(handle):
        for __ in range(CALLS_PER_CLIENT):
            yield from handle.add(1)
        finished[0] += 1
        if finished[0] == N_CLIENTS:
            sim.stop()

    for i, handle in enumerate(handles):
        sim.spawn(lambda handle=handle: client(handle), f"proc{i}")
    meter(sim.run, 100 * MS)
    assert finished[0] == N_CLIENTS
    return sim, observed


def method_off(meter):
    sim, __ = _method_run(meter)
    assert sim._probes is None


def instrument_on(meter):
    def observe(probes):
        MetricsCollector().attach(probes)
        # The causal-edge payloads ride the same probes: count them so
        # the row also covers the cause field end to end.
        causes = {EVENT_NOTIFY: 0, PROCESS_ACTIVATE: 0}
        for kind in causes:
            def count(time, subject, cause=None, kind=kind):
                causes[kind] += cause is not None
            probes.subscribe(kind, count)
        return causes

    __, causes = _method_run(meter, observe)
    assert all(causes.values()), f"a probe kind never carried a cause: {causes}"


def _pci_run(meter, config=None, observe=None):
    workload = generate_workload(
        seed=SEED, n_commands=N_COMMANDS, address_span=0x400,
        max_burst=4, partial_byte_enable_fraction=0.2,
    )
    bundle = build_platform([workload], config, bus="pci", synthesize=True)
    observed = observe(bundle) if observe else None
    meter(bundle.run, 200 * MS)
    assert all(app.finished for app in bundle.handle.applications)
    return bundle, observed


def pci_off(meter):
    bundle, __ = _pci_run(meter)
    assert bundle.handle.sim._probes is None
    assert bundle.interface.recovery is None
    return bundle


def span_on(meter):
    __, tracer = _pci_run(
        meter, observe=lambda bundle: SpanTracer().attach(bundle.handle.sim.probes)
    )
    spans = len(attribute(tracer.finalize()))
    assert spans == N_COMMANDS, f"expected {N_COMMANDS} assembled spans, got {spans}"


def telemetry_on(meter):
    def observe(bundle):
        probes = bundle.handle.sim.probes
        FlightRecorder(512).attach(probes)
        return ScorecardProbe(cycle_fs=bundle.clock.period).attach(probes)

    __, probe = _pci_run(meter, observe=observe)
    scored = probe.score("pci", "synthesized", "gate").transactions
    assert scored == N_COMMANDS, f"expected {N_COMMANDS} scored transactions, got {scored}"


def resilience_on(meter):
    config = PciPlatformConfig(resilience=ResilienceConfig.default(SEED))
    bundle, __ = _pci_run(meter, config)
    # A clean run must never replay; arming just adds bookkeeping.
    assert bundle.interface.operations_replayed == 0


def _campaign_run(meter, **durable):
    spec = demo_campaign_spec(platform="pci", seed=SEED, runs=CAMPAIGN_RUNS)
    result = meter(run_campaign, spec, workers=1, max_runs=CAMPAIGN_RUNS, **durable)
    outcomes = len(result.outcomes)
    assert outcomes == CAMPAIGN_RUNS, f"expected {CAMPAIGN_RUNS} outcomes, got {outcomes}"


def campaign_off(meter):
    _campaign_run(meter)


def durable_on(meter):
    with tempfile.TemporaryDirectory(prefix="offpath_gate_") as scratch:
        _campaign_run(
            meter,
            journal_dir=os.path.join(scratch, "journal"),
            cache_dir=os.path.join(scratch, "cache"),
        )


#: name -> (off-path run, tolerance on both its call count and wall time).
OFF_PATHS = {
    "method": (method_off, 0.10),
    "pci": (pci_off, 0.02),
    "campaign": (campaign_off, 0.02),
}

#: (subsystem, the off path it must cost nothing on, its on-mode run).
FEATURES = (
    ("instrument", "method", instrument_on),
    ("span", "pci", span_on),
    ("telemetry", "pci", telemetry_on),
    ("resilience", "pci", resilience_on),
    ("durable", "campaign", durable_on),
)


def count_calls(run):
    """``(calls, result)`` of one *run*, counting Python and C calls."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    def meter(fn, *args, **kwargs):
        sys.setprofile(profile)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.setprofile(None)

    result = run(meter)
    return calls, result


def best_seconds(run):
    """Best-of-REPEATS wall seconds of *run*'s metered section."""
    samples = []

    def meter(fn, *args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            samples.append(time.perf_counter() - started)

    for __ in range(REPEATS):
        run(meter)
    return min(samples)


def _calibrate():
    """Time a fixed pure-Python loop as the host-speed yardstick."""
    acc = 0
    started = time.perf_counter()
    for i in range(CALIBRATION_LOOPS):
        acc += i % 7
    return time.perf_counter() - started


def load_baseline():
    with open(BASELINE_PATH) as handle:
        return json.load(handle)


def limits(name, baseline):
    """``(call limit, wall limit in calibration units)`` of off path *name*."""
    tolerance = OFF_PATHS[name][1]
    reference = baseline[name]
    return (reference["calls"] * (1.0 + tolerance),
            reference["wall_units"] * (1.0 + tolerance))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the call-count references from this "
                             "run; the wall references are kept")
    args = parser.parse_args(argv)
    baseline = load_baseline()
    calibration = min(_calibrate() for __ in range(REPEATS))

    failures = []
    measured = {}
    print(f"off paths (wall: best of {REPEATS}, in calibration units):")
    for name, (run, tolerance) in OFF_PATHS.items():
        seconds = best_seconds(run)
        calls, __ = count_calls(run)
        measured[name] = (calls, seconds)
        units = seconds / calibration
        call_limit, wall_limit = limits(name, baseline)
        failed = [label for label, over in
                  (("calls", calls > call_limit), ("wall", units > wall_limit)) if over]
        print(f"  {name:<8} {calls:>9,} calls (limit {call_limit:>9,.0f})  "
              f"{units:6.2f} units (limit {wall_limit:5.2f})  +{tolerance:.0%}  "
              f"{'FAIL: ' + ', '.join(failed) if failed else 'ok'}")
        if failed:
            failures.append(name)

    print("features (on-mode cost over its off path):")
    for feature, path, run in FEATURES:
        seconds = best_seconds(run)
        calls, __ = count_calls(run)
        off_calls, off_seconds = measured[path]
        print(f"  {feature:<10} over {path:<8} {seconds / off_seconds:5.2f}x wall  "
              f"{calls / off_calls:6.3f}x calls")

    if args.update:
        for name, (calls, __) in measured.items():
            baseline[name]["calls"] = calls
        with open(BASELINE_PATH, "w") as handle:
            json.dump(baseline, handle, indent=2)
            handle.write("\n")
        print(f"call counts updated: {BASELINE_PATH}")
        return 0
    if failures:
        print(f"FAIL: off path over its limit: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("OK: every off path within its limits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
