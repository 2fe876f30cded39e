"""CI gate: every opt-in subsystem must cost nothing when it is off,
and the swap-matrix sweep must not slow down.

Probes, spans, telemetry, resilience and durability each promise to
add nothing but an ``is None`` check when off. Three off-path workloads
carry those promises:

* ``method``: six clients calling one guarded method through a
  synthesized channel, with no probe bus;
* ``pci``: the synthesized PCI platform over a seed-55, 60-command
  workload, with no probe bus and no resilience config;
* ``campaign``: a serial 12-run demo campaign with no journal.

A fourth row, ``matrix``, runs the seed-55, 25-command swap matrix (four
bus families x three levels, span tracer attached) and checks that
every cell is CONSISTENT with a full signature match. A fifth row,
``analyze``, runs the netlist dataflow passes over the synthesized
Figure-4 PCI platform's netlists and the analysis report over them, and
requires zero analysis errors.

Each row is gated against ``benchmarks/offpath_baseline.json`` on its
exact ``sys.setprofile`` call count, taken after the timed runs have
warmed the synthesis shape memo, with the cyclic collector paused.
Python 3.12 inlines list, dict and set comprehensions (PEP 709), so
their frames are not counted on 3.11 either: every supported
interpreter counts the same calls. The count repeats run to run and
does not depend on the allocation history, so the 1% bounds of ``pci``
and ``matrix`` fire on one added Python frame per ``Signal.write`` and
never flake.
Best-of-7 wall time, normalized by a pure-Python calibration loop timed
on the same host, is a coarse backstop for slowdowns that add no call;
it moves 5-9% between identical runs.

Four memory rows, one per bus (pci, wishbone, axi4lite, tlmgp), build
the synthesized cell of that bus over the ``pci`` row's workload and run
it. Each stores two ``tracemalloc`` byte counts: what the built cell
holds, and what its run adds and keeps (the live bytes after a full
collection, with the cyclic collector otherwise paused). A first,
unmeasured build and run warms the synthesis shape memo and every lazy
cache, so the counts repeat byte for byte across processes. Object
sizes differ between interpreters, so the counts are stored per Python
minor version, and each may grow by 1%.

Five feature rows then run each subsystem's on-mode over its off path's
workload, keep that subsystem's correctness checks, and print its cost
relative to the off path.

Usage::

    python benchmarks/offpath_gate.py                       # gate (exit 1 on failure)
    python benchmarks/offpath_gate.py --update              # store every row
    python benchmarks/offpath_gate.py --update memory.pci   # store named rows only
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(_ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.analyze import ModuleAnalysis, analyze_design  # noqa: E402
from repro.core import CommandType, generate_workload  # noqa: E402
from repro.fault import demo_campaign_spec, run_campaign  # noqa: E402
from repro.flow import PciPlatformConfig, build_platform  # noqa: E402
from repro.hdl import Clock, Module  # noqa: E402
from repro.iface import run_swap_matrix  # noqa: E402
from repro.instrument import EVENT_NOTIFY, PROCESS_ACTIVATE, MetricsCollector  # noqa: E402
from repro.kernel import MS, NS, Simulator  # noqa: E402
from repro.osss import GlobalObject, connect, guarded_method  # noqa: E402
from repro.resilience import ResilienceConfig  # noqa: E402
from repro.synthesis import SynthesisConfig, synthesize_communication  # noqa: E402
from repro.synthesis.tool import set_synthesis_sink  # noqa: E402
from repro.telemetry import FlightRecorder, ScorecardProbe  # noqa: E402
from repro.trace import SpanTracer, attribute  # noqa: E402

BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "offpath_baseline.json")
SEED = 55
N_CLIENTS = 6
CALLS_PER_CLIENT = 40
N_COMMANDS = 60
CAMPAIGN_RUNS = 12
MATRIX_COMMANDS = 25
#: The Figure-4 traffic: one burst write and its read-back.
ANALYZE_COMMANDS = [
    CommandType.write(0x100, [0xDEADBEEF, 0x12345678, 0xCAFEF00D]),
    CommandType.read(0x100, count=3),
]
REPEATS = 7
CALIBRATION_LOOPS = 200_000

# Every run below takes a *meter*, ``meter(fn, *args, **kwargs)``, and
# passes it exactly the section the gate covers: the simulation for
# ``method`` and ``pci``, the whole campaign for ``campaign``, the
# whole sweep for ``matrix`` and the analysis pass for ``analyze``.


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


def _cell_workload():
    return generate_workload(
        seed=SEED, n_commands=N_COMMANDS, address_span=0x400,
        max_burst=4, partial_byte_enable_fraction=0.2,
    )


def _pci_run(meter, config=None, observe=None):
    bundle = build_platform([_cell_workload()], config, bus="pci",
                            synthesize=True)
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
    # A clean run must never replay; arming just adds bookkeeping. A PCI
    # replay needs a failed operation: a master abort or a parity error.
    failed = [t for t in bundle.monitor.transactions
              if t.terminated_by == "master_abort" or t.parity_errors]
    assert not failed, f"operations that would replay: {failed}"


def _campaign_run(meter, **durable):
    spec = demo_campaign_spec(platform="pci", seed=SEED, runs=CAMPAIGN_RUNS)
    result = meter(run_campaign, spec, workers=1, max_runs=CAMPAIGN_RUNS, **durable)
    outcomes = len(result.outcomes)
    assert outcomes == CAMPAIGN_RUNS, f"expected {CAMPAIGN_RUNS} outcomes, got {outcomes}"


def campaign_off(meter):
    _campaign_run(meter)


def durable_on(meter):
    with tempfile.TemporaryDirectory(prefix="offpath_gate_") as scratch:
        _campaign_run(meter, journal_dir=os.path.join(scratch, "journal"))


def matrix_sweep(meter):
    report = meter(run_swap_matrix, seed=SEED, n_commands=MATRIX_COMMANDS)
    assert report.all_consistent, "swap matrix has inconsistent cells:\n" + \
        report.render()
    short = [cell.label for cell in report.cells
             if cell.signature_matches != MATRIX_COMMANDS]
    assert not short, (f"cells short of {MATRIX_COMMANDS}/{MATRIX_COMMANDS} "
                       f"signature matches: {short}")


def analyze_netlists(meter):
    captured = []
    previous = set_synthesis_sink(
        lambda sim, result: captured.append((sim, result))
    )
    try:
        build_platform([ANALYZE_COMMANDS], PciPlatformConfig(wait_states=1),
                       bus="pci", synthesize=True)
    finally:
        set_synthesis_sink(previous)
    (sim, result), = captured
    report = meter(_analyze_afresh, result, sim)
    assert not report.has_errors, report.lint.render()
    assert report.schedules(), "no netlist levelized"


def _analyze_afresh(result, sim):
    """The netlist passes and the report over them.

    Synthesis analyzes each netlist once, when it first meets the
    group's shape, and the memo is warm here, so the passes (graph,
    levelization, FSM, X-propagation) are run again for the row to
    meter them.
    """
    for group in result.groups:
        group.analyses = tuple([
            ModuleAnalysis(analysis.module) for analysis in group.analyses
        ])
    return analyze_design(result, sim, label="gate")


#: name -> (gated run, tolerance on its call count, on its wall time).
ROWS = {
    "method": (method_off, 0.10, 0.10),
    "pci": (pci_off, 0.01, 0.02),
    "campaign": (campaign_off, 0.02, 0.02),
    "matrix": (matrix_sweep, 0.01, 0.02),
    "analyze": (analyze_netlists, 0.02, 0.30),
}

#: memory row -> the bus whose synthesized cell it measures.
MEMORY_ROWS = {f"memory.{bus}": bus
               for bus in ("pci", "wishbone", "axi4lite", "tlmgp")}
#: Allowed growth of either stored byte count.
MEMORY_TOLERANCE = 0.01
#: The key the memory references are stored under.
PYTHON_VERSION = f"{sys.version_info.major}.{sys.version_info.minor}"

#: (subsystem, the off path it must cost nothing on, its on-mode run).
FEATURES = (
    ("instrument", "method", instrument_on),
    ("span", "pci", span_on),
    ("telemetry", "pci", telemetry_on),
    ("resilience", "pci", resilience_on),
    ("durable", "campaign", durable_on),
)


#: Frames Python 3.12 no longer creates (PEP 709).
INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def count_calls(run):
    """``(calls, result)`` of one *run*, counting Python and C calls
    (comprehension frames excepted, see :data:`INLINED`).

    The cyclic collector is paused while counting: a collection that
    finalizes suspended generators resumes their frames, and where it
    lands depends on the process's allocation history (whether modules
    were loaded from cached bytecode, say), not on the code counted.
    """
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "c_call" or (
            event == "call" and frame.f_code.co_name not in INLINED
        ):
            calls += 1

    def meter(fn, *args, **kwargs):
        collecting = gc.isenabled()
        gc.collect()
        gc.disable()
        sys.setprofile(profile)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.setprofile(None)
            if collecting:
                gc.enable()

    result = run(meter)
    return calls, result


def _live_bytes():
    """Traced bytes still reachable after a full collection (0 when
    tracemalloc is off)."""
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def _measure_cell(bus):
    """``(built, retained)`` tracemalloc bytes of one synthesized *bus*
    cell in this process: what the built cell holds, and what its run
    adds and keeps.

    The first pass is not traced: it fills the synthesis shape memo and
    the lazy caches the measured pass then reuses.
    """
    collecting = gc.isenabled()
    for traced in (False, True):
        workload = _cell_workload()
        gc.collect()
        gc.disable()
        if traced:
            tracemalloc.start()
        try:
            bundle = build_platform([workload], bus=bus, synthesize=True)
            built = _live_bytes()
            bundle.run(200 * MS)
            assert all(app.finished for app in bundle.handle.applications)
            retained = _live_bytes() - built
            del bundle
        finally:
            tracemalloc.stop()
            if collecting:
                gc.enable()
    return built, retained


def measure_memory(bus):
    """:func:`_measure_cell` in a fresh interpreter.

    What a process ran before moves the counts by kilobytes (id counters
    outgrow the small-int cache, other rows fill caches), so every
    memory row starts from the same state.
    """
    script = (f"import runpy; gate = runpy.run_path({__file__!r}); "
              f"print(*gate['_measure_cell']({bus!r}))")
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True)
    if result.returncode:
        raise RuntimeError(f"memory row of {bus} failed:\n{result.stderr}")
    built, retained = map(int, result.stdout.split())
    return built, retained


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
    """``(call limit, wall limit in calibration units)`` of row *name*."""
    __, calls_tolerance, wall_tolerance = ROWS[name]
    reference = baseline[name]
    return (reference["calls"] * (1.0 + calls_tolerance),
            reference["wall_units"] * (1.0 + wall_tolerance))


def memory_limits(name, baseline):
    """``(built limit, retained limit)`` in bytes of memory row *name* on
    this Python version, or None when no reference is stored for it."""
    reference = baseline.get(name, {}).get(PYTHON_VERSION)
    if reference is None:
        return None
    return (reference["built"] * (1.0 + MEMORY_TOLERANCE),
            reference["retained"] * (1.0 + MEMORY_TOLERANCE))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", nargs="*", metavar="ROW",
                        help="store this run's measurements of the named "
                             "rows, or of every row when none is named: a "
                             "call row's count (its wall reference is kept) "
                             "or a memory row's bytes on this Python version")
    args = parser.parse_args(argv)
    names = [*ROWS, *MEMORY_ROWS]
    unknown = sorted(set(args.update or ()) - set(names))
    if unknown:
        parser.error(f"unknown row {', '.join(unknown)}; "
                     f"rows are {', '.join(names)}")
    selected = set(args.update or names)
    baseline = load_baseline()

    failures = []
    measured = {}
    call_rows = [name for name in ROWS if name in selected]
    if call_rows:
        calibration = min(_calibrate() for __ in range(REPEATS))
        print(f"counted rows (wall: best of {REPEATS}, in calibration units):")
    for name in call_rows:
        run = ROWS[name][0]
        seconds = best_seconds(run)
        calls, __ = count_calls(run)
        measured[name] = (calls, seconds)
        units = seconds / calibration
        call_limit, wall_limit = limits(name, baseline)
        failed = [label for label, over in
                  (("calls", calls > call_limit), ("wall", units > wall_limit)) if over]
        print(f"  {name:<8} {calls:>9,} calls (limit {call_limit:>9,.0f})  "
              f"{units:6.2f} units (limit {wall_limit:5.2f})  "
              f"{'FAIL: ' + ', '.join(failed) if failed else 'ok'}")
        if failed:
            failures.append(name)

    memory_rows = [name for name in MEMORY_ROWS if name in selected]
    if memory_rows:
        print(f"memory rows (tracemalloc bytes, Python {PYTHON_VERSION}):")
    for name in memory_rows:
        built, retained = measure_memory(MEMORY_ROWS[name])
        measured[name] = {"built": built, "retained": retained}
        bounds = memory_limits(name, baseline)
        if bounds is None:
            print(f"  {name:<15} built {built:>7,}  retained {retained:>7,}  "
                  f"no Python {PYTHON_VERSION} reference")
            failures.append(name)
            continue
        built_limit, retained_limit = bounds
        failed = [label for label, over in
                  (("built", built > built_limit),
                   ("retained", retained > retained_limit)) if over]
        print(f"  {name:<15} built {built:>7,} (limit {built_limit:>7,.0f})  "
              f"retained {retained:>7,} (limit {retained_limit:>7,.0f})  "
              f"{'FAIL: ' + ', '.join(failed) if failed else 'ok'}")
        if failed:
            failures.append(name)

    # Named updates skip the features: they need every off path measured.
    if not args.update:
        print("features (on-mode cost over its off path):")
        for feature, path, run in FEATURES:
            seconds = best_seconds(run)
            calls, __ = count_calls(run)
            off_calls, off_seconds = measured[path]
            print(f"  {feature:<10} over {path:<8} {seconds / off_seconds:5.2f}x wall  "
                  f"{calls / off_calls:6.3f}x calls")

    if args.update is not None:
        for name in call_rows:
            baseline[name]["calls"] = measured[name][0]
        for name in memory_rows:
            baseline.setdefault(name, {})[PYTHON_VERSION] = measured[name]
        with open(BASELINE_PATH, "w") as handle:
            json.dump(baseline, handle, indent=2)
            handle.write("\n")
        print(f"updated {', '.join(call_rows + memory_rows)}: {BASELINE_PATH}")
        return 0
    if failures:
        print(f"FAIL: row over its limit: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("OK: every row within its limits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
