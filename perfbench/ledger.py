"""Host-time accounting for the benchmark, taken from outside the program.

Two recorders wrap public entry points of the ``repro`` package while a
measurement runs and restore them afterwards. No file of the package is
changed.

:class:`Meter`
    The untraced path behind every end-to-end metric. It wraps only
    ``PlatformHandle.run`` (one simulation) and the campaign runner's
    ``execute_run`` (one faulty run) with a pair of clock reads each, so
    every simulator's probe bus stays on its null fast path.
:class:`Ledger`
    The traced path behind the per-layer metrics. Every wrapped entry
    point pushes a frame on a stack; a frame's *self* time is its
    duration minus the frames it called. Inside ``Simulator.run`` a
    ``repro.instrument.WallClockProfiler`` attached through
    ``sim.probes`` charges each process activation to the layer of the
    module that owns the process, and what no activation covers is the
    kernel's own time. The rows sum to the traced wall time; the part of
    the wall no row covers is the benchmark's own loop.
"""

from __future__ import annotations

import collections
import functools
import importlib
import time

perf = time.perf_counter

#: Femtoseconds per bus-clock cycle on the common 30 ns basis.
CYCLE_FS = 30_000_000

#: Ledger row for the kernel: ``Simulator.run`` minus process activations.
KERNEL_ROW = "kernel.self_s"
#: Ledger row for processes whose owner maps to no layer below.
OTHER_PROCESS_ROW = "other.process_s"

#: Module of a process's owner -> ledger row. The owner is the design
#: object named by the process path minus its leaf.
PROCESS_LAYERS = {
    "repro.hdl.clock": "hdl.clock_s",
    "repro.core.application": "core.app_s",
    "repro.core.nonblocking": "core.app_s",
    "repro.osss.global_object": "osss.channel_s",
    "repro.core.pci_interface": "iface.element_s",
    "repro.core.functional_interface": "iface.element_s",
    "repro.wishbone.interface": "iface.element_s",
    "repro.axi.interface": "iface.element_s",
    "repro.tlm.generic_payload": "iface.element_s",
    "repro.pci.master": "iface.element_s",
    "repro.wishbone.master": "iface.element_s",
    "repro.axi.master": "iface.element_s",
    "repro.pci.target": "bus.target_s",
    "repro.wishbone.slave": "bus.target_s",
    "repro.axi.slave": "bus.target_s",
    "repro.pci.arbiter": "bus.arbiter_s",
    "repro.pci.monitor": "bus.monitor_s",
    "repro.wishbone.monitor": "bus.monitor_s",
    "repro.axi.monitor": "bus.monitor_s",
    "repro.verify.checkers": "bus.monitor_s",
    "repro.synthesis.rtl_channel": "synthesis.channel_s",
    "repro.compile.channel": "compile.channel_s",
}

#: Every ledger row, in report order. Each is self time: host seconds
#: charged to that layer and not to any wrapped layer beneath it.
ROWS = (
    KERNEL_ROW,
    "hdl.clock_s",
    "core.app_s",
    "osss.channel_s",
    "iface.element_s",
    "bus.target_s",
    "bus.arbiter_s",
    "bus.monitor_s",
    "synthesis.channel_s",
    "compile.channel_s",
    OTHER_PROCESS_ROW,
    "core.handle_s",
    "flow.build_s",
    "synthesis.lower_s",
    "compile.codegen_s",
    "fault.expand_s",
    "fault.workload_s",
    "fault.classify_s",
    "fault.runner_s",
    "trace.finalize_s",
    "trace.correlate_s",
    "verify.check_s",
    "telemetry.score_s",
    "iface.matrix_s",
    "ledger.bookkeeping_s",
)


class RunRecord:
    """One ``PlatformHandle.run`` call: host seconds and simulated stats."""

    __slots__ = ("tag", "label", "seconds", "sim_time", "deltas",
                 "transactions")

    def __init__(self, tag, label, seconds, sim_time, deltas, transactions):
        self.tag = tag
        self.label = label
        self.seconds = seconds
        self.sim_time = sim_time
        self.deltas = deltas
        self.transactions = transactions

    def stats(self) -> tuple:
        """The simulated, host-independent part of the record."""
        return (self.tag, self.label, self.sim_time, self.deltas,
                self.transactions)


class _Recorder:
    """Installs wrappers on enter and restores the originals on exit."""

    def __init__(self) -> None:
        #: Set by the workload before each operation and copied into
        #: every run record, so runs can be grouped by cell or campaign.
        self.tag = None
        self.runs: list[RunRecord] = []
        #: Host seconds of each ``execute_run`` call, in call order.
        self.execute_seconds: list[float] = []
        self._undo: list = []

    def _patch(self, owner: object, attr: str, value: object) -> None:
        original = getattr(owner, attr)
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, value)

    def __enter__(self):
        self._install()
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            self._undo.pop()()

    def _install(self) -> None:
        raise NotImplementedError

    def _record_run(self, handle, seconds: float, deltas_before: int) -> None:
        sim = handle.sim
        self.runs.append(RunRecord(
            self.tag,
            handle.label,
            seconds,
            sim.time,
            sim.delta_count - deltas_before,
            sum(len(app.records) for app in handle.applications),
        ))

    def _timed_execute_run(self, execute_run):
        recorder = self

        @functools.wraps(execute_run)
        def timed(spec, run, golden):
            started = perf()
            try:
                return execute_run(spec, run, golden)
            finally:
                recorder.execute_seconds.append(perf() - started)

        return timed


class Meter(_Recorder):
    """Untraced recorder: one clock pair per simulation and faulty run."""

    def _install(self) -> None:
        from repro.core.refinement import PlatformHandle
        import repro.fault.runner as fault_runner

        meter = self
        handle_run = PlatformHandle.run

        @functools.wraps(handle_run)
        def run(handle, max_time):
            deltas = handle.sim.delta_count
            started = perf()
            try:
                return handle_run(handle, max_time)
            finally:
                meter._record_run(handle, perf() - started, deltas)

        self._patch(PlatformHandle, "run", run)
        self._patch(fault_runner, "execute_run",
                    self._timed_execute_run(fault_runner.execute_run))


def process_layer(sim, process_name: str) -> str:
    """The ledger row of a process, from the module of its owner."""
    from repro.errors import ElaborationError

    owner_path = process_name.rpartition(".")[0]
    try:
        owner = sim.lookup(owner_path)
    except ElaborationError:
        return OTHER_PROCESS_ROW
    return PROCESS_LAYERS.get(type(owner).__module__, OTHER_PROCESS_ROW)


class Ledger(_Recorder):
    """Traced recorder: a self-time row per wrapped entry point and per
    process layer, kept in memory until :meth:`to_dict`."""

    def __init__(self) -> None:
        super().__init__()
        self.rows: dict[str, float] = dict.fromkeys(ROWS, 0.0)
        #: (row, row of the calling frame) -> inclusive host seconds.
        self.inclusive: collections.Counter = collections.Counter()
        #: process name -> activations, summed over every traced run.
        self.activations: collections.Counter = collections.Counter()
        self.deltas = 0
        #: (handle label, host seconds inside Simulator.run) per run.
        self.sim_runs: list[tuple[str, float]] = []
        self._stack: list[list] = []
        self._last_sim_seconds = 0.0

    # -- frames --------------------------------------------------------------

    def _enter(self, row: str) -> list:
        frame = [row, 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        row = frame[0]
        self.rows[row] += elapsed - frame[1]
        parent = stack[-1] if stack else None
        self.inclusive[(row, parent[0] if parent else None)] += elapsed
        if parent is not None:
            parent[1] += elapsed

    def _frame(self, row: str, fn):
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = ledger._enter(row)
            started = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                ledger._leave(frame, perf() - started)

        return wrapper

    def _simulator_run(self, sim_run):
        from repro.instrument.profiler import WallClockProfiler

        ledger = self

        @functools.wraps(sim_run)
        def run(sim, duration=None):
            # One slice is the smallest trace buffer the profiler takes;
            # the ledger reads only its per-process totals.
            profiler = WallClockProfiler(max_trace_events=1).attach(sim.probes)
            deltas = sim.delta_count
            frame = ledger._enter(KERNEL_ROW)
            started = perf()
            try:
                return sim_run(sim, duration)
            finally:
                elapsed = perf() - started
                profiler.detach()
                in_processes = 0.0
                for process in profiler.report().processes:
                    ledger.rows[process_layer(sim, process.name)] += (
                        process.wall_seconds
                    )
                    ledger.activations[process.name] += process.activations
                    in_processes += process.wall_seconds
                ledger.deltas += sim.delta_count - deltas
                ledger._last_sim_seconds = elapsed
                bookkeeping = perf() - started - elapsed
                ledger.rows["ledger.bookkeeping_s"] += bookkeeping
                frame[1] += in_processes + bookkeeping
                ledger._leave(frame, elapsed + bookkeeping)

        return run

    def _handle_run(self, handle_run):
        ledger = self
        framed = self._frame("core.handle_s", handle_run)

        @functools.wraps(handle_run)
        def run(handle, max_time):
            deltas = handle.sim.delta_count
            ledger._last_sim_seconds = 0.0
            started = perf()
            try:
                return framed(handle, max_time)
            finally:
                ledger._record_run(handle, perf() - started, deltas)
                ledger.sim_runs.append(
                    (handle.label, ledger._last_sim_seconds)
                )

        return run

    # -- installation --------------------------------------------------------

    def _install(self) -> None:
        from repro.core.refinement import PlatformHandle
        from repro.kernel.simulator import Simulator

        # import_module, not ``import a.b as c``: some packages re-export a
        # function under the name of its submodule (repro.trace.correlate).
        (compile_channel, fault_campaign, fault_runner, platforms, matrix,
         synthesis_tool, scorecard, trace_correlate, trace_spans,
         consistency) = (importlib.import_module(f"repro.{name}") for name in (
             "compile.channel", "fault.campaign", "fault.runner",
             "flow.platforms", "iface.matrix", "synthesis.tool",
             "telemetry.scorecard", "trace.correlate", "trace.spans",
             "verify.consistency"))

        frame = self._frame
        self._patch(Simulator, "run", self._simulator_run(Simulator.run))
        self._patch(PlatformHandle, "run",
                    self._handle_run(PlatformHandle.run))
        build_platform = frame("flow.build_s", platforms.build_platform)
        self._patch(platforms, "build_platform", build_platform)
        # The campaign engine bound build_platform into per-family
        # partials at import time; point them at the wrapper too.
        builders = fault_campaign._BUILDERS
        originals = dict(builders)
        self._undo.append(lambda: builders.update(originals))
        for family, builder in originals.items():
            builders[family] = functools.partial(
                build_platform, *builder.args, **builder.keywords
            )
        self._patch(synthesis_tool, "synthesize_communication",
                    frame("synthesis.lower_s",
                          synthesis_tool.synthesize_communication))
        self._patch(compile_channel, "compile_module",
                    frame("compile.codegen_s", compile_channel.compile_module))
        self._patch(fault_runner, "run_campaign",
                    frame("fault.runner_s", fault_runner.run_campaign))
        self._patch(fault_runner, "plan_campaign",
                    frame("fault.expand_s", fault_runner.plan_campaign))
        self._patch(fault_runner, "execute_run", self._timed_execute_run(
            frame("fault.classify_s", fault_runner.execute_run)))
        self._patch(fault_campaign, "build_campaign_platform",
                    frame("fault.workload_s",
                          fault_campaign.build_campaign_platform))
        self._patch(matrix, "run_swap_matrix",
                    frame("iface.matrix_s", matrix.run_swap_matrix))
        self._patch(trace_spans.SpanTracer, "finalize",
                    frame("trace.finalize_s", trace_spans.SpanTracer.finalize))
        self._patch(trace_correlate, "correlate",
                    frame("trace.correlate_s", trace_correlate.correlate))
        self._patch(consistency, "check_traces",
                    frame("verify.check_s", consistency.check_traces))
        self._patch(scorecard.ScorecardProbe, "score",
                    frame("telemetry.score_s", scorecard.ScorecardProbe.score))

    # -- reporting -----------------------------------------------------------

    def stage(self, row: str, caller: "str | None" = "*") -> float:
        """Inclusive seconds of *row* when called from *caller*
        (``"*"``: from anywhere)."""
        return sum(
            seconds for (name, parent), seconds in self.inclusive.items()
            if name == row and (caller == "*" or parent == caller)
        )

    def covered(self) -> float:
        """Seconds charged to any row."""
        return sum(self.rows.values())

    def to_dict(self) -> dict:
        return {
            "rows": dict(self.rows),
            "inclusive": {
                f"{row} <- {parent or '-'}": seconds
                for (row, parent), seconds in sorted(
                    self.inclusive.items(),
                    key=lambda item: (item[0][0], str(item[0][1])),
                )
            },
            "deltas": self.deltas,
            "activations": dict(sorted(self.activations.items())),
        }
