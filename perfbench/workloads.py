"""The benchmark's three workloads.

Every workload follows one life cycle, driven by ``run.py``:

``setup()``
    Everything before the first timed operation. ``run.py`` calls it
    several times and keeps the last result; set-up time is the median.
``run_pass(state, index, recorder)``
    One pass of timed work. Each pass draws its own inputs from the
    benchmark seed and the pass index, so a run covers ``passes`` times
    as many distinct inputs as one pass, and the same seed always gives
    the same inputs. Returns a :class:`Pass`.
``check(state, passes)``
    Output checks, run after the timed region. Returns
    ``(pass index, operation key, message)`` triples; a key of ``None``
    marks a failure of the workload as a whole rather than of one
    operation.

The load is a closed loop with one client: the next platform run,
faulty run or matrix cell starts only after the previous one finished.
"""

from __future__ import annotations

import collections

import repro.fault.runner as fault_runner
import repro.flow.platforms as platforms
import repro.iface.matrix as matrix
from repro.core.workload import expected_memory_image, generate_workload
from repro.errors import ReproError
from repro.fault import demo_campaign_spec
from repro.kernel.simtime import MS, US
from repro.verify.consistency import check_traces

from ledger import CYCLE_FS, perf

BUSES = ("pci", "wishbone", "axi4lite", "tlmgp")
#: Refinement levels of a bus cell: the behavioural element, then the
#: synthesized channel on the interpreted and on the compiled backend.
LEVELS = ("behavioural", "interpreted", "compiled")
#: Campaign classifications that count as a failed operation.
FAILED_CLASSIFICATIONS = ("error", "timeout", "worker_error")
#: Simulated-time bound of every platform run; far above what any
#: workload below needs, so hitting it means a hang.
MAX_TIME = 100 * MS


def pass_seed(seed: int, index: int, stream: int = 0) -> int:
    """The input seed of one pass (and one stream within it)."""
    return (seed * 4096 + index * 16 + stream) & 0x7FFFFFFF


class Op:
    """One timed operation: its key, host seconds and failure, if any."""

    __slots__ = ("key", "seconds", "failure")

    def __init__(self, key: str, seconds: float, failure: "str | None"):
        self.key = key
        self.seconds = seconds
        self.failure = failure


class Pass:
    """What one timed pass did."""

    def __init__(self) -> None:
        self.ops: list[Op] = []
        #: Simulated statistics of the pass beyond its run records
        #: (classifications, verdicts); part of the fingerprint.
        self.stats: list[tuple] = []
        #: Outputs the checks read after the timed region.
        self.outputs: dict = {}
        #: Host seconds of the whole pass; set by the driver.
        self.wall = 0.0
        #: The recorder's run records made during the pass; set by the
        #: driver.
        self.runs: list = []

    def add(self, key: str, seconds: float, failure: "str | None" = None):
        self.ops.append(Op(key, seconds, failure))

    def fingerprint_items(self) -> list:
        return self.stats + [run.stats() for run in self.runs]


def cycles_per_second(runs) -> float:
    """Simulated 30 ns cycles per host second over *runs* (0 if none)."""
    seconds = sum(run.seconds for run in runs)
    if not seconds:
        return 0.0
    return sum(run.sim_time for run in runs) / CYCLE_FS / seconds


def cycle_ratios(passes, cell_of, interpreted: str, compiled: str) -> dict:
    """Compiled over interpreted ``sim_cycles_per_s`` per bus. *cell_of*
    names the cell of a run record; the patterns take the bus name."""
    runs = [run for result in passes for run in result.runs]
    ratios = {}
    for bus in BUSES:
        slow = cycles_per_second(
            [run for run in runs if cell_of(run) == interpreted.format(bus)]
        )
        fast = cycles_per_second(
            [run for run in runs if cell_of(run) == compiled.format(bus)]
        )
        ratios[bus] = fast / slow if slow else 0.0
    return ratios


class RefineSweep:
    """One raw platform run per cell, no observers attached.

    Cells: the functional platform, then every bus at every level (13).
    Four applications with private address windows share one workload
    set per pass; every cell of the pass runs it, and its traces must
    equal the functional cell's and its memory image the golden one.
    """

    name = "refine_sweep"
    APPS = 4
    COMMANDS = 14
    #: Bytes of the private address window of each application.
    SPAN = 0x1000
    #: Host seconds of one pass on a 2.1 GHz Xeon, used to turn the
    #: seconds given to each repeat into a pass count.
    PASS_SECONDS = 0.85

    def __init__(self, seed: int, seconds: float) -> None:
        self.passes = max(2, round(seconds / self.PASS_SECONDS))
        self.cells = [("functional", "behavioural")] + [
            (bus, level) for bus in BUSES for level in LEVELS
        ]
        self.workloads = []
        self.golden = []
        for index in range(self.passes):
            apps = [
                generate_workload(
                    seed=pass_seed(seed, index, app),
                    n_commands=self.COMMANDS,
                    address_base=app * self.SPAN,
                    address_span=self.SPAN,
                    max_burst=16,
                    partial_byte_enable_fraction=0.2,
                    write_fraction=0.5,
                )
                for app in range(self.APPS)
            ]
            self.workloads.append(apps)
            image = []
            for app, commands in enumerate(apps):
                image += expected_memory_image(
                    commands, self.SPAN // 4, base=app * self.SPAN
                )
            self.golden.append(image)

    def _build(self, index: int, bus: str, level: str):
        synthesize = level != "behavioural"
        config = platforms.PciPlatformConfig(
            backend=level if synthesize else "interpreted"
        )
        return platforms.build_platform(
            self.workloads[index], config, bus=bus, synthesize=synthesize,
            label=f"{bus}/{level}",
        )

    def setup(self):
        """Build, synthesize and compile every cell of every pass."""
        return [
            [self._build(index, bus, level) for bus, level in self.cells]
            for index in range(self.passes)
        ]

    def run_pass(self, state, index: int, recorder) -> Pass:
        result = Pass()
        for (bus, level), bundle in zip(self.cells, state[index]):
            key = f"{bus}/{level}"
            recorder.tag = key
            started = perf()
            try:
                run = bundle.run(MAX_TIME)
            except ReproError as error:
                result.add(key, perf() - started,
                           f"{key}: {type(error).__name__}: {error}")
                continue
            result.add(key, perf() - started)
            result.outputs[key] = run
        return result

    def check(self, state, passes) -> list:
        failures = []
        for index, result in enumerate(passes):
            reference = result.outputs.get("functional/behavioural")
            if reference is None:
                continue
            for (bus, level), bundle in zip(self.cells, state[index]):
                key = f"{bus}/{level}"
                run = result.outputs.get(key)
                if run is None:
                    continue
                report = check_traces(
                    reference.traces, run.traces, "functional", key
                )
                if not report.consistent:
                    failures.append((index, key, f"{key}: traces differ "
                                     f"from functional: {report.mismatches[0]}"))
                image = bundle.memory.dump(0, len(self.golden[index]))
                if image != self.golden[index]:
                    failures.append((index, key,
                                     f"{key}: memory image differs from golden"))
        return failures

    def backend_ratios(self, passes) -> dict:
        return cycle_ratios(
            passes, lambda run: run.tag, "{}/interpreted", "{}/compiled"
        )


class FaultCampaign:
    """Serial demo fault campaigns on every bus at every level.

    Each pass runs ``run_campaign(workers=1)`` over 12 campaigns (4
    buses x 3 levels). Every campaign run rebuilds, re-synthesizes and
    re-compiles its platform. Each bus draws its own campaign seed per
    pass, shared by its two synthesized campaigns so their
    classifications can be compared run by run.
    """

    name = "fault_campaign"
    #: Runs per campaign (``demo_campaign_spec(runs=...)``): one per
    #: fault line, so more passes, and more distinct campaign seeds, fit
    #: in a run.
    RUNS = 6
    MAX_TIME = 30 * US
    PASS_SECONDS = 1.1

    def __init__(self, seed: int, seconds: float) -> None:
        self.passes = max(2, round(seconds / self.PASS_SECONDS))
        self.seed = seed
        self.keys = [(bus, level) for bus in BUSES for level in LEVELS]

    def _spec(self, index: int, bus: str, level: str):
        stream = 2 * BUSES.index(bus) + (level != "behavioural")
        spec = demo_campaign_spec(
            platform=bus, seed=pass_seed(self.seed, index, stream),
            runs=self.RUNS,
        )
        # The demo's 200 us bound makes every deadlocked run simulate
        # thousands of idle cycles, so the few deadlocks a seed happens
        # to draw would decide the workload's time. 30 us is five times
        # the longest golden run of any bus and level.
        spec.max_time = self.MAX_TIME
        if level != "behavioural":
            spec.synthesize = True
            spec.backend = level
        return spec

    def setup(self):
        """Every campaign spec; the first pass's 12 campaigns are planned,
        golden runs included. Later passes plan inside the timed
        ``run_campaign`` calls, as every campaign does."""
        specs = [
            [self._spec(index, bus, level) for bus, level in self.keys]
            for index in range(self.passes)
        ]
        for spec in specs[0]:
            fault_runner.plan_campaign(spec)
        return specs

    def run_pass(self, state, index: int, recorder) -> Pass:
        result = Pass()
        for (bus, level), spec in zip(self.keys, state[index]):
            key = f"{bus}/{level}"
            recorder.tag = key
            first = len(recorder.execute_seconds)
            started = perf()
            campaign = fault_runner.run_campaign(spec, workers=1)
            result.outputs[(key, "seconds")] = perf() - started
            seconds = recorder.execute_seconds[first:]
            rows = []
            for outcome, run_seconds in zip(campaign.outcomes, seconds):
                failure = None
                if outcome.classification in FAILED_CLASSIFICATIONS:
                    failure = (f"{key} run {outcome.run_id}: "
                               f"{outcome.classification}: {outcome.detail}")
                result.add(f"{key}#{outcome.run_id}", run_seconds, failure)
                rows.append((
                    outcome.run_id, outcome.kind, outcome.target_path,
                    outcome.window, outcome.classification, outcome.detail,
                    outcome.activations, outcome.detections,
                ))
            result.outputs[key] = rows
            counts = collections.Counter(row[4] for row in rows)
            result.stats.append((key, sorted(counts.items()), [
                outcome.sim_time for outcome in campaign.outcomes
            ]))
        return result

    def check(self, state, passes) -> list:
        """Backend parity: for every bus and pass, the interpreted and the
        compiled synthesized campaigns classify every run identically."""
        failures = []
        for index, result in enumerate(passes):
            for bus in BUSES:
                interpreted = result.outputs.get(f"{bus}/interpreted")
                compiled = result.outputs.get(f"{bus}/compiled")
                if interpreted != compiled:
                    failures.append((index, None, (
                        f"{bus}: interpreted and compiled campaigns "
                        "classify differently"
                    )))
        return failures

    def backend_ratios(self, passes) -> dict:
        ratios = {}
        for bus in BUSES:
            rates = {}
            for level in ("interpreted", "compiled"):
                key = f"{bus}/{level}"
                runs = sum(
                    len(result.outputs[key]) for result in passes
                )
                seconds = sum(
                    result.outputs[(key, "seconds")] for result in passes
                )
                rates[level] = runs / seconds
            ratios[bus] = rates["compiled"] / rates["interpreted"]
        return ratios


class VerifiedMatrix:
    """The swap matrix with telemetry: every run observed, every cell
    verified against the functional reference."""

    name = "verified_matrix"
    #: Commands of the one application (the matrix default is 25).
    COMMANDS = 45
    PASS_SECONDS = 0.75

    def __init__(self, seed: int, seconds: float) -> None:
        self.passes = max(2, round(seconds / self.PASS_SECONDS))
        self.seeds = [pass_seed(seed, index) for index in range(self.passes)]

    def _workload(self, index: int) -> list:
        # The matrix's own workload recipe, so set-up and the bare
        # re-runs simulate exactly what the matrix does.
        return generate_workload(
            seed=self.seeds[index],
            n_commands=self.COMMANDS,
            address_span=0x400,
            max_burst=4,
            partial_byte_enable_fraction=0.2,
        )

    def setup(self):
        """The functional reference run of every pass (the matrix runs
        its own again; set-up time measures it)."""
        return [
            platforms.build_platform(
                [self._workload(index)], bus="functional"
            ).run(MAX_TIME)
            for index in range(self.passes)
        ]

    def run_pass(self, state, index: int, recorder) -> Pass:
        result = Pass()
        report = matrix.run_swap_matrix(
            seed=self.seeds[index],
            n_commands=self.COMMANDS,
            telemetry=True,
            fault_runs=0,
        )
        for cell in report.cells:
            failure = None
            if cell.error is not None or not cell.consistent:
                detail = cell.error or "; ".join(cell.mismatches[:2])
                failure = f"{cell.label}: {cell.verdict}: {detail}"
            result.add(cell.label, cell.wall_seconds, failure)
            result.stats.append((
                cell.label, cell.verdict, cell.transactions,
                cell.signature_matches, cell.sim_time,
            ))
        result.outputs["all_consistent"] = report.all_consistent
        return result

    def check(self, state, passes) -> list:
        return [
            (index, None, "swap matrix is not all consistent")
            for index, result in enumerate(passes)
            if not result.outputs["all_consistent"]
        ]

    def bare_runs(self, indices) -> None:
        """Re-run the reference and every cell of the given passes with
        no tracer or scorecard attached."""
        for index in indices:
            workload = self._workload(index)
            platforms.build_platform([workload], bus="functional").run(
                MAX_TIME
            )
            for bus in matrix.DEFAULT_BUSES:
                for level in matrix.LEVELS:
                    synthesize = level != "functional"
                    config = platforms.PciPlatformConfig(
                        backend="compiled" if level == "compiled"
                        else "interpreted"
                    )
                    platforms.build_platform(
                        [workload], config, bus=bus, synthesize=synthesize,
                        label=f"{bus}_{level}",
                    ).run(MAX_TIME)

    def backend_ratios(self, passes) -> dict:
        return cycle_ratios(
            passes, lambda run: run.label, "{}_synthesized", "{}_compiled"
        )


WORKLOADS = {
    workload.name: workload
    for workload in (RefineSweep, FaultCampaign, VerifiedMatrix)
}
