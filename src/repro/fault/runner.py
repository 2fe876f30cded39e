"""Serial and parallel campaign runners with worker supervision.

Every run is fully isolated: the worker rebuilds the platform from the
picklable :class:`~repro.fault.spec.CampaignSpec`, arms exactly one
fault, and classifies against the golden reference computed once by the
parent (a run whose fault never activates is answered from that
reference inside :func:`~repro.fault.campaign.execute_run`).
Parallelism uses :class:`concurrent.futures.ProcessPoolExecutor` so a
run that corrupts interpreter state, leaks design objects or spins
cannot poison its siblings; per-run wall budgets are enforced *inside*
the run by the in-sim watchdog (portable — no SIGALRM, no main-thread
requirement). The pool modules are imported by the parallel paths
alone, so serial campaigns, sweeps and matrices never load them.

The runner degrades gracefully along a ladder, worst failure last:

1. **retry** — a worker death breaks the pool but every completed
   outcome is kept; the unfinished runs are retried one at a time, each
   in its own single-worker pool (a break there conclusively identifies
   the culprit, reported as ``worker_error``, while collateral runs
   complete normally).
2. **quarantine** — that per-run retry phase itself; it spawns at most
   one pool per unfinished run, so the campaign always terminates.
3. **serial fallback** — when quarantine pools keep dying (crash rate
   ≥ :data:`SERIAL_FALLBACK_THRESHOLD` over ≥ 2 attempts with ≥ 2
   breaks), process isolation has stopped buying anything — the
   machine is likely out of memory or unable to fork. The remaining
   runs execute in-parent, with chaos-marked runs short-circuited to
   their ``worker_error`` classification rather than executed.

Durability (:mod:`repro.fault.durable`) hooks in at the same seam:
``journal_dir`` appends every outcome to a crash-safe journal as it
lands, and ``resume_from`` replays a journal and re-enqueues only the
missing and quarantined runs. ``KeyboardInterrupt`` drains in-flight
work instead of abandoning it and marks the result ``interrupted``.
The optional ``monitor`` sees every outcome as the parent receives it;
workers report nothing but their outcomes.

Outcomes are returned sorted by run id, so serial, parallel and
interrupted-then-resumed execution produce byte-identical canonical
reports for the same spec and seed.
"""

from __future__ import annotations

import os
import threading
import time as _time
import typing

from .campaign import (
    WORKER_ERROR,
    GoldenReference,
    RunOutcome,
    execute_run,
    plan_campaign,
)
from .spec import CampaignSpec, RunSpec

#: Environment variable capping worker counts machine-wide. It is a
#: hard ceiling: it clamps both :func:`default_workers` and explicit
#: ``--workers N`` requests (CI boxes use it to stop a campaign from
#: oversubscribing shared runners).
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"

#: Quarantine crash-rate gate for the serial-fallback rung: fall back
#: once breaks/attempts reaches this with at least
#: :data:`SERIAL_FALLBACK_MIN_ATTEMPTS` attempts and
#: :data:`SERIAL_FALLBACK_MIN_BREAKS` broken pools.
SERIAL_FALLBACK_THRESHOLD = 0.5
SERIAL_FALLBACK_MIN_ATTEMPTS = 2
SERIAL_FALLBACK_MIN_BREAKS = 2


#: Per-worker campaign context, installed once by the pool initializer
#: so only the (tiny) RunSpec travels per task.
_WORKER_STATE: dict = {}


def _exit_with_parent() -> None:
    """Block until the campaign process is gone, then end this worker.

    A parent killed with SIGKILL runs no cleanup, so without this its
    pool workers would sleep on their call queue forever.
    """
    import multiprocessing
    import multiprocessing.connection

    parent = multiprocessing.parent_process()
    if parent is not None:
        multiprocessing.connection.wait([parent.sentinel])
        os._exit(1)


def _init_worker(spec: CampaignSpec, golden: GoldenReference) -> None:
    threading.Thread(
        target=_exit_with_parent, name="exit-with-parent", daemon=True
    ).start()
    _WORKER_STATE["spec"] = spec
    _WORKER_STATE["golden"] = golden


def _worker(run: RunSpec) -> RunOutcome:
    """Top-level (picklable) worker entry for the process pool."""
    spec = _WORKER_STATE["spec"]
    if run.run_id in spec.crash_run_ids:
        # Chaos knob: die the way a segfaulting or OOM-killed worker
        # does — no exception, no cleanup, just a vanished process.
        os._exit(17)
    return execute_run(spec, run, _WORKER_STATE["golden"])


def _worker_error(run: RunSpec, detail: str) -> RunOutcome:
    return RunOutcome(
        run.run_id,
        run.kind,
        run.target_path,
        run.window,
        WORKER_ERROR,
        detail,
    )


class CampaignResult:
    """Everything a campaign produced, ready for reporting."""

    def __init__(
        self,
        spec: CampaignSpec,
        golden: GoldenReference,
        outcomes: list[RunOutcome],
        wall_seconds: float,
        workers: int,
        pool_restarts: int = 0,
        interrupted: bool = False,
        resumed: int = 0,
        serial_fallback_runs: int = 0,
        content_hash: "str | None" = None,
        planned_runs: "int | None" = None,
    ) -> None:
        self.spec = spec
        self.golden = golden
        self.outcomes = outcomes
        self.wall_seconds = wall_seconds
        self.workers = workers
        #: Worker pools restarted after a worker process died.
        self.pool_restarts = pool_restarts
        #: True when a KeyboardInterrupt cut the campaign short; the
        #: outcomes are the completed prefix (a journal makes them
        #: resumable).
        self.interrupted = interrupted
        #: Outcomes replayed from a resumed journal (not re-executed).
        self.resumed = resumed
        #: Runs the degradation ladder executed in-parent after
        #: quarantine pools kept dying.
        self.serial_fallback_runs = serial_fallback_runs
        #: The campaign's content address when a durable feature was
        #: active, else None.
        self.content_hash = content_hash
        #: Size of the full expanded plan (== len(outcomes) unless
        #: interrupted).
        self.planned_runs = (
            planned_runs if planned_runs is not None else len(outcomes)
        )

    @property
    def runs_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return float("inf")
        return len(self.outcomes) / self.wall_seconds


def _env_worker_ceiling() -> "int | None":
    raw = os.environ.get(MAX_WORKERS_ENV, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return max(1, value)


def default_workers() -> int:
    """Half the cores, clamped to [1, 8] and the env ceiling."""
    workers = max(1, min(8, (os.cpu_count() or 2) // 2))
    ceiling = _env_worker_ceiling()
    if ceiling is not None:
        workers = min(workers, ceiling)
    return workers


def resolve_workers(requested: "int | None") -> int:
    """The worker-count convention shared by every campaign CLI.

    Precedence, strongest first:

    1. ``requested == 0`` (or negative) always means **serial** — the
       in-process runner, no pool at all.
    2. :data:`MAX_WORKERS_ENV` is a hard ceiling clamping everything
       else, including an explicit ``--workers N``.
    3. ``requested is None`` falls back to :func:`default_workers`.
    """
    if requested is not None and requested <= 0:
        return 1
    if requested is None:
        return default_workers()
    ceiling = _env_worker_ceiling()
    return min(requested, ceiling) if ceiling is not None else requested


def _run_serial(
    spec: CampaignSpec,
    runs: list[RunSpec],
    golden: GoldenReference,
    on_outcome: typing.Callable[[RunOutcome], None],
) -> tuple[list[RunOutcome], bool]:
    outcomes: list[RunOutcome] = []
    interrupted = False
    try:
        for run in runs:
            if run.run_id in spec.crash_run_ids:
                # Mirror what the self-healing pool reports for this
                # run so serial and parallel campaigns stay
                # byte-identical.
                outcome = _worker_error(
                    run, "worker process died (simulated)"
                )
            else:
                outcome = execute_run(spec, run, golden)
            outcomes.append(outcome)
            on_outcome(outcome)
    except KeyboardInterrupt:
        # The interrupted run never classified; everything before it is
        # already journaled/reported. Partial results beat none.
        interrupted = True
    return outcomes, interrupted


def _serial_fallback_run(
    spec: CampaignSpec, run: RunSpec, golden: GoldenReference
) -> RunOutcome:
    """Bottom rung of the ladder: execute in-parent, no isolation.

    Chaos-marked runs are short-circuited to the classification every
    other execution path gives them — actually crashing would take the
    whole campaign down, which is exactly what the fallback exists to
    avoid.
    """
    if run.run_id in spec.crash_run_ids:
        return _worker_error(run, "worker process died (simulated)")
    try:
        return execute_run(spec, run, golden)
    except Exception as error:  # noqa: BLE001
        return _worker_error(run, f"{type(error).__name__}: {error}")


def _quarantine_run(
    spec: CampaignSpec, run: RunSpec, golden: GoldenReference
) -> tuple[RunOutcome, bool]:
    """Retry one run alone in a fresh single-worker pool.

    With no siblings sharing the pool, a break here pins the worker
    death on this exact run. Returns ``(outcome, pool_broke)`` so the
    caller can track the quarantine crash rate for the fallback rung.
    """
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool

    with concurrent.futures.ProcessPoolExecutor(
        max_workers=1,
        initializer=_init_worker,
        initargs=(spec, golden),
    ) as pool:
        try:
            return pool.submit(_worker, run).result(), False
        except BrokenProcessPool:
            return _worker_error(
                run, "worker process died (simulated)"
                if run.run_id in spec.crash_run_ids
                else "worker process died"
            ), True
        except Exception as error:  # noqa: BLE001
            return _worker_error(
                run, f"{type(error).__name__}: {error}"
            ), False


def _run_parallel(
    spec: CampaignSpec,
    runs: list[RunSpec],
    golden: GoldenReference,
    workers: int,
    on_outcome: typing.Callable[[RunOutcome], None],
    on_event: typing.Callable[..., None],
) -> tuple[list[RunOutcome], int, bool, int]:
    """Pool execution; returns ``(outcomes, restarts, interrupted,
    serial_fallback_runs)``."""
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool

    outcomes: list[RunOutcome] = []
    unfinished: list[RunSpec] = []
    collected: set[int] = set()
    restarts = 0
    interrupted = False
    fallback_runs = 0

    def collect(future, run: RunSpec) -> None:
        try:
            outcome = future.result()
        except BrokenProcessPool:
            # Completed siblings are already in `outcomes`; this run
            # either killed its worker or is collateral damage — the
            # quarantine phase below sorts out which.
            unfinished.append(run)
            return
        except Exception as error:  # noqa: BLE001
            outcome = _worker_error(run, f"{type(error).__name__}: {error}")
        collected.add(run.run_id)
        outcomes.append(outcome)
        on_outcome(outcome)

    pool = concurrent.futures.ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(spec, golden),
    )
    futures: dict = {}
    try:
        for index, run in enumerate(runs):
            try:
                futures[pool.submit(_worker, run)] = run
            except BrokenProcessPool:
                # A worker died before the last submit. The runs not yet
                # submitted join the broken futures' runs in the
                # quarantine phase below.
                unfinished.extend(runs[index:])
                break
        pending = set(futures)
        try:
            while pending:
                done, pending = concurrent.futures.wait(
                    pending, return_when=concurrent.futures.FIRST_COMPLETED
                )
                for future in done:
                    collect(future, futures[future])
        except KeyboardInterrupt:
            # Graceful drain: cancel what never started, let the
            # in-flight runs finish during pool shutdown, keep every
            # completed outcome.
            interrupted = True
            for future in pending:
                future.cancel()
    finally:
        pool.shutdown(wait=True)
    if interrupted:
        for future, run in futures.items():
            if run.run_id in collected:
                continue
            if future.done() and not future.cancelled():
                collect(future, run)
        return outcomes, restarts, True, 0
    # Degradation ladder, rungs 2 and 3: per-run quarantine pools, then
    # in-parent serial fallback once pools keep dying.
    attempts = 0
    breaks = 0
    falling_back = False
    try:
        for run in sorted(unfinished, key=lambda r: r.run_id):
            if falling_back:
                fallback_runs += 1
                outcome = _serial_fallback_run(spec, run, golden)
            else:
                restarts += 1
                attempts += 1
                on_event("quarantine", run_id=run.run_id)
                outcome, broke = _quarantine_run(spec, run, golden)
                if broke:
                    breaks += 1
                    on_event("pool_break", run_id=run.run_id)
                if (
                    attempts >= SERIAL_FALLBACK_MIN_ATTEMPTS
                    and breaks >= SERIAL_FALLBACK_MIN_BREAKS
                    and breaks / attempts >= SERIAL_FALLBACK_THRESHOLD
                ):
                    falling_back = True
                    on_event(
                        "serial_fallback",
                        attempts=attempts,
                        pool_breaks=breaks,
                    )
            outcomes.append(outcome)
            on_outcome(outcome)
    except KeyboardInterrupt:
        interrupted = True
    return outcomes, restarts, interrupted, fallback_runs


def run_campaign(
    spec: CampaignSpec,
    workers: int = 1,
    max_runs: int | None = None,
    monitor=None,
    journal_dir: "str | None" = None,
    resume_from: "str | None" = None,
) -> CampaignResult:
    """Plan and execute a whole campaign.

    :param workers: 1 = serial in-process; >1 = that many worker
        processes (see :func:`resolve_workers` for the CLI convention).
    :param max_runs: truncate the expanded run list (smoke testing).
    :param monitor: optional
        :class:`~repro.telemetry.progress.CampaignProgress` aggregator;
        the parent feeds it each outcome as it lands (completion order,
        not run order).
    :param journal_dir: start a fresh crash-safe journal here; every
        outcome is fsync'd into it the moment it classifies.
    :param resume_from: directory of an existing journal to resume.
        The journal's spec hash must match this campaign
        (:class:`~repro.errors.JournalError` otherwise); journaled
        content outcomes are replayed without re-execution, missing
        and ``worker_error`` runs are re-enqueued, and further
        outcomes append to the same journal.
    """
    started = _time.perf_counter()
    content_hash = None
    journal = None

    if journal_dir is not None or resume_from is not None:
        # Imported lazily so the journal-off hot path stays untouched.
        from .durable import CampaignJournal, campaign_content_hash

        content_hash = campaign_content_hash(spec, max_runs)

    golden, runs = plan_campaign(spec)
    if max_runs is not None:
        runs = runs[:max_runs]
    planned_runs = len(runs)

    resumed_outcomes: list[RunOutcome] = []
    if resume_from is not None:
        journal, prior, _truncated = CampaignJournal.open_resume(
            resume_from, spec, max_runs
        )
        valid_ids = {run.run_id for run in runs}
        for run_id, outcome in sorted(prior.items()):
            # Keep every journaled content/infrastructure outcome
            # except worker deaths: those are the quarantined runs the
            # resume retries (the first rung of the ladder).
            if run_id in valid_ids and outcome.classification != WORKER_ERROR:
                resumed_outcomes.append(outcome)
        kept = {outcome.run_id for outcome in resumed_outcomes}
        runs = [run for run in runs if run.run_id not in kept]
    elif journal_dir is not None:
        journal = CampaignJournal.create(
            journal_dir, spec, max_runs, total_runs=planned_runs
        )

    if monitor is not None:
        monitor.begin(planned_runs)
        if resumed_outcomes:
            monitor.record_resumed(len(resumed_outcomes))

    def dispatch(outcome: RunOutcome, journaled: bool = False) -> None:
        if journal is not None and not journaled:
            journal.append_outcome(outcome)
        if monitor is not None:
            monitor.record_outcome(outcome)
            monitor.tick()

    def on_event(event: str, **fields) -> None:
        if journal is not None:
            journal.append_event(event, **fields)

    interrupted = False
    restarts = 0
    fallback_runs = 0
    try:
        for outcome in resumed_outcomes:
            dispatch(outcome, journaled=True)
        if workers <= 1:
            executed, interrupted = _run_serial(spec, runs, golden, dispatch)
        else:
            executed, restarts, interrupted, fallback_runs = _run_parallel(
                spec, runs, golden, workers, dispatch, on_event
            )
        outcomes = resumed_outcomes + executed
        outcomes.sort(key=lambda o: o.run_id)
        if interrupted and journal is not None:
            journal.append_event(
                "interrupted",
                completed=len(outcomes),
                planned=planned_runs,
            )
    finally:
        if journal is not None:
            journal.close()
    if spec.flight_record_dir:
        _write_post_mortem_stubs(spec, outcomes)
    if monitor is not None:
        monitor.finish()
    return CampaignResult(
        spec,
        golden,
        outcomes,
        _time.perf_counter() - started,
        workers,
        pool_restarts=restarts,
        interrupted=interrupted,
        resumed=len(resumed_outcomes),
        serial_fallback_runs=fallback_runs,
        content_hash=content_hash,
        planned_runs=planned_runs,
    )


def _write_post_mortem_stubs(
    spec: CampaignSpec, outcomes: list[RunOutcome]
) -> None:
    """Header-only flight records for runs whose worker died.

    A hard-exited worker can't dump its own ring; the parent leaves a
    stub in its place so the record directory always has one file per
    run and post-mortem tooling can tell "no events" from "no file".
    """
    from ..telemetry.recorder import write_post_mortem_stub
    from .campaign import flight_record_path

    for outcome in outcomes:
        if outcome.classification != WORKER_ERROR:
            continue
        path = flight_record_path(spec.flight_record_dir, outcome.run_id)
        if os.path.exists(path):
            continue
        write_post_mortem_stub(path, {
            "run_id": outcome.run_id,
            "campaign": spec.name,
            "platform": spec.platform,
            "classification": outcome.classification,
            "detail": outcome.detail,
        })
