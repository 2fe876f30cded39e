"""Benchmark of the refinement stack: end-to-end metrics and a layer ledger.

Run from the root of a checkout::

    python3 perfbench/run.py --workload refine_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no observers attached.
``--trace 1`` measures the same passes untraced and then again traced,
and reports the per-layer ledger instead. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.
``perfbench/README.md`` defines every workload and metric.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Where the traced run writes its ledger (listed in .gitignore).
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOAD_NAMES = ("refine_sweep", "fault_campaign", "verified_matrix")
#: The seed used while the benchmark was written, and the held-out seed
#: a change claiming a gain must also be checked on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
#: Set-up repetitions per run; set-up time is their median.
SETUP_REPEATS = 3
#: Executions of every pass, interleaved (all passes, then all again).
#: Host speed on a shared machine drifts between a fast and a slow state
#: that lasts seconds; the metrics use the fastest execution of each
#: pass, so a run that catches a slow phase still reports the host.
REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="intended length of the timed region")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_pass(workload, state, index, recorder):
    first = len(recorder.runs)
    started = time.perf_counter()
    result = workload.run_pass(state, index, recorder)
    result.wall = time.perf_counter() - started
    result.runs = recorder.runs[first:]
    return result


def digest(items) -> str:
    text = json.dumps(items, sort_keys=True, default=list)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def nearest_rank(ordered, fraction):
    """The nearest-rank percentile of an ascending list, and how many
    samples lie beyond it."""
    rank = math.ceil(fraction * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def fastest_ops(repeats):
    """Host seconds of every operation, each the fastest of its repeats,
    in ascending order."""
    return sorted(
        min(seconds)
        for executions in zip(*repeats)
        for seconds in zip(*([op.seconds for op in p.ops] for p in executions))
    )


def end_to_end(passes, latencies, setup_s):
    """Every end-to-end metric: ``name -> (value, unit, note)``.

    *passes* holds the fastest execution of every pass and *latencies*
    the fastest execution of every operation. Rates are totals over the
    passes, not medians of per-pass rates.
    """
    from ledger import CYCLE_FS

    runs = [run for p in passes for run in p.runs]
    wall = sum(p.wall for p in passes)
    sim_seconds = sum(run.seconds for run in runs)
    p90, beyond = nearest_rank(latencies, 0.9)
    samples = f"{len(latencies)} operations, fastest of {REPEATS}"
    return {
        "setup_s": (setup_s, "s",
                    f"import + median of {SETUP_REPEATS} set-ups"),
        "wall_s": (wall, "s",
                   f"{len(passes)} passes, fastest of {REPEATS} each"),
        "txn_per_s": (sum(run.transactions for run in runs) / sim_seconds,
                      "1/s", f"{len(runs)} simulations"),
        "sim_cycles_per_s": (
            sum(run.sim_time for run in runs) / CYCLE_FS / sim_seconds,
            "1/s", f"{sim_seconds:.3f} s simulating"),
        "runs_per_s": (len(latencies) / wall, "1/s", samples),
        "run_ms_p50": (statistics.median(latencies) * 1e3, "ms", samples),
        "run_ms_p90": (p90 * 1e3, "ms",
                       f"{samples}, {beyond} beyond the percentile"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB", "ru_maxrss of the workload process"),
    }


def per_layer(workload, ledger, fastest, traced, bare):
    """Every per-layer metric: ``name -> (value, unit, note)``."""
    from ledger import KERNEL_ROW, ROWS
    from workloads import BUSES

    wall = sum(p.wall for p in traced)
    metrics = {row: (ledger.rows[row], "s", "self") for row in ROWS}
    metrics["kernel.deltas"] = (ledger.deltas, "count", "traced runs")
    metrics["kernel.us_per_delta"] = (
        ledger.rows[KERNEL_ROW] / ledger.deltas * 1e6 if ledger.deltas
        else 0.0, "us", "kernel self time per delta cycle")
    metrics["fault.plan_s"] = (
        ledger.stage("fault.expand_s"), "s",
        "plan_campaign, golden run and probe build included")
    metrics["fault.build_s"] = (
        ledger.stage("fault.workload_s", "fault.classify_s"), "s",
        "platform builds inside execute_run")
    metrics["fault.simulate_s"] = (
        ledger.stage("core.handle_s", "fault.classify_s"), "s",
        "platform runs inside execute_run")
    observed = sum(seconds for __, seconds in ledger.sim_runs)
    metrics["iface.observer_s"] = (
        observed - sum(seconds for __, seconds in bare.sim_runs)
        if bare is not None else 0.0, "s",
        "Simulator.run with tracer and scorecard minus a bare re-run")
    ratios = workload.backend_ratios(fastest)
    for bus in BUSES:
        metrics[f"compile.backend_ratio.{bus}"] = (
            ratios[bus], "ratio", "compiled / interpreted, fastest passes")
    metrics["ledger.wall_s"] = (wall, "s", f"{len(traced)} traced passes")
    metrics["ledger.residual"] = (
        (wall - ledger.covered()) / wall, "ratio",
        "share of traced wall no row covers")
    metrics["ledger.overhead"] = (
        wall / sum(p.wall for p in fastest), "ratio",
        "traced wall / fastest untraced wall of the same passes")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Everything the workloads and the ledger call into, imported before
    # set-up is timed so import cost is counted once.
    import repro.compile.channel  # noqa: F401
    import repro.instrument.profiler  # noqa: F401
    import repro.synthesis.tool  # noqa: F401
    import repro.telemetry.scorecard  # noqa: F401
    import repro.trace.correlate  # noqa: F401
    import repro.trace.spans  # noqa: F401
    import workloads
    from ledger import CYCLE_FS, Ledger, Meter

    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds / REPEATS
    )
    import_s = time.perf_counter() - STARTED

    setup_times = []
    state = None
    for __ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        started = time.perf_counter()
        state = workload.setup()
        setup_times.append(time.perf_counter() - started)
    # Every repeat gets its own set-up: a built platform runs only once.
    copies = [state] + [workload.setup() for __ in range(REPEATS - 1)]
    replay = workload.setup() if args.trace else None
    # The set-up objects live through the whole run; keep the cyclic
    # collector from rescanning them during timed passes.
    gc.collect()
    gc.freeze()

    indices = range(workload.passes)
    with Meter() as meter:
        repeats = [
            [timed_pass(workload, copy, i, meter) for i in indices]
            for copy in copies
        ]
    fastest = [
        min((results[i] for results in repeats), key=lambda p: p.wall)
        for i in indices
    ]
    traced = bare = ledger = None
    if args.trace:
        with Ledger() as ledger:
            traced = [timed_pass(workload, replay, i, ledger) for i in indices]
        if hasattr(workload, "bare_runs"):
            with Ledger() as bare:
                workload.bare_runs(indices)

    failures = {}
    problems = []
    checked = [(f"repeat {r}", copies[r], repeats[r]) for r in range(REPEATS)]
    if traced:
        checked.append(("traced", replay, traced))
    reference = [p.fingerprint_items() for p in repeats[0]]
    for mode, run_state, results in checked:
        for index, result in enumerate(results):
            for op in result.ops:
                if op.failure:
                    failures.setdefault((mode, index, op.key), op.failure)
        for index, key, message in workload.check(run_state, results):
            if key is None:
                problems.append(f"{mode}: {message}")
            else:
                failures.setdefault((mode, index, key), message)
        if [p.fingerprint_items() for p in results] != reference:
            problems.append(f"{mode} simulated differently from repeat 0")
    attempted = sum(
        len(p.ops) for __, __, results in checked for p in results
    )
    failed = len(failures)

    if args.trace:
        metrics = per_layer(workload, ledger, fastest, traced, bare)
    else:
        setup_s = import_s + statistics.median(setup_times)
        metrics = end_to_end(fastest, fastest_ops(repeats), setup_s)

    runs = [run for p in repeats[0] for run in p.runs]
    print(f"workload {args.workload}  seed {args.seed}  passes "
          f"{workload.passes} x {REPEATS} repeats  trace {args.trace}")
    print(f"  import {import_s:.3f} s, set-ups "
          + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
    for r, results in enumerate(repeats):
        print(f"  repeat {r} pass walls "
              + " ".join(f"{p.wall:.2f}" for p in results) + " s")
    print(f"  fingerprint {digest(reference)}: "
          f"{sum(r.sim_time for r in runs) / CYCLE_FS:.0f} cycles, "
          f"{sum(r.deltas for r in runs)} deltas, "
          f"{sum(r.transactions for r in runs)} transactions, "
          f"{len(runs)} simulations per repeat")
    if ledger is not None:
        print(f"  activation fingerprint "
              f"{digest(sorted(ledger.activations.items()))}: "
              f"{sum(ledger.activations.values())} activations")
    print(f"  error_rate {failed / attempted:.4f} "
          f"({failed} of {attempted} operations failed)")
    for message in list(failures.values())[:10] + problems:
        print(f"  FAIL {message}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit:<6} {note}")

    if ledger is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(
            OUT_DIR, f"ledger-{args.workload}-seed{args.seed}.json"
        )
        with open(path, "w") as handle:
            json.dump({
                "workload": args.workload,
                "seed": args.seed,
                "passes": workload.passes,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit, __) in metrics.items()},
                "ledger": ledger.to_dict(),
            }, handle, indent=1)
        print(f"  ledger written to {os.path.relpath(path, ROOT)}")

    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, __) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
