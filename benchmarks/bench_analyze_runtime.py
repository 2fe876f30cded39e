"""CI smoke: netlist-analysis runtime against a calibrated budget.

Builds the synthesized PCI platform once, then times
:func:`repro.analyze.analyze_design` (graph + levelization + FSM +
X-propagation + NET/FSM/RACE lint) over its netlists and compares the
cost against the checked-in budget ``benchmarks/analyze_baseline.json``.

Wall-clock numbers are useless across machines, so the analysis time is
normalized by a pure-Python calibration loop timed on the same host
(the same scheme as the wall backstop of ``offpath_gate.py``).

Usage::

    python benchmarks/bench_analyze_runtime.py            # compare (CI)
    python benchmarks/bench_analyze_runtime.py --update   # recalibrate

Exit status 1 when the normalized analysis cost regresses past the
tolerance (default 30% — the pass is fast, so jitter is proportionally
larger than for the simulation benchmarks).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(_ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.analyze import analyze_design  # noqa: E402
from repro.core import CommandType  # noqa: E402
from repro.flow import PciPlatformConfig, build_pci_platform  # noqa: E402
from repro.synthesis.tool import set_synthesis_sink  # noqa: E402

BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "analyze_baseline.json")
REPEATS = 5
CALIBRATION_LOOPS = 200_000

COMMANDS = [
    CommandType.write(0x100, [0xDEADBEEF, 0x12345678, 0xCAFEF00D]),
    CommandType.read(0x100, count=3),
]


def _build_synthesized_platform():
    """The PCI platform plus the captured synthesis result."""
    captured = []
    previous = set_synthesis_sink(
        lambda sim, result: captured.append((sim, result))
    )
    try:
        build_pci_platform(
            [COMMANDS], PciPlatformConfig(wait_states=1), synthesize=True
        )
    finally:
        set_synthesis_sink(previous)
    (capture,) = captured
    return capture


def _calibrate() -> float:
    """Time a fixed pure-Python loop as the host-speed yardstick."""
    acc = 0
    started = time.perf_counter()
    for i in range(CALIBRATION_LOOPS):
        acc += i % 7
    elapsed = time.perf_counter() - started
    assert acc > 0
    return elapsed


def _analyze_once(sim, result) -> float:
    started = time.perf_counter()
    report = analyze_design(result, sim, label="bench")
    elapsed = time.perf_counter() - started
    assert not report.has_errors, report.lint.render()
    assert report.schedules(), "no netlist levelized"
    return elapsed


def measure() -> dict:
    sim, result = _build_synthesized_platform()
    calibration = min(_calibrate() for __ in range(REPEATS))
    analyze = min(_analyze_once(sim, result) for __ in range(REPEATS))
    report = analyze_design(result, sim)
    return {
        "workload": {
            "modules": len(report.modules),
            "comb_steps": sum(a.stats()["comb_steps"]
                              for a in report.modules),
            "calibration_loops": CALIBRATION_LOOPS,
        },
        "calibration_seconds": calibration,
        "analyze_seconds": analyze,
        "normalized_analyze": analyze / calibration,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=BASELINE_PATH,
                        help="baseline JSON path")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed slowdown vs baseline "
                             "(default 0.30 = 30%%)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run")
    args = parser.parse_args(argv)

    result = measure()
    print(f"netlist analysis ({result['workload']['modules']} module(s), "
          f"{result['workload']['comb_steps']} comb steps, "
          f"best of {REPEATS}):")
    print(f"  analyze_design: {result['analyze_seconds'] * 1e3:8.2f} ms "
          f"({result['normalized_analyze']:.2f} calibration units)")

    if args.update:
        with open(args.baseline, "w") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    if not os.path.exists(args.baseline):
        print(f"no baseline at {args.baseline}; run with --update first",
              file=sys.stderr)
        return 1
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    reference = baseline["normalized_analyze"]
    limit = reference * (1.0 + args.tolerance)
    print(f"  baseline: {reference:.2f} units, "
          f"limit {limit:.2f} (+{args.tolerance:.0%})")
    if result["normalized_analyze"] > limit:
        print("FAIL: netlist analysis runtime regressed "
              f"({result['normalized_analyze']:.2f} > {limit:.2f})",
              file=sys.stderr)
        return 1
    print("OK: analysis runtime within tolerance of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
