"""CI gate: the compiled backend's speedup over the interpreted one.

Three measurements, from the layer where the codegen acts outward:

* **netlist level** — per-evaluation cost of the generated code
  (``CompiledNetlist.comb`` / ``.cycle``) against the interpreted
  :meth:`EvalSchedule.evaluate` on the synthesized PCI channel netlist,
  over identical seeded random vectors. This is where the 10×+ target
  of ROADMAP open item #1 lives and where the CI floor is enforced.
* **platform level** — the ``bench_pci_throughput`` burst=16 workload
  end to end under both backends. Recorded honestly: the run is
  dominated by the pin-level bus protocol (unchanged by this backend),
  so the end-to-end ratio hovers near 1×.
* **campaign level** — serial fault-campaign runs/s under both
  backends on the demo PCI campaign, same caveat.

The floor lives in ``benchmarks/compile_baseline.json``; speedups are
dimensionless ratios of two measurements on the same host, so no
calibration loop is needed. ``--record`` appends the measurements to
``BENCH_compile.json`` at the repo root so the perf trajectory
accumulates across PRs.

Usage::

    python benchmarks/bench_compile_speedup.py             # compare (CI)
    python benchmarks/bench_compile_speedup.py --update    # rebaseline
    python benchmarks/bench_compile_speedup.py --record    # append BENCH
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

from repro.compile import compile_module  # noqa: E402
from repro.core import CommandType  # noqa: E402
from repro.core.workload import _Lcg  # noqa: E402
from repro.fault.runner import run_campaign  # noqa: E402
from repro.fault.spec import demo_campaign_spec  # noqa: E402
from repro.flow import PciPlatformConfig, build_platform  # noqa: E402
from repro.kernel import MS, NS  # noqa: E402
from repro.synthesis.tool import set_synthesis_sink  # noqa: E402

BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "compile_baseline.json")
BENCH_PATH = os.path.join(_ROOT, "BENCH_compile.json")
REPEATS = 5
VECTORS = 2000
CLOCK_PERIOD = 30 * NS
BURST = 16
TOTAL_WORDS = 32

COMMANDS = [
    CommandType.write(0x100, [0xDEADBEEF, 0x12345678, 0xCAFEF00D]),
    CommandType.read(0x100, count=3),
]


def _channel_analysis():
    """The analysis of the synthesized PCI channel netlist of the
    Figure-4 platform."""
    captured = []
    previous = set_synthesis_sink(
        lambda sim, result: captured.append(result)
    )
    try:
        build_platform(
            [COMMANDS], PciPlatformConfig(wait_states=1), bus="pci",
            synthesize=True,
        )
    finally:
        set_synthesis_sink(previous)
    (result,) = captured
    return result.groups[0].analyses[0]


def _vectors(schedule, count):
    boundary = sorted(schedule.boundary_nets(), key=lambda net: net.name)
    rng = _Lcg(0xBE1C)
    return [
        {net.name: rng.next_int(1 << min(net.width, 30))
         for net in boundary}
        for __ in range(count)
    ]


def measure_netlist() -> dict:
    """Per-evaluation cost: interpreted schedule vs generated code."""
    analysis = _channel_analysis()
    schedule = analysis.schedule
    netlist = compile_module(analysis)
    vectors = _vectors(schedule, VECTORS)
    for env in vectors[:32]:  # sanity before timing
        assert netlist.comb(env) == schedule.evaluate(env)

    def best(fn):
        times = []
        for __ in range(REPEATS):
            started = time.perf_counter()
            for env in vectors:
                fn(env)
            times.append(time.perf_counter() - started)
        return min(times) / len(vectors)

    interpreted = best(schedule.evaluate)
    compiled_comb = best(netlist.comb)
    regs = netlist.reset_registers()
    outs = {}
    ins = {name: 0 for name in netlist.input_names}
    started = time.perf_counter()
    for __ in range(VECTORS):
        netlist.cycle(regs, ins, outs)
    compiled_cycle = (time.perf_counter() - started) / VECTORS
    return {
        "comb_steps": netlist.stats["comb_steps"],
        "interpreted_us_per_eval": interpreted * 1e6,
        "compiled_comb_us_per_eval": compiled_comb * 1e6,
        "compiled_cycle_us_per_edge": compiled_cycle * 1e6,
        "comb_speedup": interpreted / compiled_comb,
        "cycle_speedup": interpreted / compiled_cycle,
    }


def measure_platform() -> dict:
    """End-to-end burst=16 throughput run, both backends."""
    commands = [
        CommandType.write(0x100 + 4 * BURST * i, list(range(1, BURST + 1)))
        for i in range(TOTAL_WORDS // BURST)
    ]

    def run_once(backend):
        config = PciPlatformConfig(
            clock_period=CLOCK_PERIOD, backend=backend
        )
        bundle = build_platform([commands], config, bus="pci", synthesize=True)
        started = time.perf_counter()
        bundle.run(100 * MS)
        return time.perf_counter() - started

    interpreted = min(run_once("interpreted") for __ in range(REPEATS))
    compiled = min(run_once("compiled") for __ in range(REPEATS))
    return {
        "interpreted_seconds": interpreted,
        "compiled_seconds": compiled,
        "speedup": interpreted / compiled,
    }


def measure_campaign() -> dict:
    """Serial demo-campaign runs/s, both backends."""

    def runs_per_second(backend):
        spec = demo_campaign_spec(platform="pci", seed=11, runs=6)
        spec.synthesize = True
        spec.backend = backend
        started = time.perf_counter()
        result = run_campaign(spec, workers=1, max_runs=6)
        elapsed = time.perf_counter() - started
        return len(result.outcomes) / elapsed

    interpreted = max(runs_per_second("interpreted") for __ in range(2))
    compiled = max(runs_per_second("compiled") for __ in range(2))
    return {
        "interpreted_runs_per_s": interpreted,
        "compiled_runs_per_s": compiled,
        "speedup": compiled / interpreted,
    }


def measure() -> dict:
    return {
        "netlist": measure_netlist(),
        "platform_burst16": measure_platform(),
        "campaign_serial": measure_campaign(),
    }


def _render(result: dict) -> str:
    netlist = result["netlist"]
    platform = result["platform_burst16"]
    campaign = result["campaign_serial"]
    return "\n".join([
        f"netlist ({netlist['comb_steps']} comb steps, best of {REPEATS}):",
        f"  interpreted evaluate: "
        f"{netlist['interpreted_us_per_eval']:8.2f} us/eval",
        f"  compiled comb:        "
        f"{netlist['compiled_comb_us_per_eval']:8.2f} us/eval "
        f"({netlist['comb_speedup']:.1f}x)",
        f"  compiled cycle:       "
        f"{netlist['compiled_cycle_us_per_edge']:8.2f} us/edge "
        f"({netlist['cycle_speedup']:.1f}x)",
        f"platform burst=16 end to end (bus-dominated, both backends "
        "run the same pin-level protocol):",
        f"  interpreted {platform['interpreted_seconds'] * 1e3:7.1f} ms   "
        f"compiled {platform['compiled_seconds'] * 1e3:7.1f} ms   "
        f"({platform['speedup']:.2f}x)",
        "fault campaign, serial (same caveat):",
        f"  interpreted {campaign['interpreted_runs_per_s']:6.1f} runs/s  "
        f"compiled {campaign['compiled_runs_per_s']:6.1f} runs/s  "
        f"({campaign['speedup']:.2f}x)",
    ])


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=BASELINE_PATH,
                        help="baseline JSON path")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run")
    parser.add_argument("--record", action="store_true",
                        help=f"append this run to {BENCH_PATH}")
    args = parser.parse_args(argv)

    result = measure()
    print(_render(result))

    if args.record:
        history = []
        if os.path.exists(BENCH_PATH):
            with open(BENCH_PATH) as handle:
                history = json.load(handle)
        history.append({
            "date": time.strftime("%Y-%m-%d"),
            **result,
        })
        with open(BENCH_PATH, "w") as handle:
            json.dump(history, handle, indent=2)
            handle.write("\n")
        print(f"recorded to {BENCH_PATH}")

    if args.update:
        baseline = {
            "workload": {
                "comb_steps": result["netlist"]["comb_steps"],
                "vectors": VECTORS,
            },
            # The CI floor: the generated code must stay an order of
            # magnitude ahead of the interpreted schedule. Set below
            # the measured ratio to absorb shared-runner jitter, never
            # below the ROADMAP's 10x target.
            "min_comb_speedup": max(
                10.0, 0.6 * result["netlist"]["comb_speedup"]
            ),
            "min_cycle_speedup": max(
                10.0, 0.6 * result["netlist"]["cycle_speedup"]
            ),
            "measured": result["netlist"],
        }
        with open(args.baseline, "w") as handle:
            json.dump(baseline, handle, indent=2)
            handle.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    if not os.path.exists(args.baseline):
        print(f"no baseline at {args.baseline}; run with --update first",
              file=sys.stderr)
        return 1
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    floor_comb = baseline["min_comb_speedup"]
    floor_cycle = baseline["min_cycle_speedup"]
    print(f"  floors: comb {floor_comb:.1f}x, cycle {floor_cycle:.1f}x")
    failed = False
    if result["netlist"]["comb_speedup"] < floor_comb:
        print("FAIL: comb speedup below floor "
              f"({result['netlist']['comb_speedup']:.1f} < "
              f"{floor_comb:.1f})", file=sys.stderr)
        failed = True
    if result["netlist"]["cycle_speedup"] < floor_cycle:
        print("FAIL: cycle speedup below floor "
              f"({result['netlist']['cycle_speedup']:.1f} < "
              f"{floor_cycle:.1f})", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print("OK: compiled backend holds the speedup floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
