"""CI smoke: compiled-backend equivalence on the PCI example platform.

Builds the Figure-4 PCI platform twice — interpreted and compiled
backends — and asserts the equivalence gate end to end: identical
application traces, bus-transaction signatures, memory images and end
times, plus a byte-identical ``fig4.vcd`` from the compiled backend.
On success the generated Python source of the compiled channel is
written out (default ``compiled_channel.py.txt``) so CI can upload it
as a build artifact next to the waveforms it proves equivalent.

A second, host-independent invariant covers warm builds: a serial
compiled demo campaign rebuilds one platform shape for its golden run
and every faulty run it simulates, so the synthesis memo must miss
exactly once per distinct group shape and ``compile_module`` must not
run again after the first build.

Usage::

    python benchmarks/compile_smoke.py [--source-out FILE]
"""

from __future__ import annotations

import argparse
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(_ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(_ROOT, "src"))

import repro.compile.channel as compile_channel  # noqa: E402
import repro.fault.campaign as fault_campaign  # noqa: E402
from repro.compile import CompiledChannel  # noqa: E402
from repro.core import CommandType  # noqa: E402
from repro.fault import demo_campaign_spec, run_campaign  # noqa: E402
from repro.flow import PciPlatformConfig, build_pci_platform  # noqa: E402
from repro.kernel import MS  # noqa: E402
from repro.synthesis.tool import synthesize_group_shape  # noqa: E402
from repro.trace import VcdTracer  # noqa: E402
from repro.verify.consistency import (  # noqa: E402
    check_bus_transactions,
    check_traces,
)

FIG4_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "fig4.vcd")

COMMANDS = [
    CommandType.write(0x100, [0xDEADBEEF, 0x12345678, 0xCAFEF00D]),
    CommandType.read(0x100, count=3),
]


def _run(backend: str, vcd_path: "str | None" = None):
    bundle = build_pci_platform(
        [COMMANDS],
        PciPlatformConfig(wait_states=1, backend=backend),
        synthesize=True,
    )
    sim = bundle.handle.sim
    if vcd_path is not None:
        vcd = VcdTracer(vcd_path)
        vcd.add_signals([bundle.clock.clk] + bundle.bus.shared_signals())
        sim.add_tracer(vcd)
    result = bundle.run(10 * MS)
    if vcd_path is not None:
        vcd.close(sim.time)
    return bundle, result


def check_warm_builds(runs: int = 20) -> str:
    """Synthesize and compile a campaign's channel once, not per run."""
    codegen_calls = []
    built = []
    original = compile_channel.compile_module
    original_build = fault_campaign.build_campaign_platform

    def counting(module, *args, **kwargs):
        codegen_calls.append(module.name)
        return original(module, *args, **kwargs)

    def counting_build(spec):
        built.append(spec.name)
        return original_build(spec)

    spec = demo_campaign_spec(platform="pci", seed=11, runs=runs)
    spec.synthesize = True
    spec.backend = "compiled"
    synthesize_group_shape.cache_clear()
    compile_channel.compile_module = counting
    # The golden run builds once; a faulty run builds only when it
    # simulates (runs whose fault never activates are answered from
    # the golden run), so count the builds that actually happen.
    fault_campaign.build_campaign_platform = counting_build
    try:
        result = run_campaign(spec, workers=1, max_runs=runs)
    finally:
        compile_channel.compile_module = original
        fault_campaign.build_campaign_platform = original_build
    info = synthesize_group_shape.cache_info()
    builds = len(built)
    assert result.outcomes, "the campaign expanded to no runs"
    # This spec has no telemetry, so exactly the runs whose fault
    # activates simulate; at least one must, to exercise a warm build.
    assert builds == 1 + sum(
        1 for outcome in result.outcomes if outcome.activations
    ), (builds, result.outcomes)
    assert builds > 1, builds
    assert info.misses == info.currsize == 1, info
    assert info.hits == builds - 1, info
    assert len(codegen_calls) == 1, codegen_calls
    return (
        f"warm builds OK: {builds} compiled builds, {info.misses} "
        f"synthesis miss, {len(codegen_calls)} codegen call"
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--source-out", default="compiled_channel.py.txt",
                        help="where to write the generated Python source")
    parser.add_argument("--vcd-out", default="fig4_compiled.vcd",
                        help="where to write the compiled backend's VCD")
    args = parser.parse_args(argv)

    bundle_int, result_int = _run("interpreted")
    bundle_cmp, result_cmp = _run("compiled", vcd_path=args.vcd_out)

    channel = bundle_cmp.synthesis.groups[0].channel
    assert isinstance(channel, CompiledChannel), type(channel).__name__

    check_traces(
        result_int.traces, result_cmp.traces, "interpreted", "compiled"
    ).require_consistent()
    check_bus_transactions(
        bundle_int.monitor.signatures(), bundle_cmp.monitor.signatures(),
        "interpreted", "compiled",
    ).require_consistent()
    assert result_int.sim_time == result_cmp.sim_time
    image_int = bundle_int.memory.dump(0, 0x80)
    image_cmp = bundle_cmp.memory.dump(0, 0x80)
    assert image_int == image_cmp, "memory images diverge"

    with open(FIG4_PATH, "rb") as handle:
        committed = handle.read()
    with open(args.vcd_out, "rb") as handle:
        fresh = handle.read()
    assert fresh == committed, (
        f"{args.vcd_out} differs from the committed fig4.vcd"
    )

    netlist = channel.netlist
    with open(args.source_out, "w", encoding="utf-8") as handle:
        handle.write(netlist.source)
    print(
        f"equivalence OK: {result_cmp.transactions} transactions, "
        f"{len(bundle_cmp.monitor.signatures())} bus signatures, "
        "fig4.vcd byte-identical"
    )
    print(f"generated source ({netlist.stats['source_lines']} lines) "
          f"written to {args.source_out}")
    print(check_warm_builds())
    return 0


if __name__ == "__main__":
    sys.exit(main())
