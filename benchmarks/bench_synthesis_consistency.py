"""EXP-SYN — the paper's Section 3 validation, steps 1-3.

1. compile & simulate the executable specification;
2. run the synthesizer to get the RT-level communication;
3. re-simulate and check behaviour consistency with the original model
   over the adopted test set.

The bench times each step and prints the consistency verdict — the
paper reports "step 3 showed no problems".
"""

from _tables import print_table

from repro.core import generate_workload
from repro.flow import build_platform
from repro.kernel import MS, NS
from repro.verify import check_bus_transactions, check_traces

WORKLOAD = generate_workload(seed=55, n_commands=25, address_span=0x400,
                             max_burst=4, partial_byte_enable_fraction=0.2)


def _pre_synthesis():
    bundle = build_platform([WORKLOAD], bus="pci")
    return bundle, bundle.run(100 * MS)


def _post_synthesis():
    bundle = build_platform([WORKLOAD], bus="pci", synthesize=True)
    return bundle, bundle.run(200 * MS)


def test_exp_syn_step1_simulate_specification(benchmark):
    __, result = benchmark.pedantic(_pre_synthesis, rounds=3, iterations=1)
    assert result.transactions == 25


def test_exp_syn_step2_synthesize(benchmark):
    """Synthesis tool runtime (netlist generation + HDL emission)."""

    def run():
        return build_platform([WORKLOAD], bus="pci", synthesize=True)

    bundle = benchmark(run)
    assert bundle.synthesis is not None


def test_exp_syn_step3_consistency(benchmark):
    bundle_pre, result_pre = _pre_synthesis()
    bundle_post, result_post = benchmark.pedantic(
        _post_synthesis, rounds=1, iterations=1
    )
    app_report = check_traces(result_pre.traces, result_post.traces)
    app_report.require_consistent()
    bus_report = check_bus_transactions(
        bundle_pre.monitor.signatures(), bundle_post.monitor.signatures()
    )
    bus_report.require_consistent()

    channel = bundle_post.synthesis.groups[0].channel
    print_table(
        "EXP-SYN: pre- vs post-synthesis validation (paper: 'no problems')",
        ["metric", "pre-synthesis", "post-synthesis"],
        [
            ["application transactions", result_pre.transactions,
             result_post.transactions],
            ["bus transactions", len(bundle_pre.monitor.signatures()),
             len(bundle_post.monitor.signatures())],
            ["simulated end time (ns)", result_pre.sim_time // NS,
             result_post.sim_time // NS],
            ["delta cycles", result_pre.delta_cycles,
             result_post.delta_cycles],
            ["monitor violations", len(bundle_pre.monitor.violations),
             len(bundle_post.monitor.violations)],
        ],
    )
    print_table(
        "EXP-SYN: verdicts",
        ["check", "result"],
        [
            ["application traces identical", app_report.consistent],
            ["bus transaction streams identical", bus_report.consistent],
            ["channel calls serviced (RT level)", channel.calls_serviced],
            ["mean method-call cost (clock cycles)",
             f"{channel.mean_call_cycles(30 * NS):.1f}"],
        ],
    )
    print()
    print(bundle_post.synthesis.report.render())
