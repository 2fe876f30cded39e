"""ABL-ARB — ablation over the user-defined scheduling algorithm.

The global-object feature the pattern leans on is *"calls are queued and
scheduled according to a user defined algorithm"*. This bench quantifies
what the choice of algorithm does under contention: fairness across
clients and the latency spread, behaviourally and post-synthesis.
"""

import pytest
from _tables import print_table

from repro.core import generate_workload
from repro.flow import PciPlatformConfig, build_platform
from repro.kernel import MS, NS
from repro.osss import (
    FcfsArbiter,
    RandomArbiter,
    RoundRobinArbiter,
    StaticPriorityArbiter,
)

N_APPS = 3
N_COMMANDS = 8


def _run(arbiter, synthesize=False):
    workloads = [
        generate_workload(seed=300 + i, n_commands=N_COMMANDS,
                          address_base=0x400 * i, address_span=0x400,
                          max_burst=2)
        for i in range(N_APPS)
    ]
    bundle = build_platform(
        workloads, PciPlatformConfig(arbiter=arbiter), bus="pci",
        synthesize=synthesize,
    )
    bundle.run(400 * MS)
    apps = bundle.handle.applications
    finish_times = {a.name: max(r.complete_time for r in a.records)
                    for a in apps}
    latencies = [r.latency for a in apps for r in a.records]
    mean_latency = sum(latencies) / len(latencies)
    return bundle, finish_times, mean_latency


POLICIES = [
    ("fcfs", lambda: FcfsArbiter()),
    ("round_robin", lambda: RoundRobinArbiter()),
    ("priority(app0)", lambda: StaticPriorityArbiter(
        {"top.app0.bus_port": 0}, default_priority=10)),
    ("random", lambda: RandomArbiter(seed=2)),
]


@pytest.mark.parametrize("name,factory", POLICIES, ids=[p[0] for p in POLICIES])
def test_abl_arb_policy(benchmark, name, factory):
    bundle, finish_times, mean_latency = benchmark.pedantic(
        _run, args=(factory(),), rounds=1, iterations=1
    )
    assert all(a.done for a in bundle.handle.applications)
    assert not bundle.monitor.violations


def test_abl_arb_summary_table(benchmark):
    def sweep():
        rows = []
        for name, factory in POLICIES:
            __, finish_times, mean_latency = _run(factory())
            spread = (
                max(finish_times.values()) - min(finish_times.values())
            ) // NS
            rows.append([
                name,
                f"{mean_latency / NS:.0f}",
                spread,
                min(finish_times, key=finish_times.get),
            ])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        f"ABL-ARB: {N_APPS} applications contending on one interface "
        f"({N_COMMANDS} commands each)",
        ["arbiter", "mean latency (ns)", "finish spread (ns)",
         "first to finish"],
        rows,
    )
    # The priority policy must favour app0.
    priority_row = [r for r in rows if r[0] == "priority(app0)"][0]
    assert priority_row[3] == "app0"


def test_abl_arb_priority_consistent_post_synthesis(benchmark):
    """The priority advantage survives communication synthesis."""
    __, finish_times, ___ = benchmark.pedantic(
        _run,
        args=(StaticPriorityArbiter({"top.app0.bus_port": 0},
                                    default_priority=10),),
        kwargs={"synthesize": True},
        rounds=1,
        iterations=1,
    )
    assert finish_times["app0"] <= min(finish_times["app1"],
                                       finish_times["app2"])
