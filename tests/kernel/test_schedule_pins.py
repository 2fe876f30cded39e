"""Schedule pins: exact end time, delta count and activations per refine cell.

Every refinement level re-simulates the same application on the one
kernel, so a kernel fast path that drops, adds or reorders a single
wake-up shows here even when traces still match. The 13 cells are the
functional platform plus every bus at every level, on one fixed
workload (4 applications x 14 commands, the shape of the refine_sweep
benchmark).

A change that only makes the simulator faster must leave every pinned
value untouched. Update them only for a change that is meant to alter
simulated behaviour, and say so in its description.
"""

import hashlib

import pytest

import repro.flow.platforms as platforms
from repro.core.workload import generate_workload
from repro.hdl.resolved import ResolvedSignal
from repro.instrument.probes import PROCESS_ACTIVATE
from repro.kernel.simtime import MS

APPS = 4
COMMANDS = 14
SPAN = 0x1000

#: (bus, level) -> (end time fs, delta_count, transactions), probes off.
SCHEDULE = {
    ("functional", "behavioural"): (1000000, 160, 56),
    ("pci", "behavioural"): (21435000000, 2360, 56),
    ("pci", "interpreted"): (35445000000, 3604, 56),
    ("pci", "compiled"): (35445000000, 3604, 56),
    ("wishbone", "behavioural"): (46995000000, 4916, 56),
    ("wishbone", "interpreted"): (59445000000, 6004, 56),
    ("wishbone", "compiled"): (59445000000, 6004, 56),
    ("axi4lite", "behavioural"): (46995000000, 4916, 56),
    ("axi4lite", "interpreted"): (59445000000, 6004, 56),
    ("axi4lite", "compiled"): (59445000000, 6004, 56),
    ("tlmgp", "behavioural"): (1710000000, 275, 56),
    ("tlmgp", "interpreted"): (19005000000, 1904, 56),
    ("tlmgp", "compiled"): (19005000000, 1904, 56),
}

#: (bus, level) -> (process activations, digest of the activation
#: sequence), probes on. The digest covers time, process name and the
#: name of the waking event of every activation, in order. Under this
#: observer both channel backends take the RTL poll, so each compiled
#: cell activates exactly as its interpreted cell does (only the
#: platform label in the process names differs).
ACTIVATIONS = {
    ("functional", "behavioural"): (332, "629a6f295dbbe7c5"),
    ("pci", "behavioural"): (5538, "cf5ded4dbbf9457e"),
    ("pci", "interpreted"): (14059, "4cf85b6fb54d87cd"),
    ("pci", "compiled"): (14059, "f26d20356f9320b0"),
    ("wishbone", "behavioural"): (9983, "ec7e181009c01e88"),
    ("wishbone", "interpreted"): (21408, "0dc12c002e4c3bc0"),
    ("wishbone", "compiled"): (21408, "b08bf33d808cd861"),
    ("axi4lite", "behavioural"): (9983, "193a49e5a4050b7c"),
    ("axi4lite", "interpreted"): (21408, "19551050595a53c6"),
    ("axi4lite", "compiled"): (21408, "ccb64589b0978802"),
    ("tlmgp", "behavioural"): (561, "d6ed44f5e40cb2fa"),
    ("tlmgp", "interpreted"): (5059, "789fc86c142bfa62"),
    ("tlmgp", "compiled"): (5059, "b5d5e5c4c55b060b"),
}

#: (bus, level) -> calls of ``_perform_update`` on the cell's resolved
#: rails, probes off. Every update request reaches the per-instance
#: hook, which the signal fault models intercept, even when the rail's
#: drivers did not change.
RESOLVED_UPDATES = {
    ("functional", "behavioural"): 0,
    ("pci", "behavioural"): 2924,
    ("pci", "interpreted"): 3391,
    ("pci", "compiled"): 3391,
    ("wishbone", "behavioural"): 4698,
    ("wishbone", "interpreted"): 5943,
    ("wishbone", "compiled"): 5943,
    ("axi4lite", "behavioural"): 4176,
    ("axi4lite", "interpreted"): 4176,
    ("axi4lite", "compiled"): 4176,
    ("tlmgp", "behavioural"): 0,
    ("tlmgp", "interpreted"): 0,
    ("tlmgp", "compiled"): 0,
}

#: (bus, level) -> per synthesized channel: (calls logged, digest of
#: the call log, idle cycles, busy cycles), probes off, so the channel's
#: fast paths run. The digest covers client, method, request, grant and
#: done time of every record, in order.
CALL_LOGS = {
    ("pci", "interpreted"): [(158, "b5ddfe9eb885b93d", 707, 474)],
    ("pci", "compiled"): [(158, "b5ddfe9eb885b93d", 707, 474)],
    ("wishbone", "interpreted"): [(158, "32b8e82bc2daf5c8", 1507, 474)],
    ("wishbone", "compiled"): [(158, "32b8e82bc2daf5c8", 1507, 474)],
    ("axi4lite", "interpreted"): [(158, "32b8e82bc2daf5c8", 1507, 474)],
    ("axi4lite", "compiled"): [(158, "32b8e82bc2daf5c8", 1507, 474)],
    ("tlmgp", "interpreted"): [(158, "13ebe3a7102e38ac", 159, 474)],
    ("tlmgp", "compiled"): [(158, "13ebe3a7102e38ac", 159, 474)],
}

CELLS = list(SCHEDULE)


def _build(bus: str, level: str):
    workloads = [
        generate_workload(
            seed=2024 + app,
            n_commands=COMMANDS,
            address_base=app * SPAN,
            address_span=SPAN,
            max_burst=16,
            partial_byte_enable_fraction=0.2,
            write_fraction=0.5,
        )
        for app in range(APPS)
    ]
    synthesize = level != "behavioural"
    config = platforms.PciPlatformConfig(
        backend=level if synthesize else "interpreted"
    )
    return platforms.build_platform(
        workloads, config, bus=bus, synthesize=synthesize,
        label=f"{bus}/{level}",
    )


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: "/".join(cell))
def test_schedule_pinned(cell):
    run = _build(*cell).run(100 * MS)
    assert (run.sim_time, run.delta_cycles, run.transactions) == SCHEDULE[cell]


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: "/".join(cell))
def test_activation_sequence_pinned(cell):
    bundle = _build(*cell)
    digest = hashlib.sha256()
    count = 0

    def on_activate(time, process, cause):
        nonlocal count
        count += 1
        via = cause.name if cause is not None else "-"
        digest.update(f"{time} {process.name} {via}\n".encode())

    bundle.handle.sim.probes.subscribe(PROCESS_ACTIVATE, on_activate)
    run = bundle.run(100 * MS)
    assert (count, digest.hexdigest()[:16]) == ACTIVATIONS[cell]
    # The instrumented evaluation loop keeps the uninstrumented schedule.
    assert (run.sim_time, run.delta_cycles) == SCHEDULE[cell][:2]


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: "/".join(cell))
def test_resolved_update_calls_pinned(cell):
    bundle = _build(*cell)
    calls = 0

    def counted(original):
        def update():
            nonlocal calls
            calls += 1
            original()
        return update

    for __, obj in bundle.handle.sim.iter_named():
        if isinstance(obj, ResolvedSignal):
            obj._perform_update = counted(obj._perform_update)
    run = bundle.run(100 * MS)
    assert calls == RESOLVED_UPDATES[cell]
    assert (run.sim_time, run.delta_cycles) == SCHEDULE[cell][:2]


@pytest.mark.parametrize("cell", list(CALL_LOGS), ids=lambda cell: "/".join(cell))
def test_channel_call_log_pinned(cell):
    bundle = _build(*cell)
    channels = [group.channel for group in bundle.synthesis.groups]
    sleeps = [0]

    class Sleepers(list):
        def append(self, request):
            sleeps[0] += 1
            super().append(request)

    for channel in channels:
        channel._sleepers = Sleepers()
    run = bundle.run(100 * MS)
    pins = []
    for channel in channels:
        digest = hashlib.sha256()
        for record in channel.call_log:
            digest.update(
                f"{record.client} {record.method} {record.request_time} "
                f"{record.grant_time} {record.done_time}\n".encode()
            )
        pins.append((
            len(channel.call_log), digest.hexdigest()[:16],
            channel.idle_cycles, channel.busy_cycles,
        ))
    assert pins == CALL_LOGS[cell]
    assert (run.sim_time, run.delta_cycles) == SCHEDULE[cell][:2]
    # Unobserved, the waiting clients slept until their DONE edge.
    assert sleeps[0] > 0


@pytest.mark.parametrize("bus", ["pci", "wishbone", "axi4lite", "tlmgp"])
def test_compiled_cell_activates_as_interpreted(bus):
    sequences = {}
    for level in ("interpreted", "compiled"):
        bundle = _build(bus, level)
        label = f"{bus}/{level}"
        sequence = sequences[level] = []
        bundle.handle.sim.probes.subscribe(
            PROCESS_ACTIVATE,
            lambda time, process, cause, label=label, sequence=sequence:
                sequence.append((
                    time, process.name.replace(label, "<cell>"),
                    cause.name.replace(label, "<cell>")
                    if cause is not None else "-",
                )),
        )
        bundle.run(100 * MS)
    assert sequences["interpreted"] == sequences["compiled"]
