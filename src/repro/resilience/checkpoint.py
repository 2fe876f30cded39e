"""Kernel checkpointing.

Python generators cannot be snapshotted, so a :class:`KernelCheckpoint`
is a **passive state snapshot**: committed signal values (including
per-driver contributions of resolved buses), deep copies of every
shared-object state, and the done flags of all processes. A synthesized
channel's payload wire carries its last call's
:class:`~repro.osss.request.MethodRequest`, whose done event belongs to
the kernel; the snapshot deep copies the request but shares that event
(:func:`_snapshot`). :func:`capture` takes one at a *quiescent* point
(no pending guarded calls); :func:`restore` pushes the state back into
a live simulator of the same hierarchy. Process program counters are
untouched — restore is for state-level recovery at transaction
boundaries, not time travel.

``Simulator.checkpoint()`` / ``Simulator.restore()`` are thin wrappers
over :func:`capture` / :func:`restore`.
"""

from __future__ import annotations

import copy
import hashlib
import json
import typing
from collections import deque

from ..errors import CheckpointError
from ..hdl.resolved import ResolvedSignal
from ..hdl.signal import Signal
from ..osss.request import MethodRequest

_PLAIN_TYPES = (int, float, str, bool, bytes, type(None))


def _snapshot(value: object) -> object:
    """An independent copy of a committed signal value.

    A :class:`MethodRequest` is deep copied except for its done event,
    which reaches the scheduler and its process generators and is
    shared: later changes to the live call (its outcome, an argument a
    consumer tags) do not reach the copy.
    """
    if isinstance(value, MethodRequest):
        return copy.deepcopy(value, {id(value.done_event): value.done_event})
    return copy.deepcopy(value)


def stable_content_hash(document: object) -> str:
    """SHA-256 hex digest of a canonical JSON encoding of *document*.

    The encoding is sorted-key, compact-separator JSON with non-JSON
    leaves rendered through ``str``, so the digest is stable across
    processes and sessions for any picklable plain-data tree. This is
    the one content-address primitive shared by checkpoint signatures
    and the durable campaign layer (journal spec hashes, result-cache
    keys).
    """
    payload = json.dumps(
        document, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _space_signature(state: object) -> tuple:
    """Order-stable reduced view of one shared state.

    Plain attributes compare by value; containers by length (their
    elements are arbitrary user payloads without reliable ``__eq__``).
    """
    items: list[tuple[str, object]] = []
    for name in sorted(vars(state)):
        value = getattr(state, name)
        if isinstance(value, _PLAIN_TYPES):
            items.append((name, value))
        elif isinstance(value, (list, tuple, deque, dict, set)):
            items.append((name, f"len={len(value)}"))
    return (type(state).__name__, tuple(items))


class KernelCheckpoint:
    """A passive snapshot of one simulator's observable state."""

    def __init__(self, time: int) -> None:
        self.time = time
        #: path -> committed value (Signal).
        self.signal_values: dict[str, object] = {}
        #: path -> {driver name: contribution} (ResolvedSignal).
        self.driver_values: dict[str, dict[str, object]] = {}
        #: path -> resolved committed value (ResolvedSignal).
        self.resolved_values: dict[str, object] = {}
        #: space path -> deep copy of the shared state object.
        self.space_states: dict[str, object] = {}
        #: space path -> reduced comparable view.
        self.space_signatures: dict[str, tuple] = {}
        #: process name -> done flag.
        self.process_done: dict[str, bool] = {}

    def signature(self) -> tuple:
        """A picklable, comparable digest for determinism checks."""
        return (
            self.time,
            tuple(sorted(
                (path, str(value))
                for path, value in self.signal_values.items()
            )),
            tuple(sorted(
                (path, str(value))
                for path, value in self.resolved_values.items()
            )),
            tuple(sorted(self.space_signatures.items())),
            tuple(sorted(self.process_done.items())),
        )

    def content_hash(self) -> str:
        """Content address of this checkpoint's observable state.

        Two checkpoints compare equal iff their content hashes match,
        which makes the hash usable as a cache/journal key where the
        full signature tuple would be unwieldy.
        """
        return stable_content_hash(self.signature())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KernelCheckpoint):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:  # pragma: no cover - not used as a key
        return hash(self.signature())

    def __repr__(self) -> str:
        return (
            f"KernelCheckpoint(t={self.time}, "
            f"{len(self.signal_values) + len(self.resolved_values)} signals, "
            f"{len(self.space_states)} spaces)"
        )


def _iter_spaces(sim: typing.Any):
    seen: set[int] = set()
    for path, obj in sim.iter_named():
        space = getattr(obj, "_space", None)
        if space is None or id(space) in seen:
            continue
        seen.add(id(space))
        yield path, space


def capture(sim: typing.Any, strict: bool = True) -> KernelCheckpoint:
    """Snapshot *sim* at a quiescent point.

    :param strict: require quiescence. Pass ``False`` when the snapshot
        is used as a determinism *signature* only (replay-based
        rollback): a protocol dispatcher idling in ``get_command`` is
        pending forever by design, and a rebuilt re-run reproduces its
        waiting generator by replay — no restore needed.
    :raises CheckpointError: in strict mode, when guarded calls are
        still pending — the waiting generators could not be reproduced
        by a restore.
    """
    checkpoint = KernelCheckpoint(sim.time)
    for path, space in _iter_spaces(sim):
        if strict and (space.pending or space.busy):
            stuck = ", ".join(
                f"{r.client}->{r.method}" for r in space.pending[:3]
            ) or "busy server"
            raise CheckpointError(
                f"cannot checkpoint at {sim.time_str()}: {path} has "
                f"in-flight guarded calls ({stuck})"
            )
        try:
            checkpoint.space_states[path] = copy.deepcopy(space.state)
        except Exception as error:
            raise CheckpointError(
                f"shared state at {path} is not snapshottable: {error}"
            ) from error
        checkpoint.space_signatures[path] = _space_signature(space.state)
    for path, obj in sim.iter_named():
        if isinstance(obj, ResolvedSignal):
            checkpoint.resolved_values[path] = obj.read()
            checkpoint.driver_values[path] = {
                name: obj.get_driver(name).contribution
                for name in obj.driver_names
            }
        elif isinstance(obj, Signal):
            checkpoint.signal_values[path] = _snapshot(obj.read())
    for process in sim.scheduler.processes:
        checkpoint.process_done[process.name] = process.done
    return checkpoint


def restore(sim: typing.Any, checkpoint: KernelCheckpoint) -> None:
    """Push *checkpoint*'s state back into *sim* (same hierarchy).

    Signals are forced to their checkpointed committed values, resolved
    buses get their per-driver contributions back, and every shared
    state object is replaced by a fresh deep copy of its snapshot (the
    space is touched so guards re-evaluate). Process program counters
    are not rewound; restore at the same kind of quiescent point the
    checkpoint was taken at.
    """
    named = dict(sim.iter_named())
    missing = [
        path
        for path in (
            list(checkpoint.signal_values)
            + list(checkpoint.resolved_values)
            + list(checkpoint.space_states)
        )
        if path not in named
    ]
    if missing:
        raise CheckpointError(
            f"cannot restore: {len(missing)} checkpointed paths missing "
            f"from this simulator (first: {missing[0]!r})"
        )
    for path, space in _iter_spaces(sim):
        if path not in checkpoint.space_states:
            raise CheckpointError(
                f"cannot restore: {path} was not in the checkpoint"
            )
        if space.pending or space.busy:
            raise CheckpointError(
                f"cannot restore at {sim.time_str()}: {path} has in-flight "
                "guarded calls"
            )
        space.state = copy.deepcopy(checkpoint.space_states[path])
        space.touch()
    for path, value in checkpoint.signal_values.items():
        signal = named[path]
        if signal.read() != value:
            signal.force(_snapshot(value))
    for path, contributions in checkpoint.driver_values.items():
        bus = typing.cast(ResolvedSignal, named[path])
        for name, contribution in contributions.items():
            bus.get_driver(name).write(contribution)

