"""Shared-state race analysis (``RACE001``).

The OSSS safety argument serializes every shared-object mutation
through the arbiter: clients ``yield from handle.method(...)``, the
server executes one body at a time. Nothing stops a process from
reaching around that — ``self.channel.state.count += 1`` or
``self.channel.state.queue.append(x)`` mutate the shared instance
directly, racing both the arbiter's method bodies and any other process
doing the same. This pass cross-references, per connection group and
state attribute, the *serialized* writers (guarded-method bodies that
are actually invoked through a channel call somewhere in the design)
with the *out-of-band* writers (direct AST mutations of the state
object resolved by identity), and reports every attribute with more
than one writing party of which at least one is out-of-band.

When the raced attribute holds a live :class:`~repro.hdl.signal.Signal`
the finding carries its name, so the dynamic race sanitizer
(:class:`~repro.instrument.sanitizer.RaceSanitizer`) can confirm or
refute the static report from ``signal.commit`` traffic at sim time.
"""

from __future__ import annotations

import ast
import typing

from ..hdl.signal import Signal
from ..lint.astutils import MUTATING_METHODS, attr_chain, first_arg_name

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..lint.context import DesignContext, GroupView, ProcessInfo


class OutOfBandWrite:
    """One direct state mutation found in a process body."""

    __slots__ = ("process_name", "attr", "detail")

    def __init__(self, process_name: str, attr: str, detail: str) -> None:
        self.process_name = process_name
        self.attr = attr
        self.detail = detail

    def __repr__(self) -> str:
        return f"OutOfBandWrite({self.process_name}: {self.detail})"


class RaceFinding:
    """One raced shared-state attribute."""

    __slots__ = (
        "group_path", "attr", "out_of_band", "serialized_methods",
        "signal_name",
    )

    def __init__(
        self,
        group_path: str,
        attr: str,
        out_of_band: typing.Sequence[OutOfBandWrite],
        serialized_methods: typing.Sequence[str],
        signal_name: str | None,
    ) -> None:
        self.group_path = group_path
        self.attr = attr
        self.out_of_band = list(out_of_band)
        self.serialized_methods = sorted(serialized_methods)
        #: Name of the raced signal, when the attribute holds one.
        self.signal_name = signal_name

    def parties(self) -> list[str]:
        names = sorted({w.process_name for w in self.out_of_band})
        if self.serialized_methods:
            names.append(
                "the arbiter (via "
                + ", ".join(self.serialized_methods) + ")"
            )
        return names

    def __repr__(self) -> str:
        return f"RaceFinding({self.group_path}.{self.attr})"


def _resolve_positions(
    instance: object, chain: typing.Sequence[str]
) -> list[object]:
    """Objects at each chain position: result[k] is ``chain[:k+1]``
    resolved (``result[0]`` = the self instance). Stops at the first
    unresolvable step."""
    positions: list[object] = [instance]
    target = instance
    for name in chain[1:]:
        try:
            target = getattr(target, name)
        except Exception:
            break
        positions.append(target)
    return positions


def _scan_out_of_band(
    info: "ProcessInfo", states: dict[int, GroupView]
) -> typing.Iterator[tuple[GroupView, OutOfBandWrite]]:
    """Direct state mutations in one process body."""
    if not info.analyzable:
        return
    node = info.node
    instance = info.instance
    self_name = first_arg_name(node)
    if self_name is None:
        return
    process_name = info.process.name

    def state_hit(
        chain: typing.Sequence[str],
    ) -> tuple[GroupView, int] | None:
        if not chain or chain[0] != self_name:
            return None
        positions = _resolve_positions(instance, chain)
        for index, obj in enumerate(positions):
            facts = states.get(id(obj))
            if facts is not None:
                return facts, index
        return None

    for sub in ast.walk(node):
        targets: list[ast.AST] = []
        if isinstance(sub, ast.Assign):
            targets = list(sub.targets)
        elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
            targets = [sub.target]
        for target in targets:
            for leaf in ast.walk(target):
                if not isinstance(leaf, ast.Attribute):
                    continue
                chain = attr_chain(leaf)
                if chain is None:
                    continue
                hit = state_hit(chain[:-1])
                if hit is None:
                    continue
                facts, index = hit
                if index + 1 >= len(chain):
                    continue
                attr = chain[index + 1]
                yield facts, OutOfBandWrite(
                    process_name, attr,
                    f"assignment to {'.'.join(chain[1:])}",
                )
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            chain = attr_chain(sub.func.value)
            if chain is None:
                continue
            hit = state_hit(chain)
            if hit is None:
                continue
            facts, index = hit
            call_name = sub.func.attr
            receiver = ".".join(chain[1:]) or self_name
            if index == len(chain) - 1:
                # Method call directly on the state object, bypassing
                # the channel: attribute effects come from the body.
                written = facts.method_writes.get(call_name)
                if written is None and call_name not in MUTATING_METHODS:
                    continue
                for attr in sorted(written or {f"<{call_name}>"}):
                    yield facts, OutOfBandWrite(
                        process_name, attr,
                        f"direct call {receiver}.{call_name}()",
                    )
            elif call_name in MUTATING_METHODS and index + 1 < len(chain):
                yield facts, OutOfBandWrite(
                    process_name, chain[index + 1],
                    f"mutating call {receiver}.{call_name}()",
                )


def analyze_races(design: "DesignContext") -> list[RaceFinding]:
    """All shared-state race findings of *design*, sorted by path."""
    groups = design.group_views()
    states = {id(facts.state): facts for facts in groups}

    # Which method bodies the arbiter actually runs for each group.
    serialized: dict[int, set[str]] = {id(f.state): set() for f in groups}
    for info in design.processes:
        for call in info.channel_calls:
            facts = states.get(id(call.handle._root().space.state))
            if facts is None:
                continue
            writes = facts.method_writes.get(call.method)
            if writes:
                serialized[id(facts.state)].add(call.method)

    out_of_band: dict[tuple[int, str], list[OutOfBandWrite]] = {}
    for info in design.processes:
        for facts, write in _scan_out_of_band(info, states):
            out_of_band.setdefault(
                (id(facts.state), write.attr), []
            ).append(write)

    findings: list[RaceFinding] = []
    for (state_id, attr), writes in out_of_band.items():
        facts = states[state_id]
        methods = {
            method for method in serialized[state_id]
            if attr in facts.method_writes.get(method, ())
        }
        parties = len({w.process_name for w in writes}) + (1 if methods else 0)
        if parties < 2:
            continue
        value = getattr(facts.state, attr, None)
        signal_name = value.name if isinstance(value, Signal) else None
        findings.append(RaceFinding(
            facts.path, attr, writes, sorted(methods), signal_name,
        ))
    findings.sort(key=lambda f: (f.group_path, f.attr))
    return findings
