"""Every probe-bus observer keeps one attach/detach contract.

:class:`~repro.instrument.probes.ProbeSubscriber` holds the only
attach/detach code in ``src/repro``: a second attach raises and leaves
the bus as it was, ``detach`` removes exactly what ``attach`` added and
is idempotent, and each kind's callbacks keep their firing order.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.instrument import MetricsCollector, WallClockProfiler
from repro.instrument.metrics import DetectionLog
from repro.instrument.probes import PROBE_KINDS, ProbeBus, ProbeError
from repro.instrument.sanitizer import RaceSanitizer
from repro.resilience import RecoveryLog
from repro.telemetry import FlightRecorder, ScorecardProbe
from repro.trace import SpanTracer

SRC = Path(repro.__file__).resolve().parent

#: Where a module may call ``subscribe``/``unsubscribe`` itself: the bus
#: and the subscriber base, and the simulator's VCD-tracer shims.
ALLOWED = {
    ("instrument/probes.py", None),
    ("kernel/simulator.py", "Simulator.add_tracer"),
}


def _subscription_calls():
    """``(module, enclosing function)`` of every subscribe/unsubscribe call."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    inner = f"{scope}.{child.name}" if scope else child.name
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in ("subscribe", "unsubscribe")
                ):
                    found.append((module, scope))
                visit(child, inner)

        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_one_attach_detach_implementation():
    calls = _subscription_calls()
    assert ("kernel/simulator.py", "Simulator.add_tracer") in calls
    stray = [
        (module, scope) for module, scope in calls
        if (module, scope) not in ALLOWED and (module, None) not in ALLOWED
    ]
    assert not stray, (
        f"subscribe/unsubscribe outside ProbeSubscriber: {stray}; yield "
        f"(kind, callback) pairs from a ProbeSubscriber._subscriptions"
    )


SUBSCRIBERS = {
    "SpanTracer": SpanTracer,
    "ScorecardProbe": ScorecardProbe,
    "MetricsCollector": MetricsCollector,
    "FlightRecorder": FlightRecorder,
    "DetectionLog": DetectionLog,
    "RaceSanitizer": RaceSanitizer,
    "WallClockProfiler": WallClockProfiler,
    "RecoveryLog": RecoveryLog,
}

_SCORECARD = {
    "transaction.begin": ["_on_begin"],
    "transaction.end": ["_on_end"],
    "method.call": ["_on_call"],
    "method.queue": ["_on_queue"],
    "method.grant": ["_on_grant"],
    "method.complete": ["_on_complete"],
    "method.guard_block": ["_on_guard_block"],
    "detection": ["_on_detection"],
}
_RESILIENCE_KINDS = (
    "resilience.timeout", "resilience.retry", "resilience.giveup",
    "resilience.recovered",
)
#: Each kind's callbacks in firing order, as subscribed before the
#: subscribers shared one base.
ORDER = {
    "SpanTracer": {
        "method.call": ["_on_method_call"],
        "method.queue": ["_on_method_queue"],
        "method.grant": ["_on_method_grant"],
        "method.complete": ["_on_method_complete"],
        "transaction.begin": ["_on_transaction_begin"],
        "transaction.end": ["_on_transaction_end"],
        "event.notify": ["_on_event_notify"],
        "process.activate": ["_on_process_activate"],
    },
    "ScorecardProbe": _SCORECARD,
    "MetricsCollector": {
        "delta.begin": ["_on_delta_begin"],
        "event.notify": ["_on_event_notify"],
        "process.activate": ["_on_process_activate"],
        "signal.commit": ["_on_signal_commit"],
        "fault.activate": ["_on_fault_activate"],
        "flow.stage": ["_on_flow_stage"],
        **_SCORECARD,
    },
    "FlightRecorder": {
        kind: [f"handler[{kind}]"]
        for kind in (
            "method.call", "method.queue", "method.grant",
            "method.guard_block", "method.complete", "transaction.begin",
            "transaction.end", "flow.stage", "fault.activate", "detection",
            *_RESILIENCE_KINDS,
        )
    },
    "DetectionLog": {"detection": ["append"]},
    "RaceSanitizer": {"signal.commit": ["_on_commit"]},
    "WallClockProfiler": {
        "process.activate": ["_on_activate"],
        "process.suspend": ["_on_suspend"],
        "delta.begin": ["_on_delta_begin"],
        "delta.end": ["_on_delta_end"],
    },
    "RecoveryLog": {kind: ["_record"] for kind in _RESILIENCE_KINDS},
}


def _label(callback):
    """A callback's function name, plus the kind or coverpoint a
    closure was made for."""
    defaults = getattr(callback, "__kwdefaults__", None) or {}
    tags = [defaults[key] for key in ("_kind", "_point") if key in defaults]
    return callback.__name__ + "".join(f"[{tag}]" for tag in tags)


def _state(bus):
    """kind -> the bus's callbacks in firing order (subscribed kinds)."""
    return {
        kind: list(bus.subscribers(kind))
        for kind in PROBE_KINDS if bus.subscribers(kind)
    }


@pytest.fixture(params=sorted(SUBSCRIBERS))
def named(request):
    return request.param, SUBSCRIBERS[request.param]()


def test_attach_returns_self_and_keeps_the_order(named):
    name, subscriber = named
    bus = ProbeBus()
    assert subscriber.attach(bus) is subscriber
    labels = {
        kind: [_label(callback) for callback in callbacks]
        for kind, callbacks in _state(bus).items()
    }
    assert labels == ORDER[name]


def test_second_attach_raises_and_leaves_the_bus(named):
    __, subscriber = named
    first, second = ProbeBus(), ProbeBus()
    subscriber.attach(first)
    before = _state(first)
    for bus in (first, second):
        with pytest.raises(ProbeError, match="already attached"):
            subscriber.attach(bus)
    assert _state(first) == before
    assert _state(second) == {}


def test_unknown_kind_raises_and_leaves_the_bus():
    bus = ProbeBus()
    recorder = FlightRecorder(kinds=("method.call", "method.cal"))
    with pytest.raises(ProbeError, match="unknown probe kind"):
        recorder.attach(bus)
    assert _state(bus) == {}
    recorder.detach()
    assert _state(bus) == {}


def test_detach_removes_everything_and_is_idempotent(named):
    __, subscriber = named
    bus, other = ProbeBus(), ProbeBus()
    subscriber.attach(bus)
    subscriber.detach()
    assert _state(bus) == {}
    subscriber.detach()
    assert _state(bus) == {}
    # Detached, it may attach again, to another bus.
    subscriber.attach(other)
    assert _state(bus) == {}
    assert _state(other)
    subscriber.detach()
    assert _state(other) == {}
