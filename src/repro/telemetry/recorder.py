"""The flight recorder: a bounded ring of structured run events.

A :class:`FlightRecorder` rides the probe bus of one run and keeps the
last *capacity* interesting events — guarded-method activity, bus/TLM
transactions, flow stages, fault activations, checker detections and
resilience activity — as plain JSON-ready dicts. On completion (or on a
crash, from the worker's ``finally``) the ring is serialized to one
JSONL file: a ``header`` line describing the run, then one line per
event in arrival order. The self-healing campaign pool dumps the tail
of every misbehaving run so post-mortems don't require a re-run.

Records are replayable: :func:`load_flight_record` reads the file back
and :func:`flight_record_chrome_trace` converts it into the same Chrome
``traceEvents`` document the profiler and span tracer emit, so a dumped
tail can be opened in the usual viewers.

Like every telemetry component, the recorder is pure subscriber code:
no recorder attached means zero cost on the run.
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import typing

from ..instrument import probes as _p

#: Ring capacity when the caller does not choose one.
DEFAULT_CAPACITY = 4096

#: The probe kinds a recorder subscribes to by default. The per-delta
#: and per-commit kernel kinds are deliberately excluded — they would
#: wash every transaction out of a bounded ring (and cost the hot path).
DEFAULT_RECORD_KINDS: tuple[str, ...] = (
    _p.METHOD_CALL,
    _p.METHOD_QUEUE,
    _p.METHOD_GRANT,
    _p.METHOD_GUARD_BLOCK,
    _p.METHOD_COMPLETE,
    _p.TRANSACTION_BEGIN,
    _p.TRANSACTION_END,
    _p.FLOW_STAGE,
    _p.FAULT_ACTIVATE,
    _p.DETECTION,
    _p.RESILIENCE_TIMEOUT,
    _p.RESILIENCE_RETRY,
    _p.RESILIENCE_GIVEUP,
    _p.RESILIENCE_RECOVERED,
)


def _path_of(obj: object) -> str:
    """Best-effort hierarchical path of a live kernel object."""
    for attr in ("path", "name"):
        value = getattr(obj, attr, None)
        if isinstance(value, str) and value:
            return value
    return type(obj).__name__


class FlightRecorder(_p.ProbeSubscriber):
    """Bounded recorder of structured probe events for one run.

    :param capacity: ring size; the oldest events fall out first.
    :param kinds: probe kinds to record (default
        :data:`DEFAULT_RECORD_KINDS`).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        kinds: typing.Sequence[str] = DEFAULT_RECORD_KINDS,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.kinds = tuple(kinds)
        self._ring: collections.deque = collections.deque(maxlen=capacity)
        self._seq = itertools.count()
        self.seen = 0

    # -- wiring --------------------------------------------------------------

    def _subscriptions(self):
        for kind in self.kinds:
            yield kind, self._make_handler(kind)

    def _make_handler(self, kind: str) -> typing.Callable:
        summarize = _SUMMARIZERS.get(kind, _summarize_generic)

        def handler(*args: object, _kind: str = kind) -> None:
            self.record(_kind, **summarize(*args))

        return handler

    # -- recording -----------------------------------------------------------

    def record(self, kind: str, **fields: object) -> None:
        """Append one structured event (also the manual-marker entry
        point: campaign code records ``run.start``/``run.end`` markers
        through this)."""
        event = {"seq": next(self._seq), "kind": kind}
        event.update(fields)
        self._ring.append(event)
        self.seen += 1

    @property
    def events(self) -> list[dict]:
        return list(self._ring)

    @property
    def dropped(self) -> int:
        """Events that fell out of the ring."""
        return self.seen - len(self._ring)

    def tail(self, n: int) -> list[dict]:
        if n <= 0:
            return []
        ring = self._ring
        return list(ring)[-n:] if n < len(ring) else list(ring)

    # -- serialization -------------------------------------------------------

    def dump(self, path, header: dict | None = None) -> None:
        """Write the ring as JSONL: one ``header`` line, then events."""
        document = {
            "type": "header",
            "capacity": self.capacity,
            "seen": self.seen,
            "retained": len(self._ring),
            "dropped": self.dropped,
        }
        if header:
            document.update(header)
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(json.dumps(document, sort_keys=True) + "\n")
            for event in self._ring:
                stream.write(json.dumps(event, sort_keys=True) + "\n")


def write_post_mortem_stub(path, header: dict | None = None) -> None:
    """Write a header-only flight record for a run that left no ring.

    The campaign pool calls this for every ``worker_error`` run whose
    worker hard-exited before its own ``finally`` could dump: the stub
    keeps the record directory at one file per run, distinguishable
    from a genuinely empty ring by ``post_mortem_stub: true``. Best
    effort by contract — a full disk must never fail the campaign.
    """
    document = {
        "type": "header",
        "seen": 0,
        "retained": 0,
        "dropped": 0,
        "post_mortem_stub": True,
    }
    if header:
        document.update(header)
    try:
        directory = os.path.dirname(str(path))
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(json.dumps(document, sort_keys=True) + "\n")
    except OSError:
        pass


# -- per-kind payload summarizers ------------------------------------------------
#
# Probe payloads are live kernel objects; the recorder flattens them to
# JSON-ready fields at emission time so a post-crash dump never touches
# (possibly corrupted) simulator state.


def _summarize_generic(*args: object) -> dict:
    return {"args": [str(a) for a in args]}


def _summarize_method(time: int, space: object, request: object) -> dict:
    return {
        "time": time,
        "space": _path_of(space),
        "method": str(getattr(request, "method", "")) or _path_of(request),
        "client": str(getattr(request, "client", "")),
    }


def _summarize_guard_block(time: int, space: object, requests: object) -> dict:
    try:
        pending = len(requests)  # type: ignore[arg-type]
    except TypeError:
        pending = 0
    return {"time": time, "space": _path_of(space), "pending": pending}


def _summarize_transaction(time: int, source: str, payload: object) -> dict:
    fields: dict = {
        "time": time,
        "source": source,
        "payload": type(payload).__name__,
    }
    txn_id = getattr(payload, "txn_id", None)
    if txn_id is not None:
        fields["txn_id"] = txn_id
    return fields


def _summarize_flow(name: str, status: str, wall_seconds: float) -> dict:
    return {"stage": name, "status": status, "wall_seconds": wall_seconds}


def _summarize_fault(time: int, fault: object) -> dict:
    return {"time": time, "fault": str(fault)}


def _summarize_detection(record: object) -> dict:
    return {
        "time": getattr(record, "time", None),
        "source": str(getattr(record, "source", "")),
        "message": str(getattr(record, "message", record)),
    }


def _summarize_resilience(event: object) -> dict:
    return {
        "time": getattr(event, "time", None),
        "path": str(getattr(event, "path", "")),
        "method": str(getattr(event, "method", "")),
        "attempt": getattr(event, "attempt", None),
        "detail": str(getattr(event, "detail", "")),
    }


_SUMMARIZERS: dict[str, typing.Callable[..., dict]] = {
    _p.METHOD_CALL: _summarize_method,
    _p.METHOD_QUEUE: _summarize_method,
    _p.METHOD_GRANT: _summarize_method,
    _p.METHOD_COMPLETE: _summarize_method,
    _p.METHOD_GUARD_BLOCK: _summarize_guard_block,
    _p.TRANSACTION_BEGIN: _summarize_transaction,
    _p.TRANSACTION_END: _summarize_transaction,
    _p.FLOW_STAGE: _summarize_flow,
    _p.FAULT_ACTIVATE: _summarize_fault,
    _p.DETECTION: _summarize_detection,
    _p.RESILIENCE_TIMEOUT: _summarize_resilience,
    _p.RESILIENCE_RETRY: _summarize_resilience,
    _p.RESILIENCE_GIVEUP: _summarize_resilience,
    _p.RESILIENCE_RECOVERED: _summarize_resilience,
}


# -- replay ----------------------------------------------------------------------


def load_flight_record(path) -> tuple[dict, list[dict]]:
    """Read a flight-record JSONL back: ``(header, events)``."""
    header: dict = {}
    events: list[dict] = []
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            document = json.loads(line)
            if document.get("type") == "header":
                header = document
            else:
                events.append(document)
    return header, events


def render_flight_record(header: dict, events: list[dict]) -> str:
    """Human-readable timeline of a loaded flight record."""
    lines = ["== flight record =="]
    for key in ("run_id", "label", "classification", "seen", "retained",
                "dropped"):
        if key in header:
            lines.append(f"  {key:<15} {header[key]}")
    lines.append(f"  {'events':<15} {len(events)}")
    lines.append("")
    for event in events:
        time = event.get("time")
        stamp = "        ---" if time is None else f"{time:>11}"
        kind = event.get("kind", "?")
        detail = " ".join(
            f"{k}={event[k]}"
            for k in sorted(event)
            if k not in ("seq", "kind", "time") and event[k] not in ("", None)
        )
        lines.append(f"  {stamp}  {kind:<22} {detail}".rstrip())
    return "\n".join(lines)


def flight_record_chrome_trace(events: list[dict]) -> list[dict]:
    """Convert loaded events into Chrome ``traceEvents`` slices.

    Paired ``transaction.begin``/``end`` events become duration slices;
    everything else becomes an instant event. Timestamps are converted
    from fs to the viewer's microseconds.
    """
    fs_per_us = 1_000_000_000
    slices: list[dict] = []
    open_txns: dict[object, dict] = {}
    for event in events:
        kind = event.get("kind", "")
        time = event.get("time")
        if time is None:
            continue
        ts = time / fs_per_us
        if kind == _p.TRANSACTION_BEGIN:
            open_txns[event.get("txn_id", event["seq"])] = event
            continue
        if kind == _p.TRANSACTION_END:
            begin = open_txns.pop(event.get("txn_id"), None)
            if begin is not None:
                slices.append({
                    "name": event.get("payload", "transaction"),
                    "cat": "transaction",
                    "ph": "X",
                    "ts": begin["time"] / fs_per_us,
                    "dur": max(0.001, ts - begin["time"] / fs_per_us),
                    "pid": 1,
                    "tid": event.get("source", ""),
                    "args": {"txn_id": event.get("txn_id")},
                })
                continue
        slices.append({
            "name": kind,
            "cat": kind.split(".", 1)[0],
            "ph": "i",
            "s": "t",
            "ts": ts,
            "pid": 1,
            "tid": event.get("source") or event.get("space") or
                   event.get("path") or "run",
            "args": {
                k: v for k, v in event.items()
                if k not in ("seq", "kind", "time")
            },
        })
    slices.sort(key=lambda s: (s["ts"], s["name"]))
    return slices
