"""Unit and integration tests for the causal span tracer."""

from repro.flow import build_platform
from repro.instrument import ProbeBus
from repro.instrument.probes import (
    METHOD_CALL,
    METHOD_COMPLETE,
    METHOD_GRANT,
    TRANSACTION_BEGIN,
    TRANSACTION_END,
)
from repro.kernel import MS
from repro.core import CommandType
from repro.trace import (
    Span,
    SpanTracer,
    attribute,
    critical_path,
)
from repro.trace.spans import BUS, METHOD, PHASE, TRANSACTION, WIRE


class _Payload:
    """Minimal correlated object (stands in for CommandType etc.)."""

    def __init__(self, corr_id=None, txn_id=None, **extra):
        self.corr_id = corr_id
        self.txn_id = txn_id
        for key, value in extra.items():
            setattr(self, key, value)


class _Request:
    """Minimal MethodRequest stand-in."""

    def __init__(self, method, args=(), result=None):
        self.method = method
        self.client = "client"
        self.args = args
        self.result = result


class TestSpan:
    def test_duration_and_walk(self):
        root = Span("t", TRANSACTION, 10)
        child = root.add_child(Span("m", METHOD, 10))
        child.end_time = 30
        root.end_time = 40
        assert root.duration == 30
        assert child.duration == 20
        assert [s.name for s in root.walk()] == ["t", "m"]

    def test_find_prefers_earliest(self):
        root = Span("t", TRANSACTION, 0)
        late = root.add_child(Span("b2", BUS, 20))
        early = root.add_child(Span("b1", BUS, 5))
        assert root.find(BUS) is early
        assert root.find(BUS, "b2") is late
        assert root.find(WIRE) is None

    def test_to_dict_shape(self):
        span = Span("x", METHOD, 1, source="top.ch", corr_id="a#0", txn_id=7)
        span.end_time = 9
        span.meta["grant_time"] = 4
        record = span.to_dict()
        assert record["duration"] == 8
        assert record["corr_id"] == "a#0"
        assert record["txn_id"] == 7
        assert record["meta"]["grant_time"] == 4


class TestSpanAssembly:
    def test_method_spans_group_under_correlation_root(self):
        bus = ProbeBus()
        tracer = SpanTracer(causal=False).attach(bus)
        command = _Payload(corr_id="top.app#0")
        request = _Request("put_command", args=(command,))
        bus.emit(METHOD_CALL, 10, "top.channel", request)
        bus.emit(METHOD_GRANT, 20, "top.channel", request)
        bus.emit(METHOD_COMPLETE, 30, "top.channel", request)
        tracer.finalize()
        roots = tracer.transactions()
        assert len(roots) == 1
        root = roots[0]
        assert root.corr_id == "top.app#0"
        assert root.start_time == 10 and root.end_time == 30
        method = root.children[0]
        assert method.name == "put_command"
        assert method.meta["grant_time"] == 20

    def test_corr_id_resolved_at_complete(self):
        # get_command carries no id at call time; the id rides on the
        # (epoch, command) tuple the call returns.
        bus = ProbeBus()
        tracer = SpanTracer(causal=False).attach(bus)
        request = _Request("get_command")
        bus.emit(METHOD_CALL, 5, "top.channel", request)
        request.result = (0, _Payload(corr_id="top.app#1"))
        bus.emit(METHOD_COMPLETE, 15, "top.channel", request)
        assert list(tracer.roots) == ["top.app#1"]

    def test_uncorrelated_method_span_is_orphaned(self):
        bus = ProbeBus()
        tracer = SpanTracer(causal=False).attach(bus)
        request = _Request("try_lock")
        bus.emit(METHOD_CALL, 5, "top.channel", request)
        bus.emit(METHOD_COMPLETE, 6, "top.channel", request)
        assert not tracer.roots
        assert len(tracer.orphans) == 1

    def test_wire_span_matched_by_time_and_address(self):
        bus = ProbeBus()
        tracer = SpanTracer(causal=False).attach(bus)
        operation = _Payload(
            corr_id="top.app#2", txn_id=1, address=0x100, count=2
        )
        bus.emit(TRANSACTION_BEGIN, 100, "top.master", operation)
        wire = _Payload(
            txn_id=2, address=0x104, terminated_by="completion",
            devsel_time=130,
        )
        bus.emit(TRANSACTION_BEGIN, 120, "top.monitor", wire)
        bus.emit(TRANSACTION_END, 180, "top.monitor", wire)
        bus.emit(TRANSACTION_END, 200, "top.master", operation)
        tracer.finalize()
        root = tracer.roots["top.app#2"]
        bus_span = root.find(BUS)
        wire_span = root.find(WIRE)
        assert wire_span is not None
        assert wire_span.corr_id == "top.app#2"
        assert wire_span in bus_span.children
        phases = [c for c in wire_span.children if c.category == PHASE]
        assert [p.name for p in phases] == ["devsel_wait"]

    def test_unmatched_wire_span_is_orphaned(self):
        bus = ProbeBus()
        tracer = SpanTracer(causal=False).attach(bus)
        wire = _Payload(address=0x900, terminated_by="completion")
        bus.emit(TRANSACTION_BEGIN, 10, "top.monitor", wire)
        bus.emit(TRANSACTION_END, 20, "top.monitor", wire)
        tracer.finalize()
        assert len(tracer.orphans) == 1

    def test_detach_stops_recording(self):
        bus = ProbeBus()
        tracer = SpanTracer(causal=False).attach(bus)
        tracer.detach()
        request = _Request("put_command", args=(_Payload(corr_id="x#0"),))
        bus.emit(METHOD_CALL, 1, "ch", request)
        bus.emit(METHOD_COMPLETE, 2, "ch", request)
        assert not tracer.roots and not tracer.orphans


def _traced_platform(n_commands=4, synthesize=True):
    commands = [
        CommandType.write(0x100, [0xAA, 0xBB]),
        CommandType.read(0x100, count=2),
        CommandType.write(0x200, 0x11223344),
        CommandType.read(0x200),
    ][:n_commands]
    bundle = build_platform([commands], bus="pci", synthesize=synthesize)
    tracer = SpanTracer().attach(bundle.handle.sim.probes)
    bundle.run(100 * MS)
    return tracer.finalize()


class TestPlatformIntegration:
    def test_every_command_assembles_one_root(self):
        tracer = _traced_platform()
        roots = tracer.transactions()
        assert [r.corr_id for r in roots] == [
            f"top.app0#{i}" for i in range(4)
        ]
        for root in roots:
            assert root.complete
            assert root.find(METHOD, "put_command") is not None
            assert root.find(BUS) is not None
            assert root.find(WIRE) is not None

    def test_attribution_covers_all_categories(self):
        report = attribute(_traced_platform())
        assert len(report) == 4
        for name in ("queue_wait", "arbitration", "bus_transfer", "completion"):
            assert report.aggregate[name] > 0, name
        for txn in report.transactions:
            assert txn.total == sum(txn.categories.values())
        rendered = report.render()
        assert "queue_wait" in rendered and "TOTAL" in rendered

    def test_reads_pay_completion_writes_do_not(self):
        report = attribute(_traced_platform())
        by_corr = {t.corr_id: t for t in report.transactions}
        assert by_corr["top.app0#1"].categories["completion"] > 0
        assert by_corr["top.app0#0"].categories["completion"] == 0

    def test_critical_path_walks_causal_edges(self):
        tracer = _traced_platform()
        path = critical_path(tracer)
        assert len(path) >= 1
        assert path.hops[0].time >= path.hops[-1].time
        assert "critical path" in path.render()

    def test_chrome_events_cover_all_roots(self):
        tracer = _traced_platform()
        events = tracer.chrome_events()
        assert len({e["tid"] for e in events}) == 4
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0

    def test_pin_accurate_platform_also_assembles(self):
        tracer = _traced_platform(synthesize=False)
        assert len(tracer.complete_transactions()) == 4

    def test_to_dict_is_json_ready(self):
        import json

        doc = tracer_doc = _traced_platform().to_dict()
        assert json.loads(json.dumps(doc)) == tracer_doc
        assert len(doc["transactions"]) == 4
