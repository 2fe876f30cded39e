"""``python -m repro profile`` end-to-end over a small scripted design."""

import json
import textwrap

import pytest

from repro.__main__ import main
from repro.instrument import default_bus
from repro.telemetry.digest import LatencyDigest

_SCRIPT = textwrap.dedent(
    """
    from repro.hdl.module import Module
    from repro.kernel import NS, Simulator, Timeout
    from repro.osss import GlobalObject, guarded_method


    class Mailbox:
        def __init__(self):
            self.items = []

        @guarded_method(lambda self: len(self.items) < 2)
        def put(self, item):
            self.items.append(item)

        @guarded_method(lambda self: bool(self.items))
        def get(self):
            return self.items.pop(0)


    class Producer(Module):
        def __init__(self, parent, name):
            super().__init__(parent, name)
            self.box = GlobalObject(self, "box", Mailbox)
            self.thread(self._run, "producer")

        def _run(self):
            for i in range(4):
                yield Timeout(5 * NS)
                yield from self.box.call("put", i)


    class Consumer(Module):
        def __init__(self, parent, name, peer):
            super().__init__(parent, name)
            self.box = GlobalObject(self, "box", Mailbox)
            self.box.connect(peer.box)
            self.got = []
            self.thread(self._run, "consumer")

        def _run(self):
            for _ in range(4):
                item = yield from self.box.call("get")
                self.got.append(item)


    sim = Simulator()
    producer = Producer(sim, "prod")
    consumer = Consumer(sim, "cons", producer)
    sim.run(1000 * NS)
    assert consumer.got == [0, 1, 2, 3]
    print("script finished")
    """
)


@pytest.fixture
def tiny_script(tmp_path):
    path = tmp_path / "tiny_design.py"
    path.write_text(_SCRIPT)
    return str(path)


class TestProfileCli:
    def test_profile_prints_tables_and_writes_outputs(
        self, tiny_script, tmp_path, capsys
    ):
        trace = tmp_path / "trace.json"
        report = tmp_path / "report.json"
        assert main([
            "profile",
            "--top", "5",
            "--chrome-trace", str(trace),
            "--json", str(report),
            tiny_script,
        ]) == 0
        out = capsys.readouterr().out
        assert "script finished" in out  # script stdout passes through
        assert "hot processes" in out
        assert "prod.producer" in out and "cons.consumer" in out
        assert "guarded-method traffic" in out
        assert ".put" in out and ".get" in out

        trace_payload = json.loads(trace.read_text())
        assert trace_payload["traceEvents"], "chrome trace is empty"
        assert trace_payload["traceEvents"][0]["ph"] == "X"

        report_payload = json.loads(report.read_text())
        assert report_payload["script"] == tiny_script
        assert report_payload["profile"]["total_deltas"] > 0
        methods = {m["method"] for m in report_payload["metrics"]["methods"]}
        assert methods == {"put", "get"}
        # Method histograms share the scorecards' digest schema.
        total = report_payload["metrics"]["methods"][0]["total"]
        assert set(total) == set(LatencyDigest().to_dict())

    def test_quiet_script_suppresses_script_stdout(
        self, tiny_script, capsys
    ):
        assert main([
            "profile", "--quiet-script", "--chrome-trace", "none",
            tiny_script,
        ]) == 0
        out = capsys.readouterr().out
        assert "script finished" not in out
        assert "hot processes" in out

    def test_chrome_trace_none_writes_nothing(
        self, tiny_script, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main([
            "profile", "--chrome-trace", "none", tiny_script,
        ]) == 0
        assert not (tmp_path / "repro_profile_trace.json").exists()

    def test_default_bus_restored_after_run(self, tiny_script, capsys):
        before = default_bus()
        assert main([
            "profile", "--chrome-trace", "none", tiny_script,
        ]) == 0
        assert default_bus() is before

    def test_max_trace_events_flag_truncates_with_metadata(
        self, tiny_script, tmp_path, capsys
    ):
        trace = tmp_path / "trace.json"
        assert main([
            "profile", "--quiet-script",
            "--max-trace-events", "2",
            "--chrome-trace", str(trace),
            tiny_script,
        ]) == 0
        out = capsys.readouterr().out
        assert "truncated" in out
        payload = json.loads(trace.read_text())
        assert len(payload["traceEvents"]) == 2
        assert payload["otherData"]["max_trace_events"] == 2
        assert payload["otherData"]["truncated"] is True
        assert payload["otherData"]["dropped_events"] > 0

    def test_method_table_reports_latency_quantiles(
        self, tiny_script, capsys
    ):
        assert main([
            "profile", "--quiet-script", "--chrome-trace", "none",
            tiny_script,
        ]) == 0
        out = capsys.readouterr().out
        assert "p50 ns" in out and "p95 ns" in out and "p99 ns" in out

    def test_json_to_stdout(self, tiny_script, capsys):
        assert main([
            "profile", "--quiet-script", "--chrome-trace", "none",
            "--json", "-", tiny_script,
        ]) == 0
        out = capsys.readouterr().out
        start = out.index("{")
        payload = json.loads(out[start:out.rindex("}") + 1])
        assert payload["profile"]["total_deltas"] > 0
