"""The off-path gate's call counts repeat, and one added call trips them;
its memory rows repeat, a per-grant log trips the pci row, and a named
update stores only those rows."""

import ast
import copy
import importlib.util
import json
import os

import pytest

from repro.hdl.signal import Signal
from repro.osss.request import RequestStats

_GATE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "offpath_gate.py"
)


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("offpath_gate", _GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def pci_call_limit(gate):
    call_limit, __ = gate.limits("pci", gate.load_baseline())
    return call_limit


@pytest.fixture(scope="module")
def analyze_warm(gate):
    """One unmetered analysis first: like the gate's timed runs, it
    fills the parsed-source caches the counted run then reads."""
    gate.analyze_netlists(lambda fn, *args, **kwargs: fn(*args, **kwargs))


def _one_extra_call_per_signal_write(monkeypatch):
    """Run every ``Signal.write`` inside one more Python frame."""
    write = Signal.write

    def write_in_one_more_frame(self, value):
        return write(self, value)

    monkeypatch.setattr(Signal, "write", write_in_one_more_frame)


class TestOffPathGate:
    def test_pci_count_repeats_and_passes(self, gate, pci_call_limit):
        counts = []
        for __ in range(2):
            calls, bundle = gate.count_calls(gate.pci_off)
            assert bundle.handle.sim._probes is None
            counts.append(calls)
        first, second = counts
        assert abs(first - second) <= 0.001 * first, counts
        assert second <= pci_call_limit

    def test_one_extra_call_per_signal_write_fails(
        self, gate, pci_call_limit, monkeypatch
    ):
        _one_extra_call_per_signal_write(monkeypatch)
        calls, __ = gate.count_calls(gate.pci_off)
        assert calls > pci_call_limit

    def test_one_extra_call_per_signal_write_trips_the_matrix_row(
        self, gate, monkeypatch
    ):
        call_limit, __ = gate.limits("matrix", gate.load_baseline())
        _one_extra_call_per_signal_write(monkeypatch)
        calls, __ = gate.count_calls(gate.matrix_sweep)
        assert calls > call_limit

    def test_analyze_count_repeats_and_passes(self, gate, analyze_warm):
        call_limit, __ = gate.limits("analyze", gate.load_baseline())
        first, second = (
            gate.count_calls(gate.analyze_netlists)[0] for __ in range(2)
        )
        assert abs(first - second) <= 0.001 * first, (first, second)
        assert second <= call_limit

    def test_one_extra_call_per_ast_node_trips_the_analyze_row(
        self, gate, analyze_warm, monkeypatch
    ):
        """The analysis walks method ASTs node by node; one more frame
        per node visited is a regression the row must catch."""
        call_limit, __ = gate.limits("analyze", gate.load_baseline())
        iter_child_nodes = ast.iter_child_nodes

        def in_one_more_frame(node):
            return iter_child_nodes(node)

        monkeypatch.setattr(ast, "iter_child_nodes", in_one_more_frame)
        calls, __ = gate.count_calls(gate.analyze_netlists)
        assert calls > call_limit


class TestMemoryRows:
    def test_pci_bytes_repeat_and_pass(self, gate):
        first, second = (gate.measure_memory("pci") for __ in range(2))
        assert first == second
        bounds = gate.memory_limits("memory.pci", gate.load_baseline())
        assert bounds is not None, f"no Python {gate.PYTHON_VERSION} reference"
        built, retained = second
        assert built <= bounds[0] and retained <= bounds[1], (second, bounds)

    def test_named_update_stores_only_those_rows(
        self, gate, tmp_path, monkeypatch
    ):
        version = gate.PYTHON_VERSION
        stale = copy.deepcopy(gate.load_baseline())
        stale["method"]["calls"] = 1
        stale["memory.pci"][version] = {"built": 1, "retained": 1}
        stale["memory.tlmgp"][version] = {"built": 1, "retained": 1}
        stale["memory.tlmgp"]["2.7"] = {"built": 2, "retained": 2}
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(stale))
        monkeypatch.setattr(gate, "BASELINE_PATH", str(path))

        assert gate.main(["--update", "memory.tlmgp"]) == 0

        built, retained = gate.measure_memory("tlmgp")
        expected = copy.deepcopy(stale)
        expected["memory.tlmgp"][version] = {
            "built": built, "retained": retained,
        }
        assert json.loads(path.read_text()) == expected

    def test_a_per_grant_log_trips_the_retained_row(self, gate, monkeypatch):
        """Channel statistics that keep one tuple per grant hold more
        than the pci row allows a run to keep."""
        record_grant = RequestStats.record_grant

        def record_and_log(self, request):
            self.__dict__.setdefault("grant_log", []).append(
                (request.grant_time, request.client, request.method)
            )
            record_grant(self, request)

        monkeypatch.setattr(RequestStats, "record_grant", record_and_log)
        __, retained = gate._measure_cell("pci")
        bounds = gate.memory_limits("memory.pci", gate.load_baseline())
        assert bounds is not None, f"no Python {gate.PYTHON_VERSION} reference"
        assert retained > bounds[1], (retained, bounds)

    def test_update_rejects_an_unknown_row(self, gate, capsys):
        with pytest.raises(SystemExit):
            gate.main(["--update", "memory.isa"])
        assert "unknown row memory.isa" in capsys.readouterr().err
