"""The off-path gate's call count repeats, and one added call trips it."""

import importlib.util
import os

import pytest

from repro.hdl.signal import Signal

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


def _noop():
    pass


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
        write = Signal.write

        def write_with_extra_call(self, value):
            _noop()
            return write(self, value)

        monkeypatch.setattr(Signal, "write", write_with_extra_call)
        calls, __ = gate.count_calls(gate.pci_off)
        assert calls > pci_call_limit
