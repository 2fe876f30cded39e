"""Transaction ids are drawn only under observation.

Only the probe pairing reads a ``txn_id``, so an unobserved run draws
none and leaves every monitor record, bus operation and generic payload
without one; with a span tracer attached, every ``transaction.begin``
still pairs with its ``transaction.end``.
"""

import collections
import sys

import pytest

import repro.instrument.probes as probes
import repro.tlm.generic_payload as generic_payload
from repro.core import generate_workload
from repro.flow import build_platform
from repro.iface.agent import BusMonitor, PinMaster
from repro.instrument.probes import TRANSACTION_BEGIN, TRANSACTION_END, txn_key
from repro.kernel import MS
from repro.trace import SpanTracer

CELLS = [
    (bus, level)
    for bus in ("pci", "wishbone", "axi4lite", "tlmgp")
    for level in ("behavioural", "interpreted")
]


def _cell(bus, level):
    workload = generate_workload(seed=23, n_commands=12, address_span=0x400,
                                 max_burst=3)
    return build_platform([workload], bus=bus,
                          synthesize=level == "interpreted")


def _count_draws(monkeypatch):
    """Count ``new_txn_id`` calls in every module that imported it."""
    draws = [0]
    original = probes.new_txn_id

    def counted():
        draws[0] += 1
        return original()

    for name, module in list(sys.modules.items()):
        if (name.startswith("repro.")
                and getattr(module, "new_txn_id", None) is original):
            monkeypatch.setattr(module, "new_txn_id", counted)
    return draws


def _record_payloads(monkeypatch):
    """Collect every bus operation submitted to a pin-level master and
    every generic payload the TLM dispatcher builds."""
    carriers = []
    submit = PinMaster.submit
    to_generic_payload = generic_payload._to_generic_payload

    def recording_submit(self, operation):
        carriers.append(operation)
        return submit(self, operation)

    def recording_to_generic_payload(command):
        payload = to_generic_payload(command)
        carriers.append(payload)
        return payload

    monkeypatch.setattr(PinMaster, "submit", recording_submit)
    monkeypatch.setattr(generic_payload, "_to_generic_payload",
                        recording_to_generic_payload)
    return carriers


def _monitor_records(bundle):
    records = []
    for __, obj in bundle.handle.sim.iter_named():
        if isinstance(obj, BusMonitor):
            records += (obj.transfers if hasattr(obj, "transfers")
                        else obj.transactions)
    return records


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: "/".join(cell))
def test_an_unobserved_run_draws_no_id(cell, monkeypatch):
    bundle = _cell(*cell)
    draws = _count_draws(monkeypatch)
    carriers = _record_payloads(monkeypatch)
    bundle.run(100 * MS)
    assert bundle.handle.sim._probes is None
    assert carriers
    if cell[0] != "tlmgp":
        assert _monitor_records(bundle)
    assert draws[0] == 0
    assert all(item.txn_id is None
               for item in carriers + _monitor_records(bundle))


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: "/".join(cell))
def test_an_observed_run_pairs_every_begin_with_its_end(cell, monkeypatch):
    bundle = _cell(*cell)
    draws = _count_draws(monkeypatch)
    carriers = _record_payloads(monkeypatch)
    bus = bundle.handle.sim.probes
    SpanTracer(causal=False).attach(bus)
    begins, ends = [], collections.Counter()
    bus.subscribe(TRANSACTION_BEGIN, lambda time, source, payload:
                  begins.append(txn_key(source, payload)))
    bus.subscribe(TRANSACTION_END, lambda time, source, payload:
                  ends.update([txn_key(source, payload)]))
    bundle.run(100 * MS)
    assert begins
    assert len(set(begins)) == len(begins)
    assert all(ends[key] == 1 for key in begins)
    assert draws[0] > 0
    assert all(item.txn_id is not None
               for item in carriers + _monitor_records(bundle))
