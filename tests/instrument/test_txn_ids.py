"""Transaction ids are drawn only under observation.

Only the probe pairing reads a ``txn_id``, so an unobserved run draws
none and leaves every monitor record, bus operation and generic payload
without one; with a span tracer attached, every ``transaction.begin``
still pairs with its ``transaction.end``.
"""

import collections

import pytest

import repro.tlm.generic_payload as generic_payload
from repro.core import generate_workload
from repro.flow import build_platform
from repro.iface.agent import BusMonitor, PinMaster
from repro.instrument.probes import (
    METHOD_COMPLETE,
    TRANSACTION_BEGIN,
    TRANSACTION_END,
    ProbeBus,
    set_default_bus,
    txn_key,
)
from repro.kernel import MS, US
from repro.trace import SpanTracer
from repro.trace.spans import METHOD

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


def _count_draws(sim):
    """Count draws from *sim*'s transaction-id counter."""
    draws = [0]
    ids = sim.txn_ids

    def counted():
        draws[0] += 1
        return next(ids)

    sim.txn_ids = iter(counted, None)
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
    draws = _count_draws(bundle.handle.sim)
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
    draws = _count_draws(bundle.handle.sim)
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


def test_a_bus_shared_by_interleaved_runs_pairs_every_begin_with_its_end():
    """The default bus of ``repro profile`` or ``repro spans`` serves
    every simulator a script builds, and each simulator counts its ids
    from 1. Two runs of one design interleaved on one bus draw the same
    ids, yet every transaction and every guarded call still pairs."""
    bus = ProbeBus()
    tracer = SpanTracer(causal=False).attach(bus)
    begins, ends, completed = [], collections.Counter(), [0]
    bus.subscribe(TRANSACTION_BEGIN, lambda time, source, payload:
                  begins.append(txn_key(source, payload)))
    bus.subscribe(TRANSACTION_END, lambda time, source, payload:
                  ends.update([txn_key(source, payload)]))
    bus.subscribe(METHOD_COMPLETE, lambda time, space, request:
                  completed.__setitem__(0, completed[0] + 1))
    previous = set_default_bus(bus)
    try:
        handles = [_cell("pci", "behavioural").handle for __ in range(2)]
    finally:
        set_default_bus(previous)
    for __ in range(1000):
        if all(app.done for handle in handles
               for app in handle.applications):
            break
        for handle in handles:
            handle.sim.run(US)
    assert all(app.done for handle in handles for app in handle.applications)
    assert begins
    assert set(collections.Counter(key[:2] for key in begins).values()) == {2}
    assert len(set(begins)) == len(begins)
    assert all(ends[key] == 1 for key in begins)
    tracer.finalize()
    spans = [span for root in tracer.roots.values() for span in root.walk()]
    spans += tracer.orphans
    assert sum(span.category == METHOD for span in spans) == completed[0] > 0
