"""Tests for the TLM-2.0 generic payload, socket and library element."""

import pytest

from repro.core import (
    CommandType,
    default_library,
    expected_memory_image,
    generate_workload,
)
from repro.errors import ProtocolError
from repro.flow import build_platform
from repro.kernel import MS
from repro.tlm import (
    GP_ADDRESS_ERROR,
    GP_GENERIC_ERROR,
    GP_INCOMPLETE,
    GP_OK,
    GenericPayload,
    GpTargetSocket,
    Memory,
    TlmGpBusInterface,
    TlmGpFunctionalInterface,
)


class TestPayload:
    def test_factories(self):
        read = GenericPayload.read(0x10, count=3)
        assert not read.is_write and read.count == 3
        assert read.response_status == GP_INCOMPLETE
        write = GenericPayload.write(0x10, 7)
        assert write.is_write and write.data == [7]

    def test_validation(self):
        with pytest.raises(ProtocolError):
            GenericPayload("erase", 0x0)
        with pytest.raises(ProtocolError):
            GenericPayload.write(0x0, [])
        with pytest.raises(ProtocolError):
            GenericPayload("read", 0x0, data=[1])
        with pytest.raises(ProtocolError):
            GenericPayload.read(0x0, count=0)

    def test_extensions_are_ignorable(self):
        payload = GenericPayload.read(0x0)
        payload.extensions["priority"] = 3
        socket = GpTargetSocket(Memory(0x100))
        socket.b_transport(payload)
        assert payload.is_response_ok


class TestSocket:
    def test_write_then_read(self):
        memory = Memory(0x100)
        socket = GpTargetSocket(memory)
        write = GenericPayload.write(0x10, [0xAA, 0xBB])
        assert socket.b_transport(write) == 0
        assert write.response_status == GP_OK
        read = GenericPayload.read(0x10, count=2)
        socket.b_transport(read)
        assert read.response_status == GP_OK
        assert read.data == [0xAA, 0xBB]
        assert memory.dump(0x10, 2) == [0xAA, 0xBB]

    def test_byte_enable_merges_lanes(self):
        memory = Memory(0x100)
        socket = GpTargetSocket(memory)
        socket.b_transport(GenericPayload.write(0x0, [0xFFFFFFFF]))
        socket.b_transport(
            GenericPayload.write(0x0, [0x0], byte_enable=0x3)
        )
        read = GenericPayload.read(0x0)
        socket.b_transport(read)
        assert read.data == [0xFFFF0000]

    def test_annotated_delay(self):
        socket = GpTargetSocket(Memory(0x100), accept_latency=100,
                                word_latency=10)
        delay = socket.b_transport(GenericPayload.write(0x0, [1, 2, 3]))
        assert delay == 100 + 3 * 10

    def test_unmapped_address_error(self):
        payload = GenericPayload.read(0x8000)
        GpTargetSocket(Memory(0x100)).b_transport(payload)
        assert payload.response_status == GP_ADDRESS_ERROR
        assert not payload.is_response_ok

    def test_generic_error(self):
        class Broken:
            def read_word(self, address):
                raise RuntimeError("hardware on fire")

        payload = GenericPayload.read(0x0)
        GpTargetSocket(Broken()).b_transport(payload)
        assert payload.response_status == GP_GENERIC_ERROR

    def test_negative_latency_rejected(self):
        with pytest.raises(ProtocolError):
            GpTargetSocket(Memory(0x100), accept_latency=-1)


class TestLibraryElement:
    def test_in_default_library(self):
        library = default_library()
        assert library.lookup("tlmgp", "transaction") is TlmGpBusInterface
        assert library.lookup("tlmgp", "functional") \
            is TlmGpFunctionalInterface

    def test_golden_memory_image(self):
        workload = generate_workload(seed=44, n_commands=25,
                                     address_span=0x200, max_burst=4,
                                     partial_byte_enable_fraction=0.3)
        bundle = build_platform([workload], bus="tlmgp")
        bundle.run(100 * MS)
        golden = expected_memory_image(workload, 0x200 // 4)
        assert bundle.memory.dump(0, len(golden)) == golden
        records = bundle.handle.applications[0].records
        assert all(r.response.ok for r in records if r.command.is_read)

    def test_peripheral_reachable(self):
        commands = [
            CommandType.write(0x0001_0008, 0x42),
            CommandType.read(0x0001_0008, count=1),
        ]
        bundle = build_platform([commands], bus="tlmgp")
        bundle.run(10 * MS)
        app = bundle.handle.applications[0]
        assert app.records[1].response.data == [0x42 ^ 0xFFFFFFFF]

    def test_failed_payload_counted(self):
        commands = [CommandType.read(0x0002_0000, count=1)]  # unmapped
        bundle = build_platform([commands], bus="tlmgp")
        bundle.run(10 * MS)
        response = bundle.handle.applications[0].records[0].response
        assert response.status == GP_ADDRESS_ERROR

    def test_matches_functional_traces(self):
        workload = generate_workload(seed=4, n_commands=15,
                                     address_span=0x200, max_burst=3)
        functional = build_platform([workload], bus="functional").run(100 * MS)
        tlm = build_platform([workload], bus="tlmgp").run(100 * MS)
        assert functional.traces == tlm.traces

    def test_annotated_delay_advances_time(self):
        workload = generate_workload(seed=6, n_commands=10,
                                     address_span=0x100)
        from repro.flow import PciPlatformConfig

        fast = build_platform([workload], bus="tlmgp").run(100 * MS)
        slow = build_platform(
            [workload], PciPlatformConfig(word_latency=50_000), bus="tlmgp"
        ).run(100 * MS)
        assert fast.traces == slow.traces
        assert slow.sim_time > fast.sim_time

    def test_synthesis_consistency(self):
        workload = generate_workload(seed=5, n_commands=10,
                                     address_span=0x100, max_burst=2)
        pre = build_platform([workload], bus="tlmgp").run(100 * MS)
        post = build_platform([workload], bus="tlmgp", synthesize=True).run(
            200 * MS
        )
        assert pre.traces == post.traces
