"""Unit tests for the persistency semantics of the simulated machine."""

import pytest

from repro.errors import PMemError
from repro.pmem import CACHE_LINE_SIZE, Opcode, PMachine, VOLATILE_BASE
from repro.pmem.cache import LRUEviction


@pytest.fixture
def machine():
    return PMachine(pm_size=64 * 1024)


class TestVisibilityVsDurability:
    def test_store_is_visible_immediately(self, machine):
        machine.store(128, b"\x2a")
        assert machine.load(128, 1) == b"\x2a"

    def test_unflushed_store_is_lost_at_crash(self, machine):
        machine.store(128, b"\x2a")
        image = machine.crash()
        assert image[128] == 0

    def test_flushed_unfenced_weak_store_is_lost(self, machine):
        machine.store(128, b"\x2a")
        machine.clwb(128)
        image = machine.crash()
        assert image[128] == 0

    def test_flush_plus_fence_is_durable(self, machine):
        machine.store(128, b"\x2a")
        machine.clwb(128)
        machine.sfence()
        image = machine.crash()
        assert image[128] == 0x2A

    def test_clflushopt_plus_fence_is_durable(self, machine):
        machine.store(128, b"\x2a")
        machine.clflushopt(128)
        machine.mfence()
        image = machine.crash()
        assert image[128] == 0x2A

    def test_clflush_is_durable_without_fence(self, machine):
        machine.store(128, b"\x2a")
        machine.clflush(128)
        image = machine.crash()
        assert image[128] == 0x2A

    def test_store_after_weak_flush_not_covered(self, machine):
        machine.store(128, b"\x01")
        machine.clwb(128)
        machine.store(129, b"\x02")  # same line, after the flush snapshot
        machine.sfence()
        image = machine.crash()
        assert image[128] == 0x01
        assert image[129] == 0  # needed its own flush

    def test_fence_without_flush_persists_nothing(self, machine):
        machine.store(128, b"\x2a")
        machine.sfence()
        image = machine.crash()
        assert image[128] == 0

    def test_persist_helper_covers_multi_line_range(self, machine):
        data = bytes(range(200)) + bytes(56)
        machine.store(100, data)
        machine.persist(100, len(data))
        image = machine.crash()
        assert image[100:100 + len(data)] == data


class TestNonTemporalStores:
    def test_ntstore_visible_to_loads(self, machine):
        machine.ntstore(256, b"nt")
        assert machine.load(256, 2) == b"nt"

    def test_ntstore_not_durable_until_fence(self, machine):
        machine.ntstore(256, b"nt")
        assert machine.crash_image()[256:258] == bytes(2)
        machine.sfence()
        assert machine.crash_image()[256:258] == b"nt"

    def test_ntstore_coherent_with_cached_line(self, machine):
        machine.store(256, b"aa")
        machine.ntstore(256, b"bb")
        assert machine.load(256, 2) == b"bb"


class TestRMW:
    def test_rmw_acts_as_fence(self, machine):
        machine.store(128, b"\x2a")
        machine.clwb(128)
        machine.rmw_u64(512, lambda v: v + 1)  # fence semantics drain the flush
        assert machine.crash_image()[128] == 0x2A

    def test_cas_success_and_failure(self, machine):
        machine.store(512, (7).to_bytes(8, "little"))
        assert machine.cas_u64(512, 7, 9) is True
        assert machine.cas_u64(512, 7, 11) is False
        assert int.from_bytes(machine.load(512, 8), "little") == 9

    def test_faa_returns_previous(self, machine):
        machine.store(512, (5).to_bytes(8, "little"))
        assert machine.faa_u64(512, 3) == 5
        assert int.from_bytes(machine.load(512, 8), "little") == 8

    def test_rmw_requires_alignment(self, machine):
        with pytest.raises(PMemError):
            machine.rmw_u64(513, lambda v: v)


class TestVolatileRegion:
    def test_volatile_store_load(self, machine):
        machine.store(VOLATILE_BASE + 10, b"vol")
        assert machine.load(VOLATILE_BASE + 10, 3) == b"vol"

    def test_volatile_data_never_in_crash_image(self, machine):
        machine.store(VOLATILE_BASE + 10, b"vol")
        machine.sfence()
        image = machine.crash()
        assert b"vol" not in image

    def test_volatile_flush_is_noop(self, machine):
        machine.store(VOLATILE_BASE + 10, b"v")
        machine.clwb(VOLATILE_BASE + 10)
        machine.sfence()  # must not raise


class TestEviction:
    def test_eviction_persists_silently(self):
        machine = PMachine(
            pm_size=64 * 1024, cache_capacity=2, eviction=LRUEviction()
        )
        machine.store(0 * CACHE_LINE_SIZE + 128, b"\x01")
        machine.store(2 * CACHE_LINE_SIZE + 128, b"\x02")
        machine.store(4 * CACHE_LINE_SIZE + 128, b"\x03")  # evicts the first
        image = machine.crash_image()
        assert image[128] == 0x01  # persisted by eviction, no flush issued
        assert machine.cache.eviction_count >= 1

    def test_no_eviction_by_default(self, machine):
        for i in range(200):
            machine.store(i * CACHE_LINE_SIZE + 1024, b"\x01")
        assert machine.cache.eviction_count == 0


class TestEventStream:
    def collect(self, machine):
        events = []
        machine.add_hook(lambda event, m: events.append(event))
        return events

    def test_sequence_numbers_monotone(self, machine):
        events = self.collect(machine)
        machine.store(128, b"a")
        machine.clwb(128)
        machine.sfence()
        assert [e.seq for e in events] == [0, 1, 2]
        assert [e.opcode for e in events] == [
            Opcode.STORE,
            Opcode.CLWB,
            Opcode.SFENCE,
        ]

    def test_store_event_carries_data(self, machine):
        events = self.collect(machine)
        machine.store(128, b"xyz")
        assert events[0].data == b"xyz"
        assert events[0].address == 128
        assert events[0].size == 3

    def test_loads_untraced_by_default(self, machine):
        events = self.collect(machine)
        machine.store(128, b"a")
        machine.load(128, 1)
        assert len(events) == 1

    def test_loads_traced_when_enabled(self):
        machine = PMachine(pm_size=4096, trace_loads=True)
        events = []
        machine.add_hook(lambda event, m: events.append(event))
        machine.load(128, 4)
        assert events[-1].opcode is Opcode.LOAD

    def test_volatile_events_untraced_by_default(self, machine):
        events = self.collect(machine)
        machine.store(VOLATILE_BASE, b"a")
        assert events == []


class TestCrash:
    def test_machine_unusable_after_crash(self, machine):
        machine.crash()
        with pytest.raises(PMemError):
            machine.store(0, b"a")
        with pytest.raises(PMemError):
            machine.load(0, 1)
        with pytest.raises(PMemError):
            machine.sfence()

    def test_from_image_boots_with_state(self, machine):
        machine.store(128, b"\x2a")
        machine.persist(128, 1)
        image = machine.crash()
        rebooted = PMachine.from_image(image)
        assert rebooted.load(128, 1) == b"\x2a"

    def test_multi_line_store_straddles_lines(self, machine):
        addr = CACHE_LINE_SIZE * 3 - 2
        machine.store(addr, b"abcd")
        assert machine.load(addr, 4) == b"abcd"
        machine.persist(addr, 4)
        assert machine.crash()[addr:addr + 4] == b"abcd"


class TestWeakFlushThenClflush:
    """``store → clwb/clflushopt → clflush`` on one line.

    The weak flush parks a snapshot of the line and marks it clean; the
    clflush that follows finds a clean line, and must persist the parked
    snapshot rather than drop it along with the pending flush.
    """

    @pytest.mark.parametrize("weak", ["clwb", "clflushopt"])
    def test_store_survives_and_stays_visible(self, machine, weak):
        machine.store(256, b"\x2a" * 8)
        getattr(machine, weak)(256)
        machine.clflush(256)
        assert machine.load(256, 8) == b"\x2a" * 8
        assert machine.crash_image()[256:264] == b"\x2a" * 8
        machine.sfence()
        assert machine.pending_flush_count() == 0
        assert machine.crash_image()[256:264] == b"\x2a" * 8

    def test_later_store_supersedes_the_parked_snapshot(self, machine):
        machine.store(256, b"\x01")
        machine.clwb(256)
        machine.store(257, b"\x02")  # line dirty again
        machine.clflush(256)
        image = machine.crash_image()
        assert image[256:258] == b"\x01\x02"

    def test_parked_snapshot_survives_clean_eviction(self):
        machine = PMachine(
            pm_size=64 * 1024, cache_capacity=1, eviction=LRUEviction()
        )
        machine.store(256, b"\x2a")
        machine.clwb(256)
        machine.store(1024, b"\x07")  # evicts the clean line at 256
        machine.clflush(256)
        assert machine.load(256, 1) == b"\x2a"
        assert machine.crash_image()[256] == 0x2A
