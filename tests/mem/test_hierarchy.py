"""Integration tests for the assembled memory hierarchy + NUCA + coherence."""

import pytest

from repro.energy import EnergyLedger
from repro.mem import CoherenceManager, Domain, MemoryHierarchy, NucaL3, SlabAllocator
from repro.params import PAGE_BYTES, default_machine


def make_hierarchy():
    energy = EnergyLedger()
    h = MemoryHierarchy(default_machine(), energy)
    return h, energy


class TestNuca:
    def test_range_striped_home_clusters(self):
        l3 = NucaL3(default_machine())
        stripe = l3.stripe_bytes
        assert stripe == default_machine().l3_cluster_bytes
        assert l3.home_cluster(0) == 0
        assert l3.home_cluster(stripe - 1) == 0  # whole stripe is one home
        assert l3.home_cluster(stripe) == 1
        assert l3.home_cluster(8 * stripe) == 0

    def test_bank_interleaved_lines(self):
        l3 = NucaL3(default_machine())
        assert l3.bank(0) == 0
        assert l3.bank(64) == 1
        assert l3.bank(4 * 64) == 0

    def test_slices_sum_to_l3_capacity(self):
        m = default_machine()
        l3 = NucaL3(m)
        total = sum(s.params.size_bytes for s in l3.slices)
        assert total == m.l3.size_bytes

    def test_access_counts_aggregate(self):
        l3 = NucaL3(default_machine())
        l3.access(0, False)
        l3.access(l3.stripe_bytes, False)
        assert l3.accesses == 2
        assert l3.slices[0].accesses == 1
        assert l3.slices[1].accesses == 1


class TestHostPath:
    def test_first_access_misses_everywhere(self):
        h, _ = make_hierarchy()
        lat = h.host_access(0x1000_0000, False)
        s = h.stats()
        assert s.l1 == 1 and s.l2 == 1 and s.l3 == 1 and s.dram == 1
        assert lat > h.machine.dram.latency_cycles

    def test_second_access_l1_hit(self):
        h, _ = make_hierarchy()
        h.host_access(0x1000_0000, False)
        lat = h.host_access(0x1000_0000, False)
        assert lat == h.machine.l1.latency_cycles
        assert h.stats().dram == 1  # no new DRAM access

    def test_energy_charged_per_level(self):
        h, energy = make_hierarchy()
        h.host_access(0x1000_0000, False)
        by = energy.by_component()
        assert by["l1"] > 0 and by["l2"] > 0 and by["l3"] > 0
        assert by["dram"] > 0

    def test_movement_bytes_accumulate(self):
        h, _ = make_hierarchy()
        h.host_access(0x1000_0000, False)
        # DRAM->L3, L3->L2, L2->L1 = 3 line moves
        assert h.movement_bytes == 3 * 64

    def test_stride_prefetcher_reduces_miss_latency(self):
        """A streaming walk should see mostly L2 hits once trained."""
        h, _ = make_hierarchy()
        latencies = [
            h.host_access(0x1000_0000 + i * 64, False, stream_id=7)
            for i in range(32)
        ]
        # after the first few, the prefetcher runs ahead of demand
        trained = latencies[8:]
        cold = latencies[0]
        assert min(trained) < cold
        assert h.l2.prefetch_fills > 0

    def test_writeback_path(self):
        """Dirty lines evicted from L1 land in L2 (writeback counted)."""
        h, _ = make_hierarchy()
        ways, sets = h.l1.ways, h.l1.num_sets
        # fill one set with writes, then overflow it
        for i in range(ways + 2):
            h.host_access(i * sets * 64, True)
        assert h.l1.writebacks > 0


class TestCoherence:
    def test_acquire_flushes_host_copies(self):
        h, _ = make_hierarchy()
        slab = SlabAllocator()
        alloc = slab.allocate("A", 4096)
        mgr = CoherenceManager(h)
        mgr.acquire(alloc, Domain.HOST)
        h.host_access(alloc.base, True)  # dirty in L1
        flushed = mgr.acquire(alloc, Domain.ACCEL, cluster=2)
        assert flushed >= 1
        assert not h.l1.probe(alloc.base)

    def test_same_domain_acquire_free(self):
        h, _ = make_hierarchy()
        slab = SlabAllocator()
        alloc = slab.allocate("A", 4096)
        mgr = CoherenceManager(h)
        mgr.acquire(alloc, Domain.ACCEL, cluster=1)
        assert mgr.acquire(alloc, Domain.ACCEL, cluster=1) == 0
        assert mgr.transitions == 0

    def test_cluster_migration_flushes_acp(self):
        h, _ = make_hierarchy()
        slab = SlabAllocator()
        alloc = slab.allocate("A", 4096)
        mgr = CoherenceManager(h)
        mgr.acquire(alloc, Domain.ACCEL, cluster=1)
        h.acps[1].access(alloc.base, True)  # dirty line in cluster 1's ACP
        assert h.acps[1].probe(alloc.base)
        assert mgr.acquire(alloc, Domain.ACCEL, cluster=3) == 1
        assert not h.acps[1].probe(alloc.base)
        assert mgr.transitions == 1

    def test_release_returns_to_host(self):
        h, _ = make_hierarchy()
        slab = SlabAllocator()
        alloc = slab.allocate("A", 4096)
        mgr = CoherenceManager(h)
        mgr.acquire(alloc, Domain.ACCEL, cluster=0)
        mgr.release(alloc)
        assert mgr.owner(alloc.obj_id).domain is Domain.HOST

    def test_accel_acquire_requires_cluster(self):
        h, _ = make_hierarchy()
        slab = SlabAllocator()
        alloc = slab.allocate("A", 4096)
        mgr = CoherenceManager(h)
        with pytest.raises(Exception):
            mgr.acquire(alloc, Domain.ACCEL)


class TestDram:
    def test_dram_counts(self):
        h, _ = make_hierarchy()
        h.host_access(0x2000_0000, False)
        h.host_access(0x2000_0000 + 10 * PAGE_BYTES, False)
        assert h.dram.reads == 2
        assert h.dram.bytes_transferred == 2 * 64
