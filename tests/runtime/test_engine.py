"""Unit tests for the offload execution engine."""

import numpy as np
import pytest

from repro.accel.cgra import CgraBackend
from repro.accel.inorder import InOrderBackend
from repro.compiler import CompileMode, compile_kernel
from repro.energy import EnergyLedger
from repro.errors import AllocationError
from repro.interface.scheduler import HardwareScheduler
from repro.ir import FLOAT32, Interpreter, Kernel, Loop, LoopVar, MemObject
from repro.mem import Cache, MemoryHierarchy, SlabAllocator
from repro.params import CacheParams, experiment_machine
from repro.runtime import OffloadEngine, SiteStreams
from repro.runtime.engine import _PRIVATE_BATCH_MIN


def saxpy_setup(n=256, mode=CompileMode.DIST, backend="io"):
    A, B, C = (MemObject(x, n, FLOAT32) for x in "ABC")
    i = LoopVar("i")
    loop = Loop("i", 0, n, [C.store(i, A[i] * 2.0 + B[i])])
    kernel = Kernel("saxpy", {"A": A, "B": B, "C": C}, [loop])
    arrays = {
        name: np.ones(n, dtype=np.float32) for name in ("A", "B", "C")
    }
    res = Interpreter(record_trace=True).run(kernel, arrays)
    ck = compile_kernel(kernel, mode, trip_count_hint=n)
    machine = experiment_machine()
    energy = EnergyLedger()
    hierarchy = MemoryHierarchy(machine, energy)
    slab = SlabAllocator()
    allocations = {
        name: slab.allocate(name, obj.size_bytes,
                            align=hierarchy.l3.stripe_bytes)
        for name, obj in kernel.objects.items()
    }
    be = (InOrderBackend(machine.inorder) if backend == "io"
          else CgraBackend(machine.cgra))
    engine = OffloadEngine(machine, hierarchy, energy, slab, be,
                           io_overlap=2.0)
    off = ck.offloads[0]
    from repro.placement import place_partitions

    clusters = place_partitions(off.partitioning, allocations,
                                hierarchy.l3)
    streams = SiteStreams(res.trace)
    return engine, off, clusters, res, streams, energy


class TestSiteStreams:
    def test_streams_partition_by_site(self):
        _, off, _, res, streams, _ = saxpy_setup(32)
        for acc in off.config.partitions[0].accesses:
            if acc.site_ids:
                assert streams.length(acc.site_ids) == 32

    def test_missing_site_is_empty(self):
        streams = SiteStreams([])
        assert streams.stream(99).size == 0
        assert streams.length((99,)) == 0


class TestEngineRun:
    def test_basic_run_advances_time(self):
        engine, off, clusters, res, streams, _ = saxpy_setup()
        stats = engine.run(off, clusters, res.inner_iterations, 1, streams)
        assert stats.time_ps > 0
        assert stats.accel_iterations == res.inner_iterations
        assert stats.d_a_bytes > 0

    def test_configuration_charged_once(self):
        engine, off, clusters, res, streams, _ = saxpy_setup()
        s1 = engine.run(off, clusters, res.inner_iterations, 1, streams)
        s2 = engine.run(off, clusters, res.inner_iterations, 1, streams)
        assert s1.mmio_bytes > 0
        assert s2.mmio_bytes == 0  # reused configuration

    def test_zero_trips_is_free(self):
        engine, off, clusters, _, streams, _ = saxpy_setup()
        stats = engine.run(off, clusters, 0, 1, streams)
        assert stats.time_ps == 0

    def test_energy_charged(self):
        engine, off, clusters, res, streams, energy = saxpy_setup()
        engine.run(off, clusters, res.inner_iterations, 1, streams)
        by = energy.by_component()
        assert by.get("accel", 0) > 0
        assert by.get("access_unit", 0) > 0

    def test_cgra_faster_than_io(self):
        e1, off1, cl1, res1, st1, _ = saxpy_setup(backend="io")
        s_io = e1.run(off1, cl1, res1.inner_iterations, 1, st1)
        e2, off2, cl2, res2, st2, _ = saxpy_setup(backend="cgra")
        s_f = e2.run(off2, cl2, res2.inner_iterations, 1, st2)
        assert s_f.time_ps < s_io.time_ps

    def test_mono_produces_more_acc_traffic(self):
        e1, off1, cl1, res1, st1, _ = saxpy_setup(mode=CompileMode.DIST)
        dist = e1.run(off1, cl1, res1.inner_iterations, 1, st1)
        e2, off2, cl2, res2, st2, _ = saxpy_setup(mode=CompileMode.MONO_DA)
        mono = e2.run(off2, cl2, res2.inner_iterations, 1, st2)
        assert mono.a_a_bytes >= dist.a_a_bytes

    def test_more_iterations_take_longer(self):
        e1, off1, cl1, res1, st1, _ = saxpy_setup(n=128)
        small = e1.run(off1, cl1, res1.inner_iterations, 1, st1)
        e2, off2, cl2, res2, st2, _ = saxpy_setup(n=512)
        big = e2.run(off2, cl2, res2.inner_iterations, 1, st2)
        assert big.time_ps > small.time_ps


class TestSchedulerErrors:
    """configure() tolerates SRAM pressure (AllocationError: the access
    falls back to an uncombined buffer) and nothing else."""

    def test_allocation_error_falls_back_uncombined(self, monkeypatch):
        def full(self, ctx, cluster, access, capacity_elems=None):
            raise AllocationError("access-unit SRAM exhausted")

        monkeypatch.setattr(HardwareScheduler, "allocate", full)
        engine, off, clusters, res, streams, _ = saxpy_setup()
        stats = engine.run(off, clusters, res.inner_iterations, 1, streams)
        assert stats.time_ps > 0
        acc = off.config.partitions[0].accesses[0]
        assert engine.buffer_key(off, acc.access_id) == (
            10_000_000 + acc.access_id
        )

    def test_unexpected_error_propagates(self, monkeypatch):
        def broken(self, ctx, cluster, access, capacity_elems=None):
            raise TypeError("bug in the scheduler")

        monkeypatch.setattr(HardwareScheduler, "allocate", broken)
        engine, off, clusters, res, streams, _ = saxpy_setup()
        with pytest.raises(TypeError, match="bug in the scheduler"):
            engine.run(off, clusters, res.inner_iterations, 1, streams)


class TestSerialGroups:
    def test_saxpy_has_no_cycles(self):
        engine, off, clusters, res, streams, _ = saxpy_setup()
        from repro.runtime.engine import _RunContext
        from repro.events import Simulator

        ctx = _RunContext(
            engine=engine, offload=off, clusters=clusters,
            chunk_sizes=[1], site_streams=streams,
            sim=Simulator(), stats=None,
        )
        groups = ctx._serial_groups()
        assert all(len(g) == 1 for g in groups)
        assert sum(len(g) for g in groups) == off.config.num_partitions


def mono_ca_engine(machine):
    """An offload engine with a Mono-CA private cache (as sim/system.py
    builds it), on a fresh hierarchy and energy ledger."""
    energy = EnergyLedger()
    hierarchy = MemoryHierarchy(machine, energy)
    private = Cache(
        CacheParams(size_bytes=machine.mono_private_bytes, ways=4,
                    latency_cycles=1, mshrs=8,
                    line_bytes=machine.l3.line_bytes),
        name="mono_ca_private",
    )
    engine = OffloadEngine(machine, hierarchy, energy, SlabAllocator(),
                           None, private_cache=private)
    return engine, hierarchy, energy


class TestPrivateFetchMany:
    """Mono-CA chunk replay (`_private_fetch_many`) == per-access
    `_line_fetch`, on both sides of the batch-walk threshold."""

    CHUNK_LENGTHS = (1, 15, 16, 200)

    def chunks(self, seed):
        rng = np.random.default_rng(seed)
        base = 0x2000_0000
        out = []
        for n in self.CHUNK_LENGTHS * 3:
            # same-line repeats, a short sequential walk and random
            # lines over a footprint larger than the private cache
            lines = np.where(rng.random(n) < 0.5,
                             rng.integers(0, 256, n),
                             rng.integers(0, 8, n))
            lines = np.repeat(lines, rng.integers(1, 3, n))[:n]
            out.append(base + lines.astype(np.int64) * 64
                       + rng.integers(0, 64, n))
        return out

    @pytest.mark.parametrize("is_write", [False, True])
    def test_matches_per_access_line_fetch(self, is_write):
        machine = experiment_machine()
        assert _PRIVATE_BATCH_MIN in self.CHUNK_LENGTHS
        batch, bh, be = mono_ca_engine(machine)
        ref, rh, re_ = mono_ca_engine(machine)
        cluster = 2
        for chunk in self.chunks(seed=5 + is_write):
            lat = batch._private_fetch_many(cluster, chunk, is_write)
            ref_lat = sum(ref._line_fetch(cluster, addr, is_write)
                          for addr in chunk.tolist())
            assert lat == ref_lat
        assert be.by_event() == re_.by_event()
        assert bh.stats().as_dict() == rh.stats().as_dict()
        assert bh.movement_bytes == rh.movement_bytes
        assert bh.traffic.breakdown() == rh.traffic.breakdown()
        assert (bh.dram.reads, bh.dram.writes) == (rh.dram.reads,
                                                   rh.dram.writes)
        for a, b in zip(bh.l3.slices, rh.l3.slices):
            assert [list(s.items()) for s in a._sets] == [
                list(s.items()) for s in b._sets
            ]
        pa, pb = batch.private_cache, ref.private_cache
        assert (pa.accesses, pa.hits, pa.misses, pa.writebacks) == (
            pb.accesses, pb.hits, pb.misses, pb.writebacks
        )
        assert pa.misses > 0 and pa.hits > 0
        assert (pa.writebacks > 0) == is_write
        assert [list(s.items()) for s in pa._sets] == [
            list(s.items()) for s in pb._sets
        ]  # tags, dirty bits and LRU order
