"""Property tests: batched memory-system entry points == scalar reference.

Two hierarchies built from the same machine parameters replay the same
randomized access stream, one through the ``*_batch`` fast paths (or an
accelerator stream's plan + walk) and one access at a time; every
observable counter must come out identical — summed latencies,
per-event energy, cache statistics, NoC traffic, DRAM counters and data
movement. This is the micro-level guarantee behind the
whole-run gate in ``tests/sim/test_fastpath_equiv.py``.
"""

import numpy as np
import pytest

from repro.energy import EnergyLedger
from repro.errors import SimulationError
from repro.mem import MemoryHierarchy
from repro.params import base_machine, default_machine

#: host-path machines: Table III's L1 has 64 sets, the experiment
#: machine's (16x smaller) L1 has 4
HOST_MACHINES = ("table3", "experiment")


def make_hierarchy(machine=None):
    energy = EnergyLedger()
    return MemoryHierarchy(machine or default_machine(), energy), energy


def host_stream(seed: int, n: int = 3000):
    """Addresses with sequential runs, same-line repeats, strided walks
    and random pointers — exercising run collapsing, the prefetcher and
    conflict evictions."""
    rng = np.random.default_rng(seed)
    base = 0x1000_0000
    parts = [
        base + np.arange(n // 4, dtype=np.int64) * 8,          # sequential
        base + np.repeat(np.arange(n // 16, dtype=np.int64) * 64, 4),
        base + np.arange(n // 4, dtype=np.int64) * 4096,       # strided
        base + rng.integers(0, 1 << 22, n // 4).astype(np.int64) & ~7,
    ]
    addrs = np.concatenate(parts)[:n]
    is_write = rng.random(len(addrs)) < 0.3
    stream_ids = rng.integers(0, 4, len(addrs)).astype(np.int64)
    return addrs, is_write, stream_ids


def assert_same_state(fast, fast_energy, ref, ref_energy):
    assert fast_energy.by_event() == ref_energy.by_event()
    assert fast_energy.total_pj() == ref_energy.total_pj()
    assert fast.stats().as_dict() == ref.stats().as_dict()
    assert fast.movement_bytes == ref.movement_bytes
    assert fast.dram.reads == ref.dram.reads
    assert fast.dram.writes == ref.dram.writes
    assert fast.traffic.breakdown() == ref.traffic.breakdown()
    assert fast.traffic.total_byte_hops() == ref.traffic.total_byte_hops()
    for a, b in ((fast.l1, ref.l1), (fast.l2, ref.l2)):
        assert (a.accesses, a.hits, a.misses, a.writebacks,
                a.prefetch_fills) == (b.accesses, b.hits, b.misses,
                                      b.writebacks, b.prefetch_fills)
    assert sorted(fast.l1.resident_lines()) == sorted(ref.l1.resident_lines())
    assert sorted(fast.l2.resident_lines()) == sorted(ref.l2.resident_lines())


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("machine", HOST_MACHINES)
def test_host_access_batch_matches_scalar(machine, seed):
    addrs, is_write, stream_ids = host_stream(seed)
    fast, fast_energy = make_hierarchy(base_machine(machine))
    ref, ref_energy = make_hierarchy(base_machine(machine))

    batch_stall = fast.host_access_batch(addrs, is_write, stream_ids)

    l1_lat = ref.machine.l1.latency_cycles
    scalar_stall = 0
    for addr, w, sid in zip(addrs.tolist(), is_write.tolist(),
                            stream_ids.tolist()):
        lat = ref.host_access(addr, w, stream_id=sid)
        if lat > l1_lat:
            scalar_stall += lat - l1_lat

    assert batch_stall == scalar_stall
    assert_same_state(fast, fast_energy, ref, ref_energy)


@pytest.mark.parametrize("machine", HOST_MACHINES)
def test_host_access_batch_chunking_invariant(machine):
    """Splitting one stream across many batch calls changes nothing."""
    addrs, is_write, stream_ids = host_stream(7)
    whole, whole_energy = make_hierarchy(base_machine(machine))
    split, split_energy = make_hierarchy(base_machine(machine))

    total_whole = whole.host_access_batch(addrs, is_write, stream_ids)
    total_split = 0
    for lo in range(0, len(addrs), 257):  # odd chunk to cut runs mid-way
        hi = lo + 257
        total_split += split.host_access_batch(
            addrs[lo:hi], is_write[lo:hi], stream_ids[lo:hi]
        )
    assert total_whole == total_split
    assert_same_state(whole, whole_energy, split, split_energy)


def assert_same_accel_state(fast, fast_energy, ref, ref_energy):
    assert fast_energy.by_event() == ref_energy.by_event()
    assert fast.stats().as_dict() == ref.stats().as_dict()
    assert fast.movement_bytes == ref.movement_bytes
    assert fast.traffic.breakdown() == ref.traffic.breakdown()
    assert fast.traffic.total_byte_hops() == ref.traffic.total_byte_hops()
    assert fast.dram.reads == ref.dram.reads
    assert fast.dram.writes == ref.dram.writes
    for a, b in zip(fast.l3.slices + fast.acps, ref.l3.slices + ref.acps):
        assert [list(s.items()) for s in a._sets] == [
            list(s.items()) for s in b._sets
        ]  # tags, dirty bits and LRU order


def chunked(chunks):
    """Concatenated addresses + chunk bounds of a list of chunks."""
    sizes = [len(c) for c in chunks]
    return (np.concatenate(chunks).astype(np.int64),
            np.concatenate(([0], np.cumsum(sizes))).astype(np.int64))


def line_chunks(h, seed):
    """Line-address chunks: one stripe, across a stripe boundary, empty,
    random lines over many homes, and a revisit (hits)."""
    rng = np.random.default_rng(seed)
    stripe = h.l3.stripe_bytes
    base = 0x1000_0000
    one_stripe = base + np.arange(40, dtype=np.int64) * 64
    return [
        one_stripe,
        base + stripe - 20 * 64 + np.arange(40, dtype=np.int64) * 64,
        np.empty(0, dtype=np.int64),
        base + rng.integers(0, 1 << 20, 1500).astype(np.int64) * 64,
        np.empty(0, dtype=np.int64),
        one_stripe,
    ]


def replay_planned(h, plan_fn, walk_fn, at, chunks, is_write, *extra):
    """Plan a chunked stream and walk every chunk inside one accounting
    window, as an offload run does; returns per-chunk latencies."""
    addrs, bounds = chunked(chunks)
    win = h.open_accounting()
    try:
        plan = plan_fn(at, addrs, bounds, is_write, *extra)
        lats = [walk_fn(entry, is_write) for entry in plan]
    finally:
        h.close_accounting(win)
    return lats


@pytest.mark.parametrize("is_write", [False, True])
def test_accel_line_plan_walk_matches_scalar(is_write):
    fast, fast_energy = make_hierarchy()
    ref, ref_energy = make_hierarchy()
    chunks = line_chunks(fast, 11)
    ncl = fast.l3.num_clusters
    at = np.array([2, 5, 1, 0, 3, ncl - 1], dtype=np.int64)
    # the crossing chunk really spans two home slices
    assert len(set(fast.l3.home_clusters(chunks[1]).tolist())) == 2

    lats = replay_planned(fast, fast.accel_line_plan, fast.accel_line_walk,
                          at, chunks, is_write)
    ref_lats = [
        sum(ref.accel_line_fetch(a, addr, is_write)
            for addr in chunk.tolist())
        for a, chunk in zip(at.tolist(), chunks)
    ]
    assert lats == ref_lats
    assert_same_accel_state(fast, fast_energy, ref, ref_energy)


def test_accel_line_plan_invariant_first_line_only():
    """A loop-invariant fill fetches chunk 0's first line and nothing
    else: one one-line chunk followed by empty chunks."""
    fast, fast_energy = make_hierarchy()
    ref, ref_energy = make_hierarchy()
    first = np.array([0x1000_0040], dtype=np.int64)
    chunks = [first] + [np.empty(0, dtype=np.int64)] * 7
    at = np.full(8, 3, dtype=np.int64)

    lats = replay_planned(fast, fast.accel_line_plan, fast.accel_line_walk,
                          at, chunks, False)
    assert lats[1:] == [0] * 7
    assert lats[0] == ref.accel_line_fetch(3, int(first[0]), False)
    assert_same_accel_state(fast, fast_energy, ref, ref_energy)


def test_accel_line_walk_needs_accounting_window():
    h, _ = make_hierarchy()
    addrs, bounds = chunked([np.array([0x1000_0000], dtype=np.int64)])
    plan = h.accel_line_plan(np.zeros(1, dtype=np.int64), addrs, bounds,
                             False)
    with pytest.raises(SimulationError):
        h.accel_line_walk(plan[0], False)


@pytest.mark.parametrize("elem_bytes,is_write",
                         [(4, False), (4, True), (8, False)])
def test_accel_elem_access_batch_matches_scalar(elem_bytes, is_write):
    rng = np.random.default_rng(13)
    fast, fast_energy = make_hierarchy()
    ref, ref_energy = make_hierarchy()
    stripe = fast.l3.stripe_bytes
    base = np.int64(0x2000_0000)
    chunks = [
        base + rng.integers(0, 1 << 18, 2000).astype(np.int64) * elem_bytes,
        np.empty(0, dtype=np.int64),
        # same-line runs (collapsed) running across a stripe boundary
        base + stripe - 256 + np.repeat(
            np.arange(64, dtype=np.int64), 3) * elem_bytes,
        base + np.arange(300, dtype=np.int64) * elem_bytes,
    ]
    at = np.array([1, 4, 0, 6], dtype=np.int64)

    lats = replay_planned(fast, fast.accel_elem_plan,
                          fast.accel_elem_access_batch, at, chunks,
                          is_write, elem_bytes)
    ref_lats = [
        sum(ref.accel_elem_access(a, addr, is_write, elem_bytes)
            for addr in chunk.tolist())
        for a, chunk in zip(at.tolist(), chunks)
    ]
    assert lats == ref_lats
    assert_same_accel_state(fast, fast_energy, ref, ref_energy)


def test_l3_demand_window_matches_scalar():
    rng = np.random.default_rng(17)
    addrs = (np.int64(0x3000_0000)
             + rng.integers(0, 1 << 19, 1200).astype(np.int64) * 64)
    fast, fast_energy = make_hierarchy()
    ref, ref_energy = make_hierarchy()

    window = fast.l3_demand_batch(from_node=3)
    batch_lat = 0
    try:
        for addr in addrs.tolist():
            batch_lat += window.access(addr)
    finally:
        window.flush()
    scalar_lat = sum(
        ref.l3_demand(addr, from_node=3)
        for addr in addrs.tolist()
    )
    assert batch_lat == scalar_lat
    assert fast_energy.by_event() == ref_energy.by_event()
    assert fast.stats().as_dict() == ref.stats().as_dict()
    assert fast.movement_bytes == ref.movement_bytes
    assert fast.traffic.breakdown() == ref.traffic.breakdown()
    assert fast.dram.reads == ref.dram.reads


def test_late_prefetch_map_is_bounded():
    """The late-prefetch residual map FIFO-evicts at its cap instead of
    growing with the footprint of a streaming workload."""
    h, _ = make_hierarchy()
    cap = h.LATE_PREFETCH_CAP
    for i in range(3 * cap):
        h._note_late_prefetch(i, residual=5)
        assert len(h._late_prefetch) <= cap
    assert len(h._late_prefetch) == cap
    # oldest entries were evicted, newest survive
    assert 0 not in h._late_prefetch
    assert (3 * cap - 1) in h._late_prefetch
    # re-noting a resident line must not evict anything
    h._note_late_prefetch(3 * cap - 1, residual=9)
    assert len(h._late_prefetch) == cap
