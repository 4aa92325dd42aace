"""Discrete-event execution of a compiled offload (paper §V-B, Fig 3-5).

Each partition runs as a simulation process; stream accesses are served
by fill/drain FSM processes through bounded buffer channels (decoupling +
backpressure), indirect accesses go through the ACP/L3 path, and cross-
partition operands travel over the mesh as acc_data traffic. Iterations
are simulated in *chunks* (many iterations per event) — buffers are sized
in chunk tokens, so pipelining, decoupled run-ahead and backpressure all
emerge at chunk resolution while event counts stay tractable.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..accel.base import PartitionProfile
from ..compiler.pipeline import CompiledOffload
from ..energy import EnergyLedger
from ..envcfg import fast_path_enabled
from ..errors import AllocationError, InterfaceError
from ..events import Channel, Delay, Get, Put, Simulator, cycles_to_ps
from ..interface.config import AccessConfig, AccessKind, PartitionConfig
from ..interface.intrinsics import mmio_bytes
from ..interface.scheduler import HardwareScheduler
from ..ir.expr import Load
from ..mem.cache import Cache
from ..mem.hierarchy import MemoryHierarchy
from ..mem.slab import SlabAllocator
from ..noc import MessageKind
from ..obs import OBS
from ..params import MachineParams
from .streams import SiteStreams

#: target number of chunks an innermost loop is simulated in
TARGET_CHUNKS = 128
#: outstanding fills the stride FSM sustains (burst MLP)
FSM_OVERLAP = 4
#: host->accelerator launch/sync round trip, cycles at 2 GHz
HOST_SYNC_CYCLES = 40
#: memory clock domain for latency accounting
MEM_FREQ_GHZ = 2.0
#: Mono-CA chunks at least this long advance the private cache through
#: `Cache.access_batch` (one numpy run-detection pass, then only the
#: misses are visited); shorter chunks — most Mono-CA chunks hold a few
#: accesses — take the per-access loop, which has no numpy setup to
#: amortize
_PRIVATE_BATCH_MIN = 16


@dataclass
class EngineStats:
    """Timing and data-movement results of one offload execution."""

    time_ps: int = 0
    accel_iterations: int = 0
    #: Figure 9 components, in bytes
    intra_bytes: float = 0.0
    d_a_bytes: float = 0.0
    a_a_bytes: float = 0.0
    mmio_bytes: int = 0
    relaunches: int = 0

    def merged(self, other: "EngineStats") -> "EngineStats":
        return EngineStats(
            time_ps=self.time_ps + other.time_ps,
            accel_iterations=self.accel_iterations + other.accel_iterations,
            intra_bytes=self.intra_bytes + other.intra_bytes,
            d_a_bytes=self.d_a_bytes + other.d_a_bytes,
            a_a_bytes=self.a_a_bytes + other.a_a_bytes,
            mmio_bytes=self.mmio_bytes + other.mmio_bytes,
            relaunches=self.relaunches + other.relaunches,
        )


class OffloadEngine:
    """Executes compiled offloads on a machine model."""

    def __init__(self, machine: MachineParams, hierarchy: MemoryHierarchy,
                 energy: EnergyLedger, slab: SlabAllocator, backend,
                 scheduler: Optional[HardwareScheduler] = None,
                 private_cache: Optional[Cache] = None,
                 io_overlap: float = 1.0,
                 localized_control: bool = False,
                 user_scheduled: bool = False):
        self.machine = machine
        self.hierarchy = hierarchy
        self.energy = energy
        self.slab = slab
        self.backend = backend
        self.scheduler = scheduler or HardwareScheduler(
            machine.l3_clusters, machine.access_unit
        )
        #: Mono-CA's 8 KB private cache on the L3 bus (None otherwise)
        self.private_cache = private_cache
        #: outstanding indirect accesses an accelerator core sustains
        #: (1 = blocking in-order; >1 with SW prefetch or dataflow)
        self.io_overlap = max(io_overlap, 1.0)
        #: DA configurations re-place each access unit at the cluster of
        #: the data it is currently sweeping (paper §V-B: "for every
        #: outer loop iteration, the home node placement decision is
        #: repeated"); the centralized Mono-CA accelerator cannot move
        self.migrating = private_cache is None
        #: BN annotation: the orchestrators own nested-loop control, so
        #: data-dependent inner bounds need no per-invocation host sync
        self.localized_control = localized_control
        #: BNS annotation: user fill_ra/drain_ra block schedule pipelines
        #: across innermost-loop invocations
        self.user_scheduled = user_scheduled
        self._configured_offloads: set = set()
        self._offload_ctx: Dict[int, int] = {}
        self._ctx = 0
        #: batched replay enabled for this run (re-read per run() so tests
        #: can flip REPRO_FAST in-process)
        self._fast = fast_path_enabled()

    def buffer_key(self, offload: CompiledOffload, access_id: int) -> int:
        """Scheduler buffer id serving an access (combining-aware)."""
        ctx = self._offload_ctx.get(id(offload))
        if ctx is None:
            return access_id
        try:
            return self.scheduler.lookup(ctx, access_id).buf_id
        except InterfaceError:
            return 10_000_000 + access_id  # fell back to uncombined

    # ------------------------------------------------------------------
    # memory access paths
    # ------------------------------------------------------------------
    def _line_fetch(self, cluster: int, addr: int, is_write: bool) -> int:
        """One line between buffer and memory system; returns cycles."""
        if self.private_cache is None:
            return self.hierarchy.accel_line_fetch(cluster, addr, is_write)
        # Mono-CA: every line crosses the L3 bus into the private cache
        self.energy.charge("accel", "private_cache_access")
        out = self.private_cache.access(addr, is_write)
        latency = 1
        if out.evicted and out.evicted[1]:
            self.hierarchy.writeback_line_from(out.evicted[0], cluster)
        if not out.hit:
            latency += self.hierarchy.l3_demand(addr, from_node=cluster)
        return latency

    def _elem_access(self, cluster: int, addr: int, is_write: bool,
                     elem_bytes: int) -> int:
        """One element, in place at its home bank (cp_read/cp_write)."""
        if self.private_cache is None:
            return self.hierarchy.accel_elem_access(
                cluster, addr, is_write, elem_bytes
            )
        # centralized accelerator: no in-place access, pull the line
        return self._line_fetch(cluster, addr, is_write)

    def _private_fetch_many(self, cluster: int, addrs: np.ndarray,
                            is_write: bool) -> int:
        """Mono-CA chunk replay (REPRO_FAST=1), for fill/drain lines and
        indirect elements alike: the private cache advances per access in
        program order; the per-miss L3 accounting is pooled in an
        :class:`~repro.mem.hierarchy.L3DemandWindow`."""
        n = len(addrs)
        if n == 0:
            return 0
        self.energy.charge("accel", "private_cache_access", n)
        pc = self.private_cache
        writeback = self.hierarchy.writeback_line_from
        window = self.hierarchy.l3_demand_batch(cluster)
        total = n  # 1 cycle per private-cache lookup
        try:
            if n >= _PRIVATE_BATCH_MIN:
                # advance the private cache over the whole chunk first:
                # nothing downstream (L3 window, victim writebacks) ever
                # feeds back into it, so visiting only the misses
                # afterwards keeps every downstream transition in scalar
                # order
                hit, vline, vdirty = pc.access_batch(
                    addrs >> pc.line_shift,
                    np.full(n, is_write, dtype=bool),
                )
                for addr, vd, vl in zip(
                        addrs[~hit].tolist(),
                        vdirty[~hit].tolist(),
                        vline[~hit].tolist()):
                    if vd:
                        writeback(vl, cluster)
                    total += window.access(addr)
            else:
                access = pc.access
                for addr in addrs.tolist():
                    out = access(addr, is_write)
                    ev = out.evicted
                    if ev is not None and ev[1]:
                        writeback(ev[0], cluster)
                    if not out.hit:
                        total += window.access(addr)
        finally:
            window.flush()
        return total

    # ------------------------------------------------------------------
    # host configuration phase
    # ------------------------------------------------------------------
    def configure(self, offload: CompiledOffload,
                  clusters: Dict[int, int]) -> Tuple[int, int]:
        """Charge the MMIO configuration traffic; returns (ps, bytes)."""
        calls = offload.config.config_calls()
        total_bytes = mmio_bytes(calls)
        total_ps = 0
        traffic = self.hierarchy.traffic
        # distribute config messages to each partition's cluster
        per_part = max(1, len(calls) // max(len(clusters), 1))
        for part_idx, cluster in clusters.items():
            lat = traffic.record(
                MessageKind.MMIO_CONFIG, self.machine.noc.host_node, cluster,
                payload_bytes=per_part * 16,
            )
            total_ps += lat
        self.energy.charge("host_iface", "mmio_access", len(calls))
        self.energy.charge("scheduler", "sched_table_access",
                           sum(len(p.accesses)
                               for p in offload.config.partitions))
        # buffer allocation through the hardware scheduler
        ctx = self._ctx
        self._ctx += 1
        self._offload_ctx[id(offload)] = ctx
        for part in offload.config.partitions:
            cluster = clusters[part.partition_index]
            for acc in part.accesses:
                try:
                    self.scheduler.allocate(ctx, cluster, acc)
                except AllocationError:
                    pass  # SRAM pressure: access falls back to uncombined
        # substrate setup (microcode / CGRA configuration load)
        setup_cycles = max(
            (self.backend.setup_cycles(p)
             for p in offload.config.partitions), default=1
        )
        if hasattr(self.backend, "charge_setup"):
            for part in offload.config.partitions:
                self.backend.charge_setup(part, self.energy)
        total_ps += cycles_to_ps(setup_cycles, self.backend.freq_ghz)
        return total_ps, total_bytes

    # ------------------------------------------------------------------
    # main run
    # ------------------------------------------------------------------
    def run(self, offload: CompiledOffload, clusters: Dict[int, int],
            trips: int, invocations: int,
            site_streams: SiteStreams) -> EngineStats:
        """Execute one kernel call's worth of the offloaded loop."""
        self._fast = fast_path_enabled()
        stats = EngineStats()
        if trips <= 0:
            return stats
        key = id(offload)
        if key not in self._configured_offloads:
            config_ps, config_bytes = self.configure(offload, clusters)
            stats.time_ps += config_ps
            stats.mmio_bytes += config_bytes
            self._configured_offloads.add(key)

        chunk = max(1, trips // TARGET_CHUNKS)
        nchunks = math.ceil(trips / chunk)
        chunk_sizes = [
            min(chunk, trips - c * chunk) for c in range(nchunks)
        ]
        sim = Simulator()
        # a centralized accelerator (Mono-CA) funnels every fill/drain
        # through one L3-bus port; distributed access units each have
        # their own cluster port
        shared_port = (
            Channel(sim, capacity=1, name="l3bus")
            if self.private_cache is not None else None
        )
        if shared_port is not None:
            shared_port._items.append(object())  # the single port token
        run_ctx = _RunContext(
            engine=self, offload=offload, clusters=clusters,
            chunk_sizes=chunk_sizes, site_streams=site_streams,
            sim=sim, stats=stats, shared_port=shared_port,
        )
        # run-scoped deferred accounting: one DRAM pool and pooled
        # batch-tail ledger counts across the whole replay (exact: the
        # pooled charges/records are linear and the ledgers order-free)
        win = self.hierarchy.open_accounting()
        try:
            run_ctx.build()
            sim.run()
        finally:
            self.hierarchy.close_accounting(win)
        OBS.inc("engine.sim_events", sim.events_executed)
        OBS.observe_max("engine.sim_peak_pending", sim.peak_pending)
        for chans in (run_ctx.channels, run_ctx.fill_tokens,
                      run_ctx.drain_tokens):
            for ch in chans.values():
                OBS.observe_max("engine.chan_max_occupancy",
                                ch.max_occupancy)
        OBS.inc("engine.offload_runs")
        OBS.inc("engine.accel_iterations", trips)
        OBS.observe_max("engine.peak_chunks", nchunks)
        stats.time_ps += sim.now
        stats.accel_iterations += trips
        # per-invocation host relaunch overhead for data-dependent inner
        # bounds (the paper's spmv Dist-DA-B effect); affine bounds are
        # iterated by the partition orchestrators themselves
        if (self._bounds_data_dependent(offload) and invocations > 1
                and not self.localized_control):
            sync_ps = cycles_to_ps(HOST_SYNC_CYCLES, MEM_FREQ_GHZ)
            stats.time_ps += (invocations - 1) * sync_ps
            stats.relaunches += invocations - 1
            self.energy.charge("host_iface", "mmio_access",
                               2 * (invocations - 1))
        return stats

    @staticmethod
    def _bounds_data_dependent(offload: CompiledOffload) -> bool:
        for expr in (offload.loop.lower, offload.loop.upper):
            if any(isinstance(n, Load) for n in expr.walk()):
                return True
        return False


class _Plan(NamedTuple):
    """Replay plan of one chunked stream, built once per run.

    ``walk(entries[c], is_write)`` replays chunk ``c``'s memory accesses
    and returns their latency cycles; ``sizes[c]`` is the chunk's access
    count. Everything static was computed (and charged) when the plan
    was built.
    """

    entries: list
    walk: Callable[[object, bool], int]
    sizes: List[int]
    is_write: bool


@dataclass
class _RunContext:
    """Wires up all processes/channels of one offload execution."""

    engine: OffloadEngine
    offload: CompiledOffload
    clusters: Dict[int, int]
    chunk_sizes: List[int]
    site_streams: SiteStreams
    sim: Simulator
    stats: EngineStats
    shared_port: Optional[Channel] = None
    channels: Dict[int, Channel] = field(default_factory=dict)
    fill_tokens: Dict[int, Channel] = field(default_factory=dict)
    drain_tokens: Dict[int, Channel] = field(default_factory=dict)
    #: partition index -> unique read/write buffer keys (multi-access
    #: combining: one FSM serves every access sharing a buffer)
    read_bufs: Dict[int, List[int]] = field(default_factory=dict)
    write_bufs: Dict[int, List[int]] = field(default_factory=dict)

    def build(self) -> None:
        config = self.offload.config
        groups = self._serial_groups()
        for ch in config.channels:
            # channels inside a fused serial group are modeled by the
            # group's per-iteration round-trip latency, not as buffers
            if self._intra_group(ch, groups):
                continue
            cap = self._token_capacity(ch.payload_bytes)
            self.channels[ch.channel_id] = Channel(
                self.sim, capacity=cap, name=f"ch{ch.channel_id}"
            )
        for part in config.partitions:
            cluster = self.clusters[part.partition_index]
            idx = part.partition_index
            self.read_bufs[idx] = []
            self.write_bufs[idx] = []
            for buf_key, acc in self._grouped(
                self._buffered_reads(part)
            ):
                self.read_bufs[idx].append(buf_key)
                cap = self._token_capacity(acc.elem_bytes)
                tok = Channel(self.sim, capacity=cap,
                              name=f"fill{buf_key}")
                self.fill_tokens[buf_key] = tok
                self.sim.spawn(
                    f"fsm-fill-{buf_key}",
                    self._fill_proc(self._fill_plan(acc, cluster),
                                    self._is_invariant(acc), tok),
                )
            for buf_key, acc in self._grouped(
                self._buffered_writes(part)
            ):
                self.write_bufs[idx].append(buf_key)
                tok = Channel(self.sim, capacity=4,
                              name=f"drain{buf_key}")
                self.drain_tokens[buf_key] = tok
                self.sim.spawn(
                    f"fsm-drain-{buf_key}",
                    self._drain_proc(self._drain_plan(acc, cluster), tok),
                )
        for group in groups:
            if len(group) == 1:
                part = config.partition(group[0])
                self.sim.spawn(
                    f"part-{part.partition_index}",
                    self._partition_proc(
                        part, self.clusters[part.partition_index]
                    ),
                )
            else:
                self.sim.spawn(
                    f"group-{'-'.join(map(str, group))}",
                    self._fused_group_proc(group),
                )

    # -- serialization (partition-level channel cycles) ----------------------
    def _serial_groups(self) -> List[List[int]]:
        """Strongly connected components of the partition channel graph.

        A multi-partition SCC is a true per-iteration dependence cycle
        (e.g. pointer chasing through a remote object): its partitions
        execute serially, paying the operand round-trip every iteration.
        """
        config = self.offload.config
        n = config.num_partitions
        succ: Dict[int, List[int]] = {p: [] for p in range(n)}
        for ch in config.channels:
            succ[ch.producer_partition].append(ch.consumer_partition)
        index: Dict[int, int] = {}
        low: Dict[int, int] = {}
        on_stack: Dict[int, bool] = {}
        stack: List[int] = []
        out: List[List[int]] = []
        counter = [0]

        def strongconnect(v: int) -> None:
            index[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack[v] = True
            for w in succ[v]:
                if w not in index:
                    strongconnect(w)
                    low[v] = min(low[v], low[w])
                elif on_stack.get(w):
                    low[v] = min(low[v], index[w])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                out.append(sorted(comp))

        for v in range(n):
            if v not in index:
                strongconnect(v)
        return out

    def _intra_group(self, ch, groups: List[List[int]]) -> bool:
        for group in groups:
            if len(group) > 1 and (ch.producer_partition in group
                                   and ch.consumer_partition in group):
                return True
        return False

    # -- helpers -----------------------------------------------------------
    def _token_capacity(self, elem_bytes: int) -> int:
        buf_elems = (
            self.engine.machine.access_unit.buffer_bytes
            // 4 // max(elem_bytes, 1)
        )
        chunk = max(self.chunk_sizes[0], 1)
        return max(1, min(8, buf_elems // chunk))

    @staticmethod
    def _buffered_reads(part: PartitionConfig) -> List[AccessConfig]:
        return [
            a for a in part.accesses
            if a.kind is AccessKind.STREAM_READ and not a.is_write
        ]

    @staticmethod
    def _buffered_writes(part: PartitionConfig) -> List[AccessConfig]:
        return [
            a for a in part.accesses
            if a.kind is AccessKind.STREAM_WRITE and a.is_write
        ]

    def _grouped(self, accesses: List[AccessConfig]
                 ) -> List[Tuple[int, AccessConfig]]:
        """Group accesses by scheduler buffer; pick the representative
        access (longest element stream) that the one FSM will serve."""
        by_buf: Dict[int, List[AccessConfig]] = {}
        for acc in accesses:
            key = self.engine.buffer_key(self.offload, acc.access_id)
            by_buf.setdefault(key, []).append(acc)
        out = []
        for key, group in sorted(by_buf.items()):
            rep = max(
                group, key=lambda a: self.site_streams.length(a.site_ids)
            )
            out.append((key, rep))
        return out

    @staticmethod
    def _indirect(part: PartitionConfig) -> List[AccessConfig]:
        return [
            a for a in part.accesses
            if a.kind in (AccessKind.INDIRECT, AccessKind.RANDOM)
        ]

    def _elem_stream(self, acc: AccessConfig
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """The access's element stream and its chunk bounds (chunk ``c``
        is ``stream[bounds[c]:bounds[c+1]]``)."""
        stream = self.site_streams.for_sites(acc.site_ids)
        n = len(self.chunk_sizes)
        return stream, (stream.size * np.arange(n + 1)) // n

    def _line_stream(self, acc: AccessConfig
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Unique line addresses each chunk's elements touch (64 B
        lines), all chunks concatenated, with their chunk bounds.

        Streams are almost always monotone, so the per-chunk sorted
        dedup is one global adjacent-difference mask with a restart mark
        at each chunk start, one boolean index, and chunk bounds from
        its cumulative counts. Non-monotone streams keep the per-chunk
        reference dedup.
        """
        stream, bounds = self._elem_stream(acc)
        size = stream.size
        if size == 0:
            return stream, bounds  # every chunk is empty
        base = self.engine.slab.by_name(acc.obj).base
        eb = acc.elem_bytes
        lines = (base + stream * eb) >> 6
        if size == 1 or bool((lines[1:] >= lines[:-1]).all()):
            keep = np.empty(size, dtype=bool)
            keep[0] = True
            np.not_equal(lines[1:], lines[:-1], out=keep[1:])
            starts = bounds[:-1]
            keep[starts[starts < size]] = True  # dedup restarts per chunk
            kept = np.concatenate(([0], np.cumsum(keep)))
            return lines[keep] << 6, kept[bounds]
        parts = [self._chunk_lines_ref(stream[lo:hi], base, eb)
                 for lo, hi in zip(bounds[:-1].tolist(),
                                   bounds[1:].tolist())]
        sizes = [len(p) for p in parts]
        return (np.concatenate(parts).astype(np.int64),
                np.concatenate(([0], np.cumsum(sizes))))

    @staticmethod
    def _chunk_lines_ref(elems: np.ndarray, base: int,
                         eb: int) -> np.ndarray:
        """Reference per-chunk line dedup (non-monotone streams)."""
        if elems.size == 0:
            return elems
        if elems.size <= 16:
            lines = sorted({(base + e * eb) >> 6 for e in elems.tolist()})
            return np.array(lines, dtype=np.int64) << 6
        lines = (base + elems * eb) >> 6
        if (lines[1:] >= lines[:-1]).all():
            keep = np.empty(lines.size, dtype=bool)
            keep[0] = True
            keep[1:] = lines[1:] != lines[:-1]
            return lines[keep] << 6
        return np.unique(lines) << 6

    def _is_invariant(self, acc: AccessConfig) -> bool:
        return acc.stride_elems == 0 and acc.kind is AccessKind.STREAM_READ

    def _at(self, cluster: int, addrs: np.ndarray,
            bounds: np.ndarray) -> np.ndarray:
        """Cluster each chunk's access unit presents at: DA access units
        migrate to the home of the chunk's first address; the Mono-CA
        accelerator (and any empty chunk) stays at ``cluster``."""
        at = np.full(len(bounds) - 1, cluster, dtype=np.int64)
        if self.engine.migrating:
            starts = bounds[:-1]
            busy = starts < bounds[1:]
            at[busy] = self.engine.hierarchy.l3.home_clusters(
                addrs[starts[busy]]
            )
        return at

    def _plan(self, addrs: np.ndarray, bounds: np.ndarray, cluster: int,
              is_write: bool, elem_bytes: Optional[int] = None) -> _Plan:
        """Per-chunk replay plan of a line stream (``elem_bytes`` None:
        fill/drain line fetches) or of an indirect element stream.

        REPRO_FAST=1 plans the hierarchy's plan/walk pair (distributed
        access units) or the Mono-CA private-cache walk; REPRO_FAST=0
        keeps the per-access scalar reference loop.
        """
        engine = self.engine
        los = bounds[:-1].tolist()
        his = bounds[1:].tolist()
        sizes = [hi - lo for lo, hi in zip(los, his)]
        at = self._at(cluster, addrs, bounds)
        if not engine._fast:
            if elem_bytes is None:
                fetch = engine._line_fetch
            else:
                def fetch(unit: int, addr: int, write: bool) -> int:
                    return engine._elem_access(unit, addr, write,
                                               elem_bytes)

            def walk(entry, write: bool) -> int:
                unit, chunk = entry
                total = 0
                for addr in chunk:
                    total += fetch(unit, addr, write)
                return total

            addr_l = addrs.tolist()
            entries = [(a, addr_l[lo:hi])
                       for a, lo, hi in zip(at.tolist(), los, his)]
            return _Plan(entries, walk, sizes, is_write)
        if engine.private_cache is not None:
            return _Plan([addrs[lo:hi] for lo, hi in zip(los, his)],
                         functools.partial(engine._private_fetch_many,
                                           cluster),
                         sizes, is_write)
        hier = engine.hierarchy
        if elem_bytes is None:
            return _Plan(hier.accel_line_plan(at, addrs, bounds, is_write),
                         hier.accel_line_walk, sizes, is_write)
        return _Plan(hier.accel_elem_plan(at, addrs, bounds, is_write,
                                          elem_bytes),
                     hier.accel_elem_access_batch, sizes, is_write)

    def _fill_plan(self, acc: AccessConfig, cluster: int) -> _Plan:
        """Plan of a fill stream, its FSM/buffer accounting charged."""
        lines, bounds = self._line_stream(acc)
        invariant = self._is_invariant(acc)
        if invariant:
            # loop-invariant operand: chunk 0 fetches its first line once
            first = min(int(bounds[1]), 1)
            lines = lines[:first]
            bounds = np.minimum(bounds, first)
        plan = self._plan(lines, bounds, cluster, False)
        nlines = len(lines)
        if nlines:
            energy = self.engine.energy
            fsm = 1 if invariant else self.site_streams.length(acc.site_ids)
            energy.charge("access_unit", "fsm_step", fsm)
            energy.charge("access_unit", "buffer_access", nlines)
            energy.charge("access_unit", "translation_lookup",
                          sum(1 for n in plan.sizes if n))
            self.stats.d_a_bytes += nlines * 64
        return plan

    def _drain_plan(self, acc: AccessConfig, cluster: int) -> _Plan:
        """Plan of a drain stream, its FSM/buffer accounting charged."""
        lines, bounds = self._line_stream(acc)
        plan = self._plan(lines, bounds, cluster, True)
        nlines = len(lines)
        if nlines:
            energy = self.engine.energy
            energy.charge("access_unit", "fsm_step", nlines)
            energy.charge("access_unit", "buffer_access", nlines)
            self.stats.d_a_bytes += nlines * 64
        return plan

    def _indirect_plans(self, accesses: List[Tuple[AccessConfig, int]]
                        ) -> List[_Plan]:
        """Plans of indirect ``(access, cluster)`` pairs, their address
        translation accounting charged."""
        plans = []
        trans_n = d_a = 0
        for acc, cluster in accesses:
            stream, bounds = self._elem_stream(acc)
            eb = acc.elem_bytes
            addrs = self.engine.slab.by_name(acc.obj).base + stream * eb
            plans.append(self._plan(addrs, bounds, cluster, acc.is_write,
                                    eb))
            trans_n += stream.size
            d_a += stream.size * eb
        if trans_n:
            self.engine.energy.charge("access_unit", "translation_lookup",
                                      trans_n)
            self.stats.d_a_bytes += d_a
        return plans

    # -- processes -----------------------------------------------------------
    def _fill_proc(self, plan: _Plan, invariant: bool, tok: Channel):
        entries, walk, nlines, is_write = plan
        port = self.shared_port
        if port is not None:
            get_port = Get(port)
            put_port = Put(port, True)
        for c in range(len(self.chunk_sizes)):
            if invariant and c > 0:
                yield Put(tok, c)
                continue
            if port is not None:
                yield get_port
            lat_cycles = walk(entries[c], is_write)
            yield Delay(cycles_to_ps(
                lat_cycles / FSM_OVERLAP + nlines[c], MEM_FREQ_GHZ
            ))
            if port is not None:
                yield put_port
            yield Put(tok, c)

    def _drain_proc(self, plan: _Plan, tok: Channel):
        entries, walk, nlines, is_write = plan
        port = self.shared_port
        if port is not None:
            get_port = Get(port)
            put_port = Put(port, True)
        get_tok = Get(tok)
        for _ in self.chunk_sizes:
            c = yield get_tok
            if port is not None:
                yield get_port
            lat_cycles = walk(entries[c], is_write)
            yield Delay(cycles_to_ps(
                lat_cycles / FSM_OVERLAP + nlines[c], MEM_FREQ_GHZ
            ))
            if port is not None:
                yield put_port

    def _operand_counts(self, channels: List[Tuple[int, int, int]]
                        ) -> Tuple[Dict[Tuple[int, int, int], int], int]:
        """Per-(src, dst, payload) operand message counts over the run
        for channels ``(src, dst, payload_bytes per iteration)``: one
        message per chunk, sized by the chunk's iterations. Returns the
        counts and their total bytes."""
        recs: Dict[Tuple[int, int, int], int] = {}
        total = 0
        for iters, n in Counter(self.chunk_sizes).items():
            for src, dst, payload_bytes in channels:
                payload = payload_bytes * iters
                key = (src, dst, payload)
                recs[key] = recs.get(key, 0) + n
                total += payload * n
        return recs, total

    def _partition_proc(self, part: PartitionConfig, cluster: int):
        engine = self.engine
        energy = engine.energy
        config = self.offload.config
        profile = PartitionProfile.from_config(part)
        timing = engine.backend.timing(profile)
        ii_ps = timing.ii_ps  # property: hoisted out of the chunk loop
        traffic = engine.hierarchy.traffic
        ind_plans = self._indirect_plans(
            [(acc, cluster) for acc in self._indirect(part)]
        )
        consume_gets = [Get(self.channels[ch_id])
                        for ch_id in part.consumes]
        read_gets = [Get(self.fill_tokens[b])
                     for b in self.read_bufs[part.partition_index]]
        write_toks = [self.drain_tokens[b]
                      for b in self.write_bufs[part.partition_index]]
        produced = [
            (cluster, self.clusters[config.channel(ch_id).consumer_partition],
             config.channel(ch_id).payload_bytes)
            for ch_id in part.produces
        ]
        # pipeline fill latency of each produced channel, paid once
        produce_chs = [
            (self.channels[ch_id],
             traffic.latency_of(src, dst, payload * self.chunk_sizes[0]))
            for ch_id, (src, dst, payload) in zip(part.produces, produced)
        ]
        overlap = 1.0 if self.offload.serial_chain else engine.io_overlap
        # static accounting, charged once for the whole run
        total_iters = sum(self.chunk_sizes)
        engine.backend.charge_iteration(profile, energy, count=total_iters)
        # operand reads/writes: access-unit SRAM buffers, or the
        # centralized private cache in Mono-CA
        operand_event = (
            "private_cache_access" if engine.private_cache is not None
            else "buffer_access"
        )
        intra_per_iter = profile.buffer_reads + profile.buffer_writes
        energy.charge("access_unit", operand_event,
                      intra_per_iter * total_iters)
        self.stats.intra_bytes += intra_per_iter * total_iters * 4
        operand_recs, a_a = self._operand_counts(produced)
        self.stats.a_a_bytes += a_a
        for (src, dst, payload), count in operand_recs.items():
            traffic.record(MessageKind.ACC_OPERAND, src, dst, payload,
                           count=count)
            # every operand message is matched by a zero-payload credit
            traffic.record(MessageKind.ACC_CREDIT, dst, src, 0,
                           count=count)
        for c, iters in enumerate(self.chunk_sizes):
            for get in consume_gets:
                yield get
            for get in read_gets:
                yield get
            ind_cycles = 0
            for entries, walk, _, is_write in ind_plans:
                ind_cycles += walk(entries[c], is_write)
            # a loop-carried address chain (pointer chasing) serializes
            # indirect accesses on every substrate (overlap hoisted)
            yield Delay(ii_ps * iters
                        + cycles_to_ps(ind_cycles / overlap, MEM_FREQ_GHZ))
            for ch, lat_ps in produce_chs:
                if c == 0 and lat_ps:
                    yield Delay(lat_ps)  # pipeline fill latency, once
                yield Put(ch, c)
            for tok in write_toks:
                yield Put(tok, c)

    def _fused_group_proc(self, group: List[int]):
        """Serially executes a dependence cycle of partitions.

        Each iteration pays every member partition's issue time plus the
        NoC round trip of every intra-group operand channel — the physics
        of pointer chasing across distributed access units.
        """
        engine = self.engine
        energy = engine.energy
        config = self.offload.config
        mesh = engine.hierarchy.mesh
        traffic = engine.hierarchy.traffic
        members = [config.partition(p) for p in group]
        profiles = {p.partition_index: PartitionProfile.from_config(p)
                    for p in members}
        per_iter_ps = sum(
            engine.backend.timing(profiles[p.partition_index]).ii_ps
            for p in members
        )
        intra_channels = [
            ch for ch in config.channels
            if ch.producer_partition in group
            and ch.consumer_partition in group
        ]
        hop_ps = sum(
            mesh.latency_ps(
                self.clusters[ch.producer_partition],
                self.clusters[ch.consumer_partition],
                ch.payload_bytes, MEM_FREQ_GHZ,
            )
            for ch in intra_channels
        )
        group_set = set(group)
        consume_gets = [
            Get(self.channels[ch.channel_id]) for ch in config.channels
            if ch.consumer_partition in group_set
            and ch.producer_partition not in group_set
        ]
        external_produces = [
            ch for ch in config.channels
            if ch.producer_partition in group_set
            and ch.consumer_partition not in group_set
        ]
        produce_chs = [self.channels[ch.channel_id]
                       for ch in external_produces]
        read_gets = [Get(self.fill_tokens[buf_key]) for part in members
                     for buf_key in self.read_bufs[part.partition_index]]
        write_toks = [self.drain_tokens[buf_key] for part in members
                      for buf_key in self.write_bufs[part.partition_index]]
        ind_plans = self._indirect_plans([
            (acc, self.clusters[part.partition_index])
            for part in members for acc in self._indirect(part)
        ])
        # static accounting, charged once for the whole run
        total_iters = sum(self.chunk_sizes)
        for part in members:
            profile = profiles[part.partition_index]
            engine.backend.charge_iteration(profile, energy,
                                            count=total_iters)
            intra = profile.buffer_reads + profile.buffer_writes
            energy.charge("access_unit", "buffer_access",
                          intra * total_iters)
            self.stats.intra_bytes += intra * total_iters * 4
        operand_recs, a_a = self._operand_counts([
            (self.clusters[ch.producer_partition],
             self.clusters[ch.consumer_partition], ch.payload_bytes)
            for ch in intra_channels + external_produces
        ])
        self.stats.a_a_bytes += a_a
        for (src, dst, payload), count in operand_recs.items():
            traffic.record(MessageKind.ACC_OPERAND, src, dst, payload,
                           count=count)
        for c, iters in enumerate(self.chunk_sizes):
            for get in consume_gets:
                yield get
            for get in read_gets:
                yield get
            ind_cycles = 0
            for entries, walk, _, is_write in ind_plans:
                ind_cycles += walk(entries[c], is_write)
            # dependence cycle: no overlap across iterations
            yield Delay(
                iters * (per_iter_ps + hop_ps)
                + cycles_to_ps(ind_cycles, MEM_FREQ_GHZ)
            )
            for ch in produce_chs:
                yield Put(ch, c)
            for tok in write_toks:
                yield Put(tok, c)
