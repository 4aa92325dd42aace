"""Assembled memory hierarchy with host and accelerator access paths.

Two access paths exist, mirroring the paper's architecture (Figure 2a):

* **Host path** — L1 -> L2 (stride prefetcher) -> home L3 slice over the
  mesh -> DRAM. Used by the OoO baseline and by non-offloaded code.
* **Accelerator path** — per-cluster ACP (1-way 1 KB) -> home L3 slice
  (local, or remote over the mesh) -> DRAM. Used by access units; data
  never climbs into L1/L2, which is where decentralized accesses save
  their traffic (Figure 8).

The hierarchy charges all energies, NoC traffic (Figure 10 classes) and
keeps the byte-movement ledger behind the Figure 9 / data-movement
results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..energy import EnergyLedger
from ..errors import SimulationError
from ..events import ps_to_cycles
from ..noc import Mesh, MessageKind, TrafficLedger
from ..obs import OBS
from ..params import CacheParams, MachineParams
from .cache import Cache
from .dram import Dram
from .nuca import NucaL3
from .prefetch import StridePrefetcher


@dataclass
class AccessStats:
    """Per-level access counters (Figure 8's cache-access metric)."""

    l1: int = 0
    l2: int = 0
    l3: int = 0
    acp: int = 0
    dram: int = 0
    prefetches: int = 0

    def total_cache_accesses(self) -> int:
        return self.l1 + self.l2 + self.l3 + self.acp

    def as_dict(self) -> Dict[str, int]:
        return {
            "l1": self.l1, "l2": self.l2, "l3": self.l3,
            "acp": self.acp, "dram": self.dram,
            "prefetches": self.prefetches,
        }


class MemoryHierarchy:
    """The full Table III memory system."""

    def __init__(self, machine: MachineParams, energy: EnergyLedger,
                 traffic: Optional[TrafficLedger] = None):
        self.machine = machine
        self.energy = energy
        self.mesh = Mesh(machine.noc)
        self.traffic = traffic or TrafficLedger(self.mesh, energy)
        self.l1 = Cache(machine.l1, name="l1d")
        self.l2 = Cache(machine.l2, name="l2")
        self.l3 = NucaL3(machine)
        self.dram = Dram(machine.dram, energy)
        self.prefetcher: Optional[StridePrefetcher] = (
            StridePrefetcher(line_bytes=machine.l1.line_bytes)
            if machine.l2_stride_prefetcher else None
        )
        acp_params = CacheParams(
            size_bytes=machine.access_unit.acp_bytes,
            ways=machine.access_unit.acp_ways,
            latency_cycles=1,
            mshrs=4,
            line_bytes=machine.l3.line_bytes,
        )
        self.acps: List[Cache] = [
            Cache(acp_params, name=f"acp{i}")
            for i in range(machine.l3_clusters)
        ]
        #: total bytes moved between hierarchy levels (fills + writebacks)
        self.movement_bytes = 0
        self._line = machine.l3.line_bytes
        #: host tile / memory-controller mesh attachment points
        self._host = machine.noc.host_node
        self._mc = machine.noc.mc_node
        self._stats_prefetches = 0
        #: line -> residual latency a late prefetch exposes to the first
        #: demand hit (prefetch timeliness model). Bounded: entries for
        #: prefetched lines evicted before any demand hit are never
        #: popped, so without a cap the map grows for the whole run.
        self._late_prefetch: Dict[int, int] = {}
        #: deferred DRAM fill/writeback accounting, open only while a
        #: batch replay method is on the stack (None on the scalar path)
        self._dram_pool: Optional[_DramPool] = None
        #: run-scoped pooled batch-tail accounting (energy charge counts
        #: and traffic record counts by key); None outside a window
        self._acct_energy: Optional[Dict[Tuple[str, str], int]] = None
        self._acct_traffic: Optional[Dict[Tuple, int]] = None

    # ------------------------------------------------------------------
    # host path
    # ------------------------------------------------------------------
    def host_access(self, addr: int, is_write: bool,
                    stream_id: Optional[int] = None) -> int:
        """Demand access from the core; returns total latency in cycles."""
        m = self.machine
        self.energy.charge("l1", "l1_access")
        latency = m.l1.latency_cycles
        out1 = self.l1.access(addr, is_write)
        if out1.evicted and out1.evicted[1]:
            self._writeback_into_l2(out1.evicted[0])
        if out1.hit:
            return latency

        # L1 miss -> L2
        self.energy.charge("l2", "l2_access")
        latency += m.l2.latency_cycles
        out2 = self.l2.access(addr, is_write=False)
        self.movement_bytes += self._line  # L2 -> L1 fill
        if out2.evicted and out2.evicted[1]:
            self._writeback_into_l3(out2.evicted[0])
        if self.prefetcher is not None and stream_id is not None:
            self._run_prefetcher(stream_id, addr)
        if out2.hit:
            # a prefetched line may still be in flight: the prefetcher
            # runs only `degree` lines ahead, so DRAM-sourced fills are
            # partially exposed to the first demand hit
            residual = self._late_prefetch.pop(self.l2.line_of(addr), 0)
            return latency + residual

        # L2 miss -> home L3 slice over the mesh
        latency += self._l3_demand(addr, from_node=self._host,
                                   kind_fill=MessageKind.CACHE_FILL)
        self.movement_bytes += self._line  # L3 -> L2 fill
        return latency

    #: fraction of a prefetch fill's latency the first demand hit still
    #: waits for (the prefetcher runs only a couple of lines ahead)
    PREFETCH_LATE_FRACTION = 0.5

    #: most late-prefetch residuals tracked at once; a prefetch this many
    #: prefetches old has either been demanded (popped) or evicted from
    #: L2, so dropping its residual FIFO-style loses nothing meaningful
    LATE_PREFETCH_CAP = 8192

    def _note_late_prefetch(self, line: int, residual: int) -> None:
        late = self._late_prefetch
        if line not in late and len(late) >= self.LATE_PREFETCH_CAP:
            late.pop(next(iter(late)))  # oldest surviving entry
        late[line] = residual

    def _run_prefetcher(self, stream_id: int, addr: int) -> None:
        for pf_addr in self.prefetcher.observe(stream_id, addr):
            if self.l2.probe(pf_addr):
                continue
            # fetch from L3/DRAM into L2
            fill_latency = self._l3_demand(
                pf_addr, from_node=self._host,
                kind_fill=MessageKind.CACHE_FILL,
            )
            evicted = self.l2.fill(pf_addr, is_prefetch=True)
            self.movement_bytes += self._line
            if evicted and evicted[1]:
                self._writeback_into_l3(evicted[0])
            self._note_late_prefetch(self.l2.line_of(pf_addr), int(
                fill_latency * self.PREFETCH_LATE_FRACTION
            ))
            self._stats_prefetches += 1

    def _l3_demand(self, addr: int, from_node: int,
                   kind_fill: MessageKind) -> int:
        """Access the home L3 slice from ``from_node``; fills from DRAM on
        miss. Returns latency cycles including mesh traversal."""
        m = self.machine
        cluster = self.l3.home_cluster(addr)
        self.energy.charge("l3", "l3_access")
        lat_req = self.traffic.record(
            MessageKind.CACHE_REQ, from_node, cluster, 0
        )
        lat_fill = self.traffic.record(
            kind_fill, cluster, from_node, self._line
        )
        latency = m.l3.latency_cycles
        latency += _ps_to_cycles_int(lat_req + lat_fill, m.core.freq_ghz)
        out3 = self.l3.access(addr, is_write=False)
        if out3.evicted and out3.evicted[1]:
            self._writeback_to_dram(cluster)
        if not out3.hit:
            latency += self._dram_fill(cluster)
        return latency

    def _dram_fill(self, cluster: int, count: int = 1) -> int:
        """``count`` line fills from DRAM into ``cluster``'s slice;
        returns their summed latency cycles. Pooled while a batch or
        accounting window is open; unpooled calls make one fill (the
        scalar path never passes ``count``)."""
        pool = self._dram_pool
        if pool is not None:
            pool.fills[cluster] = pool.fills.get(cluster, 0) + count
            lat = pool.fill_lat.get(cluster)
            if lat is None:
                lat = pool.fill_lat[cluster] = (
                    self.dram.params.latency_cycles + _ps_to_cycles_int(
                        self.traffic.latency_of(cluster, self._mc, 0)
                        + self.traffic.latency_of(
                            self._mc, cluster, self._line),
                        self.machine.core.freq_ghz,
                    )
                )
            return count * lat
        lat_req = self.traffic.record(
            MessageKind.CACHE_REQ, cluster, self._mc, 0
        )
        lat_fill = self.traffic.record(
            MessageKind.CACHE_FILL, self._mc, cluster, self._line
        )
        self.movement_bytes += self._line
        cycles = self.dram.access(is_write=False)
        return cycles + _ps_to_cycles_int(
            lat_req + lat_fill, self.machine.core.freq_ghz
        )

    def open_accounting(self):
        """Open a run-scoped deferred-accounting window: one DRAM pool
        plus pooled batch-tail energy/traffic counts shared by every
        batch replay call until :meth:`close_accounting`.

        Energy charges and ``count=``-style traffic records are linear in
        their count and the ledgers are order-free (sorted summaries), so
        merging them per key across a whole offload run is bit-identical
        to flushing per batch call. Nothing may read the ledgers while a
        window is open.
        """
        pool = self._open_dram_pool()
        owned = self._acct_energy is None
        if owned:
            self._acct_energy = {}
            self._acct_traffic = {}
        return (pool, owned)

    def close_accounting(self, win) -> None:
        """Flush a window opened by :meth:`open_accounting`."""
        pool, owned = win
        if pool is not None:
            self._flush_dram_pool(pool)
        if owned:
            en = self._acct_energy
            tr = self._acct_traffic
            self._acct_energy = None
            self._acct_traffic = None
            charge = self.energy.charge
            for (unit, event), n in en.items():
                charge(unit, event, n)
            record = self.traffic.record
            for (kind, src, dst, payload), c in tr.items():
                record(kind, src, dst, payload, count=c)

    def _charge(self, unit: str, event: str, n: int) -> None:
        """Energy charge, pooled while an accounting window is open."""
        acct = self._acct_energy
        if acct is None:
            self.energy.charge(unit, event, n)
        else:
            key = (unit, event)
            acct[key] = acct.get(key, 0) + n

    def _record(self, kind: MessageKind, src: int, dst: int, payload: int,
                count: int) -> None:
        """Traffic record (return value unused), pooled while an
        accounting window is open."""
        acct = self._acct_traffic
        if acct is None:
            self.traffic.record(kind, src, dst, payload, count=count)
        else:
            key = (kind, src, dst, payload)
            acct[key] = acct.get(key, 0) + count

    def _open_dram_pool(self) -> Optional["_DramPool"]:
        """Start deferring DRAM fill/writeback accounting; returns the
        pool to pass to :meth:`_flush_dram_pool`, or None when an
        enclosing batch already owns one."""
        if self._dram_pool is not None:
            return None
        pool = self._dram_pool = _DramPool()
        return pool

    def _flush_dram_pool(self, pool: "_DramPool") -> None:
        """Charge the pooled DRAM traffic/energy/movement (commutative
        integer counts — bit-identical to the per-fill scalar charges)."""
        self._dram_pool = None
        if not (pool.fills or pool.wbs or pool.l2_wbs or pool.l3_wbs):
            return  # every access hit: nothing pooled (the common case)
        traffic = self.traffic
        line = self._line
        total = 0
        for cluster, count in pool.fills.items():
            total += count
            traffic.record(MessageKind.CACHE_REQ, cluster, self._mc, 0,
                           count=count)
            traffic.record(MessageKind.CACHE_FILL, self._mc, cluster,
                           line, count=count)
        if total:
            self.dram.reads += total
            self.energy.charge("dram", "dram_line_access", total)
            self.movement_bytes += total * line
        total = 0
        for cluster, count in pool.wbs.items():
            total += count
            traffic.record(MessageKind.CACHE_WRITEBACK, cluster, self._mc,
                           line, count=count)
        if total:
            self.dram.writes += total
            self.energy.charge("dram", "dram_line_access", total)
            self.movement_bytes += total * line
        if pool.l2_wbs:
            self.energy.charge("l2", "l2_access", pool.l2_wbs)
            self.movement_bytes += pool.l2_wbs * line
        total = 0
        for cluster, count in pool.l3_wbs.items():
            total += count
            self.energy.charge("l3", "l3_access", count)
            traffic.record(MessageKind.CACHE_WRITEBACK, self._host,
                           cluster, line, count=count)
        if total:
            self.movement_bytes += total * line

    def _writeback_into_l2(self, line: int) -> None:
        addr = line * self._line
        pool = self._dram_pool
        if pool is not None:
            pool.l2_wbs += 1
        else:
            self.energy.charge("l2", "l2_access")
            self.movement_bytes += self._line
        evicted = self.l2.fill(addr, dirty=True)
        if evicted and evicted[1]:
            self._writeback_into_l3(evicted[0])

    def _writeback_into_l3(self, line: int) -> None:
        addr = line * self._line
        cluster = self.l3.home_cluster(addr)
        pool = self._dram_pool
        if pool is not None:
            pool.l3_wbs[cluster] = pool.l3_wbs.get(cluster, 0) + 1
        else:
            self.energy.charge("l3", "l3_access")
            self.traffic.record(
                MessageKind.CACHE_WRITEBACK, self._host, cluster, self._line
            )
            self.movement_bytes += self._line
        evicted = self.l3.fill(addr, dirty=True)
        if evicted and evicted[1]:
            self._writeback_to_dram(cluster)

    def _writeback_to_dram(self, cluster: int) -> None:
        pool = self._dram_pool
        if pool is not None:
            pool.wbs[cluster] = pool.wbs.get(cluster, 0) + 1
            return
        self.traffic.record(
            MessageKind.CACHE_WRITEBACK, cluster, self._mc, self._line
        )
        self.movement_bytes += self._line
        self.dram.access(is_write=True)

    # ------------------------------------------------------------------
    # accelerator path
    # ------------------------------------------------------------------
    def accel_line_fetch(self, local_cluster: int, addr: int,
                         is_write: bool) -> int:
        """Line-granular transfer between an access-unit buffer and the
        home L3 slice (stride-FSM fill/drain path).

        The ACP is a coherent *port* here, not an allocating cache: one
        line moves L3 <-> buffer, nothing is installed in between.
        Returns latency in cycles (2 GHz domain).
        """
        self.energy.charge("access_unit", "acp_access")
        home = self.l3.home_cluster(addr)
        self.energy.charge("l3", "l3_access")
        lat_req = self.traffic.record(
            MessageKind.ACC_HANDSHAKE, local_cluster, home, 0
        )
        lat_data = self.traffic.record(
            MessageKind.ACC_OPERAND,
            home if not is_write else local_cluster,
            local_cluster if not is_write else home,
            self._line,
        )
        if home != local_cluster:
            # remote fill: the line crosses the mesh. A co-located
            # buffer<->bank transfer is the near-data case and does not
            # count as hierarchy data movement.
            self.movement_bytes += self._line
        latency = 1 + (
            self.machine.l3_bank_latency if home == local_cluster
            else self.machine.l3.latency_cycles
        )
        latency += _ps_to_cycles_int(
            lat_req + lat_data, self.machine.core.freq_ghz
        )
        out = self.l3.access(addr, is_write=is_write)
        if out.evicted and out.evicted[1]:
            self._writeback_to_dram(home)
        if not out.hit and not is_write:
            latency += self._dram_fill(home)
        elif not out.hit and is_write:
            # write-allocate of a fully-written line needs no DRAM read
            pass
        return latency

    def accel_elem_access(self, local_cluster: int, addr: int,
                          is_write: bool, elem_bytes: int) -> int:
        """Element-granular in-place access at the home L3 bank.

        This is the near-data cp_read/cp_write path: the access executes
        at the data's home cluster, where the bank-side ACP coalesces
        spatially-local indirect accesses into line-granular bank reads;
        only the *element* crosses the NoC back to the requester. Line
        moves between a bank and its own ACP are intra-cluster and do not
        count as hierarchy data movement. Returns latency cycles.
        """
        home = self.l3.home_cluster(addr)
        acp = self.acps[home]
        self.energy.charge("access_unit", "acp_access")
        lat_req = self.traffic.record(
            MessageKind.ACC_HANDSHAKE, local_cluster, home, 0
        )
        lat_data = self.traffic.record(
            MessageKind.ACC_OPERAND,
            home if not is_write else local_cluster,
            local_cluster if not is_write else home,
            elem_bytes,
        )
        if home != local_cluster:
            self.movement_bytes += elem_bytes
        latency = 1 + _ps_to_cycles_int(
            lat_req + lat_data, self.machine.core.freq_ghz
        )
        out = acp.access(addr, is_write)
        if out.evicted and out.evicted[1]:
            # dirty line retires into the local bank
            self.energy.charge("l3", "l3_access")
            evicted = self.l3.fill(out.evicted[0] * self._line, dirty=True)
            if evicted and evicted[1]:
                self._writeback_to_dram(home)
        if out.hit:
            return latency
        self.energy.charge("l3", "l3_access")
        latency += self.machine.l3_bank_latency
        out3 = self.l3.access(addr, is_write=False)
        if out3.evicted and out3.evicted[1]:
            self._writeback_to_dram(home)
        if not out3.hit:
            latency += self._dram_fill(home)
        return latency

    def l3_demand(self, addr: int, from_node: int) -> int:
        """Public demand access to the home L3 slice from any mesh node.

        Used by accelerators with private caches (Mono-CA) whose misses go
        straight to the shared L3. Returns latency cycles.
        """
        latency = self._l3_demand(addr, from_node=from_node,
                                  kind_fill=MessageKind.CACHE_FILL)
        self.movement_bytes += self._line
        return latency

    def writeback_line_from(self, line: int, from_node: int) -> None:
        """Public dirty-line writeback into L3 from any mesh node."""
        addr = line * self._line
        cluster = self.l3.home_cluster(addr)
        self.energy.charge("l3", "l3_access")
        self.traffic.record(
            MessageKind.CACHE_WRITEBACK, from_node, cluster, self._line
        )
        self.movement_bytes += self._line
        evicted = self.l3.fill(addr, dirty=True)
        if evicted and evicted[1]:
            self._writeback_to_dram(cluster)

    # ------------------------------------------------------------------
    # batched fast paths (REPRO_FAST=1)
    #
    # Each batch method replays a chunk of accesses through exactly the
    # same cache/DRAM state transitions as its scalar counterpart, in the
    # same order, but (a) hoists attribute and latency lookups out of the
    # loop (the accelerator paths out of the whole stream: see the chunk
    # plans below), (b) collapses runs of back-to-back same-line accesses
    # into one full access plus a bulk hit update, and (c) defers the
    # per-access energy charges and NoC records into per-(kind, src, dst)
    # counters flushed once per chunk or run. All deferred quantities are
    # commutative integer counts, so the resulting ledgers are
    # bit-identical to the scalar path (enforced by
    # tests/sim/test_fastpath_equiv.py).
    # ------------------------------------------------------------------
    def host_access_batch(self, addrs: np.ndarray, is_write: np.ndarray,
                          stream_ids: np.ndarray) -> int:
        """Replay a chunk of host demand accesses (see :meth:`host_access`).

        Returns the summed post-L1 exposure ``sum(max(lat - l1_lat, 0))``
        in cycles — the only per-access timing quantity the OoO model
        consumes.

        Within a batch nothing downstream ever feeds back into L1, so
        the whole L1 state transition is advanced first through
        :meth:`~repro.mem.cache.Cache.access_batch`, then a python loop
        visits *only the L1 misses* in program order for the downstream
        L2/L3/prefetch/DRAM effects — which keeps every stateful
        downstream transition in exactly the scalar order. The run
        head's ``is_write`` and the collapsed run's dirty-OR both only
        touch the line's dirty bit, so they fold into one ``make_dirty``
        input without changing hit/miss or LRU behavior.
        """
        n = len(addrs)
        if n == 0:
            return 0
        m = self.machine
        l1, l2, l3 = self.l1, self.l2, self.l3
        l1_lat = m.l1.latency_cycles
        l2_lat = m.l2.latency_cycles
        l3_lat = m.l3.latency_cycles
        line = self._line
        freq = m.core.freq_ghz
        prefetcher = self.prefetcher
        late = self._late_prefetch
        stripe = l3.stripe_bytes
        ncl = l3.num_clusters
        lat_of = self.traffic.latency_of
        l2_line_of = l2.line_of

        lines = addrs >> l1.line_shift
        cuts = np.flatnonzero(lines[1:] != lines[:-1]) + 1
        starts = np.concatenate(([0], cuts))
        run_write = np.logical_or.reduceat(is_write, starts)
        head_addrs = addrs[starts]
        hit, victim_line, victim_dirty = l1.access_batch(
            lines[starts], run_write
        )
        bulk = n - len(starts)
        if bulk:
            # collapsed same-line accesses: guaranteed L1 hits, dirty
            # contribution already folded into make_dirty above
            l1.accesses += bulk
            l1.hits += bulk

        stall = 0
        moved = 0
        demand_counts: Dict[int, int] = {}
        demand_cycles: Dict[int, int] = {}
        miss_pos = np.flatnonzero(~hit)
        n_l2 = len(miss_pos)
        pool = self._open_dram_pool()
        try:
            for addr, vd, vl, sid in zip(
                head_addrs[miss_pos].tolist(),
                victim_dirty[miss_pos].tolist(),
                victim_line[miss_pos].tolist(),
                stream_ids[starts[miss_pos]].tolist(),
            ):
                if vd:
                    self._writeback_into_l2(vl)
                # L1 miss -> L2
                lat = l1_lat + l2_lat
                out2 = l2.access(addr, is_write=False)
                moved += line
                ev2 = out2.evicted
                if ev2 is not None and ev2[1]:
                    self._writeback_into_l3(ev2[0])
                if prefetcher is not None:
                    for pf_addr in prefetcher.observe(sid, addr):
                        if l2.probe(pf_addr):
                            continue
                        cluster = (pf_addr // stripe) % ncl
                        demand_counts[cluster] = (
                            demand_counts.get(cluster, 0) + 1
                        )
                        conv = demand_cycles.get(cluster)
                        if conv is None:
                            conv = demand_cycles[cluster] = (
                                _ps_to_cycles_int(
                                    lat_of(self._host, cluster, 0)
                                    + lat_of(cluster, self._host, line),
                                    freq,
                                )
                            )
                        fill_latency = l3_lat + conv
                        out3 = l3.access(pf_addr, is_write=False)
                        ev3 = out3.evicted
                        if ev3 is not None and ev3[1]:
                            self._writeback_to_dram(cluster)
                        if not out3.hit:
                            fill_latency += self._dram_fill(cluster)
                        evp = l2.fill(pf_addr, is_prefetch=True)
                        moved += line
                        if evp and evp[1]:
                            self._writeback_into_l3(evp[0])
                        self._note_late_prefetch(
                            l2_line_of(pf_addr), int(
                                fill_latency
                                * self.PREFETCH_LATE_FRACTION
                            )
                        )
                        self._stats_prefetches += 1
                if out2.hit:
                    lat += late.pop(l2_line_of(addr), 0)
                else:
                    # L2 miss -> home L3 slice over the mesh
                    cluster = (addr // stripe) % ncl
                    demand_counts[cluster] = (
                        demand_counts.get(cluster, 0) + 1
                    )
                    conv = demand_cycles.get(cluster)
                    if conv is None:
                        conv = demand_cycles[cluster] = (
                            _ps_to_cycles_int(
                                lat_of(self._host, cluster, 0)
                                + lat_of(cluster, self._host, line),
                                freq,
                            )
                        )
                    lat += l3_lat + conv
                    out3 = l3.access(addr, is_write=False)
                    ev3 = out3.evicted
                    if ev3 is not None and ev3[1]:
                        self._writeback_to_dram(cluster)
                    if not out3.hit:
                        lat += self._dram_fill(cluster)
                    moved += line
                stall += lat - l1_lat
        finally:
            if pool is not None:
                self._flush_dram_pool(pool)
        self._charge("l1", "l1_access", n)
        if n_l2:
            self._charge("l2", "l2_access", n_l2)
        for cluster, count in demand_counts.items():
            self._charge("l3", "l3_access", count)
            self._record(MessageKind.CACHE_REQ, self._host, cluster, 0,
                         count)
            self._record(MessageKind.CACHE_FILL, cluster, self._host,
                         line, count)
        self.movement_bytes += moved
        return stall

    # -- chunk plans: the static half of the accelerator batch paths ------
    #
    # An offload run replays each fill/drain stream and each indirect
    # access in chunks, and everything but the cache state is fixed by
    # the addresses: the access unit's cluster, each line's home slice,
    # the mesh latency conversions, the energy counts, the NoC records
    # and the movement bytes. A *plan* computes all of it once per
    # stream, vectorized, and charges the linear accounting up front
    # (into the run's open accounting window); the matching *walk*
    # advances only the stateful part per chunk, in program order. Plan
    # + walk is bit-identical to the scalar accel_line_fetch /
    # accel_elem_access loop (tests/mem/test_batch_equiv.py).

    def _pair_conv(self, at: np.ndarray, home: np.ndarray,
                   payload: int, is_write: bool
                   ) -> Tuple[List[Tuple[int, int]], np.ndarray,
                              np.ndarray]:
        """Distinct (access unit, home) pairs of a stream: returns the
        pairs, each pair's request+data latency in core cycles and the
        pair index of every element."""
        k = int(max(at.max(), home.max())) + 1
        codes, inv = np.unique(at * k + home, return_inverse=True)
        lat_of = self.traffic.latency_of
        freq = self.machine.core.freq_ghz
        pairs = [divmod(code, k) for code in codes.tolist()]
        conv = np.array([
            _ps_to_cycles_int(
                lat_of(a, h, 0)
                + (lat_of(a, h, payload) if is_write
                   else lat_of(h, a, payload)),
                freq,
            )
            for a, h in pairs
        ], dtype=np.int64)
        return pairs, conv, inv.reshape(-1)

    def _charge_pairs(self, pairs: List[Tuple[int, int]],
                      counts: List[int], payload: int,
                      is_write: bool) -> None:
        """Handshake + data records of a stream, pooled per pair."""
        for (at, home), count in zip(pairs, counts):
            self._record(MessageKind.ACC_HANDSHAKE, at, home, 0, count)
            if is_write:
                self._record(MessageKind.ACC_OPERAND, at, home, payload,
                             count)
            else:
                self._record(MessageKind.ACC_OPERAND, home, at, payload,
                             count)

    def accel_line_plan(self, at: np.ndarray, lines: np.ndarray,
                        bounds: np.ndarray, is_write: bool) -> List[tuple]:
        """Static half of :meth:`accel_line_fetch` over a chunked stream.

        Chunk ``c`` fetches ``lines[bounds[c]:bounds[c+1]]`` (line
        addresses) from an access unit at cluster ``at[c]``. Charges the
        stream's ACP/L3 energy counts, handshake/data records and
        movement bytes once, and returns one entry per chunk for
        :meth:`accel_line_walk`: ``(addrs, home, homes, cycles)`` with
        the chunk's single home slice (``homes`` None) or per-line homes
        when the chunk crosses a stripe, and the static latency sum
        ``sum(1 + bank|L3 latency + conv[at, home])``.
        """
        nchunks = len(bounds) - 1
        n = len(lines)
        if n == 0:
            return [_EMPTY_LINES] * nchunks
        line = self._line
        m = self.machine
        sizes = np.diff(bounds)
        at_l = np.repeat(at, sizes)
        home = self.l3.home_clusters(lines)
        pairs, conv, inv = self._pair_conv(at_l, home, line, is_write)
        local = np.array([a == h for a, h in pairs], dtype=bool)
        base = 1 + conv + np.where(local, m.l3_bank_latency,
                                   m.l3.latency_cycles)
        csum = np.concatenate(([0], np.cumsum(base[inv])))
        static = (csum[bounds[1:]] - csum[bounds[:-1]]).tolist()
        counts = np.bincount(inv, minlength=len(pairs)).tolist()
        self._charge("access_unit", "acp_access", n)
        self._charge("l3", "l3_access", n)
        self._charge_pairs(pairs, counts, line, is_write)
        self.movement_bytes += line * sum(
            c for c, lc in zip(counts, local.tolist()) if not lc
        )
        # chunks whose lines all share one home walk a single slice
        turns = np.concatenate(([0], np.cumsum(home[1:] != home[:-1])))
        addr_l = lines.tolist()
        home_l = home.tolist()
        turn_l = turns.tolist()
        out = []
        for c, (lo, hi) in enumerate(zip(bounds[:-1].tolist(),
                                         bounds[1:].tolist())):
            if lo == hi:
                out.append(_EMPTY_LINES)
            elif turn_l[hi - 1] == turn_l[lo]:
                out.append((addr_l[lo:hi], home_l[lo], None, static[c]))
            else:
                out.append((addr_l[lo:hi], -1, home_l[lo:hi], static[c]))
        return out

    def accel_line_walk(self, chunk: tuple, is_write: bool) -> int:
        """Stateful half of :meth:`accel_line_fetch` for one planned
        chunk: the L3-slice LRU transitions, dirty writebacks and DRAM
        fills. Runs inside an accounting window; returns latency cycles.
        """
        addrs, home, homes, total = chunk
        pool = self._dram_pool
        if pool is None:
            raise SimulationError(
                "accel_line_walk needs an open accounting window"
            )
        if homes is None:
            access = self.l3.slices[home].access
            misses = wbs = 0
            for addr in addrs:
                out = access(addr, is_write)
                if not out.hit:
                    misses += 1
                    ev = out.evicted
                    if ev is not None and ev[1]:
                        wbs += 1
            if wbs:
                pool.wbs[home] = pool.wbs.get(home, 0) + wbs
            if misses and not is_write:
                total += self._dram_fill(home, misses)
            return total
        slices = self.l3.slices
        for addr, home in zip(addrs, homes):
            out = slices[home].access(addr, is_write)
            if not out.hit:
                ev = out.evicted
                if ev is not None and ev[1]:
                    self._writeback_to_dram(home)
                if not is_write:
                    total += self._dram_fill(home)
        return total

    def accel_elem_plan(self, at: np.ndarray, addrs: np.ndarray,
                        bounds: np.ndarray, is_write: bool,
                        elem_bytes: int) -> List[tuple]:
        """Static half of :meth:`accel_elem_access` over a chunked
        stream of element addresses (chunk ``c`` is
        ``addrs[bounds[c]:bounds[c+1]]`` from cluster ``at[c]``).

        Runs of consecutive same-line addresses collapse (after a run's
        first access its line is the home ACP's MRU line, so the rest
        are hits with no L3 side). Charges the stream's ACP energy,
        handshake/data records and movement once, and returns one entry
        per chunk for :meth:`accel_elem_access_batch`: ``(run heads, run
        lengths, run homes, cycles)`` with the static latency sum
        ``sum(1 + conv[at, home])`` over the chunk's elements.
        """
        nchunks = len(bounds) - 1
        n = len(addrs)
        if n == 0:
            return [_EMPTY_ELEMS] * nchunks
        shift = self.acps[0].line_shift
        heads_mask = np.ones(n, dtype=bool)
        # same line => same home only when stripes are line-aligned
        if self.l3.stripe_bytes % (1 << shift) == 0:
            lines = addrs >> shift
            np.not_equal(lines[1:], lines[:-1], out=heads_mask[1:])
            starts = bounds[:-1]
            heads_mask[starts[starts < n]] = True  # runs end at chunks
        heads = np.flatnonzero(heads_mask)
        runs = np.diff(np.append(heads, n))
        head_addrs = addrs[heads]
        home = self.l3.home_clusters(head_addrs)
        run_bounds = np.searchsorted(heads, bounds)
        at_r = np.repeat(at, np.diff(run_bounds))
        pairs, conv, inv = self._pair_conv(at_r, home, elem_bytes,
                                           is_write)
        csum = np.concatenate(([0], np.cumsum(runs * (1 + conv[inv]))))
        static = (csum[run_bounds[1:]] - csum[run_bounds[:-1]]).tolist()
        counts = np.bincount(inv, weights=runs,
                             minlength=len(pairs)).astype(np.int64).tolist()
        self._charge("access_unit", "acp_access", n)
        self._charge_pairs(pairs, counts, elem_bytes, is_write)
        self.movement_bytes += elem_bytes * sum(
            c for c, (a, h) in zip(counts, pairs) if a != h
        )
        addr_l = head_addrs.tolist()
        run_l = runs.tolist()
        home_l = home.tolist()
        out = []
        for c, (lo, hi) in enumerate(zip(run_bounds[:-1].tolist(),
                                         run_bounds[1:].tolist())):
            if lo == hi:
                out.append(_EMPTY_ELEMS)
            else:
                out.append((addr_l[lo:hi], run_l[lo:hi], home_l[lo:hi],
                            static[c]))
        return out

    def accel_elem_access_batch(self, chunk: tuple, is_write: bool) -> int:
        """Stateful half of :meth:`accel_elem_access` for one chunk
        planned by :meth:`accel_elem_plan`: the home ACPs' LRU
        transitions (a collapsed run's tail in bulk via
        :meth:`Cache.touch_resident`), dirty ACP retires into the bank,
        bank reads on ACP misses and DRAM fills. Returns latency cycles.
        """
        heads, runs, homes, total = chunk
        line = self._line
        l3 = self.l3
        slices = l3.slices
        acps = self.acps
        bank_lat = self.machine.l3_bank_latency
        n_l3 = 0  # miss-side bank reads + dirty ACP retires
        for addr, k, home in zip(heads, runs, homes):
            acp = acps[home]
            out = acp.access(addr, is_write)
            if k > 1:
                acp.touch_resident(addr, is_write, k - 1)
            if out.hit:
                continue
            ev = out.evicted
            if ev is not None and ev[1]:
                # dirty line retires into the local bank
                n_l3 += 1
                evicted = l3.fill(ev[0] * line, dirty=True)
                if evicted and evicted[1]:
                    self._writeback_to_dram(home)
            n_l3 += 1
            total += bank_lat
            out3 = slices[home].access(addr, is_write=False)
            if not out3.hit:
                ev3 = out3.evicted
                if ev3 is not None and ev3[1]:
                    self._writeback_to_dram(home)
                total += self._dram_fill(home)
        if n_l3:
            self._charge("l3", "l3_access", n_l3)
        return total

    def l3_demand_batch(self, from_node: int) -> "L3DemandWindow":
        """Open a deferred-accounting window over repeated
        :meth:`l3_demand` calls from one node (Mono-CA private-cache
        misses). Call :meth:`L3DemandWindow.flush` when done."""
        return L3DemandWindow(self, from_node)

    # ------------------------------------------------------------------
    # flushes (coherence transitions)
    # ------------------------------------------------------------------
    def flush_host_range(self, base: int, size: int) -> int:
        """Flush [base, base+size) from L1+L2; returns dirty lines."""
        dirty = self.l1.invalidate_range(base, size)
        dirty += self.l2.invalidate_range(base, size)
        # dirty lines stream down to their home L3 slices
        if dirty:
            self.energy.charge("l3", "l3_access", dirty)
        self.movement_bytes += dirty * self._line
        return dirty

    def flush_accel_range(self, cluster: Optional[int], base: int,
                          size: int) -> int:
        if cluster is None:
            return 0
        dirty = self.acps[cluster].invalidate_range(base, size)
        self.movement_bytes += dirty * self._line
        return dirty

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self) -> AccessStats:
        return AccessStats(
            l1=self.l1.accesses,
            l2=self.l2.accesses,
            l3=self.l3.accesses,
            acp=sum(a.accesses for a in self.acps),
            dram=self.dram.accesses,
            prefetches=self._stats_prefetches,
        )

    def record_obs(self) -> None:
        """Publish this hierarchy's lifetime totals into the process
        observability registry. Called once per simulation run (the
        per-access hot paths stay instrumentation-free)."""
        s = self.stats()
        OBS.inc("mem.l1_accesses", s.l1)
        OBS.inc("mem.l2_accesses", s.l2)
        OBS.inc("mem.l3_accesses", s.l3)
        OBS.inc("mem.acp_accesses", s.acp)
        OBS.inc("mem.dram_accesses", s.dram)
        OBS.inc("mem.prefetches", s.prefetches)
        OBS.inc("mem.movement_bytes", self.movement_bytes)


#: plan entries of a chunk with no accesses (shared: entries are
#: read-only) for accel_line_walk / accel_elem_access_batch
_EMPTY_LINES = ((), 0, None, 0)
_EMPTY_ELEMS = ((), (), (), 0)


class _DramPool:
    """Deferred rare-path accounting counters, open only while a batch
    replay method runs: DRAM fills/writebacks per cluster, plus the host
    path's L1->L2 and L2->L3 dirty writebacks."""

    __slots__ = ("fills", "wbs", "fill_lat", "l2_wbs", "l3_wbs")

    def __init__(self):
        self.fills: Dict[int, int] = {}
        self.wbs: Dict[int, int] = {}
        self.fill_lat: Dict[int, int] = {}
        self.l2_wbs = 0
        self.l3_wbs: Dict[int, int] = {}


class L3DemandWindow:
    """Deferred accounting over repeated :meth:`MemoryHierarchy.l3_demand`
    calls from one mesh node.

    Cache/DRAM state still advances per access in program order; only the
    per-access energy charge, the two NoC records and the movement bytes
    are pooled per home cluster and flushed once. The request/fill
    latency conversion is memoized per cluster (the mesh is static).
    """

    __slots__ = ("hier", "from_node", "_counts", "_conv", "_pool")

    def __init__(self, hier: MemoryHierarchy, from_node: int):
        self.hier = hier
        self.from_node = from_node
        self._counts: Dict[int, int] = {}
        self._conv: Dict[int, int] = {}
        self._pool = hier._open_dram_pool()

    def access(self, addr: int) -> int:
        """One demand access; returns latency cycles (as l3_demand)."""
        h = self.hier
        cluster = h.l3.home_cluster(addr)
        seen = self._counts.get(cluster)
        if seen is None:
            self._counts[cluster] = 1
            self._conv[cluster] = _ps_to_cycles_int(
                h.traffic.latency_of(self.from_node, cluster, 0)
                + h.traffic.latency_of(cluster, self.from_node, h._line),
                h.machine.core.freq_ghz,
            )
        else:
            self._counts[cluster] = seen + 1
        latency = h.machine.l3.latency_cycles + self._conv[cluster]
        out3 = h.l3.access(addr, is_write=False)
        ev = out3.evicted
        if ev is not None and ev[1]:
            h._writeback_to_dram(cluster)
        if not out3.hit:
            latency += h._dram_fill(cluster)
        return latency

    def flush(self) -> None:
        """Charge the pooled energy/NoC/movement accounting."""
        h = self.hier
        if self._pool is not None:
            h._flush_dram_pool(self._pool)
            self._pool = None
        total = 0
        for cluster, count in self._counts.items():
            total += count
            h._charge("l3", "l3_access", count)
            h._record(MessageKind.CACHE_REQ, self.from_node,
                      cluster, 0, count)
            h._record(MessageKind.CACHE_FILL, cluster, self.from_node,
                      h._line, count)
        h.movement_bytes += total * h._line
        self._counts.clear()
        self._conv.clear()


def _ps_to_cycles_int(ps: int, freq_ghz: float) -> int:
    return int(round(ps_to_cycles(ps, freq_ghz)))
