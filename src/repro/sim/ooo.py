"""Trace-driven analytic model of the out-of-order baseline core.

The 5-way OoO core (Table III) is modeled with an issue-width/MLP overlap
model over the real address stream:

* compute cycles = dynamic instructions / issue width;
* memory stall cycles = post-L1 latency of each access, overlapped across
  ``min(MLP, L1 MSHRs)`` outstanding misses;
* total = max(compute, memory) + a small serialization term for the loser
  (an OoO window overlaps compute with memory but not perfectly).

This is deliberately *not* a pipeline simulator — the paper uses the OoO
core only as the normalization baseline, so capturing its memory-
boundness on the same access stream is what matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..energy import EnergyLedger
from ..events import cycles_to_ps
from ..envcfg import fast_path_enabled
from ..ir.interp import MemAccess, OpCounts
from ..ir.program import Kernel
from ..ir.trace import ColumnarTrace
from ..mem.hierarchy import MemoryHierarchy
from ..mem.slab import SlabAllocator
from ..params import MachineParams

#: fraction of the shorter of (compute, memory) that fails to overlap
SERIALIZATION_FACTOR = 0.15

#: accesses replayed per host_access_batch call on the fast path
BATCH_CHUNK = 1 << 16


@dataclass
class OooResult:
    cycles: float
    insts: int
    mem_ops: int
    #: host core clock the cycle count was produced at
    freq_ghz: float = 2.0

    @property
    def ipc(self) -> float:
        return self.insts / self.cycles if self.cycles else 0.0

    @property
    def time_ps(self) -> int:
        return cycles_to_ps(self.cycles, self.freq_ghz)


class OooModel:
    """Executes interpreter traces against the hierarchy's host path."""

    def __init__(self, machine: MachineParams, hierarchy: MemoryHierarchy,
                 energy: EnergyLedger, slab: SlabAllocator):
        self.machine = machine
        self.hierarchy = hierarchy
        self.energy = energy
        self.slab = slab

    def run(self, kernel: Kernel, counts: OpCounts,
            trace: Iterable[MemAccess],
            extra_host_insts: int = 0,
            serial_fraction: float = 0.0) -> OooResult:
        """Model one kernel call: returns cycles at the core clock."""
        obj_alloc = {
            name: self.slab.by_name(name) for name in kernel.objects
        }
        elem_bytes = {
            name: obj.dtype.size_bytes for name, obj in kernel.objects.items()
        }
        l1_lat = self.machine.l1.latency_cycles
        mlp = min(self.machine.core.mem_level_parallelism,
                  self.machine.l1.mshrs)
        # stalls accumulate as an exact integer cycle sum; the MLP overlap
        # factor is applied once at the end, which keeps the scalar and
        # batched replay paths bit-identical (float multiply of the same
        # integer sum) instead of order-dependent float accumulation
        stall_units = 0
        loads = 0
        stores = 0
        if isinstance(trace, ColumnarTrace) and fast_path_enabled():
            addrs = trace.addresses(
                {name: alloc.base for name, alloc in obj_alloc.items()},
                elem_bytes,
            )
            batch = self.hierarchy.host_access_batch
            for lo in range(0, len(addrs), BATCH_CHUNK):
                hi = lo + BATCH_CHUNK
                stall_units += batch(
                    addrs[lo:hi], trace.is_write[lo:hi], trace.site[lo:hi]
                )
            stores = trace.num_writes()
            loads = len(trace) - stores
        else:
            host_access = self.hierarchy.host_access
            for site, obj, idx, is_write in trace:
                addr = obj_alloc[obj].base + idx * elem_bytes[obj]
                latency = host_access(addr, is_write, stream_id=site)
                if is_write:
                    stores += 1
                else:
                    loads += 1
                if latency > l1_lat:
                    stall_units += latency - l1_lat
        overlap = serial_fraction + (1.0 - serial_fraction) / mlp
        stall_cycles = stall_units * overlap

        insts = counts.total_insts + extra_host_insts
        compute_cycles = insts / self.machine.core.issue_width
        # L1 ports: 2 loads + 1 store per cycle (Ice Lake-class LSU)
        port_cycles = max(loads / 2.0, float(stores))
        memory_cycles = stall_cycles + port_cycles
        cycles = (
            max(compute_cycles, memory_cycles)
            + SERIALIZATION_FACTOR * min(compute_cycles, memory_cycles)
        )
        self._charge_energy(counts, insts)
        return OooResult(cycles=cycles, insts=insts, mem_ops=loads + stores,
                         freq_ghz=self.machine.core.freq_ghz)

    def _charge_energy(self, counts: OpCounts, insts: int) -> None:
        e = self.energy
        e.charge("core", "ooo_inst_overhead", insts)
        e.charge("core", "int_op", counts.int_ops + counts.loop_overhead)
        e.charge("core", "float_op", counts.float_ops)
        e.charge("core", "complex_op", counts.complex_ops)
        e.charge("core", "reg_access", 2 * insts)
