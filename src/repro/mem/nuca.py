"""Static-NUCA L3: per-cluster slices x banks on the mesh.

Table III ships 8 clusters x 4 banks; the geometry is fully machine-
described, so any cluster/bank count a document derives works here.

Address mapping is *static* and range-based: contiguous slice-sized
stripes of the address space map round-robin to clusters, and lines
interleave across the banks inside a cluster. A data structure no larger
than one slice therefore lives wholly in one cluster — this is what lets
the runtime *anchor* each memory object to a home bank (paper §IV-D:
"accesses to data structures are localized to the home bank where they
are anchored"); larger structures stripe across several clusters.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..params import CacheParams, MachineParams
from .cache import AccessOutcome, Cache


class NucaL3:
    """The shared L3 as independent per-cluster slices."""

    def __init__(self, machine: MachineParams):
        self.machine = machine
        self.num_clusters = machine.l3_clusters
        self.banks_per_cluster = machine.l3_banks_per_cluster
        slice_bytes = machine.l3.size_bytes // self.num_clusters
        slice_params = CacheParams(
            size_bytes=slice_bytes,
            ways=machine.l3.ways,
            latency_cycles=machine.l3.latency_cycles,
            mshrs=machine.l3.mshrs,
            line_bytes=machine.l3.line_bytes,
        )
        self.slices: List[Cache] = [
            Cache(slice_params, name=f"l3c{i}") for i in range(self.num_clusters)
        ]
        #: contiguous bytes mapped to one cluster before striping wraps
        self.stripe_bytes = slice_bytes
        self._line = machine.l3.line_bytes

    # -- static address mapping ------------------------------------------------
    def home_cluster(self, addr: int) -> int:
        """Cluster whose slice caches this address (range-striped)."""
        return (addr // self.stripe_bytes) % self.num_clusters

    def home_clusters(self, addrs: np.ndarray) -> np.ndarray:
        """:meth:`home_cluster` of every address in an array."""
        return (addrs // self.stripe_bytes) % self.num_clusters

    def bank(self, addr: int) -> int:
        """Bank within the home cluster (line-interleaved)."""
        return (addr // self._line) % self.banks_per_cluster

    def location(self, addr: int) -> Tuple[int, int]:
        return self.home_cluster(addr), self.bank(addr)

    # -- accesses ---------------------------------------------------------------
    def access(self, addr: int, is_write: bool) -> AccessOutcome:
        """Demand access routed to the home slice."""
        return self.slices[self.home_cluster(addr)].access(addr, is_write)

    def fill(self, addr: int, dirty: bool = False,
             is_prefetch: bool = False) -> Optional[Tuple[int, bool]]:
        return self.slices[self.home_cluster(addr)].fill(
            addr, dirty=dirty, is_prefetch=is_prefetch
        )

    def probe(self, addr: int) -> bool:
        return self.slices[self.home_cluster(addr)].probe(addr)

    def invalidate_range(self, base: int, size: int) -> int:
        """Invalidate a range across all slices; returns dirty writebacks.

        For ranges larger than total residency, each slice walks its own
        resident tags (O(occupancy)) instead of probing every line.
        """
        if size <= 0:
            return 0
        line = self._line
        aligned = (base // line) * line
        span_lines = -(-(base + size - aligned) // line)
        if span_lines > sum(s.occupancy for s in self.slices):
            return sum(
                s.invalidate_range(base, size) for s in self.slices
            )
        dirty = 0
        for line_base in range(aligned, base + size, line):
            cluster = self.home_cluster(line_base)
            if self.slices[cluster].invalidate(line_base):
                dirty += 1
        return dirty

    # -- statistics ---------------------------------------------------------------
    @property
    def accesses(self) -> int:
        return sum(s.accesses for s in self.slices)

    @property
    def hits(self) -> int:
        return sum(s.hits for s in self.slices)

    @property
    def misses(self) -> int:
        return sum(s.misses for s in self.slices)

    @property
    def writebacks(self) -> int:
        return sum(s.writebacks for s in self.slices)

    @property
    def latency_cycles(self) -> int:
        return self.machine.l3.latency_cycles
