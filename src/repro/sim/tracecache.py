"""Reusable functional-interpretation traces.

The golden interpreter's outputs for one workload instance — per-call
address traces, op counts and loop-iteration maps — depend only on the
(workload, scale) pair, never on the simulated machine configuration.
The experiment matrix runs every workload under six configurations, so
interpreting each kernel call once and replaying the recorded
functional results for the other five removes the hottest redundant work
of a full §VI reproduction.

:class:`TraceCache` is a bounded in-memory LRU store keyed by
``(workload, scale)``; each entry holds one :class:`FunctionalCallRecord`
per dynamic kernel call (i.e. the logical key space is
``(workload, scale, call index)``) plus the final array contents so
output validation still observes the executed program on replay. Evicted
entries can optionally spill to on-disk pickles and are transparently
reloaded on the next miss.

Loop-iteration maps are keyed by the loop's *position* among the
kernel's innermost loops (``Kernel.innermost_loop_ids``) end to end —
the interpreter records them that way and the system simulator consumes
them that way — so records survive pickling and never alias across
kernels the way ``id()`` keys can.
"""

from __future__ import annotations

import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..ir.interp import InterpResult, MemAccess, OpCounts
from ..ir.program import Kernel
from ..ir.trace import ColumnarTrace
from ..obs import OBS

#: a recorded access trace: columnar (normal) or a plain MemAccess list
#: (legacy pickles / hand-built tests) — both speak the same sequence
#: protocol
TraceLike = Union[ColumnarTrace, List[MemAccess]]


def functional_key(workload: str, scale: str,
                   build_kwargs: Optional[Mapping[str, object]] = None
                   ) -> Tuple[str, str]:
    """Cache key covering everything that changes *functional* behavior.

    The golden interpretation of a workload depends on the workload, its
    scale and any dataset-shaping build kwargs (e.g. fdtd-2d's ``n`` /
    ``timesteps``) — and on nothing about the simulated machine. Sweeps
    over machine parameters (`repro.dse`) therefore share one entry per
    dataset across every machine point, while dataset axes get distinct
    keys. The kwargs are folded into the scale component canonically
    (sorted, ``scale@k=v,...``) so the key stays a picklable, printable
    ``(workload, variant)`` string pair.

    The active interpreter mode (``REPRO_VEC``) is folded in as well:
    the vectorized and scalar interpreters are bit-identical by
    contract, but keying them apart means a mode flip — which is exactly
    what the differential oracle does — re-interprets under the new mode
    instead of replaying a record produced by the other one, so
    cross-mode comparisons keep their evidentiary value.
    """
    from ..envcfg import vec_path_enabled

    variant = scale
    if build_kwargs:
        kw = ",".join(
            f"{k}={build_kwargs[k]!r}" for k in sorted(build_kwargs)
        )
        variant = f"{scale}@{kw}"
    if not vec_path_enabled():
        variant += "+scalar"
    return (workload, variant)


@dataclass
class FunctionalView:
    """What the system simulator consumes per kernel call.

    Mirrors the subset of :class:`InterpResult` the timing models read,
    with iteration maps keyed by stable innermost-loop position
    (:meth:`~repro.ir.program.Kernel.innermost_loop_ids`).
    """

    counts: OpCounts
    trace: TraceLike
    inner_iterations: int
    inner_iters_by_loop: Dict[int, int]
    inner_invocations_by_loop: Dict[int, int]


@dataclass
class FunctionalCallRecord:
    """Functional interpretation of one dynamic kernel call."""

    kernel: Kernel
    scalars: Dict[str, float]
    counts: OpCounts
    trace: TraceLike
    inner_iterations: int
    #: innermost-loop position (per ``kernel.innermost_loops()``) -> value
    inner_iters_by_index: Dict[int, int] = field(default_factory=dict)
    inner_invocations_by_index: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_interp(cls, kernel: Kernel, scalars: Dict[str, float],
                    res: InterpResult) -> "FunctionalCallRecord":
        # the interpreter already keys its iteration maps by structural
        # loop position, so the record stores them verbatim
        return cls(
            kernel=kernel,
            scalars=dict(scalars),
            counts=res.counts,
            # the interpreter hands back a ColumnarTrace: store it as-is
            # (no per-access tuple copy; spills pickle the column buffers)
            trace=res.trace if res.trace is not None else [],
            inner_iterations=res.inner_iterations,
            inner_iters_by_index=dict(res.inner_iters_by_loop),
            inner_invocations_by_index=dict(res.inner_invocations_by_loop),
        )

    def view(self) -> FunctionalView:
        return FunctionalView(
            counts=self.counts,
            trace=self.trace,
            inner_iterations=self.inner_iterations,
            inner_iters_by_loop=self.inner_iters_by_index,
            inner_invocations_by_loop=self.inner_invocations_by_index,
        )


@dataclass
class WorkloadTrace:
    """All functional state one (workload, scale) execution produced."""

    workload: str
    scale: str
    calls: List[FunctionalCallRecord]
    #: array contents after the last call, for replayed validation
    final_arrays: Dict[str, np.ndarray]

    @property
    def peak_trace_elems(self) -> int:
        return max((len(c.trace) for c in self.calls), default=0)


class TraceCache:
    """Bounded LRU store of workload traces with optional disk spill."""

    def __init__(self, max_entries: int = 2,
                 spill_dir: Optional[str] = None):
        self.max_entries = max(1, int(max_entries))
        self.spill_dir = spill_dir
        self._entries: "OrderedDict[Tuple[str, str], WorkloadTrace]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.spills = 0
        self.disk_loads = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def get(self, workload: str, scale: str) -> Optional[WorkloadTrace]:
        key = (workload, scale)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._load_spilled(key)
            if entry is not None:
                self.disk_loads += 1
                OBS.inc("tracecache.disk_loads")
                self._install(key, entry)
        else:
            self._entries.move_to_end(key)
        if entry is None:
            self.misses += 1
            OBS.inc("tracecache.misses")
            return None
        self.hits += 1
        OBS.inc("tracecache.hits")
        return entry

    def put(self, trace: WorkloadTrace) -> None:
        self._install((trace.workload, trace.scale), trace)

    def peak_trace_elems(self, workload: str, scale: str) -> int:
        """Longest per-call trace of a resident entry (0 when absent).

        A pure query: does not count as a hit/miss and does not touch
        LRU order or the spill store.
        """
        entry = self._entries.get((workload, scale))
        return entry.peak_trace_elems if entry is not None else 0

    # ------------------------------------------------------------------
    def _install(self, key: Tuple[str, str], entry: WorkloadTrace) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            old_key, old_entry = self._entries.popitem(last=False)
            self._spill(old_key, old_entry)

    def _path(self, key: Tuple[str, str]) -> str:
        return os.path.join(self.spill_dir, f"trace-{key[0]}-{key[1]}.pkl")

    def _spill(self, key: Tuple[str, str], entry: WorkloadTrace) -> None:
        if self.spill_dir is None:
            return
        os.makedirs(self.spill_dir, exist_ok=True)
        with open(self._path(key), "wb") as f:
            pickle.dump(entry, f, protocol=pickle.HIGHEST_PROTOCOL)
        self.spills += 1
        OBS.inc("tracecache.spills")

    def _load_spilled(self, key: Tuple[str, str]
                      ) -> Optional[WorkloadTrace]:
        if self.spill_dir is None:
            return None
        path = self._path(key)
        if not os.path.exists(path):
            return None
        with open(path, "rb") as f:
            return pickle.load(f)
