"""Run observability: counters, maxima, timers and per-cell records.

Every layer of the simulator (experiment runner, system simulator,
offload engine, memory hierarchy) reports into a process-local
:class:`StatsRegistry`. The registry is deliberately *outside* the
simulated-machine state: nothing in it may influence simulation results,
only describe them. Snapshots are plain picklable dicts so worker
processes of the parallel experiment runner can ship their stats back to
the parent, which merges them (counters add, maxima take the max, cell
records concatenate). Recording, snapshots, merges and resets hold one
registry lock, so handler and worker threads of the sweep service can
report concurrently without losing updates.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List


@dataclass
class CellStat:
    """Wall-clock record of one completed (workload, config) cell."""

    workload: str
    config: str
    wall_s: float
    #: longest functional trace (in element accesses) of any kernel call
    #: the cell executed or replayed
    trace_elems: int = 0

    def as_tuple(self):
        return (self.workload, self.config, self.wall_s, self.trace_elems)


class StatsRegistry:
    """Mergeable process-local registry of counters, maxima and timers."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.maxima: Dict[str, float] = {}
        #: name -> [total_seconds, invocations]
        self.timers: Dict[str, List[float]] = {}
        self.cells: List[CellStat] = []
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------
    def inc(self, name: str, n: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + n

    def observe_max(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.maxima.get(name, float("-inf")):
                self.maxima[name] = value

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    def add_time(self, name: str, seconds: float) -> None:
        """Record one already-measured duration (for spans that start
        and end on different threads, e.g. serve queue latency)."""
        with self._lock:
            entry = self.timers.setdefault(name, [0.0, 0])
            entry[0] += seconds
            entry[1] += 1

    def add_cell(self, cell: CellStat) -> None:
        with self._lock:
            self.cells.append(cell)

    # -- queries -----------------------------------------------------------
    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    # -- lifecycle ---------------------------------------------------------
    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.maxima.clear()
            self.timers.clear()
            self.cells.clear()

    def snapshot(self) -> dict:
        """Picklable copy of everything recorded so far."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "maxima": dict(self.maxima),
                "timers": {k: list(v) for k, v in self.timers.items()},
                "cells": [c.as_tuple() for c in self.cells],
            }

    def merge(self, snap: dict) -> None:
        """Fold a snapshot (e.g. from a worker process) into this registry."""
        with self._lock:
            for name, n in snap.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0.0) + n
            for name, v in snap.get("maxima", {}).items():
                if v > self.maxima.get(name, float("-inf")):
                    self.maxima[name] = v
            for name, (total, count) in snap.get("timers", {}).items():
                entry = self.timers.setdefault(name, [0.0, 0])
                entry[0] += total
                entry[1] += count
            for workload, config, wall_s, trace_elems in snap.get("cells",
                                                                  []):
                self.cells.append(
                    CellStat(workload, config, wall_s, trace_elems))

    # -- reporting ---------------------------------------------------------
    def report(self, slowest: int = 10) -> str:
        """Human-readable report section (the CLI's ``--stats`` output)."""
        lines = ["Run statistics"]
        if self.counters:
            lines.append("  counters:")
            for name in sorted(self.counters):
                lines.append(f"    {name:<32} {self.counters[name]:,.0f}")
        if self.maxima:
            lines.append("  maxima:")
            for name in sorted(self.maxima):
                lines.append(f"    {name:<32} {self.maxima[name]:,.0f}")
        if self.timers:
            lines.append("  timers:")
            for name in sorted(self.timers):
                total, count = self.timers[name]
                mean = total / count if count else 0.0
                lines.append(
                    f"    {name:<32} {total:8.2f}s total"
                    f"  {count:6.0f} calls  {mean * 1e3:8.2f} ms/call"
                )
        if self.cells:
            total = sum(c.wall_s for c in self.cells)
            lines.append(
                f"  cells: {len(self.cells)} completed, "
                f"{total:.2f}s simulated wall-clock"
            )
            ranked = sorted(self.cells, key=lambda c: c.wall_s, reverse=True)
            for cell in ranked[:slowest]:
                lines.append(
                    f"    {cell.workload:>5} x {cell.config:<12}"
                    f" {cell.wall_s:7.2f}s"
                    f"  trace={cell.trace_elems:,d} elems"
                )
        if len(lines) == 1:
            lines.append("  (nothing recorded)")
        return "\n".join(lines)


class SweepProgress:
    """Progress/throughput tracker for one design-space sweep.

    Counts completed, failed and skipped (resume-hit) points against the
    planned total and renders one-line status strings with points/s and
    an ETA. Purely observational: reports into the ``dse.*`` counters of
    ``registry`` (default :data:`OBS`) and never touches results.
    """

    def __init__(self, total: int,
                 registry: "StatsRegistry" = None) -> None:
        self.total = int(total)
        self.done = 0
        self.failed = 0
        self.skipped = 0
        self._registry = registry if registry is not None else OBS
        self._start = time.perf_counter()

    def skip(self, n: int = 1) -> None:
        self.skipped += n
        self._registry.inc("dse.points_skipped", n)

    def complete(self, failed: bool = False) -> None:
        self.done += 1
        self._registry.inc("dse.points_done")
        if failed:
            self.failed += 1
            self._registry.inc("dse.points_failed")

    @property
    def remaining(self) -> int:
        return max(self.total - self.skipped - self.done, 0)

    @property
    def elapsed_s(self) -> float:
        return time.perf_counter() - self._start

    @property
    def points_per_s(self) -> float:
        elapsed = self.elapsed_s
        return self.done / elapsed if elapsed > 0 else 0.0

    def line(self, detail: str = "") -> str:
        """One status line: ``[done+skipped/total] detail (rate, eta)``."""
        rate = self.points_per_s
        eta = self.remaining / rate if rate > 0 else float("inf")
        eta_txt = f"eta {eta:.0f}s" if eta != float("inf") else "eta ?"
        parts = [f"[{self.done + self.skipped}/{self.total}]"]
        if detail:
            parts.append(detail)
        suffix = [f"{rate:.2f} pts/s", eta_txt]
        if self.failed:
            suffix.append(f"{self.failed} failed")
        if self.skipped:
            suffix.append(f"{self.skipped} resumed")
        parts.append("(" + ", ".join(suffix) + ")")
        return " ".join(parts)


#: the process-wide default registry every simulator layer reports into
OBS = StatsRegistry()
