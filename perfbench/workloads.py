"""The benchmark's workloads: set-up, timed phase, traced phases, checks.

Each workload exposes ``timed(seed, seconds)`` (untraced; end-to-end
metrics) and ``traced(seed)`` (an untraced, a traced and a counting
phase of fixed size; per-layer metrics). Both return a :class:`Outcome`.
See README.md for why each workload exists and what it isolates.
"""

from __future__ import annotations

import hashlib
import http.client
import importlib
import itertools
import json
import math
import multiprocessing
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter, thread_time
from typing import Callable, Dict, List, Sequence, Tuple

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: stores and trace files; inside the checkout, ignored by git
OUT = ROOT / ".perfbench_out"

#: set-ups per run; setup_s is the median
SETUP_REPEATS = 5
#: untraced units in a traced run (their median is the overhead base)
UNTRACED_UNITS = 3
#: seconds between probes of the host's speed while timing
PROBE_S = 0.1
#: the probe kernel's CPU time on the reference host (s); end-to-end
#: times are scaled to a host on which it takes this long
REFERENCE_PROBE_S = 0.0005

END_TO_END = (
    ("sims_per_s", "cells/s"),
    ("hit_ms", "ms"),
    ("miss_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("runtime.engine_s", "s"),
    ("events.sim_events", "count"),
    ("runtime.offload_runs", "count"),
    ("runtime.fastsim_runs", "count"),
    ("runtime.fastsim_fallbacks", "count"),
    ("mem.walk_s", "s"),
    ("mem.l1_accesses", "count"),
    ("mem.l2_accesses", "count"),
    ("mem.l3_accesses", "count"),
    ("mem.acp_accesses", "count"),
    ("mem.dram_accesses", "count"),
    ("mem.movement_bytes", "bytes"),
    ("ir.interp_s", "s"),
    ("ir.interp_calls", "count"),
    ("sim.ooo_s", "s"),
    ("sim.tracecache_hit_ratio", "ratio"),
    ("workloads.build_s", "s"),
    ("workloads.validate_s", "s"),
    ("compiler.compile_s", "s"),
    ("compiler.kernels", "count"),
    ("sim.other_s", "s"),
    ("bench.other_s", "s"),
    ("dse.group_other_s", "s"),
    ("dse.store_append_s", "s"),
    ("dse.pool_busy_frac", "ratio"),
    ("serve.route_ms", "ms"),
    ("serve.store_get_ms", "ms"),
    ("serve.http_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.worker_s", "s"),
    ("serve.hit_ratio", "ratio"),
    ("serve.dedup_inflight", "count"),
    ("sim.paper_gm_log_err", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_frac", "ratio"),
) + tuple((f"calls.{p}", "count") for p in tracing.CALL_PACKAGES)

#: span name -> per-layer self-time metric
SELF_TIME_METRICS = {
    "runtime.engine": "runtime.engine_s",
    "mem.walk": "mem.walk_s",
    "ir.interp": "ir.interp_s",
    "sim.ooo": "sim.ooo_s",
    "workloads.build": "workloads.build_s",
    "workloads.validate": "workloads.validate_s",
    "compiler.compile": "compiler.compile_s",
    "sim.cell": "sim.other_s",
    "bench.unit": "bench.other_s",
    "dse.group": "dse.group_other_s",
    "dse.store_append": "dse.store_append_s",
}
#: OBS counter -> per-layer count metric
OBS_METRICS = {
    "engine.sim_events": "events.sim_events",
    "engine.offload_runs": "runtime.offload_runs",
    "engine.fastsim_runs": "runtime.fastsim_runs",
    "engine.fastsim_fallbacks": "runtime.fastsim_fallbacks",
    "mem.l1_accesses": "mem.l1_accesses",
    "mem.l2_accesses": "mem.l2_accesses",
    "mem.l3_accesses": "mem.l3_accesses",
    "mem.acp_accesses": "mem.acp_accesses",
    "mem.dram_accesses": "mem.dram_accesses",
    "mem.movement_bytes": "mem.movement_bytes",
    "interp.invocations": "ir.interp_calls",
    "compile.kernels": "compiler.kernels",
}
#: spans that hold simulator work: their self time is unattributed
CONTAINERS = ("bench.unit", "dse.group")


# -- shared helpers ----------------------------------------------------------

def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (0 for no samples)."""
    s = sorted(values)
    if not s:
        return 0.0
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def digest(records) -> str:
    """Short content hash of exact simulated statistics."""
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load(modules: Sequence[str]) -> None:
    """Import everything a workload's timed phase would import lazily."""
    for module in modules:
        importlib.import_module(module)


def probe_kernel() -> int:
    """Fixed pure-Python arithmetic, about 0.5 ms of CPU on a 2-CPU VM."""
    total = 0
    for i in range(5_000):
        total += i * i % 7
    return total


class HostSpeed:
    """The host's speed, probed on the timing thread while it times.

    A shared, virtualised host can change speed by 1.3-2x for minutes
    at a time, for every process alike (README.md, "Steadiness").
    Every PROBE_S a timer signal interrupts the main thread wherever it
    is and records the CPU time of :func:`probe_kernel`; CPU time leaves
    out waits for the benchmark's own other threads and processes, so
    only the host's speed moves it."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._previous = None

    def _probe(self, _signum, _frame) -> None:
        start = thread_time()
        probe_kernel()
        self.samples.append(thread_time() - start)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_S, PROBE_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """How many times slower than the reference host the host was."""
        if not self.samples:
            self._probe(None, None)
        return statistics.median(self.samples) / REFERENCE_PROBE_S


def measured_setup(modules: Sequence[str], build: Callable,
                   discard: Callable = lambda _built: None):
    """Set up SETUP_REPEATS times; return the last set-up, ``setup_s``
    and the host's speed while setting up.

    ``setup_s`` is the median time a fresh interpreter takes to start and
    import ``modules`` (the part one process cannot repeat) plus the
    median time of ``build()`` in this process. ``discard`` releases
    every set-up but the last, outside the timing."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import " + ", ".join(modules)
    imports = []
    builds = []
    built = None
    with HostSpeed() as host:
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                           check=True)
            imports.append(perf_counter() - start)
        load(modules)
        for i in range(SETUP_REPEATS):
            if i:
                discard(built)
            start = perf_counter()
            built = build()
            builds.append(perf_counter() - start)
    return (built, statistics.median(imports) + statistics.median(builds),
            host)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def fresh_path(name: str) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-{os.getpid()}.sqlite"
    for suffix in ("", "-wal", "-shm", "-journal"):
        Path(str(path) + suffix).unlink(missing_ok=True)
    return path


def reap_children(timeout_s: float = 30.0) -> None:
    """Wait for every child process to end; terminate stragglers."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for proc in multiprocessing.active_children():
                proc.terminate()
                proc.join(5.0)
            break
        time.sleep(0.02)


class Outcome:
    """What a run attempted, what failed, its metrics and report lines."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.lines: List[str] = []

    def op(self, ok: bool, what: str) -> None:
        """One cell, row or request: counted, and failed unless ``ok``."""
        self.attempted += 1
        self.check(ok, what)

    def check(self, ok: bool, what: str) -> None:
        """A check; run-level ones (digest agreement, direct re-runs)
        count as failures without counting as operations."""
        if not ok:
            self.failed += 1
            if self.failed <= 20:   # keep the report readable
                self.lines.append(f"FAIL {what}")

    def say(self, line: str) -> None:
        self.lines.append(line)

    def json(self) -> Dict:
        return {
            "correct": self.failed == 0,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in self.metrics.items()},
        }


def end_to_end(out: Outcome, host: HostSpeed, ops_per_s: float,
               hit_s: float, miss_s: float, setup_s: float,
               setup_host: HostSpeed) -> None:
    """Record the end-to-end metrics: throughput, the typical latency of
    an operation answered from a cache (hit) and of one computed afresh
    (miss), set-up time and peak memory. Times and the throughput are
    scaled to the reference host by the slowdown probed while they were
    timed; the report lines give them as timed too."""
    slowdown, setup_slowdown = host.slowdown(), setup_host.slowdown()
    values = {
        "sims_per_s": ops_per_s * slowdown,
        "hit_ms": 1e3 * hit_s / slowdown,
        "miss_ms": 1e3 * miss_s / slowdown,
        "setup_s": setup_s / setup_slowdown,
        "peak_rss_mb": peak_rss_mb(),
    }
    out.metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    out.say(f"host slowdown {slowdown:.4f} timed, {setup_slowdown:.4f} in "
            f"set-up (medians of {len(host.samples)} and "
            f"{len(setup_host.samples)} probes)")
    out.say(f"as timed: sims_per_s = {ops_per_s:.6g}, hit_ms = "
            f"{1e3 * hit_s:.6g}, miss_ms = {1e3 * miss_s:.6g}, "
            f"setup_s = {setup_s:.6g}")


class Phases:
    """Untraced, traced and counting phases of one traced run."""

    def __init__(self, rec: tracing.Recorder, out: Outcome):
        self.rec = rec
        self.out = out
        self.digests: Dict[str, str] = {}
        self.untraced_walls: List[float] = []
        self.traced_wall = 0.0
        self.counters: Dict[str, float] = {}
        self.layer_values: Dict[str, float] = {}
        self.origin = 0.0

    def run(self, mode: int, unit: Callable[[], Tuple[float, str]],
            main_thread_calls: bool = True) -> float:
        """Run ``unit`` (returns wall, digest) under ``mode``."""
        from repro.obs import OBS

        self.rec.clear()
        OBS.reset()
        self.rec.mode = self.rec.worker_mode = mode
        if mode == tracing.TRACE:
            self.origin = perf_counter()
        try:
            if mode == tracing.COUNT and main_thread_calls:
                wall, dig = self.rec.count_calls(unit)
            else:
                wall, dig = unit()
        finally:
            self.rec.mode = self.rec.worker_mode = tracing.OFF
        name = {tracing.OFF: "untraced", tracing.TRACE: "traced",
                tracing.COUNT: "counts"}[mode]
        prior = self.digests.setdefault(name, dig)
        self.out.check(prior == dig, f"{name} digests differ between units")
        if mode == tracing.OFF:
            self.untraced_walls.append(wall)
        elif mode == tracing.TRACE:
            self.traced_wall = wall
            self.counters = dict(OBS.counters)
        return wall

    def finish(self, extra: Dict[str, float]) -> None:
        """Digest agreement, per-layer metrics and the Chrome trace."""
        rec, out = self.rec, self.out
        base = self.digests.get("untraced")
        for name, dig in self.digests.items():
            out.say(f"digest[{name}]: {dig}")
            out.check(dig == base, f"{name} digest {dig} != untraced {base}")
        values = dict.fromkeys((n for n, _u in PER_LAYER), 0.0)
        values.update(extra)
        # calls come from the counting phase, which ran last
        for package in tracing.CALL_PACKAGES:
            values[f"calls.{package}"] = float(rec.calls.get(package, 0))
        values.update(self.layer_values)
        untraced = statistics.median(self.untraced_walls)
        values["trace.wall_s"] = self.traced_wall
        values["trace.overhead_s"] = self.traced_wall - untraced
        out.metrics = {n: (values[n], u) for n, u in PER_LAYER}
        out.say(f"traced wall {self.traced_wall:.2f} s, untraced median "
                f"{untraced:.2f} s, overhead "
                f"{self.traced_wall - untraced:+.2f} s")

    def analyse_trace(self, workload: str, seed: int) -> None:
        """Per-layer values from the traced phase (call right after it)."""
        rec, out = self.rec, self.out
        selfs, durations = rec.self_times()
        values: Dict[str, float] = {}
        for span, metric in SELF_TIME_METRICS.items():
            values[metric] = selfs.get(span, 0.0)
        for counter, metric in OBS_METRICS.items():
            values[metric] = self.counters.get(counter, 0.0)
        gets = rec.counts.get("sim.tracecache_get", 0)
        values["sim.tracecache_hit_ratio"] = (
            self.counters.get("tracecache.replays", 0.0) / gets
            if gets else 0.0)
        held = sum(durations.get(c, 0.0) for c in CONTAINERS)
        loose = sum(selfs.get(c, 0.0) for c in CONTAINERS)
        values["trace.unattributed_frac"] = loose / held if held else 0.0
        self.layer_values = values
        if held:
            out.say(f"share of the {held:.2f} s in {'/'.join(CONTAINERS)} "
                    "spans: self time, and with children (inclusive)")
            for span, metric in SELF_TIME_METRICS.items():
                if span != "dse.store_append":
                    out.say(f"  {metric:22s} {selfs.get(span, 0.0):8.3f} s "
                            f"{100 * selfs.get(span, 0.0) / held:5.1f}% "
                            f"{100 * durations.get(span, 0.0) / held:6.1f}%")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload}-seed{seed}.json"
        events = rec.write_chrome_trace(str(path), self.origin)
        out.say(f"chrome trace: {events} spans -> "
                f"{path.relative_to(ROOT)}")


# -- paper_matrix --------------------------------------------------------------

#: EXPERIMENTS.md "Headline geometric means": (row, metric, config,
#: versus config or None for OoO, paper value)
HEADLINE = (
    ("Dist-DA-F vs OoO energy efficiency", "ee", "dist_da_f", None, 3.3),
    ("Dist-DA-F vs OoO speedup", "speedup", "dist_da_f", None, 1.59),
    ("Dist-DA-F vs OoO movement reduction", "movement", "dist_da_f", None,
     2.4),
    ("Dist-DA-F vs Mono-CA energy efficiency", "ee", "dist_da_f",
     "mono_ca", 2.46),
    ("Dist-DA-F vs Mono-CA speedup", "speedup", "dist_da_f", "mono_ca",
     1.43),
    ("Dist-DA-F vs Mono-CA movement", "movement", "dist_da_f", "mono_ca",
     3.5),
    ("Dist-DA-F vs Mono-DA-IO energy efficiency", "ee", "dist_da_f",
     "mono_da_io", 1.46),
    ("Dist-DA-F vs Mono-DA-IO speedup", "speedup", "dist_da_f",
     "mono_da_io", 1.65),
    ("Dist-DA-F vs Mono-DA-IO movement", "movement", "dist_da_f",
     "mono_da_io", 1.48),
    ("Dist-DA-IO vs OoO energy efficiency", "ee", "dist_da_io", None, 2.67),
    ("compute specialization (F vs IO) energy", "ee", "dist_da_f",
     "dist_da_io", 1.23),
    ("compute specialization (F vs IO) speedup", "speedup", "dist_da_f",
     "dist_da_io", 1.43),
)


class PaperMatrix:
    """The paper's 12 workloads x 6 configs at ``small``, serially, one
    cold trace cache per workload row (``ResultMatrix.run_all(jobs=1)``).

    A row's first configuration interprets the workload (a trace-cache
    *miss* cell); the other five replay its trace (*hit* cells)."""

    name = "paper_matrix"
    modules = ("repro.experiments.runner", "repro.testing.golden")

    def setup(self):
        from repro.params import experiment_machine

        return experiment_machine()

    @staticmethod
    def order(seed: int) -> List[str]:
        from repro.workloads import PAPER_ORDER

        order = list(PAPER_ORDER)
        random.Random(seed).shuffle(order)
        return order

    def row(self, machine, workload: str, out: Outcome, results: Dict
            ) -> Tuple[float, List[float]]:
        """Run one workload's six cells and check them; returns the row's
        wall time and its cells' wall times, the interpreting one first."""
        from repro.experiments.runner import ResultMatrix
        from repro.obs import OBS

        first = len(OBS.cells)
        missed = OBS.counter("tracecache.misses")
        start = perf_counter()
        matrix = ResultMatrix(scale="small", machine=machine,
                              workloads=(workload,)).run_all(jobs=1)
        wall = perf_counter() - start
        out.check(OBS.counter("tracecache.misses") - missed == 1,
                  f"{workload}: row did not interpret exactly once")
        for (w, c), run in matrix.results.items():
            out.op(run.validated, f"{w}/{c} not validated")
            results[(w, c)] = run
        out.check(len(matrix.results) == 6, f"{workload}: row incomplete")
        return wall, [cell.wall_s for cell in OBS.cells[first:]]

    def full_pass(self, machine, order: List[str], out: Outcome
                  ) -> Tuple[float, Dict]:
        results: Dict = {}
        start = perf_counter()
        for workload in order:
            self.row(machine, workload, out, results)
        return perf_counter() - start, results

    @staticmethod
    def cell_digest(results: Dict) -> str:
        from repro.testing.golden import cell_record

        return digest(sorted([w, c, cell_record(r)]
                             for (w, c), r in results.items()))

    @staticmethod
    def headline(results: Dict, out: Outcome) -> float:
        """Print the 12 headline ratios beside the paper's; return the
        mean |ln(measured/paper)|."""
        from repro.experiments.runner import ResultMatrix
        from repro.workloads import PAPER_ORDER

        matrix = ResultMatrix(scale="small", workloads=PAPER_ORDER,
                              results=dict(results))
        errors = []
        out.say(f"{'headline geomean':44s} {'measured':>9s} {'paper':>6s}")
        for label, metric, config, versus, paper in HEADLINE:
            value = matrix.gm(metric, config)
            if versus is not None:
                value /= matrix.gm(metric, versus)
            errors.append(abs(math.log(value / paper)))
            out.say(f"{label:44s} {value:8.2f}x {paper:5.2f}x")
        err = sum(errors) / len(errors)
        out.say(f"paper_gm_log_err (simulated, vs the paper's figures, not "
                f"held-out data): {err:.4f}")
        return err

    def timed(self, seed: int, seconds: float) -> Outcome:
        out = Outcome()
        machine, setup_s, setup_host = measured_setup(self.modules,
                                                      self.setup)

        # rows run in passes over a seeded order until the time is up;
        # every statistic is a median per workload (row) or per cell
        # first, so a partial last pass does not tilt the mix
        order = self.order(seed)
        first: Dict = {}
        rows: Dict[str, List[float]] = {}
        cells: Dict[Tuple[str, int], List[float]] = {}
        start = perf_counter()
        with HostSpeed() as host:
            while not first or perf_counter() - start < seconds:
                passed: Dict = {}
                for workload in order:
                    if first and perf_counter() - start >= seconds:
                        break
                    wall, walls = self.row(machine, workload, out, passed)
                    rows.setdefault(workload, []).append(wall)
                    for i, cell_wall in enumerate(walls):
                        cells.setdefault((workload, i), []).append(cell_wall)
                first = first or passed
        wall = perf_counter() - start
        per_cell = {k: statistics.median(v) for k, v in cells.items()}
        hit = [v for (_w, i), v in per_cell.items() if i > 0]
        miss = [v for (_w, i), v in per_cell.items() if i == 0]
        end_to_end(out, host, 6 * len(rows) / sum(statistics.median(v)
                                                  for v in rows.values()),
                   statistics.fmean(hit), statistics.fmean(miss), setup_s,
                   setup_host)
        out.say(f"{sum(map(len, rows.values()))} rows in {wall:.2f} s; "
                f"hit_ms/miss_ms are mean cell times over the {len(hit)} "
                f"replaying and {len(miss)} interpreting cells")
        out.say(f"digest: {self.cell_digest(first)}")
        self.headline(first, out)
        return out

    def traced(self, seed: int) -> Outcome:
        out = Outcome()
        load(self.modules)
        rec = tracing.Recorder()
        tracing.install(rec)
        phases = Phases(rec, out)
        machine = self.setup()
        order = self.order(seed)
        results: Dict = {}

        def unit() -> Tuple[float, str]:
            wall, got = self.full_pass(machine, order, out)
            results.update(got)
            return wall, self.cell_digest(got)

        root = rec.span("bench.unit", unit)
        phases.run(tracing.TRACE, root)
        phases.analyse_trace(self.name, seed)
        err = self.headline(results, out)
        phases.run(tracing.OFF, unit)
        phases.run(tracing.COUNT, unit)
        phases.finish({"sim.paper_gm_log_err": err})
        return out


# -- wss_sweep -------------------------------------------------------------------

#: dataset workloads with an ``n`` size argument
WSS_WORKLOADS = ("fdt", "adi", "dis", "cho")
#: size bands; with the experiment machine's 64 KB LLC they span
#: working sets from ~0.1x to ~2x the LLC (see README.md)
WSS_BANDS = (32, 56, 80)
WSS_JOBS = 2


class WssSweep:
    """A ``repro.dse`` dataset sweep at ``run_sweep(jobs=2)`` into a
    fresh sqlite store. Each dataset group interprets once (its ``ooo``
    point, a *miss* cell) and replays for ``dist_da_f`` (a *hit* cell)."""

    name = "wss_sweep"
    modules = ("repro.dse", "repro.testing.golden")

    def setup(self, seed: int):
        from repro.dse.spec import SweepSpec

        # the seed shifts each band by at most one, in a permutation, so
        # the sweep's total work barely depends on it
        shifts = [-1, 0, 1]
        random.Random(seed).shuffle(shifts)
        sizes = [band + shift for band, shift in zip(WSS_BANDS, shifts)]
        return SweepSpec.from_dict({
            "name": f"perfbench-wss-{seed}",
            "scale": "small",
            "base": "experiment",
            "workloads": list(WSS_WORKLOADS),
            "configs": ["ooo", "dist_da_f"],
            "machine_axes": {},
            "workload_axes": {"n": sizes},
        })

    def sweep(self, spec, out: Outcome
              ) -> Tuple[float, int, str, float, float]:
        """One sweep into a fresh store; returns its wall time, rows,
        digest, and mean replaying (hit) and interpreting (miss) cell
        wall times."""
        from repro.dse import run_sweep
        from repro.dse.store import SqliteResultStore
        from repro.obs import OBS

        path = fresh_path("wss")
        first = len(OBS.cells)
        missed = OBS.counter("tracecache.misses")
        start = perf_counter()
        result = run_sweep(spec, jobs=WSS_JOBS, store_path=str(path))
        wall = perf_counter() - start
        groups = len({p.trace_key() for p in spec.points()})
        out.check(OBS.counter("tracecache.misses") - missed == groups,
                  "sweep did not interpret each dataset exactly once")
        # the first point of each dataset group (its ooo cell) interprets
        hits = [c.wall_s for c in OBS.cells[first:] if c.config != "ooo"]
        misses = [c.wall_s for c in OBS.cells[first:] if c.config == "ooo"]
        rows = list(result.rows.values())
        for row in rows:
            ok = (row["status"] == "ok"
                  and bool((row["metrics"] or {}).get("validated")))
            out.op(ok, f"row {row['point']} {row['status']}")
        out.check(len(rows) == len(spec.points()), "sweep lost points")
        with SqliteResultStore(str(path)) as store:
            out.check(store.count() == len(rows), "store row count")
        path.unlink(missing_ok=True)
        dig = digest(sorted([r["hash"], r["metrics"]] for r in rows))
        return (wall, len(rows), dig, statistics.fmean(hits),
                statistics.fmean(misses))

    def describe(self, spec, out: Outcome) -> None:
        from repro.params import experiment_machine
        from repro.workloads import ALL_WORKLOADS

        llc = experiment_machine().l3.size_bytes
        for w in WSS_WORKLOADS:
            ratios = []
            for p in spec.points():
                if p.workload != w or p.config != "ooo":
                    continue
                n = dict(p.workload_kwargs)["n"]
                inst = ALL_WORKLOADS[w].build("small", n=n)
                ws = sum(o.size_bytes for o in inst.objects.values())
                ratios.append(f"n={n}:{ws / llc:.2f}")
            out.say(f"working set / LLC  {w}: {' '.join(ratios)}")

    def timed(self, seed: int, seconds: float) -> Outcome:
        out = Outcome()
        spec, setup_s, setup_host = measured_setup(
            self.modules, lambda: self.setup(seed))

        # every statistic is a median over whole sweeps
        rates: List[float] = []
        hits: List[float] = []
        misses: List[float] = []
        digests = set()
        start = perf_counter()
        with HostSpeed() as host:
            while not rates or perf_counter() - start < seconds:
                wall, n, dig, hit, miss = self.sweep(spec, out)
                rates.append(n / wall)
                hits.append(hit)
                misses.append(miss)
                digests.add(dig)
        reap_children()
        out.check(len(digests) == 1, "sweeps disagree on results")
        end_to_end(out, host, statistics.median(rates),
                   statistics.median(hits), statistics.median(misses),
                   setup_s, setup_host)
        out.say(f"{len(rates)} sweeps in {perf_counter() - start:.2f} s, "
                "cells/s per sweep: " + " ".join(f"{r:.2f}" for r in rates))
        out.say("hit_ms/miss_ms: per sweep, the mean wall time of its "
                "replaying and its interpreting cells")
        out.say(f"digest: {sorted(digests)[0]}")
        self.describe(spec, out)
        return out

    def traced(self, seed: int) -> Outcome:
        out = Outcome()
        load(self.modules)
        rec = tracing.Recorder()
        tracing.install(rec)
        phases = Phases(rec, out)
        spec = self.setup(seed)

        def unit() -> Tuple[float, str]:
            wall, _n, dig, _hit, _miss = self.sweep(spec, out)
            return wall, dig

        wall = phases.run(tracing.TRACE, unit)
        phases.analyse_trace(self.name, seed)
        busy = rec.self_times()[1].get("dse.group", 0.0)
        pool_busy = busy / (WSS_JOBS * wall)
        out.say(f"pool busy: {busy:.2f} s of {WSS_JOBS} x {wall:.2f} s = "
                f"{100 * pool_busy:.1f}%")
        for _ in range(UNTRACED_UNITS):
            phases.run(tracing.OFF, unit)
        phases.run(tracing.COUNT, unit)
        reap_children()
        phases.finish({"dse.pool_busy_frac": pool_busy})
        return out


# -- serve_mixed -----------------------------------------------------------------

#: one request in MISS_EVERY queries a fresh point
MISS_EVERY = 10
CLIENTS = 2
#: a timed run's throughput is the median over windows this long (s)
WINDOW_S = 3.0
#: requests per phase of a traced run
TRACED_REQUESTS = 200
#: the first misses, in the order they were sent, enter the digest
DIGEST_MISSES = 16
#: misses re-run directly through run_sweep after the timed phase
CHECKED_MISSES = 3
#: configs of the (workload, config) cycle the fresh points walk through
MISS_CONFIGS = ("ooo", "dist_da_f")


def _query(port: int, body: Dict, request_id: str) -> Tuple[int, Dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("POST", "/v1/query", body=json.dumps(body).encode(),
                     headers={"Content-Type": "application/json",
                              "X-Request-Id": request_id})
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, (json.loads(raw) if raw else {})
    finally:
        conn.close()


class Traffic:
    """A seeded closed loop of CLIENTS connections against one server."""

    def __init__(self, seed: int, rows: List[Dict], out: Outcome):
        from repro.workloads import PAPER_ORDER

        self.seed = seed
        self.cycle = [(w, c) for w in PAPER_ORDER for c in MISS_CONFIGS]
        self.stored = {r["hash"]: r for r in rows}
        self.points = [r["point"] for r in sorted(rows,
                                                  key=lambda r: r["hash"])]
        self.offset = random.Random(seed).randrange(len(self.cycle))
        self.out = out
        self._lock = threading.Lock()
        self._misses = itertools.count()
        #: (kind, latency_s, request id, completion time)
        self.samples: List[Tuple[str, float, str, float]] = []
        #: miss index -> (point, row)
        self.fresh: Dict[int, Tuple[Dict, Dict]] = {}

    def miss_point(self, k: int) -> Dict:
        workload, config = self.cycle[(self.offset + k) % len(self.cycle)]
        return {"workload": workload, "config": config, "scale": "tiny",
                "machine_overrides": {
                    "accel_freq_ghz": round(1.0 + 0.001 * (k + 1), 3)},
                "workload_kwargs": {}}

    def client(self, port: int, cid: int, stop: Callable[[int], bool]
               ) -> None:
        rng = random.Random(f"{self.seed}:{cid}")
        n = 0
        while not stop(n):
            miss_at = rng.randrange(MISS_EVERY)
            for slot in range(MISS_EVERY):
                if stop(n):
                    break
                self.request(port, cid, n, rng, slot == miss_at)
                n += 1

    def request(self, port: int, cid: int, n: int, rng: random.Random,
                miss: bool) -> None:
        rid = f"c{cid}-{n}"
        if miss:
            with self._lock:
                k = next(self._misses)
            point = self.miss_point(k)
        else:
            point = rng.choice(self.points)
        body = {"point": point, "base": "experiment", "wait": miss,
                "timeout_s": 120}
        start = perf_counter()
        try:
            status, reply = _query(port, body, rid)
        except OSError as exc:
            status, reply = 0, {"error": str(exc)}
        end = perf_counter()
        latency = end - start
        row = reply.get("row") or {}
        ok = (status == 200 and reply.get("cached") is (not miss)
              and row.get("status") == "ok"
              and bool((row.get("metrics") or {}).get("validated"))
              and row.get("point") == point)
        if ok and not miss:
            stored = self.stored.get(row.get("hash"))
            ok = stored is not None and stored["metrics"] == row["metrics"]
        with self._lock:
            self.out.op(ok, f"{rid} {'miss' if miss else 'hit'} "
                            f"status={status} {reply.get('error', '')}")
            self.samples.append(("miss" if miss else "hit", latency, rid,
                                 end))
            if miss and ok:
                self.fresh[k] = (point, row)

    def drive(self, port: int, stop: Callable[[int], bool]) -> float:
        threads = [threading.Thread(target=self.client,
                                    args=(port, cid, stop),
                                    name=f"client-{cid}")
                   for cid in range(CLIENTS)]
        start = perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return perf_counter() - start

    def latencies(self, kind: str) -> List[float]:
        return [s[1] for s in self.samples if s[0] == kind]

    def window_rates(self, start: float, wall: float) -> List[float]:
        """Requests completed per second in each whole WINDOW_S window
        after ``start``, so a few slow seconds move the median little."""
        counts = [0] * max(1, int(wall // WINDOW_S))
        for sample in self.samples:
            window = int((sample[3] - start) // WINDOW_S)
            if window < len(counts):
                counts[window] += 1
        return [count / WINDOW_S for count in counts]

    def digest(self) -> str:
        records = sorted([h, r["metrics"]] for h, r in self.stored.items())
        fresh = [[k, self.fresh[k][1]["hash"], self.fresh[k][1]["metrics"]]
                 for k in range(DIGEST_MISSES) if k in self.fresh]
        self.out.check(len(fresh) == DIGEST_MISSES,
                       f"only {len(fresh)} of {DIGEST_MISSES} digest misses")
        return digest([records, fresh])


class ServeMixed:
    """``repro.serve`` with its default config on a fresh sqlite store,
    pre-populated with a seeded tiny-scale spec; a closed loop of two
    connections sends 9 stored-point queries per fresh one."""

    name = "serve_mixed"
    modules = ("repro.serve", "repro.testing.golden")

    @staticmethod
    def spec(seed: int) -> Dict:
        from repro.experiments.runner import BASELINE, PAPER_CONFIGS
        from repro.workloads import PAPER_ORDER

        freq = 0.5 + 0.05 * random.Random(seed).randrange(6)
        return {"name": f"perfbench-serve-{seed}", "scale": "tiny",
                "base": "experiment", "workloads": list(PAPER_ORDER),
                "configs": [BASELINE, *PAPER_CONFIGS],
                "machine_axes": {"accel_freq_ghz": [round(freq, 2)]},
                "workload_axes": {}}

    def setup(self, seed: int, **config):
        """Server start on a fresh store plus pre-population; ``config``
        overrides :class:`ServeConfig` defaults."""
        from repro.serve import ServeClient, ServeConfig, SweepServer

        server = SweepServer(ServeConfig(
            port=0, store_path=str(fresh_path("serve")), **config))
        server.start()
        client = ServeClient(port=server.port)
        job = client.submit_sweep(self.spec(seed))
        client.wait_job(job["id"], timeout_s=120.0, poll_s=0.005)
        return server, client.job_rows(job["id"])

    @staticmethod
    def stop(server) -> None:
        server.stop()
        reap_children()
        fresh_path("serve")   # leaves no store behind

    @staticmethod
    def check_misses(traffic: Traffic, out: Outcome) -> None:
        """Re-run a seeded sample of served misses directly."""
        from repro.dse import SweepSpec, run_sweep

        done = sorted(traffic.fresh)
        rng = random.Random(traffic.seed)
        for k in rng.sample(done, min(CHECKED_MISSES, len(done))):
            point, row = traffic.fresh[k]
            spec = SweepSpec.from_dict({
                "name": "perfbench-check", "scale": "tiny",
                "base": "experiment", "workloads": [point["workload"]],
                "configs": [point["config"]],
                "machine_axes": {k2: [v] for k2, v in
                                 point["machine_overrides"].items()},
                "workload_axes": {}})
            direct = list(run_sweep(spec, jobs=1).rows.values())
            out.check(len(direct) == 1 and direct[0]["hash"] == row["hash"]
                      and direct[0]["metrics"] == row["metrics"],
                      f"served miss {point} != direct run_sweep")

    def timed(self, seed: int, seconds: float) -> Outcome:
        out = Outcome()
        (server, rows), setup_s, setup_host = measured_setup(
            self.modules, lambda: self.setup(seed),
            lambda built: self.stop(built[0]))
        try:
            traffic = Traffic(seed, rows, out)
            start = perf_counter()
            deadline = start + seconds
            with HostSpeed() as host:
                wall = traffic.drive(server.port,
                                     lambda _n: perf_counter() >= deadline)
            dig = traffic.digest()
        finally:
            self.stop(server)
        hits = traffic.latencies("hit")
        misses = traffic.latencies("miss")
        rates = traffic.window_rates(start, wall)
        end_to_end(out, host, statistics.median(rates),
                   statistics.median(hits), statistics.median(misses),
                   setup_s, setup_host)
        out.say(f"{len(traffic.samples)} requests in {wall:.2f} s: "
                f"{len(hits)} hits, {len(misses)} misses; hit_ms/miss_ms "
                "are client-side medians; req/s per "
                f"{WINDOW_S:g} s window: " + " ".join(f"{r:.0f}"
                                                      for r in rates))
        beyond = len(hits) // 100
        if beyond >= 10:
            out.say(f"hit_p99_ms: {1e3 * quantile(hits, 0.99):.3f} "
                    f"({len(hits)} samples, {beyond} beyond)")
        out.say(f"digest: {dig}")
        self.check_misses(traffic, out)
        return out

    def traced(self, seed: int) -> Outcome:
        from repro.obs import OBS
        from repro.serve import ServeClient

        out = Outcome()
        load(self.modules)
        rec = tracing.Recorder()
        tracing.install(rec)
        phases = Phases(rec, out)
        per_client = TRACED_REQUESTS // CLIENTS
        last: Dict = {}

        def serve_phase(mode: int) -> None:
            # the server's pool workers fork during set-up and keep the
            # mode they forked with; what they record of set-up is
            # absorbed before set-up ends, and cleared
            rec.worker_mode = mode
            # call counts repeat only with one worker process: with two,
            # which process simulates a miss (and so whose compile caches
            # are warm) changes from run to run
            server, rows = self.setup(
                seed, **({"workers": 1} if mode == tracing.COUNT else {}))
            traffic = Traffic(seed, rows, out)

            def unit() -> Tuple[float, str]:
                wall = traffic.drive(server.port, lambda n: n >= per_client)
                return wall, traffic.digest()
            try:
                phases.run(mode, unit, main_thread_calls=False)
                if mode == tracing.TRACE:
                    last["stats"] = ServeClient(port=server.port).stats()
                    last["exec"] = OBS.timers.get("serve.group_exec",
                                                  [0.0, 0])
                    last["traffic"] = traffic
            finally:
                self.stop(server)

        serve_phase(tracing.TRACE)
        phases.analyse_trace(self.name, seed)
        traffic = last["traffic"]
        stats = last["stats"]["stats"]
        hit_ids = {s[2]: s[1] for s in traffic.samples if s[0] == "hit"}
        route = rec.by_id("serve.route")
        gets = rec.by_id("dse.store_get")
        total, count = last["exec"]
        extra = {
            "serve.route_ms": 1e3 * statistics.median(
                route.get(r, 0.0) for r in hit_ids),
            "serve.store_get_ms": 1e3 * statistics.median(
                gets.get(r, 0.0) for r in hit_ids),
            "serve.http_ms": 1e3 * statistics.median(
                lat - route.get(r, 0.0) for r, lat in hit_ids.items()),
            "serve.queue_wait_ms": stats.get("queue_latency_mean_ms") or 0.0,
            "serve.worker_s": total / count if count else 0.0,
            "serve.hit_ratio": stats.get("hit_ratio") or 0.0,
            "serve.dedup_inflight": float(stats.get("dedup_inflight", 0)),
        }
        for _ in range(UNTRACED_UNITS):
            serve_phase(tracing.OFF)
        serve_phase(tracing.COUNT)
        self.check_misses(traffic, out)
        phases.finish(extra)
        return out


WORKLOADS = {w.name: w for w in (PaperMatrix(), WssSweep(), ServeMixed())}
