"""Outside-in spans and call counts for the benchmark's traced runs.

Nothing under ``src/`` is edited. :func:`install` replaces the public
entry points of each ``repro`` layer (class methods and module-level
names such as ``OffloadEngine.run``, ``compile_kernel`` or
``SqliteResultStore.get``) with thin wrappers owned by a
:class:`Recorder`. The recorder's mode decides what a wrapper does:

* ``OFF``: call straight through (untraced phases of a traced run);
* ``TRACE``: record a span — name, start, end, parent, and the cell or
  request id the call belongs to — in a per-thread in-memory buffer;
* ``COUNT``: run each thread's entry point under a private ``cProfile``
  and add up Python calls per ``repro`` package.

Pool workers fork from the benchmark process and follow the
``worker_mode`` it had at the fork (the program forks its pools at
their first submission, so it is set before work is submitted). A
worker records into its own buffers and
hands spans and call totals back inside the observability snapshot the
program already returns to the parent (``OBS.merge`` is wrapped to take
them out again), so a sweep is traced at its real parallelism.
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import threading
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

OFF, TRACE, COUNT = 0, 1, 2

#: packages under ``src/repro`` whose Python call totals are reported
CALL_PACKAGES = ("ir", "compiler", "sim", "runtime", "events", "mem",
                 "noc", "energy", "dse", "serve")

#: key under which a pool worker carries its spans back to the parent
_CARRY = "perfbench"

#: one span: (name, start_s, end_s, parent index in its thread, id)
Span = Tuple[str, float, float, int, Optional[str]]


class Recorder:
    """Per-thread span buffers, call totals and the shared mode flag."""

    def __init__(self) -> None:
        #: what wrappers in this process do
        self.mode = OFF
        #: what pool workers forked from here will do
        self.worker_mode = OFF
        self._lock = threading.Lock()
        self._local = threading.local()
        #: (pid, thread id, thread name, spans) per recording thread
        self.threads: List[Tuple[int, int, str, List]] = []
        #: Python calls per package (COUNT mode)
        self.calls: Counter = Counter()
        #: plain call counters kept by :meth:`counted` wrappers
        self.counts: Counter = Counter()
        self._owner = os.getpid()
        self._repro_dir = ""
        os.register_at_fork(after_in_child=self._after_fork)

    # -- lifecycle ---------------------------------------------------------
    def clear(self) -> None:
        """Drop everything recorded so far (between phases)."""
        with self._lock:
            self.threads = []
            self.calls = Counter()
            self.counts = Counter()
            self._local = threading.local()

    def _after_fork(self) -> None:
        # another thread may have held the lock at fork time
        self._lock = threading.Lock()
        self.threads = []
        self.calls = Counter()
        self.counts = Counter()
        self._local = threading.local()

    def _thread_state(self) -> Dict:
        state = self._local.__dict__
        if "spans" not in state:
            state.update(spans=[], stack=[], ctx=None, profiling=False)
            thread = threading.current_thread()
            with self._lock:
                self.threads.append((os.getpid(), thread.ident or 0,
                                     thread.name, state["spans"]))
        return state

    # -- wrappers ----------------------------------------------------------
    def span(self, name: str, fn: Callable,
             ctx: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` in a span; ``ctx(args, kwargs)`` names the cell or
        request the call (and every span under it) belongs to."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.mode != TRACE:
                return fn(*args, **kwargs)
            state = rec._local.__dict__
            if "spans" not in state:
                state = rec._thread_state()
            spans, stack = state["spans"], state["stack"]
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            prior = state["ctx"]
            if ctx is not None:
                state["ctx"] = ctx(args, kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, state["ctx"])
                state["ctx"] = prior
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so traced calls are counted (no span)."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.mode == TRACE:
                with rec._lock:
                    rec.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def profiled(self, fn: Callable) -> Callable:
        """Wrap a thread's entry point: in COUNT mode the call runs under
        a private profiler unless the thread already has one."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.mode != COUNT:
                return fn(*args, **kwargs)
            state = rec._thread_state()
            if state["profiling"]:
                return fn(*args, **kwargs)
            return rec.count_calls(fn, *args, **kwargs)
        return wrapper

    def count_calls(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` under cProfile and add its per-package call totals."""
        state = self._thread_state()
        profile = cProfile.Profile()
        state["profiling"] = True
        profile.enable()
        try:
            return fn(*args, **kwargs)
        finally:
            profile.disable()
            state["profiling"] = False
            totals = self._package_calls(profile)
            with self._lock:
                self.calls.update(totals)

    def _package_calls(self, profile: cProfile.Profile) -> Counter:
        profile.create_stats()
        totals: Counter = Counter()
        prefix = self._repro_dir
        for (filename, _line, _name), stat in profile.stats.items():
            if not filename.startswith(prefix):
                continue
            package = filename[len(prefix):].split(os.sep, 1)[0]
            package = package[:-3] if package.endswith(".py") else package
            if package in CALL_PACKAGES:
                totals[package] += stat[1]
        return totals

    def pool_worker(self, fn: Callable) -> Callable:
        """Wrap the sweep pool's worker function. In a forked worker it
        records the group as a ``dse.group`` span (or counts its calls)
        and returns what it recorded inside the OBS snapshot."""
        rec = self
        group_span = self.span("dse.group", fn)

        @functools.wraps(fn)
        def wrapper(args):
            current = rec.worker_mode
            if current == OFF or os.getpid() == rec._owner:
                return fn(args)
            rec._after_fork()   # this group's records only
            rec.mode = current
            if current == TRACE:
                rows, snapshot = group_span(args)
            else:
                rows, snapshot = rec.count_calls(fn, args)
            snapshot = dict(snapshot or {})
            snapshot[_CARRY] = {"threads": rec.threads,
                                "calls": dict(rec.calls),
                                "counts": dict(rec.counts)}
            return rows, snapshot
        return wrapper

    def absorb(self, carried: Dict) -> None:
        with self._lock:
            self.threads.extend(carried["threads"])
            self.calls.update(carried["calls"])
            self.counts.update(carried["counts"])

    # -- analysis ----------------------------------------------------------
    def spans(self) -> List[Tuple[int, int, str, List[Span]]]:
        with self._lock:
            return list(self.threads)

    def self_times(self) -> Tuple[Counter, Counter]:
        """Span name -> total self time (each span's duration minus the
        part its child spans cover; children nest within one thread),
        and span name -> total duration."""
        totals: Counter = Counter()
        durations: Counter = Counter()
        for _pid, _tid, _name, spans in self.spans():
            covered = [0.0] * len(spans)
            for s in spans:
                if s is not None and s[3] >= 0:
                    covered[s[3]] += s[2] - s[1]
            for i, s in enumerate(spans):
                if s is not None:
                    totals[s[0]] += (s[2] - s[1]) - covered[i]
                    durations[s[0]] += s[2] - s[1]
        return totals, durations

    def by_id(self, name: str) -> Dict[str, float]:
        """Id -> summed duration of the spans called ``name``."""
        out: Dict[str, float] = {}
        for _pid, _tid, _name, spans in self.spans():
            for s in spans:
                if s is not None and s[0] == name and s[4] is not None:
                    out[s[4]] = out.get(s[4], 0.0) + (s[2] - s[1])
        return out

    def write_chrome_trace(self, path: str, origin: float) -> int:
        """Write every span as Chrome trace-event JSON, one event at a
        time (a matrix pass has ~500k spans); returns the span count."""
        written = 0
        with open(path, "w") as fh:
            fh.write('{"displayTimeUnit":"ms","traceEvents":[')
            sep = ""
            for pid, tid, tname, spans in self.spans():
                fh.write(sep + json.dumps(
                    {"ph": "M", "name": "thread_name", "pid": pid,
                     "tid": tid, "args": {"name": tname}}))
                sep = ","
                for s in spans:
                    if s is None:
                        continue
                    event = {"ph": "X", "name": s[0], "pid": pid,
                             "tid": tid,
                             "ts": round((s[1] - origin) * 1e6, 3),
                             "dur": round((s[2] - s[1]) * 1e6, 3)}
                    if s[4] is not None:
                        event["args"] = {"id": s[4]}
                    fh.write("," + json.dumps(event, separators=(",", ":")))
                    written += 1
            fh.write("]}")
        return written


def _cell_id(args, kwargs) -> str:
    return f"{args[0].short}/{args[1]}"


def _request_id(args, kwargs) -> Optional[str]:
    return args[1].headers.get("X-Request-Id")


def install(rec: Recorder) -> None:
    """Wrap the public entry point of every layer (mode starts OFF)."""
    import repro
    from repro.dse import scheduler
    from repro.dse.store import SqliteResultStore
    from repro.experiments import runner
    from repro.mem.hierarchy import L3DemandWindow, MemoryHierarchy
    from repro.obs import OBS
    from repro.runtime.engine import OffloadEngine
    from repro.serve import jobs, server, workers
    from repro.sim import system
    from repro.sim.ooo import OooModel
    from repro.sim.tracecache import TraceCache
    from repro.workloads import ALL_WORKLOADS
    from repro.workloads.base import WorkloadInstance

    rec._repro_dir = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

    def wrap(owner, attr: str, wrapper: Callable) -> None:
        setattr(owner, attr, wrapper)

    for module in (runner, scheduler):
        wrap(module, "simulate_workload",
             rec.span("sim.cell", module.simulate_workload, _cell_id))
    wrap(OffloadEngine, "run", rec.span("runtime.engine", OffloadEngine.run))
    wrap(OooModel, "run", rec.span("sim.ooo", OooModel.run))
    for attr, value in list(vars(MemoryHierarchy).items()):
        if not attr.startswith("_") and callable(value):
            wrap(MemoryHierarchy, attr, rec.span("mem.walk", value))
    for attr in ("access", "flush"):
        wrap(L3DemandWindow, attr,
             rec.span("mem.walk", getattr(L3DemandWindow, attr)))
    wrap(system, "compile_kernel",
         rec.span("compiler.compile", system.compile_kernel))

    make_interpreter = system.make_interpreter
    interp_span = functools.partial(rec.span, "ir.interp")

    @functools.wraps(make_interpreter)
    def traced_interpreter(*args, **kwargs):
        interp = make_interpreter(*args, **kwargs)
        interp.run = interp_span(interp.run)
        return interp
    wrap(system, "make_interpreter", traced_interpreter)

    for cls in {type(w) for w in ALL_WORKLOADS.values()}:
        wrap(cls, "build", rec.span("workloads.build", cls.build))
    wrap(WorkloadInstance, "validate",
         rec.span("workloads.validate", WorkloadInstance.validate))
    wrap(TraceCache, "get", rec.counted("sim.tracecache_get",
                                        TraceCache.get))
    wrap(SqliteResultStore, "append",
         rec.span("dse.store_append", SqliteResultStore.append))
    wrap(SqliteResultStore, "get",
         rec.span("dse.store_get", SqliteResultStore.get))

    # pool workers: the same wrapper object must sit under the name the
    # pool pickles (repro.dse.scheduler._sweep_worker) and wherever the
    # service bound it at import
    worker = rec.pool_worker(scheduler._sweep_worker)
    wrap(scheduler, "_sweep_worker", worker)
    wrap(workers, "_sweep_worker", worker)
    merge = OBS.merge

    def merge_carried(snapshot: dict) -> None:
        carried = snapshot.pop(_CARRY, None)
        if carried is not None:
            rec.absorb(carried)
        merge(snapshot)
    OBS.merge = merge_carried

    # the service: handler threads, worker-pool threads and callbacks
    wrap(server.SweepServer, "route",
         rec.span("serve.route", server.SweepServer.route, _request_id))
    wrap(server._Handler, "handle", rec.profiled(server._Handler.handle))
    wrap(workers.WorkerPool, "_run_with_retries",
         rec.profiled(workers.WorkerPool._run_with_retries))
    for attr in ("_on_rows", "_on_start"):
        wrap(jobs.JobManager, attr,
             rec.profiled(getattr(jobs.JobManager, attr)))
