"""Trace cache: storage semantics and cross-config replay fidelity."""

import pickle

import numpy as np
import pytest

from repro.ir import FLOAT32, Kernel, Loop, LoopVar, MemObject
from repro.ir.interp import Interpreter
from repro.obs import OBS
from repro.params import experiment_machine
from repro.sim import simulate_workload
from repro.sim.tracecache import (
    FunctionalCallRecord,
    TraceCache,
    WorkloadTrace,
)
from repro.workloads import ALL_WORKLOADS


def vec_add_kernel(n=16):
    A = MemObject("A", n, FLOAT32)
    B = MemObject("B", n, FLOAT32)
    C = MemObject("C", n, FLOAT32)
    i = LoopVar("i")
    loop = Loop("i", 0, n, [C.store(i, A[i] + B[i])])
    return Kernel("vadd", {"A": A, "B": B, "C": C}, [loop], outputs=["C"])


def make_record(n=16):
    kernel = vec_add_kernel(n)
    arrays = {
        name: np.arange(obj.num_elements, dtype=np.float32).reshape(obj.shape)
        for name, obj in kernel.objects.items()
    }
    res = Interpreter(record_trace=True).run(kernel, arrays, {})
    return kernel, arrays, FunctionalCallRecord.from_interp(kernel, {}, res), res


def make_trace(workload="wl", scale="tiny", n=16):
    kernel, arrays, record, _ = make_record(n)
    return WorkloadTrace(
        workload=workload, scale=scale, calls=[record],
        final_arrays={k: v.copy() for k, v in arrays.items()},
    )


class TestFunctionalCallRecord:
    def test_view_matches_interp_result(self):
        _, _, record, res = make_record()
        view = record.view()
        assert view.counts == res.counts
        assert view.trace == list(res.trace)
        assert view.inner_iterations == res.inner_iterations
        assert view.inner_iters_by_loop == res.inner_iters_by_loop
        assert view.inner_invocations_by_loop == res.inner_invocations_by_loop

    def test_view_survives_pickle(self):
        _, _, record, res = make_record()
        clone = pickle.loads(pickle.dumps(record))
        view = clone.view()
        # maps are keyed by structural loop position, so they survive
        # pickling unchanged and stay valid for the clone's own loops
        loops = clone.kernel.innermost_loops()
        assert set(view.inner_iters_by_loop) == set(range(len(loops)))
        assert view.inner_iters_by_loop == res.inner_iters_by_loop
        assert view.counts == res.counts
        assert view.trace == list(res.trace)


class TestTraceCache:
    def test_put_get_roundtrip(self):
        cache = TraceCache(max_entries=2)
        trace = make_trace()
        cache.put(trace)
        assert cache.get("wl", "tiny") is trace
        assert (cache.hits, cache.misses) == (1, 0)

    def test_miss_counted(self):
        cache = TraceCache(max_entries=2)
        assert cache.get("nope", "tiny") is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_lru_eviction_without_spill(self):
        cache = TraceCache(max_entries=1)
        cache.put(make_trace("a"))
        cache.put(make_trace("b"))
        assert len(cache) == 1
        assert cache.get("a", "tiny") is None
        assert cache.get("b", "tiny") is not None

    def test_eviction_spills_and_reloads(self, tmp_path):
        cache = TraceCache(max_entries=1, spill_dir=str(tmp_path))
        cache.put(make_trace("a"))
        cache.put(make_trace("b"))  # evicts "a" to disk
        assert cache.spills == 1
        assert (tmp_path / "trace-a-tiny.pkl").exists()
        reloaded = cache.get("a", "tiny")
        assert reloaded is not None
        assert cache.disk_loads == 1
        assert reloaded.calls[0].kernel.name == "vadd"
        np.testing.assert_array_equal(
            reloaded.final_arrays["C"], make_trace("a").final_arrays["C"]
        )

    def test_peak_trace_elems_is_pure(self):
        cache = TraceCache(max_entries=2)
        assert cache.peak_trace_elems("wl", "tiny") == 0
        trace = make_trace()
        cache.put(trace)
        assert cache.peak_trace_elems("wl", "tiny") == len(
            trace.calls[0].trace
        )
        # the query must not perturb hit/miss accounting
        assert (cache.hits, cache.misses) == (0, 0)


def run_sig(run):
    return (
        run.time_ps, run.insts, run.mem_ops, run.energy_nj,
        run.movement_bytes, run.mmio_bytes, run.accel_iterations,
        run.validated, run.traffic_breakdown, run.cache_stats,
    )


class TestReplayEquivalence:
    """ISSUE acceptance: trace reuse must not change any metric, and the
    interpreter must run only for the first configuration."""

    @pytest.fixture(scope="class")
    def machine(self):
        return experiment_machine()

    @pytest.mark.parametrize("workload", ["fdt", "bfs"])
    def test_replay_is_bit_identical(self, machine, workload):
        configs = ("ooo", "mono_da_io", "dist_da_f")
        fresh = {
            c: simulate_workload(
                ALL_WORKLOADS[workload].build("tiny"), c, machine=machine
            )
            for c in configs
        }
        cache = TraceCache(max_entries=1)
        cached = {
            c: simulate_workload(
                ALL_WORKLOADS[workload].build("tiny"), c, machine=machine,
                trace_cache=cache, trace_key=(workload, "tiny"),
            )
            for c in configs
        }
        for c in configs:
            assert run_sig(cached[c]) == run_sig(fresh[c]), c
        assert all(r.validated for r in cached.values())

    def test_interpreter_runs_once_per_workload(self, machine):
        OBS.reset()
        cache = TraceCache(max_entries=1)
        for config in ("ooo", "mono_da_io", "dist_da_f"):
            simulate_workload(
                ALL_WORKLOADS["spmv"].build("tiny"), config,
                machine=machine, trace_cache=cache,
                trace_key=("spmv", "tiny"),
            )
        calls_per_run = OBS.counter("interp.invocations")
        assert calls_per_run > 0
        assert OBS.counter("tracecache.replays") == 2
        assert cache.misses == 1 and cache.hits == 2
        # re-run without a cache: every config pays the interpreter
        OBS.reset()
        for config in ("ooo", "mono_da_io", "dist_da_f"):
            simulate_workload(
                ALL_WORKLOADS["spmv"].build("tiny"), config,
                machine=machine,
            )
        assert OBS.counter("interp.invocations") == 3 * calls_per_run


class TestReplayValidation:
    """Replayed cells validate against the reference outputs stored with
    the trace: a corrupt replay is still caught, and the reference is
    computed once per trace."""

    KEY = ("spmv", "tiny")

    @pytest.fixture(scope="class")
    def machine(self):
        return experiment_machine()

    def run_cell(self, machine, cache, config="dist_da_f"):
        return simulate_workload(
            ALL_WORKLOADS["spmv"].build("tiny"), config, machine=machine,
            trace_cache=cache, trace_key=self.KEY,
        )

    def test_reference_computed_once_per_trace(self, machine, monkeypatch):
        from repro.workloads.base import WorkloadInstance

        calls = []
        reference = WorkloadInstance.reference_outputs

        def counted(self):
            calls.append(self.short)
            return reference(self)

        monkeypatch.setattr(WorkloadInstance, "reference_outputs", counted)
        cache = TraceCache(max_entries=1)
        runs = [self.run_cell(machine, cache, c)
                for c in ("ooo", "mono_da_io", "dist_da_f")]
        assert all(r.validated for r in runs)
        assert calls == ["spmv"]  # the recording cell only
        assert cache.get(*self.KEY).golden is not None

    def test_corrupt_replay_fails_validation(self, machine):
        cache = TraceCache(max_entries=1)
        assert self.run_cell(machine, cache, "ooo").validated
        entry = cache.get(*self.KEY)
        out = ALL_WORKLOADS["spmv"].build("tiny").outputs[0]
        entry.final_arrays[out].flat[0] += 1000.0
        assert not self.run_cell(machine, cache).validated

    def test_spill_without_golden_still_validates(self, machine, tmp_path):
        cache = TraceCache(max_entries=1)
        self.run_cell(machine, cache, "ooo")
        entry = cache.get(*self.KEY)
        # a pickle written before the reference was stored with traces
        state = dict(vars(entry))
        del state["golden"]
        old = WorkloadTrace.__new__(WorkloadTrace)
        old.__dict__.update(state)
        spilled = TraceCache(max_entries=1, spill_dir=str(tmp_path))
        with open(spilled._path(self.KEY), "wb") as f:
            pickle.dump(old, f)

        OBS.reset()
        run = self.run_cell(machine, spilled)
        assert spilled.disk_loads == 1
        assert OBS.counter("tracecache.replays") == 1
        assert OBS.counter("interp.invocations") == 0
        assert spilled.get(*self.KEY).golden is None
        assert run.validated
