"""Whole-run equivalence gate: REPRO_FAST=1 must be bit-identical to the
scalar reference path on every metric a figure or table reads.

This is the acceptance test for the batched columnar replay pipeline:
four workloads of different shapes (stencil, graph, streaming, sparse)
are simulated under all six configurations twice — once through the
batched fast path and once per-access — and every cell is compared
field by field, including the float energy totals (exact equality, not
approx: the fast path is required to produce the same bits).
"""

import pytest

from repro.experiments.runner import BASELINE, PAPER_CONFIGS, ResultMatrix
from repro.envcfg import REPRO_FAST, fast_path_enabled

WORKLOADS = ("fdt", "bfs", "dis", "spmv")
CONFIGS = (BASELINE,) + PAPER_CONFIGS


def run_matrix_mode(monkeypatch, fast: bool):
    monkeypatch.setenv(REPRO_FAST.name, "1" if fast else "0")
    assert fast_path_enabled() is fast
    return ResultMatrix(
        scale="tiny", workloads=WORKLOADS, configs=CONFIGS
    ).run_all()


@pytest.fixture(scope="module")
def both_modes():
    mp = pytest.MonkeyPatch()
    try:
        fast = run_matrix_mode(mp, fast=True)
        scalar = run_matrix_mode(mp, fast=False)
    finally:
        mp.undo()
    return fast, scalar


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("config", CONFIGS)
def test_fast_path_bit_identical(both_modes, workload, config):
    fast, scalar = both_modes
    f = fast.results[(workload, config)]
    s = scalar.results[(workload, config)]
    assert f.time_ps == s.time_ps
    assert f.insts == s.insts
    assert f.mem_ops == s.mem_ops
    assert f.energy_nj == s.energy_nj  # exact, not approx
    assert f.movement_bytes == s.movement_bytes
    assert f.mmio_bytes == s.mmio_bytes
    assert f.accel_iterations == s.accel_iterations
    assert f.validated and s.validated
    assert f.traffic_breakdown == s.traffic_breakdown
    assert f.cache_stats.as_dict() == s.cache_stats.as_dict()
    assert f.energy.by_event() == s.energy.by_event()


def test_fast_path_defaults_on(monkeypatch):
    monkeypatch.delenv(REPRO_FAST.name, raising=False)
    assert fast_path_enabled()
    for off in ("0", "false", "off", "no"):
        monkeypatch.setenv(REPRO_FAST.name, off)
        assert not fast_path_enabled()
    monkeypatch.setenv(REPRO_FAST.name, "1")
    assert fast_path_enabled()
