"""Thread safety of the observability registry.

The sweep service records into :data:`repro.obs.OBS` from HTTP handler
threads and worker-pool threads at once; a read-modify-write counter
update that is not atomic loses increments under preemption. A tiny
switch interval forces the interpreter to preempt threads between
bytecodes, which makes a lost update show up within a few trials.
"""

import sys
import threading

import pytest

from repro.obs import StatsRegistry

THREADS = 4
PER_THREAD = 20_000
TRIALS = 10


@pytest.fixture
def preemptive():
    prior = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(prior)


def _hammer(fn, *args):
    start = threading.Barrier(THREADS)

    def worker():
        start.wait()
        for _ in range(PER_THREAD):
            fn(*args)

    threads = [threading.Thread(target=worker) for _ in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()


def test_concurrent_inc_loses_no_updates(preemptive):
    for _ in range(TRIALS):
        reg = StatsRegistry()
        _hammer(reg.inc, "x")
        assert reg.counter("x") == THREADS * PER_THREAD


def test_merge_and_snapshot_race_with_recording(preemptive):
    """Merging holds the same lock as recording (and must not re-enter
    it) while a concurrent reader keeps snapshotting."""
    reg = StatsRegistry()
    done = threading.Event()
    snaps = []

    def reader():
        while not done.is_set():
            snaps.append(reg.snapshot())

    t = threading.Thread(target=reader)
    t.start()
    try:
        # new keys keep appearing while the reader copies the dicts
        for i in range(2_000):
            reg.merge({"counters": {f"k{i}": 1.0, "x": 2.0},
                       "maxima": {"m": float(i)},
                       "timers": {"t": [0.5, 1]},
                       "cells": [("w", "c", 0.1, i)]})
    finally:
        done.set()
        t.join(timeout=60)
    assert not t.is_alive()
    snap = reg.snapshot()
    assert snap["counters"]["x"] == 4_000.0
    assert snap["maxima"]["m"] == 1_999.0
    assert snap["timers"]["t"] == [1_000.0, 2_000]
    assert len(snap["cells"]) == 2_000
    assert snaps  # the reader ran concurrently
