"""Event-kernel semantics, checked on both dispatch loops of the core.

``Simulator._run_heap`` has two loops over the same ``(time_ps, seq)``
tuple heap: a specialised loop for the unbounded ``run()`` every offload
replay takes, and the general loop that honours ``until_ps`` and
``max_events``. Each case below runs once per loop (``bounded=False``
is the specialised loop, ``bounded=True`` forces the general one with a
``max_events`` limit that is never reached) and pins the semantics both
must keep: putter FIFO order under a full channel, getter wake order,
``WaitProcess`` on an already-finished process, daemon-vs-deadlock
classification, ``call_at`` vs process ordering at equal timestamps,
and the ``run(until_ps=...)`` pause/resume contract (the popped
over-horizon event must not be lost).
"""

import pytest

from repro.errors import DeadlockError
from repro.events import (
    Channel,
    Delay,
    Get,
    Put,
    Simulator,
    WaitProcess,
)

#: both dispatch loops: unbounded fast loop, general bounded loop
LOOPS = (False, True)

#: a max_events limit no case here comes near
NEVER_REACHED = 10**6


def run(sim, bounded, until_ps=None):
    if bounded:
        return sim.run(until_ps=until_ps, max_events=NEVER_REACHED)
    return sim.run(until_ps=until_ps)


@pytest.mark.parametrize("bounded", LOOPS)
class TestKernelSemantics:
    def test_putter_fifo_under_full_channel(self, bounded):
        """Blocked putters are released in arrival order, one per slot."""
        sim = Simulator()
        ch = Channel(sim, capacity=1, name="narrow")
        log = []

        def putter(tag):
            yield Put(ch, tag)
            log.append(("put-done", tag, sim.now))

        def consumer():
            for _ in range(4):
                yield Delay(100)
                item = yield Get(ch)
                log.append(("got", item, sim.now))

        for tag in ("a", "b", "c", "d"):
            sim.spawn(f"put-{tag}", putter(tag))
        sim.spawn("cons", consumer())
        run(sim, bounded)
        assert [e for e in log if e[0] == "got"] == [
            ("got", "a", 100), ("got", "b", 200),
            ("got", "c", 300), ("got", "d", 400),
        ]
        # putter "a" filled the only slot immediately; the rest unblock
        # in FIFO order as the consumer frees slots
        assert [e[1] for e in log if e[0] == "put-done"] == [
            "a", "b", "c", "d",
        ]

    def test_getter_wake_order(self, bounded):
        """Getters parked on an empty channel wake in arrival order."""
        sim = Simulator()
        ch = Channel(sim, name="feed")
        woke = []

        def getter(tag):
            item = yield Get(ch)
            woke.append((tag, item))

        def producer():
            yield Delay(50)
            for i in range(3):
                yield Put(ch, i)

        for tag in ("first", "second", "third"):
            sim.spawn(tag, getter(tag))
        sim.spawn("prod", producer())
        run(sim, bounded)
        assert woke == [("first", 0), ("second", 1), ("third", 2)]

    def test_wait_on_already_done_process(self, bounded):
        """WaitProcess on a finished process resumes at the current time
        with the stored result."""
        sim = Simulator()

        def quick():
            yield Delay(10)
            return 42

        def waiter(target, out):
            yield Delay(500)  # target is long done by now
            result = yield WaitProcess(target)
            out.append((result, sim.now))

        target = sim.spawn("quick", quick())
        sim.spawn("waiter", waiter(target, out := []))
        run(sim, bounded)
        assert out == [(42, 500)]

    def test_daemon_may_block_forever(self, bounded):
        sim = Simulator()
        ch = Channel(sim, name="sink")

        def server():
            while True:
                yield Get(ch)

        def client():
            yield Put(ch, "one")
            yield Delay(100)

        sim.spawn("server", server(), daemon=True)
        sim.spawn("client", client())
        assert run(sim, bounded) == 100  # no DeadlockError

    def test_non_daemon_blocked_is_deadlock(self, bounded):
        sim = Simulator()
        ch = Channel(sim, name="stuck")

        def starved():
            yield Get(ch)

        sim.spawn("starved", starved())
        with pytest.raises(DeadlockError, match=r"starved on get\(stuck\)"):
            run(sim, bounded)

    def test_call_at_vs_process_order_at_equal_time(self, bounded):
        """Same-timestamp dispatch follows schedule order."""
        sim = Simulator()
        log = []

        def sleeper():
            yield Delay(100)
            log.append("proc")

        sim.call_at(100, lambda: log.append("cb-early"))
        sim.spawn("sleeper", sleeper())
        sim.call_at(100, lambda: log.append("cb-late"))
        run(sim, bounded)
        # cb-early was enqueued first; the sleeper's wakeup is enqueued
        # when its Delay arms (dispatch at t=0, after cb-late's enqueue)
        assert log == ["cb-early", "cb-late", "proc"]

    def test_run_until_does_not_lose_horizon_event(self, bounded):
        """Regression: run(until_ps) used to pop the first over-horizon
        event and return without re-pushing it, so a resumed run lost
        the wakeup entirely."""
        sim = Simulator()
        log = []

        def sleeper():
            yield Delay(100)
            log.append(("woke", sim.now))

        sim.spawn("sleeper", sleeper())
        assert sim.run(until_ps=50) == 50
        assert log == []  # paused before the wakeup, nothing lost
        assert run(sim, bounded) == 100
        assert log == [("woke", 100)]

    def test_run_until_executes_events_at_horizon(self, bounded):
        sim = Simulator()
        log = []
        sim.call_at(100, lambda: log.append("at"))
        sim.call_at(101, lambda: log.append("past"))
        sim.run(until_ps=100)
        assert log == ["at"]
        run(sim, bounded)
        assert log == ["at", "past"]

    def test_run_until_resume_preserves_order(self, bounded):
        """Events beyond the horizon fire in original order on resume."""
        sim = Simulator()
        log = []
        for tag in ("x", "y", "z"):
            sim.call_at(200, lambda tag=tag: log.append(tag))
        sim.run(until_ps=50)
        assert log == []
        run(sim, bounded)
        assert log == ["x", "y", "z"]
