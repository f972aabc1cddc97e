"""Unit tests for run-queue placement and stealing."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.os.process import OsProcess, OsThread, ThreadState
from repro.os.scheduler import Scheduler


def make_thread(tid, pinned=None, priority=0):
    proc = OsProcess(pid=tid, name=f"p{tid}")

    def body():
        yield None

    return OsThread(tid=tid, process=proc, body=body(), pinned_core=pinned,
                    priority=priority)


def test_enqueue_prefers_idle_core():
    sched = Scheduler(4)
    sched.idle_cores.update({2, 3})
    t = make_thread(1)
    core = sched.enqueue(t)
    assert core == 2
    assert t.state is ThreadState.READY


def test_enqueue_respects_pinning():
    sched = Scheduler(4)
    sched.idle_cores.add(0)
    t = make_thread(1, pinned=3)
    assert sched.enqueue(t) == 3


def test_enqueue_least_loaded_when_no_idle():
    sched = Scheduler(2)
    for tid in range(3):
        sched.enqueue(make_thread(tid))
    # 3 threads over 2 cores: queue lengths 2 and 1 or balanced
    assert sched.total_queued() == 3
    assert abs(sched.queue_length(0) - sched.queue_length(1)) <= 1


def test_wake_prefers_previous_core_when_idle():
    sched = Scheduler(4)
    t = make_thread(1)
    sched.enqueue(t, core_id=2)
    assert sched.pick_next(2) is t
    sched.idle_cores.update({0, 2})
    # Previous core 2 is idle: go back there, not core 0.
    assert sched.enqueue(t) == 2


def test_pick_next_fifo():
    sched = Scheduler(1)
    a, b = make_thread(1), make_thread(2)
    sched.enqueue(a)
    sched.enqueue(b)
    assert sched.pick_next(0) is a
    assert sched.pick_next(0) is b
    assert sched.pick_next(0) is None


def test_priority_ordering():
    sched = Scheduler(1)
    normal = make_thread(1, priority=0)
    urgent = make_thread(2, priority=-1)
    sched.enqueue(normal)
    sched.enqueue(urgent)
    assert sched.pick_next(0) is urgent


def test_stealing_takes_unpinned_from_loaded_core():
    sched = Scheduler(2, steal=True)
    a, b = make_thread(1), make_thread(2)
    sched.enqueue(a, core_id=0)
    sched.enqueue(b, core_id=0)
    stolen = sched.pick_next(1)
    assert stolen is b  # steals from the tail


def test_stealing_skips_pinned():
    sched = Scheduler(2, steal=True)
    t = make_thread(1, pinned=0)
    sched.enqueue(t, core_id=0)
    assert sched.pick_next(1) is None
    assert sched.pick_next(0) is t


def test_no_stealing_when_disabled():
    sched = Scheduler(2, steal=False)
    sched.enqueue(make_thread(1), core_id=0)
    assert sched.pick_next(1) is None


def test_remove_queued_thread():
    sched = Scheduler(1)
    t = make_thread(1)
    sched.enqueue(t)
    assert sched.remove(t)
    assert not sched.remove(t)
    assert sched.pick_next(0) is None


def test_priority_zero_runs_before_background_work():
    """Regression: a priority-0 thread enqueued behind background
    (priority > 0) work must run first, not be appended after it."""
    sched = Scheduler(1)
    background = make_thread(1, priority=5)
    normal = make_thread(2, priority=0)
    sched.enqueue(background)
    sched.enqueue(normal)
    assert sched.pick_next(0) is normal
    assert sched.pick_next(0) is background


def test_priority_fifo_within_level():
    sched = Scheduler(1)
    bg = make_thread(1, priority=3)
    a = make_thread(2, priority=0)
    b = make_thread(3, priority=0)
    sched.enqueue(bg)
    sched.enqueue(a)
    sched.enqueue(b)
    assert sched.pick_next(0) is a
    assert sched.pick_next(0) is b
    assert sched.pick_next(0) is bg


def test_steal_leaves_single_queued_thread():
    """Regression: stealing a victim's only queued thread just moves
    the imbalance; the victim must keep it."""
    sched = Scheduler(2, steal=True)
    only = make_thread(1)
    sched.enqueue(only, core_id=0)
    assert sched.pick_next(1) is None
    assert sched.pick_next(0) is only


def test_steal_never_targets_requesting_core():
    """Regression: the requester must not pick itself as victim."""
    sched = Scheduler(1, steal=True)
    sched.enqueue(make_thread(1), core_id=0)
    sched.enqueue(make_thread(2), core_id=0)
    # The only "victim" is the requester itself: no steal.
    assert sched._steal_for(0) is None
    assert sched.queue_length(0) == 2


def test_enqueue_done_thread_rejected():
    sched = Scheduler(1)
    t = make_thread(1)
    t.state = ThreadState.DONE
    with pytest.raises(ValueError):
        sched.enqueue(t)


# -- victim and fallback choice against the per-core key expressions -------

def _loaded(depths, pinned_tail):
    """A scheduler whose core ``c`` queues ``depths[c]`` threads; the
    last ``pinned_tail[c]`` of them are pinned to ``c``."""
    sched = Scheduler(len(depths), steal=True)
    tid = 0
    for core, depth in enumerate(depths):
        for index in range(depth):
            tid += 1
            pinned = core if index >= depth - pinned_tail[core] else None
            sched.enqueue(make_thread(tid, pinned=pinned), core_id=core)
    return sched


def _reference_steal(sched, core_id):
    """The reference steal: a per-core key over the other cores."""
    others = [c for c in range(sched.n_cores) if c != core_id]
    if not others:
        return None
    victim = max(others, key=lambda c: len(sched._queues[c]))
    queue = sched._queues[victim]
    if len(queue) < 2:
        return None
    for index in range(len(queue) - 1, -1, -1):
        if queue[index].pinned_core is None:
            return queue[index]
    return None


_depths = st.lists(st.integers(0, 4), min_size=1, max_size=64)


@settings(max_examples=200, deadline=None)
@given(_depths, st.data())
def test_steal_victim_matches_per_core_max(depths, data):
    pinned_tail = data.draw(st.lists(
        st.integers(0, 4), min_size=len(depths), max_size=len(depths)))
    core_id = data.draw(st.integers(0, len(depths) - 1))
    sched = _loaded(depths, pinned_tail)
    before = [sched.queued_threads(c) for c in range(len(depths))]
    expected = _reference_steal(sched, core_id)
    assert sched._steal_for(core_id) is expected
    after = [sched.queued_threads(c) for c in range(len(depths))]
    if expected is None:
        assert after == before
    else:
        victim = next(c for c, queue in enumerate(before) if expected in queue)
        assert victim != core_id
        assert after[victim] == tuple(t for t in before[victim]
                                      if t is not expected)


@settings(max_examples=200, deadline=None)
@given(_depths)
def test_least_loaded_fallback_matches_per_core_min(depths):
    sched = _loaded(depths, [0] * len(depths))
    expected = min(range(len(depths)), key=lambda c: len(sched._queues[c]))
    # No pin, no previous core, no idle core: the least-loaded queue.
    assert sched.choose_core(make_thread(10_000)) == expected


# -- the running count of queued threads ---------------------------------------

#: (operation, core, variant); low cores come up often, so queues of
#: two or more build up even on 64 cores
_ops = st.lists(st.tuples(st.sampled_from(["enqueue", "pick", "remove"]),
                          st.one_of(st.integers(0, 2), st.integers(0, 63)),
                          st.integers(0, 3)),
                max_size=80)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64), _ops, st.booleans())
# the boundary: two queued threads, both on the victim
@example(2, [("enqueue", 0, 1), ("enqueue", 0, 1), ("pick", 1, 0)], True)
def test_queued_count_follows_every_queue_change(n_cores, ops, steal):
    """After every enqueue, pick and remove the count equals the queue
    lengths' sum, and a pick that steals takes the full scan's thread."""
    sched = Scheduler(n_cores, steal=steal)
    threads = []
    for op, index, extra in ops:
        core = index % n_cores
        if op == "enqueue":
            pinned = core if extra == 0 else None
            thread = make_thread(len(threads) + 1, pinned=pinned,
                                 priority=extra % 2)
            threads.append(thread)
            sched.enqueue(thread, core_id=None if extra == 3 else core)
        elif op == "pick":
            own = sched.queued_threads(core)
            expected = (own[0] if own else
                        _reference_steal(sched, core) if steal else None)
            assert sched.pick_next(core) is expected
        elif threads:
            thread = threads[index % len(threads)]
            queued = any(thread in sched.queued_threads(c)
                         for c in range(n_cores))
            assert sched.remove(thread) is queued
        assert sched.total_queued() == sum(sched.queue_lengths())
