"""The contract of ``Simulator.start`` and the engine's cycle hygiene.

``start`` drives a generator from the callbacks of the events it yields,
with no :class:`~repro.sim.engine.Process` around it.  A finished
process and a fired condition drop their cached bound methods, so
reference counting alone frees them.
"""

import gc
import weakref

import pytest

from repro.sim import AllOf, AnyOf, Process, SimulationError, Simulator


class _WeakProcess(Process):
    __slots__ = ("__weakref__",)


class _WeakAnyOf(AnyOf):
    __slots__ = ("__weakref__",)


class _WeakAllOf(AllOf):
    __slots__ = ("__weakref__",)


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_first_step_runs_inside_start():
    sim = Simulator()
    log = []

    def task():
        log.append(("first", sim.now))
        yield sim.timeout(5)
        log.append(("second", sim.now))

    sim.start(task())
    assert log == [("first", 0.0)]
    sim.run()
    assert log == [("first", 0.0), ("second", 5.0)]


def test_first_step_runs_before_queued_urgent_events():
    sim = Simulator()
    log = []

    def body(tag):
        log.append(tag)
        yield sim.timeout(1)

    sim.process(body("process"))  # its start event is queued, URGENT
    sim.start(body("started"))
    sim.run()
    assert log == ["started", "process"]


def test_start_dispatches_only_the_yielded_events():
    def body(sim):
        yield sim.timeout(1)
        yield sim.timeout(2)

    started = Simulator()
    started.start(body(started))
    started.run()
    assert started._stat_dispatched == 2

    spawned = Simulator()
    spawned.process(body(spawned))
    spawned.run()
    # a process adds its start and completion events
    assert spawned._stat_dispatched == 4


def test_failed_event_is_thrown_in_and_defused():
    sim = Simulator()
    event = sim.event()
    caught = []

    def task():
        try:
            yield event
        except ValueError as exc:
            caught.append((str(exc), sim.now))
        yield sim.timeout(1)
        caught.append("resumed")

    sim.start(task())
    sim.timeout(3).add_callback(lambda _e: event.fail(ValueError("boom")))
    sim.run()  # a defused failure does not surface from run()
    assert caught == [("boom", 3.0), "resumed"]
    assert event._defused


def test_processed_event_resumes_at_once():
    sim = Simulator()
    event = sim.event()
    event.succeed(7)
    sim.run()
    assert event.processed
    dispatched = sim._stat_dispatched
    got = []

    def task():
        got.append((yield event))
        got.append("after")

    sim.start(task())
    assert got == [7, "after"]
    assert sim._stat_dispatched == dispatched


def test_exception_escaping_the_generator_aborts_run():
    sim = Simulator()
    later = []

    def task():
        yield sim.timeout(1)
        raise RuntimeError("escaped")

    sim.start(task())
    sim.timeout(5).add_callback(lambda _e: later.append(sim.now))
    with pytest.raises(RuntimeError, match="escaped"):
        sim.run()
    assert sim.now == 1.0
    assert later == []


def test_exception_in_the_first_step_reaches_the_caller():
    sim = Simulator()

    def task():
        raise RuntimeError("at once")
        yield sim.timeout(1)  # pragma: no cover - makes task a generator

    with pytest.raises(RuntimeError, match="at once"):
        sim.start(task())


def test_yielding_a_non_event_is_an_error():
    sim = Simulator()

    def task():
        yield 42

    with pytest.raises(SimulationError, match="expected an Event"):
        sim.start(task())


def test_waiting_on_a_cancelled_timeout_is_an_error():
    sim = Simulator()
    timer = sim.timeout(5)
    timer.cancel()

    def task():
        yield timer

    with pytest.raises(SimulationError, match="cancelled timeout"):
        sim.start(task())


def test_started_generator_is_freed_by_refcount(no_cyclic_gc):
    sim = Simulator()

    def task():
        yield sim.timeout(1)

    generator = task()
    witness = weakref.ref(generator)
    sim.start(generator)
    del generator
    assert witness() is not None  # waiting on its timer
    sim.run()
    assert witness() is None


def test_finished_process_is_freed_by_refcount(no_cyclic_gc):
    sim = Simulator()

    def body():
        yield sim.timeout(1)

    witness = weakref.ref(_WeakProcess(sim, body()))
    sim.run()
    assert witness() is None


@pytest.mark.parametrize("condition", [_WeakAnyOf, _WeakAllOf])
def test_fired_condition_is_freed_by_refcount(condition, no_cyclic_gc):
    sim = Simulator()
    fired = []
    composite = condition(sim, [sim.timeout(1), sim.timeout(2)])
    composite.add_callback(lambda event: fired.append(sim.now))
    witness = weakref.ref(composite)
    del composite
    sim.run()
    assert fired
    assert witness() is None
