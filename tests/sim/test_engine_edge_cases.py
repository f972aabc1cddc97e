"""Additional edge-case coverage for the simulation engine."""

import pytest

from repro.sim import (AllOf, AnyOf, Event, Interrupt, SimulationError,
                       Simulator, attach_profile)

#: 2^32 ns (~4.3 s): far enough out to stress any fixed-horizon queue.
T32 = 2 ** 32


def test_anyof_propagates_failure():
    sim = Simulator()
    good = sim.timeout(100)
    bad = sim.event()
    caught = []

    def proc():
        try:
            yield AnyOf(sim, [good, bad])
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(proc())
    bad.fail(RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_allof_propagates_failure():
    sim = Simulator()
    caught = []

    def proc():
        try:
            yield AllOf(sim, [sim.timeout(100), _failing(sim, 50)])
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(proc())
    sim.run()
    assert caught == ["late fail"]


def _failing(sim, delay):
    event = sim.event()

    def failer():
        yield sim.timeout(delay)
        event.fail(ValueError("late fail"))

    sim.process(failer())
    return event


def test_timeout_carries_value():
    sim = Simulator()
    got = []

    def proc():
        value = yield sim.timeout(5, value="ding")
        got.append(value)

    sim.process(proc())
    sim.run()
    assert got == ["ding"]


def test_event_value_access_rules():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value
    with pytest.raises(SimulationError):
        _ = event.ok
    event.fail(RuntimeError("x"))
    assert event.ok is False
    with pytest.raises(SimulationError):
        _ = event.value
    # Drain the queue; the failure is defused by our inspection.
    event._defused = True
    sim.run()


def test_fail_requires_exception_instance():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_add_callback_after_processed_runs_immediately():
    sim = Simulator()
    event = sim.event()
    event.succeed("v")
    sim.run()
    got = []
    event.add_callback(lambda ev: got.append(ev._value))
    assert got == ["v"]


def test_peek_and_step_directly():
    sim = Simulator()
    sim.timeout(30)
    sim.timeout(10)
    assert sim.peek() == 10
    sim.step()
    assert sim.now == 10
    assert sim.peek() == 30


def test_cross_simulator_wait_rejected():
    sim_a, sim_b = Simulator(), Simulator()
    foreign = sim_b.event()

    def proc():
        yield foreign

    sim_a.process(proc())
    foreign.succeed()
    with pytest.raises(SimulationError):
        sim_a.run()
        sim_b.run()


def test_interrupt_during_zero_delay_chain():
    """An interrupt delivered mid wake-up chain lands at the next
    yield even though the chain never advances the clock (the urgent
    FIFO must outrank queued zero-delay timers)."""
    sim = Simulator()
    hops = []
    caught = []

    def chain():
        try:
            for i in range(10):
                hops.append(i)
                yield sim.timeout(0)
        except Interrupt as intr:
            caught.append(intr.cause)

    target = sim.process(chain())

    def interrupter():
        yield sim.timeout(0)
        target.interrupt("stop")

    sim.process(interrupter())
    sim.run()
    assert caught == ["stop"]
    assert sim.now == 0
    assert 0 < len(hops) < 10  # the chain was cut short mid-flight


def test_cancelled_timeout_never_fires():
    sim = Simulator()
    fired = []
    guard = sim.timeout(100)
    guard.add_callback(fired.append)

    def canceller():
        yield sim.timeout(10)
        assert guard.cancel() is True
        yield sim.timeout(500)

    sim.process(canceller())
    sim.run()
    assert fired == []
    assert guard.cancelled
    assert not guard.triggered
    assert sim.now == 510  # the dead timer did not hold the clock


def test_exception_in_timed_callback_propagates_out_of_run():
    """A one-shot ``sim.timeout(d).add_callback(fn)`` that raises fails
    the run at its instant, as a failed process nobody waits on does."""
    sim = Simulator()
    later = []

    def boom(_event):
        raise RuntimeError("callback failed")

    sim.timeout(10).add_callback(boom)
    sim.timeout(20).add_callback(later.append)
    with pytest.raises(RuntimeError, match="callback failed"):
        sim.run()
    assert sim.now == 10
    assert later == []

    def orphan():
        yield sim.timeout(5)
        raise RuntimeError("process failed")

    sim.process(orphan())
    with pytest.raises(RuntimeError, match="process failed"):
        sim.run()
    assert sim.now == 15


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    timer = sim.timeout(5)
    sim.run()
    assert timer.triggered
    assert timer.cancel() is False
    assert not timer.cancelled


def test_cancel_zero_delay_timeout():
    """Tombstones in the same-instant FIFO are skipped too."""
    sim = Simulator()
    dead = sim.timeout(0)
    assert dead.cancel()
    done = []

    def proc():
        yield sim.timeout(0)
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [0.0]


def test_wait_on_cancelled_timeout_rejected():
    sim = Simulator()
    guard = sim.timeout(50)
    guard.cancel()

    def proc():
        yield guard

    sim.process(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_anyof_over_already_fired_event():
    sim = Simulator()
    done = sim.event()
    done.succeed("early")
    sim.run()  # the event is fired *and processed* before the AnyOf exists
    got = []

    def proc():
        result = yield AnyOf(sim, [done, sim.timeout(100)])
        got.append(result)

    sim.process(proc())
    sim.run()
    assert got == [{done: "early"}]  # satisfied at t=0, timer excluded


def test_mass_cancellation_compacts_heap():
    sim = Simulator()
    profile = attach_profile(sim)
    guards = [sim.timeout(1000 + i) for i in range(300)]
    keeper = sim.timeout(5000, value="keep")
    for guard in guards:
        assert guard.cancel()
    # Tombstones came to dominate, so the heap was compacted in place.
    assert profile.report()["compactions"] >= 1
    assert sim.pending_timers < 300
    assert sim.run(until=keeper) == "keep"
    assert sim.now == 5000


def test_run_until_timeout_cancelled_before_the_call():
    sim = Simulator()
    guard = sim.timeout(50)
    sim.timeout(100)
    guard.cancel()
    with pytest.raises(SimulationError, match="awaited timeout was cancelled"):
        sim.run(until=guard)


def test_run_until_timeout_cancelled_during_the_run():
    sim = Simulator()
    guard = sim.timeout(50)

    def canceller():
        yield sim.timeout(10)
        guard.cancel()
        yield sim.timeout(100)

    sim.process(canceller())
    with pytest.raises(SimulationError, match="awaited timeout was cancelled"):
        sim.run(until=guard)
    assert sim.now == 10


def test_anyof_detaches_from_losing_events():
    sim = Simulator()
    fast, slow = sim.timeout(1), sim.timeout(100)
    done = AnyOf(sim, [fast, slow])
    sim.run(until=done)
    # The winner fired the condition; the loser must not keep it alive.
    assert slow.callbacks == []


def _fire_order(delays):
    """Arm one timer per delay; return (delay, arming index) in dispatch
    order, after checking the clock stopped at the last one."""
    sim = Simulator()
    fired = []
    for i, delay in enumerate(delays):
        sim.timeout(delay, value=(delay, i)).add_callback(
            lambda ev: fired.append(ev._value)
        )
    sim.run()
    assert sim.now == max(delays)
    return fired


def _armed_after_bounded_run():
    sim = Simulator()
    fired = []

    def note(ev):
        fired.append((ev._value, sim.now))

    sim.timeout(505, value=505).add_callback(note)
    sim.run(until=sim.timeout(500))
    sim.timeout(2, value=502).add_callback(note)
    sim.run()
    return fired


def _peek_far_apart():
    sim = Simulator()
    sim.timeout(T32 + 9)
    sim.timeout(3)
    seen = []
    for _ in range(3):
        seen.append((sim.now, sim.peek()))
        sim.step()
    return seen


def _mass_cancelled_far_future():
    sim = Simulator()
    guards = [sim.timeout(T32 + 10 + i) for i in range(200)]
    keeper = sim.timeout(50, value="keep")
    for guard in guards:
        guard.cancel()
    result = sim.run(until=keeper)
    sim.run()
    return [result, sim.now]


_MIXED = [255, 256, 257, 65535, 65536, 65537,
          2**24 - 1, 2**24, 2**24 + 1, T32 - 1, 3, 1000]


@pytest.mark.parametrize("scenario, expected", [
    pytest.param(lambda: _fire_order([65541] * 10),
                 [(65541, i) for i in range(10)], id="same-delay-ties"),
    pytest.param(lambda: _fire_order([5.75, 5.25, 5.5, 5.0, 6.0]),
                 [(5.0, 3), (5.25, 1), (5.5, 2), (5.75, 0), (6.0, 4)],
                 id="fractional-delays"),
    pytest.param(lambda: _fire_order(_MIXED),
                 sorted((d, i) for i, d in enumerate(_MIXED)),
                 id="mixed-delays"),
    pytest.param(lambda: _fire_order([2**24 + 7]), [(2**24 + 7, 0)],
                 id="lone-far-timer"),
    pytest.param(lambda: _fire_order([2 * T32 + 3, 5, T32 + 1]),
                 [(5, 1), (T32 + 1, 2), (2 * T32 + 3, 0)],
                 id="far-future-order"),
    pytest.param(lambda: _fire_order([float(T32)]), [(float(T32), 0)],
                 id="far-future-boundary"),
    pytest.param(lambda: _fire_order([T32 + 100, T32 + 1, T32 + 100,
                                      T32 + 50]),
                 [(T32 + 1, 1), (T32 + 50, 3), (T32 + 100, 0),
                  (T32 + 100, 2)],
                 id="far-future-ties"),
    pytest.param(_armed_after_bounded_run, [(502, 502.0), (505, 505.0)],
                 id="armed-after-bounded-run"),
    pytest.param(_peek_far_apart,
                 [(0, 3), (3, T32 + 9), (T32 + 9, float("inf"))],
                 id="peek-far-apart"),
    pytest.param(_mass_cancelled_far_future, ["keep", 50],
                 id="mass-cancelled-far-future"),
])
def test_dispatch_order(scenario, expected):
    """Events run in (time, arming order), however far apart they are."""
    assert scenario() == expected


def test_priority_store_blocking_put_rejected():
    from repro.sim import PriorityStore

    sim = Simulator()
    store = PriorityStore(sim, capacity=1)
    store.put("a")
    with pytest.raises(SimulationError):
        store.put("b")
