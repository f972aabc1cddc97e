"""Randomized schedules against the engine's timing contract.

Each seed builds processes that sleep on zero, fractional and far
(past 2^32 ns) timeouts, race guard timers they then cancel, wait on
``AnyOf``/``AllOf`` fan-ins, and get interrupted.  Every wake-up is
checked against the arithmetic the schedule implies, which pins the
``(time, priority, seq)`` order: a timeout resumes exactly ``delay``
after it was armed, and timeouts wake in (due time, arming order);
``AnyOf`` resumes with its earliest member (the first armed, on ties);
``AllOf`` with its latest; a guard is still cancellable only if it was
due strictly after the race it lost; an interrupt lands at the instant
it was sent.  The whole trace must also replay identically from the
same seed.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AllOf, AnyOf, Interrupt, Simulator

DELAYS = [0, 0, 0, 1, 2, 0.5, 1.75, 7, 97, 255, 256, 65536, 1_000_000,
          16_777_216, 4_294_967_295.0, 4_294_967_296.0, 5_000_000_000.0]


def _run_schedule(seed):
    master = random.Random(seed)
    sim = Simulator()
    trace, procs, sent = [], [], {}
    arming = itertools.count()
    woken = []  # (time, arming index) of every plain-timeout wake-up

    def body(pid, prng):
        try:
            for step in range(prng.randint(3, 12)):
                roll, start = prng.random(), sim.now
                if roll < 0.4:
                    delay, armed = prng.choice(DELAYS), next(arming)
                    assert (yield sim.timeout(delay, value=step)) == step
                    assert sim.now == start + delay
                    woken.append((sim.now, armed))
                elif roll < 0.6:
                    guard_at = prng.choice(DELAYS) + 1
                    race = prng.choice(DELAYS)
                    guard, armed = sim.timeout(guard_at), next(arming)
                    yield sim.timeout(race)
                    woken.append((sim.now, armed))
                    assert guard.cancel() == (guard_at > race)
                else:
                    delays = [prng.choice(DELAYS)
                              for _ in range(prng.randint(2, 5))]
                    timers = [sim.timeout(d, value=k)
                              for k, d in enumerate(delays)]
                    if roll < 0.8:
                        fired = yield AnyOf(sim, timers)
                        first = delays.index(min(delays))
                        assert list(fired.values()) == [first]
                        assert sim.now == start + delays[first]
                    else:
                        fired = yield AllOf(sim, timers)
                        assert sorted(fired.values()) == list(
                            range(len(delays)))
                        assert sim.now == start + max(delays)
                trace.append((sim.now, pid, step))
        except Interrupt as intr:
            assert sim.now == sent[intr.cause]
            trace.append((sim.now, pid, intr.cause))

    def interrupter(iid, prng):
        yield sim.timeout(prng.choice(DELAYS))
        target = procs[prng.randrange(len(procs))]
        if target.is_alive:
            sent[iid] = sim.now
            target.interrupt(iid)

    for pid in range(master.randint(2, 6)):
        procs.append(sim.process(body(pid, random.Random(master.random()))))
    for iid in range(master.randint(0, 2)):
        sim.process(interrupter(iid, random.Random(master.random())))
    sim.run()
    assert sim.pending_timers == 0
    assert woken == sorted(woken)
    return trace


@pytest.mark.parametrize("seed", range(30))
def test_random_schedule_meets_timing_contract(seed):
    assert _run_schedule(seed) == _run_schedule(seed)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_schedule_meets_timing_contract_fuzzed(seed):
    assert _run_schedule(seed) == _run_schedule(seed)
