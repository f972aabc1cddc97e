"""Host-speed calibration: a fixed reference loop interleaved with the
simulation.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
seconds to minutes (another tenant on the sibling hyperthread, frequency
changes), and CPU time tracks wall time through it, so neither clock
alone separates the simulator's cost from the host's speed.  A
:class:`Meter` advances a simulation in short simulated slices and,
after every :data:`CAL_EVERY_S` of simulation host time, runs one chunk
of :func:`reference_work` -- pure Python that never touches
``src/repro``, so no change to the simulator can move it.  The chunks
see the same host phases as the slices around them, and

    normalized seconds = host seconds * CHUNK_REF_S / mean chunk seconds

is the host time the simulation would have taken on the reference host
(:data:`CHUNK_REF_S`).  The reference loop blends a generator-driven
event loop over a heap with integer arithmetic: on the 2-vCPU VM this
was tuned on, a slow phase stretched the event loop more than the
simulator and the arithmetic less; with the blend, normalized
repetitions spread 6-9% (quartile distance over median) where raw ones
spread 12-17%.
"""

from __future__ import annotations

import heapq
import time

__all__ = ["CAL_EVERY_S", "CHUNK_REF_S", "Meter", "reference_work"]

#: simulated ns per slice of :meth:`Meter.advance`
SLICE_NS = 50_000.0
#: simulation host seconds between calibration chunks
CAL_EVERY_S = 0.01
#: steps of the reference event loop in one chunk
CHUNK_STEPS = 1000
#: host seconds of one chunk on the reference host: the median chunk of
#: a calm run on a 2-vCPU x86-64 VM with Python 3.11
CHUNK_REF_S = 0.75e-3


class _Proc:
    __slots__ = ("name", "count", "body")


def reference_work(steps: int = CHUNK_STEPS) -> int:
    """A fixed amount of interpreter work: ``steps`` events of a small
    generator-driven event loop over a heap, then integer arithmetic."""
    queue: list = []
    state: dict = {}
    seq = 0

    def body(proc, period):
        while True:
            proc.count += 1
            state[proc.name] = state.get(proc.name, 0) + proc.count
            yield period * (1 + (proc.count & 3))

    for index in range(16):
        proc = _Proc()
        proc.name = f"p{index}"
        proc.count = 0
        proc.body = body(proc, 1.0 + index / 7)
        heapq.heappush(queue, (0.0, seq, proc))
        seq += 1
    for _ in range(steps):
        when, _seq, proc = heapq.heappop(queue)
        seq += 1
        heapq.heappush(queue, (when + next(proc.body), seq, proc))
    total = 0
    for value in range(steps * 4):
        total += value
    return len(state) + total


class Meter:
    """Host time of one repetition, split into simulation and the
    calibration chunks interleaved with it."""

    def __init__(self):
        self.sim_s = 0.0
        self.cal_s = 0.0
        self.chunks = 0
        self._since_chunk = 0.0

    def chunk(self) -> None:
        """Run one calibration chunk now."""
        start = time.perf_counter()
        reference_work()
        self.cal_s += time.perf_counter() - start
        self.chunks += 1
        self._since_chunk = 0.0

    def advance(self, sim, horizon: float) -> None:
        """``sim.run(until=horizon)`` in :data:`SLICE_NS` slices, with a
        calibration chunk after every :data:`CAL_EVERY_S` of them."""
        now = sim.now
        while now < horizon:
            now = min(now + SLICE_NS, horizon)
            start = time.perf_counter()
            sim.run(until=now)
            spent = time.perf_counter() - start
            self.sim_s += spent
            self._since_chunk += spent
            if self._since_chunk >= CAL_EVERY_S:
                self.chunk()

    @property
    def slowdown(self) -> float:
        """Host time relative to the reference host's (>1 is slower);
        needs at least one chunk."""
        return self.cal_s / self.chunks / CHUNK_REF_S
