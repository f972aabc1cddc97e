"""Engine profiling hooks: event counts and heap occupancy marks.

The :class:`~repro.sim.engine.Simulator` maintains a handful of cheap
counters on its hot path (dispatched events, timer-heap pushes, heap
high-water, same-instant fast-path hits, timer cancellations and
tombstone compactions).  This module turns them into a readable report
so benchmarks and experiments can see *where* engine time goes::

    from repro.sim.profile import attach_profile

    sim = Simulator()
    profile = attach_profile(sim)
    ...run the simulation...
    print(profile.format())         # human-readable table
    data = profile.report()         # JSON-ready dict

``attach_profile`` is a live view — attach it at any point; counters
reflect the simulator's whole lifetime.  ``snapshot()`` freezes a copy
for before/after comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import Simulator

__all__ = ["EngineProfile", "ProfileSnapshot", "attach_profile"]


@dataclass(frozen=True)
class ProfileSnapshot:
    """A frozen copy of the engine counters at one moment."""

    events_dispatched: int
    timer_pushes: int
    heap_high_water: int
    fast_path_events: int
    timeouts_cancelled: int
    compactions: int
    pending_tombstones: int
    pending_timers: int


class EngineProfile:
    """Live view over a :class:`Simulator`'s hot-path counters."""

    def __init__(self, sim: Simulator):
        self.sim = sim

    def snapshot(self) -> ProfileSnapshot:
        sim = self.sim
        # Sequence numbers are consumed only by heap pushes and NORMAL
        # same-instant appends, so heap pushes are derived rather than
        # counted on the push path.
        return ProfileSnapshot(
            events_dispatched=sim._stat_dispatched,
            timer_pushes=sim._seq - sim._stat_norm_fifo,
            heap_high_water=sim._stat_heap_max,
            fast_path_events=sim._stat_urgent_fifo + sim._stat_norm_fifo,
            timeouts_cancelled=sim._stat_cancels,
            compactions=sim._stat_compactions,
            pending_tombstones=sim._n_cancelled,
            pending_timers=sim.pending_timers,
        )

    def report(self) -> dict[str, int | float]:
        """JSON-ready counter dict, plus the fast-path hit ratio."""
        snap = self.snapshot()
        scheduled = snap.timer_pushes + snap.fast_path_events
        return {
            "events_dispatched": snap.events_dispatched,
            "timer_pushes": snap.timer_pushes,
            "heap_high_water": snap.heap_high_water,
            "fast_path_events": snap.fast_path_events,
            "fast_path_ratio": (
                round(snap.fast_path_events / scheduled, 4) if scheduled else 0.0
            ),
            "timeouts_cancelled": snap.timeouts_cancelled,
            "compactions": snap.compactions,
            "pending_tombstones": snap.pending_tombstones,
            "pending_timers": snap.pending_timers,
        }

    def format(self) -> str:
        """Human-readable multi-line report."""
        lines = [f"engine profile @ t={self.sim.now:.0f} ns"]
        for key, value in self.report().items():
            lines.append(f"  {key:<20} {value}")
        return "\n".join(lines)


def attach_profile(sim: Simulator) -> EngineProfile:
    """Return a live profiling view of ``sim``'s engine counters."""
    return EngineProfile(sim)
