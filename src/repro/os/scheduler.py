"""Per-core run queues with idle-first wake placement.

A deliberately Linux-shaped scheduler: one FIFO run queue per core
(priority buckets within), wake-up placement that prefers the thread's
previous core, then any idle core, then the least-loaded queue; and
round-robin timeslicing driven by the kernel's tick.  Optional work
stealing keeps cores from idling while others queue.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .process import OsThread, ThreadState

__all__ = ["Scheduler"]


class Scheduler:
    """Run-queue state; the kernel drives it."""

    def __init__(self, n_cores: int, steal: bool = True):
        self.n_cores = n_cores
        self.steal = steal
        self._queues: list[deque[OsThread]] = [deque() for _ in range(n_cores)]
        #: threads queued over all cores, kept with every queue change
        self._n_queued = 0
        #: cores currently in the idle loop (maintained by the kernel)
        self.idle_cores: set[int] = set()
        #: per-thread last core, for cache-affine wake placement
        self._last_core: dict[int, int] = {}

    # -- queries -----------------------------------------------------------

    def queue_length(self, core_id: int) -> int:
        return len(self._queues[core_id])

    def total_queued(self) -> int:
        return self._n_queued

    def queue_lengths(self) -> tuple[int, ...]:
        """Per-core run-queue depths (window probe for time series)."""
        return tuple(len(q) for q in self._queues)

    def queued_threads(self, core_id: int) -> tuple[OsThread, ...]:
        return tuple(self._queues[core_id])

    # -- placement -----------------------------------------------------------

    def choose_core(self, thread: OsThread) -> int:
        """Pick the run queue for a waking/new thread."""
        if thread.pinned_core is not None:
            return thread.pinned_core
        last = self._last_core.get(thread.tid)
        if last is not None and last in self.idle_cores:
            return last
        if self.idle_cores:
            return min(self.idle_cores)
        if last is not None:
            return last
        lengths = list(map(len, self._queues))
        return lengths.index(min(lengths))

    def enqueue(self, thread: OsThread, core_id: Optional[int] = None) -> int:
        """Make ``thread`` runnable on ``core_id`` (or auto-placed).

        Returns the chosen core so the kernel can kick it if idle.
        """
        if thread.state is ThreadState.DONE:
            raise ValueError(f"cannot enqueue finished thread {thread.name}")
        if core_id is None:
            core_id = self.choose_core(thread)
        thread.state = ThreadState.READY
        queue = self._queues[core_id]
        self._n_queued += 1
        # Priority 0 is normal; lower numbers run sooner.  FIFO within a
        # priority level: insert before the first lower-priority (higher
        # number) entry.  The tail check keeps the all-equal-priority
        # case O(1) without special-casing priority 0 — appending a
        # priority-0 thread unconditionally would land it behind any
        # lower-priority (> 0) work already queued.
        if not queue or queue[-1].priority <= thread.priority:
            queue.append(thread)
        else:
            for index, queued in enumerate(queue):
                if queued.priority > thread.priority:
                    queue.insert(index, thread)
                    break
            else:
                queue.append(thread)
        return core_id

    def pick_next(self, core_id: int) -> Optional[OsThread]:
        """Pop the next runnable thread for ``core_id``."""
        queue = self._queues[core_id]
        if queue:
            thread = queue.popleft()
            self._n_queued -= 1
        elif self.steal:
            thread = self._steal_for(core_id)
        else:
            thread = None
        if thread is not None:
            self._last_core[thread.tid] = core_id
        return thread

    def _steal_for(self, core_id: int) -> Optional[OsThread]:
        # The victim is the first longest queue in core order.  Never
        # pick the requesting core (its length is masked out), and leave
        # a victim with a single queued thread alone — taking its only
        # work just moves the imbalance instead of fixing it.  With
        # fewer than two threads queued anywhere no queue holds two.
        if self._n_queued < 2:
            return None
        lengths = list(map(len, self._queues))
        lengths[core_id] = -1
        longest = max(lengths)
        if longest < 2:
            return None
        queue = self._queues[lengths.index(longest)]
        # Steal only unpinned work, from the tail (coldest).
        for index in range(len(queue) - 1, -1, -1):
            candidate = queue[index]
            if candidate.pinned_core is None:
                del queue[index]
                self._n_queued -= 1
                return candidate
        return None

    def remove(self, thread: OsThread) -> bool:
        """Drop a queued thread (e.g. it was retired); True if found."""
        for queue in self._queues:
            try:
                queue.remove(thread)
            except ValueError:
                continue
            self._n_queued -= 1
            return True
        return False
