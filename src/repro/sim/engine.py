"""Discrete-event simulation engine.

This module is the foundation of the whole reproduction: every hardware
and software component (cores, caches, interconnects, NICs, the kernel)
is expressed as a set of simulation processes exchanging events on a
shared virtual clock.

The design follows the classic generator-based style (as popularised by
SimPy) but is implemented from scratch so the reproduction has no
third-party runtime dependencies:

* :class:`Simulator` owns the event queues and the virtual clock.
* :class:`Event` is a one-shot occurrence that processes can wait on.
* :class:`Process` wraps a Python generator; each ``yield`` suspends the
  process until the yielded event fires.
* :meth:`Simulator.start` drives a generator nothing waits on from the
  callbacks of the events it yields, with no :class:`Process` around it.
* :class:`Timeout` is an event that fires after a fixed delay; pending
  timeouts can be :meth:`~Timeout.cancel`-ed.  A one-shot delayed action
  is ``sim.timeout(delay).add_callback(fn)``: one timer event, where a
  process spawned to wait once costs three (start, timer, completion).

Hot-path layout (everything here is exercised millions of times per
experiment):

* All event classes use ``__slots__`` — no per-event ``__dict__``.
* Events scheduled *at the current instant* go to plain FIFOs (one for
  URGENT resumptions, one for NORMAL same-time events), so zero-delay
  wake-up chains never pay a heap sift.  Only future-dated events (real
  timers) touch the heap.
* Future-dated events live in one ``heapq`` binary heap of
  ``(when, seq, event)`` tuples.
* Cancelled timeouts are removed lazily: they stay queued as
  tombstones, are skipped on pop, and the heap is compacted when
  tombstones dominate — so retry/Tryagain-style workloads that arm and
  abandon guard timers don't grow the heap without bound.

Dispatch order is the engine's contract: events run in strict
``(time, priority, sequence)`` order, where the sequence number is a
global arming counter, so time ties break in arming order.

:mod:`repro.sim.profile` reports the event counters and heap occupancy
marks the simulator maintains.

Time is measured in **nanoseconds** (floats).  Helper constants for
other units live in :mod:`repro.sim.clock`.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
    "Simulator",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation API (e.g. double-trigger)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries an arbitrary payload describing why
    the interrupt happened (for example, an IPI descriptor in the OS
    model).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Priorities for events scheduled at the same timestamp.  Urgent events
# (process resumptions) run before normal events so that chains of
# zero-delay wake-ups complete before the clock is allowed to advance.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *pending*, becomes *triggered* when :meth:`succeed`
    or :meth:`fail` is called, and is *processed* once the simulator has
    run its callbacks.  Processes wait on events by ``yield``-ing them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_ok", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._ok: Optional[bool] = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value (or exception) attached."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have been dispatched."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        if not self._ok:
            raise SimulationError("event failed; check .exception")
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        # The slot may be unset on a pending Timeout (see Timeout.__init__).
        try:
            return self._exception
        except AttributeError:
            return None

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.sim._enqueue(self.sim.now, priority, self)
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on the
        event.
        """
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._ok = False
        self._exception = exc
        # Timeouts leave _defused unset at construction; a failed event
        # must have it readable before dispatch.
        self._defused = False
        self.sim._enqueue(self.sim.now, priority, self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event fires.

        If the event has already been processed the callback runs
        immediately, which lets late waiters join without racing.
        """
        if self.callbacks is None:
            if self._ok is None:
                raise SimulationError("cannot wait on a cancelled timeout")
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self.processed:
            state = "cancelled" if self._ok is None else "processed"
        elif self.triggered:
            state = "triggered"
        return f"<{type(self).__name__} {state} at t={self.sim.now}>"


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation.

    Unlike a plain event, a timeout is *scheduled* at construction but
    only *triggers* when the simulator dispatches it — ``triggered``
    stays False (and ``.value`` raises) until the delay has actually
    elapsed.  A pending timeout can be cancelled.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Event.__init__ is inlined (the _exception/_defused slots are
        # left unset — they are only ever read after fail(), which
        # assigns them).  The value is staged in _value but _ok stays
        # None: the simulator marks the event triggered when the delay
        # elapses.  Simulator.timeout is the hot-path twin of this
        # constructor; keep the two in sync.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = None
        self.delay = delay
        sim._enqueue(sim.now + delay, NORMAL, self)

    def cancel(self) -> bool:
        """Cancel a pending timeout so it never fires.

        Returns True if the timeout was cancelled, False if it had
        already fired (cancelling a fired timer is a harmless no-op,
        which makes ``guard.cancel()`` after a race safe).  The queue
        entry is removed lazily (tombstoned); its callbacks never run.
        A process must not cancel a timeout it is itself blocked on —
        it would never be resumed.
        """
        if self._ok is not None or self.callbacks is None:
            return False
        self.callbacks = None
        sim = self.sim
        sim._n_cancelled += 1
        sim._stat_cancels += 1
        # Tombstone hygiene: once cancelled timers dominate the heap,
        # rebuild it in one O(n) pass (amortised against the >= n/2
        # cancellations that triggered it).
        if sim._n_cancelled > 64 and sim._n_cancelled * 2 > len(sim._heap):
            sim._compact()
        return True

    @property
    def cancelled(self) -> bool:
        return self._ok is None and self.callbacks is None


class _Initialize(Event):
    """Internal event used to start a process at creation time."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        Event.__init__(self, sim)
        self.callbacks.append(process._resume_cb)
        sim._enqueue(sim.now, URGENT, self)


class Process(Event):
    """A simulation process wrapping a generator.

    The process object doubles as an event that fires when the generator
    terminates; its value is the generator's return value.  Waiting on a
    process therefore means "wait until it finishes".
    """

    __slots__ = ("name", "_generator", "_waiting_on", "_send", "_throw",
                 "_resume_cb")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        try:
            # Bound methods cached once: _resume runs per yield of every
            # process and saves an attribute hop on each, and appending
            # the cached _resume avoids materialising a fresh bound
            # method per yield.
            self._send = generator.send
            self._throw = generator.throw
        except AttributeError:
            raise TypeError(
                f"Process needs a generator, got {generator!r}"
            ) from None
        Event.__init__(self, sim)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self._resume_cb = self._resume
        _Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process.

        The interrupt is delivered asynchronously (as an urgent event at
        the current time) so the caller's own execution is not nested
        inside the target's frame.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name}")
        if self._waiting_on is self:
            raise SimulationError("a process cannot interrupt itself")
        exc = Interrupt(cause)
        event = Event(self.sim)
        event._ok = False
        event._exception = exc
        event._defused = True  # handled by the interrupted process
        event.callbacks.append(self._resume_cb)
        self.sim._enqueue(self.sim.now, URGENT, event)

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        if self._ok is not None:
            # The process finished before a queued interrupt arrived;
            # drop the stale resumption.
            return
        # _waiting_on deliberately keeps its stale value while the
        # generator runs: only interrupt() consults it, and a process
        # cannot be interrupted from inside its own frame.
        try:
            if event._ok:
                target = self._send(event._value)
            else:
                event._defused = True
                target = self._throw(event._exception)
        except StopIteration as stop:
            self._finish()
            self.succeed(stop.value, priority=URGENT)
            return
        except BaseException as exc:
            self._finish()
            self.fail(exc, priority=URGENT)
            return

        # Probe the two attributes every Event carries instead of an
        # isinstance check; non-events fail the probe.
        try:
            foreign = target.sim is not self.sim
            callbacks = target.callbacks
        except AttributeError:
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            ) from None
        if foreign:
            raise SimulationError("cannot wait on an event from another simulator")
        self._waiting_on = target
        # add_callback, inlined: this runs once per yield of every
        # process, so the extra call frame is worth saving.
        if callbacks is None:
            if target._ok is None:
                raise SimulationError("cannot wait on a cancelled timeout")
            self._resume(target)
        else:
            callbacks.append(self._resume_cb)

    def _finish(self) -> None:
        # Drop the bound methods: _resume_cb is a Process -> method ->
        # Process cycle, so a finished process would otherwise wait for
        # the cyclic GC.  A queued stale interrupt holds its own
        # reference and finds _ok set.
        self._resume_cb = self._send = self._throw = None


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_fired", "_check_cb")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        Event.__init__(self, sim)
        self.events = list(events)
        self._fired = 0
        if not self.events:
            self.succeed({})
            return
        # One bound method shared by every registration, so wide
        # fan-ins don't allocate per-event callables and _detach can
        # remove registrations by identity.  Registration is inlined
        # (add_callback semantics, minus the per-event method call):
        # wide fan-ins register hundreds of callbacks per condition.
        check = self._check_cb = self._check
        own_sim = self.sim
        for event in self.events:
            if event.sim is not own_sim:
                raise SimulationError("condition spans multiple simulators")
            callbacks = event.callbacks
            if callbacks is None:
                if event._ok is None:
                    raise SimulationError("cannot wait on a cancelled timeout")
                check(event)
            else:
                callbacks.append(check)

    def _collect(self) -> dict[Event, Any]:
        return {e: e._value for e in self.events if e._ok}

    def _detach(self) -> None:
        """Unregister _check from every still-pending member event.

        Once the condition has fired, the losing events' callbacks
        would only ever hit the dead ``self._ok is not None`` branch;
        leaving them registered accumulates garbage on wide fan-ins and
        keeps the condition (and everything it captured) alive as long
        as the slowest loser.  Cancelled timeouts (callbacks is None)
        and already-processed events — including the member whose
        firing satisfied the condition (its callbacks are nulled for
        the dispatch in progress) — need no detach.
        """
        check = self._check_cb
        for event in self.events:
            callbacks = event.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(check)
                except ValueError:
                    pass
        # The cached bound method is a condition -> method -> condition
        # cycle; a fired condition never registers it again.
        self._check_cb = None

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        if not event._ok:
            event._defused = True
            self._detach()
            self.fail(event._exception)
            return
        self._fired += 1
        if self._satisfied():
            self._detach()
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires when any one of the given events fires."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._fired >= 1


class AllOf(_Condition):
    """Fires when all of the given events have fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._fired == len(self.events)


#: the processed event a started generator's first step resumes from:
#: it sends None, as a process's start does
_FIRST_STEP = Event.__new__(Event)
_FIRST_STEP._ok = True
_FIRST_STEP._value = None


class Simulator:
    """The event loop: a virtual clock, two FIFOs and a timer heap.

    Scheduling invariant: events run in ``(time, priority, sequence)``
    order.  Events scheduled at the *current* instant are kept out of
    the heap — URGENT ones (process resumptions, which every trigger in
    the tree schedules at ``now``) in a plain FIFO whose append order
    *is* sequence order, NORMAL same-instant ones in a second FIFO that
    is merged with same-timestamp heap entries by sequence number.  The
    heap holds only future-dated events, i.e. real timers.
    """

    __slots__ = (
        "now", "_heap", "_urgent", "_normal", "_seq", "_n_cancelled",
        "_stat_dispatched", "_stat_heap_max", "_stat_norm_fifo",
        "_stat_urgent_fifo", "_stat_cancels", "_stat_compactions",
        "__weakref__",
    )

    def __init__(self):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._urgent: deque[Event] = deque()
        self._normal: deque[tuple[int, Event]] = deque()
        #: next sequence number; consumed by every heap push and every
        #: NORMAL same-instant append (urgent FIFO order needs none).
        self._seq = 0
        #: live tombstones (cancelled timeouts still queued)
        self._n_cancelled = 0
        # -- profiling counters (see repro.sim.profile) ----------------
        # Heap pushes are not counted on the push path: they are derived
        # as _seq - _stat_norm_fifo, since those are the only two
        # consumers of sequence numbers.
        self._stat_dispatched = 0
        self._stat_heap_max = 0
        self._stat_norm_fifo = 0
        self._stat_urgent_fifo = 0
        self._stat_cancels = 0
        self._stat_compactions = 0

    @property
    def pending_timers(self) -> int:
        """Future-dated events still queued, tombstones included.

        ``repro.hw.machine`` probes this into telemetry that the golden
        digests hash, so it counts cancelled timers until a compaction
        or a pop discards them — which is why cancellation stays lazy.
        """
        return len(self._heap)

    # -- scheduling ---------------------------------------------------

    def _enqueue(self, when: float, priority: int, event: Event) -> None:
        if when == self.now:
            # Same-instant fast path: no heap traffic.  Everything in
            # the tree schedules URGENT events at the current instant,
            # so the urgent FIFO needs no sequence numbers; the NORMAL
            # FIFO keeps them to merge with same-timestamp heap entries.
            if priority == URGENT:
                self._stat_urgent_fifo += 1
                self._urgent.append(event)
            else:
                seq = self._seq
                self._seq = seq + 1
                self._stat_norm_fifo += 1
                self._normal.append((seq, event))
            return
        # Future-dated events are always NORMAL (succeed/fail stamp the
        # current instant; only timers schedule ahead), so heap entries
        # carry no priority field: (when, seq, event).
        seq = self._seq
        self._seq = seq + 1
        heap = self._heap
        heappush(heap, (when, seq, event))
        if len(heap) > self._stat_heap_max:
            self._stat_heap_max = len(heap)

    def _compact(self) -> None:
        """Rebuild the heap without tombstones (cancelled timeouts).

        In place: ``run`` holds a local reference to the heap list, and
        a cancellation inside an event callback may compact mid-run.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[2].callbacks is not None]
        heapify(heap)
        self._n_cancelled = sum(
            1 for _, event in self._normal if event.callbacks is None
        )
        self._stat_compactions += 1

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` ns.

        Equivalent to ``Timeout(sim, delay, value)`` but with the
        constructor inlined — ``sim.timeout`` is how nearly every timer
        in the tree is created, and skipping the ``__init__`` frame is
        measurable.  Keep in sync with :meth:`Timeout.__init__`.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        event = Timeout.__new__(Timeout)
        event.sim = self
        event.callbacks = []
        event._value = value
        event._ok = None
        event.delay = delay
        now = self.now
        when = now + delay
        seq = self._seq
        self._seq = seq + 1
        if when == now:
            self._stat_norm_fifo += 1
            self._normal.append((seq, event))
        else:
            heap = self._heap
            heappush(heap, (when, seq, event))
            if len(heap) > self._stat_heap_max:
                self._stat_heap_max = len(heap)
        return event

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new simulation process from ``generator``.

        For work that is joined, interrupted or long-lived; a one-off
        reaction that nothing waits on is cheaper as :meth:`start`.
        """
        return Process(self, generator, name=name)

    def start(self, generator: Generator) -> None:
        """Run ``generator`` to completion, with no :class:`Process`.

        The first step runs at once, inside this call; each later step
        runs from the callbacks of the event the generator yielded, at
        once if that event was already processed.  A failed event is
        thrown in and defused, as for a process.  Nothing can wait on,
        interrupt or name the work, and no start or completion event is
        dispatched: the events it yields are all it costs.  An exception
        escaping the generator propagates to whoever resumed it, the
        caller of ``start`` or :meth:`run`.
        """
        send = generator.send
        throw = generator.throw

        def resume(event: Event) -> None:
            nonlocal resume
            while True:
                try:
                    if event._ok:
                        target = send(event._value)
                    else:
                        event._defused = True
                        target = throw(event._exception)
                except StopIteration:
                    # resume holds itself through its closure cell;
                    # letting go frees the finished work by refcount.
                    resume = None
                    return
                try:
                    foreign = target.sim is not self
                    callbacks = target.callbacks
                except AttributeError:
                    raise SimulationError(
                        f"{generator!r} yielded {target!r}, expected an Event"
                    ) from None
                if foreign:
                    raise SimulationError(
                        "cannot wait on an event from another simulator")
                if callbacks is not None:
                    callbacks.append(resume)
                    return
                if target._ok is None:
                    raise SimulationError("cannot wait on a cancelled timeout")
                event = target

        resume(_FIRST_STEP)

    def periodic(self, interval_ns: float, fn: Callable[[], Any],
                 until_ns: float, name: str = "periodic") -> Process:
        """Call ``fn()`` every ``interval_ns`` of simulated time.

        The ticker is bounded by ``until_ns``: ticks fire at every
        multiple of ``interval_ns`` up to *and including* ``until_ns``
        (``run(until=h)`` dispatches events landing exactly on ``h``),
        and the process then terminates so run-to-exhaustion callers
        are never kept alive by a stale ticker.  A horizon that is an
        exact multiple of the interval therefore gets its final tick at
        exactly ``until_ns`` — controller decision epochs and sampler
        windows aligned to the run horizon must not lose their last
        tick.  ``fn`` runs at event-boundary granularity and must not
        itself advance simulated time — this is the host-side sampling
        hook used by the invariant sampler (:mod:`repro.check`) and the
        time-series sampler (:mod:`repro.obs.timeseries`).
        """
        if interval_ns <= 0:
            raise ValueError(f"non-positive periodic interval: {interval_ns}")

        def ticker():
            while self.now + interval_ns <= until_ns:
                yield self.timeout(interval_ns)
                fn()

        return self.process(ticker(), name=name)

    # -- execution ----------------------------------------------------

    def _pop(self) -> Optional[Event]:
        """Pop the next live event in (time, priority, seq) order.

        Advances the clock when the winner comes off the heap.  Skips
        cancelled timeouts.  Returns None when nothing is queued.
        """
        urgent = self._urgent
        heap = self._heap
        if urgent:
            # URGENT events are only ever scheduled at the current
            # instant (succeed/fail stamp ``sim.now``; timeouts are
            # NORMAL), so the urgent FIFO always outranks the heap and
            # never holds cancelled timers.
            return urgent.popleft()
        normal = self._normal
        now = self.now
        while normal:
            if heap and heap[0][0] == now and heap[0][1] < normal[0][0]:
                # Same-instant heap entry scheduled before the FIFO head.
                event = heappop(heap)[2]
            else:
                event = normal.popleft()[1]
            if event.callbacks is not None:
                return event
            self._n_cancelled -= 1
        while heap:
            when, _seq, event = heappop(heap)
            if event.callbacks is None:
                self._n_cancelled -= 1
                continue
            if when < now:
                raise SimulationError("event scheduled in the past")
            self.now = when
            return event
        return None

    def peek(self) -> float:
        """Time of the next live scheduled event, or ``inf`` if none."""
        heap = self._heap
        for fifo_event in self._urgent:
            if fifo_event.callbacks is not None:
                return self.now
        for _seq, fifo_event in self._normal:
            if fifo_event.callbacks is not None:
                return self.now
        while heap and heap[0][2].callbacks is None:
            heappop(heap)
            self._n_cancelled -= 1
        return heap[0][0] if heap else float("inf")

    def _dispatch(self, event: Event) -> None:
        """Run one event's callbacks (the inner loop of the engine)."""
        if event._ok is None:
            # A Timeout (or process-start) triggers at dispatch time.
            event._ok = True
        self._stat_dispatched += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # An unhandled failure with nobody waiting would silently
            # disappear; surface it instead.
            raise event._exception

    def step(self) -> None:
        """Process exactly one event (skipping cancelled timeouts)."""
        event = self._pop()
        if event is not None:
            self._dispatch(event)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to exhaustion), a timestamp, or
        an :class:`Event` (run until the event fires; returns its
        value).  Awaiting a timeout that is, or gets, cancelled raises
        :class:`SimulationError`.
        """
        stop_event: Optional[Event] = None
        horizon = float("inf")
        bounded = False
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            horizon = float(until)
            if horizon < self.now:
                raise ValueError(
                    f"until={horizon} is in the past (now={self.now})")
            bounded = True
        # The event loop is _pop + _dispatch inlined into one frame:
        # this function IS the hot loop of every experiment, and the
        # two calls per event it saves are measurable.  _compact()
        # mutates the heap list in place, so the local binding below
        # stays valid across callbacks.
        urgent = self._urgent
        normal = self._normal
        heap = self._heap
        dispatched = 0
        try:
            while True:
                if stop_event is not None and stop_event.callbacks is None:
                    if stop_event._ok:
                        return stop_event._value
                    if stop_event._ok is None:
                        raise SimulationError(
                            "the awaited timeout was cancelled")
                    raise stop_event._exception
                # -- pop the next live event in (time, priority, seq) order
                if urgent:
                    # Urgent events are always at the current instant and
                    # never cancellable (see _pop).
                    event = urgent.popleft()
                elif normal:
                    if heap and heap[0][0] == self.now \
                            and heap[0][1] < normal[0][0]:
                        # Same-instant heap entry scheduled before the FIFO
                        # head (a timer whose due time has just arrived).
                        event = heappop(heap)[2]
                    else:
                        event = normal.popleft()[1]
                    if event.callbacks is None:  # cancelled zero-delay timer
                        self._n_cancelled -= 1
                        continue
                else:
                    if not heap:
                        if stop_event is not None:
                            raise SimulationError(
                                "event queue empty before the awaited "
                                "event fired"
                            )
                        if bounded:
                            self.now = horizon
                        return None
                    # Pop first, then check: one heap access per event
                    # instead of a peek + pop.
                    when, seq, event = heappop(heap)
                    if event.callbacks is None:  # cancelled timer: purge
                        self._n_cancelled -= 1
                        continue
                    if when > horizon:
                        heappush(heap, (when, seq, event))
                        # horizon is finite only for bounded runs
                        self.now = horizon
                        return None
                    # No scheduled-in-the-past check here: heap entries
                    # are strictly future-dated at creation (negative
                    # delays raise) and the clock never runs backwards.
                    # _pop keeps the check for the step()/peek() path.
                    self.now = when
                # -- dispatch (mirrors _dispatch)
                if event._ok is None:
                    event._ok = True
                dispatched += 1
                callbacks = event.callbacks
                event.callbacks = None
                if len(callbacks) == 1:
                    # Nearly every event has exactly one waiter.
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    raise event._exception
        finally:
            self._stat_dispatched += dispatched
