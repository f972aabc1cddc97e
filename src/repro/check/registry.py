"""Runtime invariant machinery.

A :class:`CheckRegistry` holds named invariant checks over one
simulation.  Each check is a callable returning an iterable of problem
strings (empty/None = healthy).  Checks come in two flavours:

* **sampled** checks (:meth:`add`) are safe to evaluate at any event
  boundary; a sampler process runs them periodically until a horizon,
  and :meth:`check_now` runs them on demand;
* **quiesce** checks (:meth:`add_quiesce`) may assume the run is over;
  they receive ``drained`` (True when the event queue is empty, i.e.
  nothing is in flight) so conservation-style equalities can be exact
  when drained and inequalities otherwise.

Violations are *recorded*, not raised, so one broken invariant does
not mask the rest; :meth:`assert_clean` raises
:class:`InvariantViolation` with the full list at the end.  Nothing in
this module touches the simulator unless :meth:`start` is called, and
nothing at all is installed unless a harness builds a registry — the
zero-cost-when-disabled contract that keeps BENCH_engine honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

__all__ = ["InvariantViolation", "Violation", "CheckRegistry"]

#: stop recording after this many violations (a broken invariant in a
#: tight loop should not OOM the test run)
MAX_VIOLATIONS = 200


class InvariantViolation(AssertionError):
    """One or more runtime invariants failed."""


@dataclass(frozen=True)
class Violation:
    """One recorded invariant failure."""

    name: str
    time_ns: float
    detail: str

    def __str__(self) -> str:
        return f"[{self.name} @ {self.time_ns:.0f} ns] {self.detail}"


class CheckRegistry:
    """Named invariant checks over one simulator."""

    def __init__(self, sim, interval_ns: float = 250_000.0):
        self.sim = sim
        self.interval_ns = interval_ns
        self._checks: list[tuple[str, Callable[[], Optional[Iterable[str]]]]] = []
        self._quiesce: list[tuple[str, Callable[[bool], Optional[Iterable[str]]]]] = []
        self.violations: list[Violation] = []
        self.samples = 0
        self.finished = False
        #: optional :class:`repro.obs.flight.FlightRecorder`; when set,
        #: the first recorded violation freezes a post-mortem dump of
        #: the flight ring into :attr:`flight_dump` (and to
        #: :attr:`flight_dump_path` as JSON, if a path is set)
        self.flight = None
        self.flight_dump_path: Optional[str] = None
        self.flight_dump: Optional[dict] = None

    # -- registration ---------------------------------------------------

    def add(self, name: str,
            check: Callable[[], Optional[Iterable[str]]]) -> None:
        """Register a sampled check: ``check() -> problems``."""
        self._checks.append((name, check))

    def add_quiesce(self, name: str,
                    check: Callable[[bool], Optional[Iterable[str]]]) -> None:
        """Register an end-of-run check: ``check(drained) -> problems``."""
        self._quiesce.append((name, check))

    # -- evaluation -----------------------------------------------------

    def _record(self, name: str, problems: Optional[Iterable[str]]) -> None:
        if not problems:
            return
        recorded = False
        for detail in problems:
            if len(self.violations) >= MAX_VIOLATIONS:
                break
            self.violations.append(
                Violation(name=name, time_ns=self.sim.now, detail=detail)
            )
            recorded = True
        if recorded and self.flight is not None and self.flight_dump is None:
            self._dump_flight(self.violations[-1])

    def _dump_flight(self, trigger: Violation) -> None:
        """Freeze the flight ring at the first violation (post-mortem).

        The dump is taken exactly once — at the *first* violation — so
        it shows the system in the moments leading up to the failure,
        not after a possibly long pile-up.  The violation itself is
        noted into the ring first, so the dump records its own trigger.
        """
        flight = self.flight
        flight.note("invariant.violation", check=trigger.name,
                    detail=trigger.detail)
        reason = {
            "check": trigger.name,
            "time_ns": trigger.time_ns,
            "detail": trigger.detail,
        }
        if self.flight_dump_path is not None:
            self.flight_dump = flight.dump_json(self.flight_dump_path,
                                                reason=reason)
        else:
            self.flight_dump = flight.dump(reason=reason)

    def check_now(self) -> None:
        """Evaluate every sampled check at the current instant."""
        self.samples += 1
        for name, check in self._checks:
            self._record(name, check())

    def start(self, horizon_ns: float) -> None:
        """Spawn the periodic sampler, bounded by ``horizon_ns``.

        The bound matters: an unbounded ticker would keep the event
        queue populated forever and break run-to-exhaustion callers.
        """
        self.sim.periodic(self.interval_ns, self.check_now, horizon_ns,
                          name="invariant-sampler")

    def finish(self) -> list[Violation]:
        """Run the final sweep: sampled checks plus quiesce checks."""
        self.finished = True
        drained = self.sim.peek() == math.inf
        self.check_now()
        for name, check in self._quiesce:
            self._record(name, check(drained))
        return self.violations

    def assert_clean(self) -> None:
        """Raise :class:`InvariantViolation` if anything was recorded."""
        if not self.finished:
            self.finish()
        if self.violations:
            lines = "\n".join(f"  {v}" for v in self.violations)
            raise InvariantViolation(
                f"{len(self.violations)} invariant violation(s):\n{lines}"
            )
