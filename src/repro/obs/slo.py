"""Service-level objectives over simulated time: budgets and burn rates.

The span layer answers "what happened to request N"; the time-series
layer answers "what was the system doing at instant T".  Neither
answers the operator question that drives paging policy: *is tenant X
still inside its latency objective, and if not, how fast is it burning
the error budget?*  This module adds that vocabulary on top of the
recorders that already exist — nothing here touches the simulator.

An :class:`SLOSpec` states an objective: a latency threshold and the
fraction of requests that must meet it (plus, optionally, an
availability target driven by root spans that never finish inside
``timeout_ns``).  An :class:`SLOTracker` is fed from two existing
seams, both behind the package's one-``is None`` arming convention:

* ``SpanRecorder`` calls :meth:`SLOTracker.note_root_start` /
  :meth:`SLOTracker.observe_root` when a root span opens / finishes
  (the recorder holds ``self.slo = None`` until armed);
* ``TimeSeriesSampler.subscribe`` delivers closed windows to
  :meth:`SLOTracker.on_window`, the deterministic evaluation instants
  at which burn rates are recomputed and alerts may fire.

Burn-rate alerting follows multi-window SRE practice: with budget
fraction ``1 - latency_target``, the *burn rate* over a trailing
window is ``(bad fraction in window) / budget fraction`` — burn 1.0
consumes exactly the allowed budget, burn 14 pages someone.  An alert
fires only when **both** the fast and the slow window exceed
``burn_threshold`` (fast for responsiveness, slow to suppress blips),
is latched until the fast window recovers, lands in the
:class:`~repro.obs.flight.FlightRecorder` (``slo.alert``), and is
mirrored — together with the running error-budget ledger — as a
:class:`~repro.obs.metrics.MetricsRegistry` probe so controller
policies (:mod:`repro.ctrl`) can read burn rates out of sampler
windows like any other signal.

Everything is simulated-ns; arming a tracker can never perturb a run.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["SLOSpec", "SLOAlert", "SLOTracker"]


@dataclass(frozen=True)
class SLOSpec:
    """One objective: who it covers, what "good" means, when to page.

    ``tenant``/``service`` of ``None`` match every root span; otherwise
    they are compared against the ``tenant``/``service`` fields the
    Lauberhorn demux annotates onto root spans (see
    ``SpanRecorder.tag_origin``).  ``latency_target`` is the required
    *good* fraction (0.999 = "99.9% under threshold"), so the error
    budget is ``1 - latency_target``.  ``timeout_ns``, when set, counts
    a root span that is still open after that long as an availability
    failure (bad, exactly once).  ``min_requests`` gates alerting and
    exhaustion so a two-request window cannot page.
    """

    name: str
    latency_threshold_ns: float
    latency_target: float = 0.999
    tenant: Optional[str] = None
    service: Optional[str] = None
    availability_target: Optional[float] = None
    timeout_ns: Optional[float] = None
    fast_window_ns: float = 2_000_000.0
    slow_window_ns: float = 10_000_000.0
    burn_threshold: float = 4.0
    min_requests: int = 8

    def __post_init__(self) -> None:
        if not 0.0 < self.latency_target < 1.0:
            raise ValueError("latency_target must be in (0, 1)")
        if self.latency_threshold_ns <= 0:
            raise ValueError("latency_threshold_ns must be positive")
        if self.fast_window_ns > self.slow_window_ns:
            raise ValueError("fast window must not exceed slow window")
        if self.burn_threshold <= 0:
            raise ValueError("burn_threshold must be positive")

    @property
    def budget_fraction(self) -> float:
        return 1.0 - self.latency_target

    def matches(self, fields: dict) -> bool:
        if self.tenant is not None and fields.get("tenant") != self.tenant:
            return False
        if self.service is not None and fields.get("service") != self.service:
            return False
        return True

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "tenant": self.tenant,
            "service": self.service,
            "latency_threshold_ns": self.latency_threshold_ns,
            "latency_target": self.latency_target,
            "availability_target": self.availability_target,
            "timeout_ns": self.timeout_ns,
            "fast_window_ns": self.fast_window_ns,
            "slow_window_ns": self.slow_window_ns,
            "burn_threshold": self.burn_threshold,
            "min_requests": self.min_requests,
        }


@dataclass
class SLOAlert:
    """One burn-rate page: when, for whom, how hot both windows ran."""

    t_ns: float
    spec: str
    tenant: Optional[str]
    burn_fast: float
    burn_slow: float
    fast_total: int

    def as_dict(self) -> dict:
        return {
            "t_ns": self.t_ns,
            "spec": self.spec,
            "tenant": self.tenant,
            "burn_fast": self.burn_fast,
            "burn_slow": self.burn_slow,
            "fast_total": self.fast_total,
        }


@dataclass
class _Ledger:
    """Running error-budget state for one spec (host-side only)."""

    total: int = 0
    bad: int = 0
    timeouts: int = 0
    completed: int = 0
    burn_fast: float = 0.0
    burn_slow: float = 0.0
    alerting: bool = False
    alerts: int = 0
    first_alert_ns: Optional[float] = None
    exhausted_ns: Optional[float] = None
    # (end_ns, bad) per SLI event, pruned past the slow window
    events: deque = field(default_factory=deque)


class SLOTracker:
    """Error-budget ledgers + multi-window burn-rate alerts per spec.

    Feed it root spans (via ``SpanRecorder``) and closed sampler
    windows (via :meth:`on_window`); read it through
    :meth:`snapshot` (metrics probe rows), :attr:`alerts`, or the
    JSON-able :meth:`report`.
    """

    def __init__(self, sim, specs, flight=None):
        if not specs:
            raise ValueError("SLOTracker needs at least one SLOSpec")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLOSpec names: {names}")
        self.sim = sim
        self.specs: tuple[SLOSpec, ...] = tuple(specs)
        self.flight = flight
        self.alerts: list[SLOAlert] = []
        self._ledgers: dict[str, _Ledger] = {
            spec.name: _Ledger() for spec in self.specs}
        # open root spans awaiting completion (for timeout objectives),
        # in start order
        self._open: dict[int, Any] = {}
        # no root younger than this can have timed out (None: no spec
        # has a timeout)
        self._shortest_timeout: Optional[float] = min(
            (spec.timeout_ns for spec in self.specs
             if spec.timeout_ns is not None), default=None)
        # trace ids already charged as timeouts — a late completion
        # must not count the same request twice
        self._timed_out: set[int] = set()
        self._evaluations = 0

    # -- arming ---------------------------------------------------------------

    def arm(self, recorder=None, sampler=None, registry=None,
            prefix: str = "slo") -> "SLOTracker":
        """Wire the tracker into the recorders it feeds from.

        Sets ``recorder.slo``, subscribes :meth:`on_window` to the
        sampler, and registers :meth:`snapshot` as a registry probe
        under ``prefix`` — each optional, so tests can arm one seam at
        a time.  Returns ``self`` for chaining.
        """
        if recorder is not None:
            recorder.slo = self
        if sampler is not None:
            sampler.subscribe(self.on_window)
        if registry is not None:
            registry.probe(prefix, self.snapshot)
        return self

    # -- span feed ------------------------------------------------------------

    def note_root_start(self, span) -> None:
        """A root span opened; remember it for timeout accounting.

        Roots must arrive in start order (``span.start_ns`` never
        decreasing from one call to the next), as ``start_trace`` opens
        them at ``sim.now``: the timeout scan stops at the first root
        too young to have timed out.
        """
        self._open[span.span_id] = span

    def observe_root(self, span) -> None:
        """A root span finished: classify it against every matching spec."""
        self._open.pop(span.span_id, None)
        if span.span_id in self._timed_out:
            # already charged as an availability failure at evaluation
            # time; do not double-count the same request
            self._timed_out.discard(span.span_id)
            return
        end_ns = span.end_ns
        duration = end_ns - span.start_ns
        fields = span.fields
        for spec in self.specs:
            if not spec.matches(fields):
                continue
            ledger = self._ledgers[spec.name]
            bad = duration > spec.latency_threshold_ns
            ledger.total += 1
            ledger.completed += 1
            if bad:
                ledger.bad += 1
            ledger.events.append((end_ns, bad))

    # -- evaluation -----------------------------------------------------------

    def on_window(self, window) -> None:
        """Sampler tap: evaluate every spec at this window's close."""
        self.evaluate(window.end_ns)

    def evaluate(self, now_ns: float) -> None:
        self._evaluations += 1
        self._charge_timeouts(now_ns)
        for spec in self.specs:
            ledger = self._ledgers[spec.name]
            burn_fast, fast_total = self._window_burn(
                spec, ledger, now_ns, spec.fast_window_ns)
            burn_slow, _ = self._window_burn(
                spec, ledger, now_ns, spec.slow_window_ns)
            ledger.burn_fast = burn_fast
            ledger.burn_slow = burn_slow
            self._update_exhaustion(spec, ledger, now_ns)
            breaching = (
                fast_total >= spec.min_requests
                and burn_fast >= spec.burn_threshold
                and burn_slow >= spec.burn_threshold)
            if breaching and not ledger.alerting:
                ledger.alerting = True
                ledger.alerts += 1
                if ledger.first_alert_ns is None:
                    ledger.first_alert_ns = now_ns
                alert = SLOAlert(now_ns, spec.name, spec.tenant,
                                 burn_fast, burn_slow, fast_total)
                self.alerts.append(alert)
                if self.flight is not None:
                    self.flight.note("slo.alert", spec=spec.name,
                                     tenant=spec.tenant or "*",
                                     burn_fast=burn_fast,
                                     burn_slow=burn_slow)
            elif not breaching and burn_fast < spec.burn_threshold:
                # latched until the fast window recovers
                ledger.alerting = False
            # prune events past the slow window
            horizon = now_ns - spec.slow_window_ns
            events = ledger.events
            while events and events[0][0] <= horizon:
                events.popleft()

    def _charge_timeouts(self, now_ns: float) -> None:
        """Open roots past their timeout count as bad, exactly once."""
        shortest = self._shortest_timeout
        if shortest is None:
            return
        expired = []
        for span_id, span in self._open.items():
            age = now_ns - span.start_ns
            if age <= shortest:
                # roots are in start order: no later one is older
                break
            charged = False
            for spec in self.specs:
                if spec.timeout_ns is None or age <= spec.timeout_ns:
                    continue
                if not spec.matches(span.fields):
                    continue
                ledger = self._ledgers[spec.name]
                ledger.total += 1
                ledger.bad += 1
                ledger.timeouts += 1
                ledger.events.append((now_ns, True))
                charged = True
            if charged:
                expired.append(span_id)
        for span_id in expired:
            del self._open[span_id]
            self._timed_out.add(span_id)

    @staticmethod
    def _window_burn(spec: SLOSpec, ledger: _Ledger, now_ns: float,
                     window_ns: float) -> tuple[float, int]:
        horizon = now_ns - window_ns
        total = bad = 0
        for end_ns, is_bad in reversed(ledger.events):
            if end_ns <= horizon:
                break
            total += 1
            if is_bad:
                bad += 1
        if total == 0:
            return 0.0, 0
        return (bad / total) / spec.budget_fraction, total

    def _update_exhaustion(self, spec: SLOSpec, ledger: _Ledger,
                           now_ns: float) -> None:
        if ledger.exhausted_ns is not None:
            return
        if ledger.total < spec.min_requests:
            return
        if ledger.bad > spec.budget_fraction * ledger.total:
            ledger.exhausted_ns = now_ns
            if self.flight is not None:
                self.flight.note("slo.exhausted", spec=spec.name,
                                 tenant=spec.tenant or "*",
                                 bad=ledger.bad, total=ledger.total)

    # -- views ----------------------------------------------------------------

    def budget_consumed(self, spec_name: str) -> float:
        """Fraction of the error budget burned so far (1.0 = exhausted)."""
        spec = self._spec(spec_name)
        ledger = self._ledgers[spec_name]
        if ledger.total == 0:
            return 0.0
        return (ledger.bad / ledger.total) / spec.budget_fraction

    def availability(self, spec_name: str) -> float:
        ledger = self._ledgers[spec_name]
        if ledger.total == 0:
            return 1.0
        return ledger.completed / ledger.total

    def _spec(self, name: str) -> SLOSpec:
        for spec in self.specs:
            if spec.name == name:
                return spec
        raise KeyError(name)

    def snapshot(self) -> dict[str, float]:
        """Flat probe rows: ``{spec}.{stat}`` per objective.

        Registered under a registry prefix (default ``"slo"``), these
        land in every sampler window, which is how the ``slo_guard``
        controller policy reads burn rates as live signals.
        """
        out: dict[str, float] = {}
        for spec in self.specs:
            ledger = self._ledgers[spec.name]
            key = spec.name
            out[f"{key}.total"] = float(ledger.total)
            out[f"{key}.bad"] = float(ledger.bad)
            out[f"{key}.timeouts"] = float(ledger.timeouts)
            out[f"{key}.burn_fast"] = ledger.burn_fast
            out[f"{key}.burn_slow"] = ledger.burn_slow
            out[f"{key}.budget_consumed"] = self.budget_consumed(spec.name)
            out[f"{key}.alerts"] = float(ledger.alerts)
            out[f"{key}.alerting"] = 1.0 if ledger.alerting else 0.0
            out[f"{key}.exhausted"] = (
                0.0 if ledger.exhausted_ns is None else 1.0)
        return out

    def report(self) -> dict[str, Any]:
        """JSON-able per-spec ledger + alert history for artifacts."""
        specs = {}
        for spec in self.specs:
            ledger = self._ledgers[spec.name]
            exhausted_ns = ledger.exhausted_ns
            first_alert_ns = ledger.first_alert_ns
            lead_ns = None
            if exhausted_ns is not None and first_alert_ns is not None:
                lead_ns = exhausted_ns - first_alert_ns
            specs[spec.name] = {
                "spec": spec.as_dict(),
                "total": ledger.total,
                "bad": ledger.bad,
                "timeouts": ledger.timeouts,
                "availability": self.availability(spec.name),
                "budget_consumed": self.budget_consumed(spec.name),
                "burn_fast": ledger.burn_fast,
                "burn_slow": ledger.burn_slow,
                "alerts": ledger.alerts,
                "first_alert_ns": first_alert_ns,
                "exhausted_ns": exhausted_ns,
                "alert_lead_ns": lead_ns,
                "violated": exhausted_ns is not None,
            }
        return {
            "evaluations": self._evaluations,
            "open_roots": len(self._open),
            "n_alerts": len(self.alerts),
            "alerts": [alert.as_dict() for alert in self.alerts],
            "specs": specs,
        }


def _self_test() -> None:  # pragma: no cover - import-time sanity
    assert math.isclose(
        SLOSpec("s", 1000.0, latency_target=0.99).budget_fraction, 0.01)


_self_test()
