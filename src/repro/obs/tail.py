"""Tail forensics: join slow requests with concurrent system state.

A p99.9 span tree says *where* a slow request spent its time; it does
not say *why* — was the run queue deep, was the NIC ring full, was a
fault storm in progress?  This module answers that by joining the
three observability layers this package records:

* the **span trees** of the slowest requests
  (:class:`~repro.obs.spans.SpanRecorder`);
* the **time-series windows** each slow request overlaps
  (:class:`~repro.obs.timeseries.TimeSeriesSampler`) — run-queue
  depth, ring/backlog occupancy, utilisation, fault counters *while
  the request was in flight*;
* the **flight-recorder events** inside the request's lifetime
  (:class:`~repro.obs.flight.FlightRecorder`) — scheduler decisions,
  Tryagain bounces, injected faults.

:func:`tail_report` produces one JSON-able record per slow request;
:func:`render_tail_report` prints the human version.  Everything here
is pure post-processing over already-recorded data — nothing touches
the simulator.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Optional

from ..metrics.histogram import nearest_rank

__all__ = ["STATE_PATTERNS", "slow_roots", "slow_roots_by_group",
           "tail_report", "render_tail_report"]

#: snapshot-key substrings that count as "concurrent system state" in
#: the per-request join: run-queue depth, ring/backlog occupancy,
#: socket queues, idle-core count, Tryagain/fault activity, and — when
#: a tenant table is attached — the tenancy ledger (policing drops,
#: admissions, DWRR backlog and held CONTROL lines).
STATE_PATTERNS = (
    "runnable", "runq", ".depth", "backlog", "queue", "idle_cores",
    "tryagain", "fault", "drop", "stall",
    "rate_dropped", "admitted", "queued_now", "held_now",
)

#: fleet metric namespaces are ``host<i>.component.metric``; requests
#: annotated with a serving host join only their own host's state
_HOST_PREFIX = re.compile(r"^(host\d+)\.")


def metric_host(name: str) -> Optional[str]:
    """The ``host<i>`` namespace owning a metric, or None if unscoped."""
    match = _HOST_PREFIX.match(name)
    return match.group(1) if match else None


def slow_roots(recorder, quantile: float = 0.999) -> list:
    """Finished root spans at or above the ``quantile`` duration.

    Always non-empty when any root finished: the slowest request is its
    own p-anything, so every report has at least one subject.
    """
    roots = [span for span in recorder.roots() if span.finished]
    if not roots:
        return []
    threshold = nearest_rank([span.duration_ns for span in roots], quantile)
    slow = [span for span in roots if span.duration_ns >= threshold]
    slow.sort(key=lambda span: (-span.duration_ns, span.trace_id))
    return slow


def slow_roots_by_group(recorder, quantile: float = 0.999,
                        ) -> dict[tuple[str, str], list]:
    """:func:`slow_roots` bucketed by the ``(host, tenant)`` labels.

    Roots without origin annotation (single-host, untenanted runs)
    land under ``("-", "-")`` — the report shape is uniform whether or
    not demux tagging was on.
    """
    grouped: dict[tuple[str, str], list] = {}
    for root in slow_roots(recorder, quantile):
        key = (root.fields.get("host", "-"), root.fields.get("tenant", "-"))
        grouped.setdefault(key, []).append(root)
    return grouped


def _state_keys(windows, patterns: Iterable[str],
                ) -> dict[str, Optional[str]]:
    """Each state metric named in ``windows`` -> its ``host<i>`` or None.

    A report resolves every name's pattern and host match here, once,
    rather than once per window the name appears in.  Slow requests
    share windows, so each distinct window is read once.
    """
    patterns = tuple(patterns)  # scanned once per name: no one-shot iterators
    names: set[str] = set()
    for window in dict.fromkeys(windows):
        names.update(window.values)
    return {name: metric_host(name) for name in names
            if any(pattern in name for pattern in patterns)}


def _state_over(windows, state_keys: dict[str, Optional[str]],
                host: Optional[str] = None) -> dict[str, dict[str, float]]:
    """``{metric: {min,mean,max}}`` for state keys across windows.

    With ``host`` given, metrics living in *another* host's fleet
    namespace are excluded from the join — a slow request on host2
    should not be explained by host5's run queue.  Unscoped metrics
    (shared switches, clients, single-host runs) always join.
    """
    state: dict[str, dict[str, float]] = {}
    for name, owner in sorted(state_keys.items()):
        if host is not None and owner is not None and owner != host:
            continue
        values = [w.values[name] for w in windows if name in w.values]
        if values:
            state[name] = {
                "min": min(values),
                "mean": sum(values) / len(values),
                "max": max(values),
            }
    return state


def tail_report(
    recorder,
    sampler,
    flight=None,
    quantile: float = 0.999,
    patterns: Iterable[str] = STATE_PATTERNS,
    max_requests: int = 16,
) -> dict[str, Any]:
    """Per-slow-request forensics joining spans, windows, and flight.

    Every request at or above the ``quantile`` RTT (capped at
    ``max_requests``, slowest first) gets one record carrying its span
    breakdown, the time-series windows it overlapped, the state
    summary over those windows, and the flight events inside its
    lifetime.  ``windows_missing`` flags requests whose windows were
    already evicted from the sampler's ring.
    """
    roots = [span for span in recorder.roots() if span.finished]
    durations = [span.duration_ns for span in roots]
    slow = slow_roots(recorder, quantile)
    truncated = max(0, len(slow) - max_requests)
    by_trace = recorder.traces()
    shown = slow[:max_requests]
    overlaps = [sampler.overlapping(root.start_ns, root.end_ns)
                for root in shown]
    state_keys = _state_keys(
        (window for windows in overlaps for window in windows), patterns)

    requests = []
    tagged = False
    for root, windows in zip(shown, overlaps):
        stages: dict[str, float] = {}
        for span in by_trace.get(root.trace_id, ()):
            if span is not root and span.finished:
                stages[span.name] = (
                    stages.get(span.name, 0.0) + span.duration_ns)
        host = root.fields.get("host")
        tenant = root.fields.get("tenant")
        record: dict[str, Any] = {
            "trace_id": root.trace_id,
            "start_ns": root.start_ns,
            "end_ns": root.end_ns,
            "duration_ns": root.duration_ns,
            "stages": stages,
            "window_indices": [w.index for w in windows],
            "windows_missing": not windows,
            "state": _state_over(windows, state_keys, host),
        }
        # origin keys appear only when the demux annotated the root
        # (tag_origin), so historical payloads are byte-identical
        if host is not None:
            record["host"] = host
            tagged = True
        if tenant is not None:
            record["tenant"] = tenant
            tagged = True
        if flight is not None:
            record["flight"] = flight.events_between(
                root.start_ns, root.end_ns)
        requests.append(record)

    report: dict[str, Any] = {
        "quantile": quantile,
        "n_requests": len(roots),
        "threshold_ns": nearest_rank(durations, quantile),
        "n_slow": len(slow),
        "truncated": truncated,
        "requests": requests,
    }
    if tagged:
        # (host, tenant) attribution over *all* slow roots, not just
        # the truncated top-N records
        groups: dict[str, dict[str, float]] = {}
        for root in slow:
            key = (f"{root.fields.get('host', '-')}/"
                   f"{root.fields.get('tenant', '-')}")
            bucket = groups.setdefault(
                key, {"n_slow": 0, "worst_ns": 0.0, "total_ns": 0.0})
            bucket["n_slow"] += 1
            bucket["worst_ns"] = max(bucket["worst_ns"], root.duration_ns)
            bucket["total_ns"] += root.duration_ns
        report["groups"] = dict(sorted(groups.items()))
    return report


def render_tail_report(report: dict, title: str = "tail") -> str:
    """The human-readable version of a :func:`tail_report` payload."""
    lines = [
        f"{title} — p{report['quantile'] * 100:g} forensics "
        f"({report['n_slow']}/{report['n_requests']} requests at or above "
        f"{report['threshold_ns']:.0f} ns)"
    ]
    groups = report.get("groups")
    if groups:
        for key, bucket in groups.items():
            lines.append(
                f"  [{key}] {bucket['n_slow']} slow, "
                f"worst {bucket['worst_ns']:.0f} ns")
    for record in report["requests"]:
        origin = ""
        if "host" in record or "tenant" in record:
            origin = (f" ({record.get('host', '-')}/"
                      f"{record.get('tenant', '-')})")
        lines.append(
            f"  trace {record['trace_id']}: {record['duration_ns']:.0f} ns "
            f"[{record['start_ns']:.0f} .. {record['end_ns']:.0f}]"
            f"{origin}")
        stages = sorted(record["stages"].items(),
                        key=lambda item: -item[1])
        for name, duration in stages[:6]:
            lines.append(f"    {name:<14} {duration:>12.1f} ns")
        if record["windows_missing"]:
            lines.append("    (windows evicted from the sampler ring)")
        busiest = sorted(record["state"].items(),
                         key=lambda item: -item[1]["max"])
        for name, stat in busiest[:6]:
            lines.append(
                f"    {name:<38} max {stat['max']:>8.1f} "
                f"mean {stat['mean']:>8.1f}")
        flight_events: Optional[list] = record.get("flight")
        if flight_events is not None:
            lines.append(f"    {len(flight_events)} flight event(s) "
                         "during this request")
    return "\n".join(lines)
