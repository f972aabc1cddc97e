"""Per-RPC telemetry gathered by the NIC (Section 6).

"support for tracing, debugging, and statistics presents interesting
properties for further close integration with the OS" — because the
NIC sees every stage of an RPC's life, it can produce a complete
timeline with zero software on the data path:

* ``arrived``   — last byte decoded off the wire;
* ``delivered`` — the CONTROL-line fill answered (handler starts);
* ``completed`` — the completion signal observed (handler done);
* ``sent``      — the response frame queued to the wire.

The OS reads the ring over the kernel control channel (modelled as a
direct view; E8 prices the channel).  The breakdown distinguishes
*queueing* (arrived->delivered: nobody was armed) from *service*
(delivered->completed) from *egress* (completed->sent), which is
exactly what a fleet operator needs to tell overload from slow code.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from ...metrics.histogram import LatencyRecorder, LatencySummary

__all__ = ["RpcTimeline", "TelemetryRing"]


@dataclass(slots=True)
class RpcTimeline:
    """One RPC's NIC-observed timeline (all times in ns)."""

    tag: int
    service_id: int
    arrived_ns: float
    delivered_ns: Optional[float] = None
    completed_ns: Optional[float] = None
    sent_ns: Optional[float] = None
    via_kernel: bool = False

    @property
    def queueing_ns(self) -> Optional[float]:
        if self.delivered_ns is None:
            return None
        return self.delivered_ns - self.arrived_ns

    @property
    def service_ns(self) -> Optional[float]:
        if self.completed_ns is None or self.delivered_ns is None:
            return None
        return self.completed_ns - self.delivered_ns

    @property
    def egress_ns(self) -> Optional[float]:
        if self.sent_ns is None or self.completed_ns is None:
            return None
        return self.sent_ns - self.completed_ns

    @property
    def total_ns(self) -> Optional[float]:
        if self.sent_ns is None:
            return None
        return self.sent_ns - self.arrived_ns


class TelemetryRing:
    """A bounded ring of completed timelines plus in-flight tracking."""

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: bounded FIFO of finished timelines; eviction is O(1)
        self.completed: deque[RpcTimeline] = deque(maxlen=capacity)
        self.dropped = 0
        #: arrivals whose tag was already in flight (client retransmits
        #: under a lossy wire); the stale timeline is retired, not lost
        #: silently
        self.reused = 0
        self._inflight: dict[int, RpcTimeline] = {}

    # -- NIC-side hooks --------------------------------------------------------

    def on_arrival(self, tag: int, service_id: int, now_ns: float) -> None:
        stale = self._inflight.get(tag)
        if stale is not None:
            # A retransmission reused the tag while the original is
            # still in flight.  Overwriting would silently corrupt the
            # original's timeline; retire it instead and count the
            # collision so operators can see retransmission pressure.
            self.reused += 1
            self._retire(stale)
        self._inflight[tag] = RpcTimeline(
            tag=tag, service_id=service_id, arrived_ns=now_ns
        )

    def on_delivery(self, tag: int, now_ns: float, via_kernel: bool) -> None:
        timeline = self._inflight.get(tag)
        if timeline is not None:
            timeline.delivered_ns = now_ns
            timeline.via_kernel = via_kernel

    def on_completion(self, tag: int, now_ns: float) -> None:
        timeline = self._inflight.get(tag)
        if timeline is not None:
            timeline.completed_ns = now_ns

    def on_sent(self, tag: int, now_ns: float) -> None:
        timeline = self._inflight.pop(tag, None)
        if timeline is None:
            return
        timeline.sent_ns = now_ns
        self._retire(timeline)

    def _retire(self, timeline: RpcTimeline) -> None:
        # deque(maxlen=...) evicts the oldest entry on append; count it
        # first so `dropped` stays exact.
        if len(self.completed) == self.capacity:
            self.dropped += 1
        self.completed.append(timeline)

    # -- OS-side queries ---------------------------------------------------------

    def for_service(self, service_id: int) -> list[RpcTimeline]:
        return [t for t in self.completed if t.service_id == service_id]

    def breakdown(self, service_id: Optional[int] = None) -> dict[str, LatencySummary]:
        """Percentile summaries of each pipeline stage."""
        timelines = (
            self.completed if service_id is None else self.for_service(service_id)
        )
        stages = {
            "queueing": [t.queueing_ns for t in timelines],
            "service": [t.service_ns for t in timelines],
            "egress": [t.egress_ns for t in timelines],
            "total": [t.total_ns for t in timelines],
        }
        summaries: dict[str, LatencySummary] = {}
        for name, samples in stages.items():
            recorder = LatencyRecorder(name)
            recorder.extend(s for s in samples if s is not None)
            summary = recorder.summary_or_none()
            if summary is not None:
                summaries[name] = summary
        return summaries

    def kernel_dispatch_fraction(self) -> float:
        if not self.completed:
            return 0.0
        via_kernel = sum(1 for t in self.completed if t.via_kernel)
        return via_kernel / len(self.completed)
