"""Common NIC device machinery.

Every NIC flavour in the reproduction (DMA/interrupt, kernel-bypass,
Lauberhorn) attaches to a switch :class:`~repro.net.link.Port` for the
wire side, and exposes:

* ``transmit(frame, core)`` — the CPU-side submit path (what the
  kernel/driver or user-space PMD pays to hand a frame to the device);
* an internal RX loop simulation process that models the device
  pipeline — a shared front end (receive, fault hook, parse + demux)
  then the flavour's ``_rx_frame`` — and delivers frames host-side by
  whatever mechanism the flavour uses (IRQ+ring, user-polled ring, or
  coherent cache lines).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.machine import Machine
from ..net.link import Port
from ..net.packet import Frame
from ..sim.resources import Store

__all__ = ["NicStats", "BaseNic"]


@dataclass
class NicStats:
    rx_frames: int = 0
    rx_dropped: int = 0
    tx_frames: int = 0


class BaseNic:
    """Shared plumbing: the port, the TX engine queue, stats."""

    def __init__(self, machine: Machine, port: Port, name: str = "nic"):
        self.machine = machine
        self.sim = machine.sim
        self.params = machine.params.nic
        self.link = machine.link
        self.port = port
        self.name = name
        self.stats = NicStats()
        #: optional fault hook (a zero-arg generator factory) run by the
        #: RX loop per received frame; installed by repro.faults
        self.rx_fault = None
        #: optional span recorder (repro.obs.spans.SpanRecorder); None
        #: means every hook is a single attribute test
        self.obs = None
        #: host label stamped onto root spans when the recorder's
        #: ``tag_origin`` is on; the fleet builder sets it per host
        #: index (host-side bookkeeping only)
        self.obs_host = "host0"
        #: optional flight recorder (repro.obs.flight.FlightRecorder),
        #: same None-guarded contract as ``obs``
        self.flight = None
        self._tx_engine: Store = Store(self.sim, name=f"{name}.txq")
        self._started = False

    def start(self) -> None:
        """Spawn the device's RX and TX engine loops (idempotent)."""
        if self._started:
            return
        self._started = True
        self.sim.process(self._rx_loop(), name=f"{self.name}-rx")
        self.sim.process(self._tx_loop(), name=f"{self.name}-tx")

    # -- wire-side TX engine ----------------------------------------------------

    def _tx_loop(self):
        while True:
            frame = yield self._tx_engine.get()
            yield from self._tx_frame(frame)
            self.stats.tx_frames += 1
            yield self.port.send(frame)
            obs = self.obs
            if obs is not None:
                ctx = frame.peek_meta("obs")
                queued_ns = frame.pop_meta("_obs_txq_ns")
                if ctx is not None and queued_ns is not None:
                    obs.record("nic.tx", "nic", ctx, queued_ns, self.sim.now)
                if ctx is not None:
                    # Wire entry time for the receiver's "wire.*" span
                    # (born_ns marks frame *construction*, which for
                    # user-space stacks predates the device by the whole
                    # host TX path).
                    frame.meta["_obs_wire_ns"] = self.sim.now

    def _tx_frame(self, frame: Frame):
        """Device-side work before a frame hits the wire; overridable."""
        return
        yield  # pragma: no cover - makes this a generator

    def queue_tx(self, frame: Frame) -> None:
        """Hand a frame to the device TX engine (device-side call)."""
        if self.obs is not None and frame.peek_meta("obs") is not None:
            frame.meta["_obs_txq_ns"] = self.sim.now
        self._tx_engine.try_put(frame)

    # -- observability ----------------------------------------------------------

    def bind_metrics(self, registry, prefix: str = "nic") -> None:
        """Register this device's stats with a metrics registry."""
        registry.bind(prefix, self.stats)
        # TX-engine occupancy: every flavour shares this ring, so the
        # time-series layer gets a NIC occupancy window probe for free.
        registry.probe(prefix, lambda: {
            "txq_depth": len(self._tx_engine),
        })

    # -- wire-side RX front end -------------------------------------------------

    def _rx_loop(self):
        """Receive, count, fault-check and span each frame, wait out
        header parse + demux, then hand it to :meth:`_rx_frame`."""
        while True:
            frame = yield from self.port.receive()
            self.stats.rx_frames += 1
            if self.rx_fault is not None:
                yield from self.rx_fault()
            obs = self.obs
            ctx = frame.peek_meta("obs") if obs is not None else None
            if ctx is not None:
                obs.record("wire.req", "net", ctx, frame.born_ns, self.sim.now)
            rx_start_ns = self.sim.now
            yield self.sim.timeout(self.params.parse_ns + self.params.demux_ns)
            yield from self._rx_frame(frame, ctx, rx_start_ns)

    # -- subclass responsibilities ------------------------------------------------

    def _rx_frame(self, frame: Frame, ctx, rx_start_ns: float):  # pragma: no cover - abstract
        """The flavour's receive pipeline for one demuxed frame (a
        generator); ``ctx`` is its span context, None when unarmed."""
        raise NotImplementedError

    def transmit(self, frame: Frame, core):  # pragma: no cover - abstract
        """CPU-side submit path; generator run on ``core``."""
        raise NotImplementedError
