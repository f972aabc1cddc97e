"""Point-to-point link and switch fabric models.

A :class:`Link` serialises frames at line rate and delays them by the
propagation time; a :class:`SwitchFabric` connects many ports and
forwards by destination MAC with a fixed switching latency.  This is
all the "network" the paper's single-machine experiments need: the
argument is about *end-system* latency, so the wire exists mainly to
carry byte-exact frames between a load generator and the server under
test.

For rack-scale topologies (:mod:`repro.net.topology`) a fabric also
carries *routes*: destination MACs reachable through another port
(a trunk towards a spine or ToR switch) rather than locally attached.
A route may name several parallel ports, in which case the fabric
picks one by hashing the flow 4-tuple (ECMP) — deterministic,
seed-salted, and flow-affine, so one flow never spans two paths and
intra-flow FIFO order is preserved end to end.

Frames cross the fabric on timer callbacks alone, so nothing here is a
simulator process.  A link's on-wire timer counts the frame and arms
one landing timer per copy; a landing hands the frame to the link's
one receiver, either the ``rx_queue`` a NIC's receive loop reads or a
callback.  A switch port's ingress feeds a FIFO :class:`Stage` that
holds each frame for the switching time, one frame at a time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from ..sim.clock import SEC, bytes_time_ns
from ..sim.engine import Event, Simulator, Timeout
from ..sim.resources import Store
from .headers import MacAddress, frame_dst_mac, frame_flow, rss_hash
from .packet import Frame

__all__ = ["LinkStats", "Link", "SwitchFabric", "Port", "Stage"]


@dataclass
class LinkStats:
    frames: int = 0
    bytes: int = 0
    delivered: int = 0
    dropped: int = 0
    dropped_bytes: int = 0
    #: frames destroyed/mutated by an installed fault injector
    fault_lost: int = 0
    fault_corrupted: int = 0
    fault_reordered: int = 0
    fault_duplicated: int = 0

    def in_flight(self) -> int:
        """Frames transmitted but not yet delivered, dropped, or lost."""
        return (self.frames + self.fault_duplicated
                - self.delivered - self.dropped - self.fault_lost)


class Link:
    """Unidirectional link: serialisation + propagation, FIFO order.

    Every landed frame goes to one receiver: ``rx_queue``, a
    :class:`Store` a reader process waits on, or the callback that
    :meth:`deliver_to` installs in its place.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float = 100e9 / 8,
        propagation_ns: float = 500.0,
        queue_frames: Optional[int] = None,
        name: str = "",
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.propagation_ns = propagation_ns
        self.name = name
        self.stats = LinkStats()
        self.rx_queue: Optional[Store] = Store(
            sim, capacity=queue_frames, name=f"{name}.rx")
        #: the callback landed frames go to instead (see deliver_to)
        self.receiver: Optional[Callable[[Frame], None]] = None
        #: optional fault injector (repro.faults.LinkFaultInjector)
        self.fault = None
        #: optional drop observer: ``on_drop(link, frame, reason)``
        self.on_drop: Optional[Callable[["Link", Frame, str], None]] = None
        #: optional delivery observer: ``on_deliver(link, frame)`` —
        #: used by the fleet flow-order invariant; None keeps delivery
        #: at a single attribute test
        self.on_deliver: Optional[Callable[["Link", Frame], None]] = None
        #: next time the transmitter is free (models serialisation).
        self._tx_free_at = 0.0
        # Bound once: every frame's timers carry these two.
        self._on_wire_cb = self._on_wire
        self._land_cb = self._land

    def serialization_ns(self, frame: Frame) -> float:
        return bytes_time_ns(frame.wire_bytes, self.bandwidth_bps)

    def deliver_to(self, receiver: Callable[[Frame], None]) -> None:
        """Hand each landed frame to ``receiver(frame)`` at its landing
        instant.  A link has one receiver, so ``rx_queue`` goes."""
        self.receiver = receiver
        self.rx_queue = None

    def send(self, frame: Frame) -> Timeout:
        """Transmit ``frame``; returns the timer that fires once it is on
        the wire (yield it to wait for that, or ignore it).

        The transmitter is reserved now, so frames leave in call order.
        Delivery to the receiver happens ``propagation_ns`` after the
        last bit leaves.  Frames that arrive to a full ``rx_queue`` are
        dropped (tail drop), which the stats record.
        """
        sim = self.sim
        now = sim.now
        # bytes_time_ns, inlined: the same float expression.
        done = (max(now, self._tx_free_at)
                + frame.wire_bytes / self.bandwidth_bps * SEC)
        self._tx_free_at = done
        on_wire = sim.timeout(done - now, frame)
        on_wire.callbacks.append(self._on_wire_cb)
        return on_wire

    def _on_wire(self, event: Event) -> None:
        frame = event._value
        stats = self.stats
        stats.frames += 1
        stats.bytes += frame.wire_bytes
        if self.fault is None:
            self.sim.timeout(self.propagation_ns, frame).callbacks.append(
                self._land_cb)
        else:
            for fated, extra_ns in self.fault.fate(self, frame):
                self.sim.timeout(self.propagation_ns + extra_ns,
                                 fated).callbacks.append(self._land_cb)

    def _land(self, event: Event) -> None:
        frame = event._value
        receiver = self.receiver
        if receiver is None and not self.rx_queue.try_put(frame):
            self.count_drop(frame, "queue-full")
            return
        self.stats.delivered += 1
        if self.on_deliver is not None:
            self.on_deliver(self, frame)
        if receiver is not None:
            receiver(frame)

    def count_drop(self, frame: Frame, reason: str) -> None:
        """Account one dropped frame and surface it to any observer."""
        self.stats.dropped += 1
        self.stats.dropped_bytes += frame.wire_bytes
        if self.on_drop is not None:
            self.on_drop(self, frame, reason)

    def receive(self):
        """Generator yielding until a frame is available; returns it."""
        frame = yield self.rx_queue.get()
        return frame


class Stage:
    """A FIFO server for frames: one at a time, in arrival order.

    ``hold(frame)`` starts serving a frame and returns the timer that
    ends the service, with the frame as its value.  When it fires,
    ``done(frame)`` runs (if given) and the next waiting frame starts at
    that instant.  A switch port holds each frame for the switching
    time; a trunk holds it until the far link has it on the wire.
    """

    __slots__ = ("hold", "done", "waiting", "busy", "_finish_cb")

    def __init__(self, hold: Callable[[Frame], Timeout],
                 done: Optional[Callable[[Frame], None]] = None):
        self.hold = hold
        self.done = done
        self.waiting: deque[Frame] = deque()
        self.busy = False
        self._finish_cb = self._finish

    def put(self, frame: Frame) -> None:
        """Serve ``frame`` now if idle, else after the frames before it."""
        if self.busy:
            self.waiting.append(frame)
        else:
            self.busy = True
            self.hold(frame).callbacks.append(self._finish_cb)

    def _finish(self, event: Event) -> None:
        if self.done is not None:
            self.done(event._value)
        if self.waiting:
            self.hold(self.waiting.popleft()).callbacks.append(self._finish_cb)
        else:
            self.busy = False


class Port:
    """A bidirectional attachment point on a :class:`SwitchFabric`."""

    def __init__(self, fabric: "SwitchFabric", mac: MacAddress, name: str = "",
                 latency_ns: Optional[float] = None):
        self.fabric = fabric
        self.mac = mac
        self.name = name or str(mac)
        # Trunk ports override the fabric's port latency to model the
        # longer inter-switch runs of a rack topology.
        propagation = (fabric.port_latency_ns if latency_ns is None
                       else latency_ns)
        self.ingress = Link(
            fabric.sim,
            fabric.bandwidth_bps,
            propagation,
            name=f"{self.name}.in",
        )
        self.egress = Link(
            fabric.sim,
            fabric.bandwidth_bps,
            propagation,
            name=f"{self.name}.out",
        )

    def send(self, frame: Frame) -> Timeout:
        """Send into the fabric; returns the on-wire timer (see
        :meth:`Link.send`)."""
        return self.ingress.send(frame)

    def receive(self):
        """Receive from the fabric; generator returning a Frame."""
        frame = yield from self.egress.receive()
        return frame

    def bind_metrics(self, registry, prefix: str = "port") -> None:
        """Register both directions' :class:`LinkStats` on a registry."""
        registry.bind(f"{prefix}.in", self.ingress.stats)
        registry.bind(f"{prefix}.out", self.egress.stats)


class SwitchFabric:
    """A store-and-forward switch keyed by destination MAC."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float = 100e9 / 8,
        port_latency_ns: float = 250.0,
        switching_ns: float = 300.0,
        name: str = "switch",
    ):
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.port_latency_ns = port_latency_ns
        self.switching_ns = switching_ns
        self.name = name
        self.ports: dict[int, Port] = {}
        self.unknown_dst_drops = 0
        #: destination MACs reachable through other switches: MAC value
        #: -> tuple of candidate ports (several = ECMP group)
        self.routes: dict[int, tuple[Port, ...]] = {}
        #: where unknown destinations go (a ToR's uplinks); empty tuple
        #: preserves the historical drop behaviour
        self.default_routes: tuple[Port, ...] = ()
        #: mixed into the ECMP flow hash so distinct fleets (or
        #: switches) spread the same flows differently
        self.ecmp_salt = 0

    def attach(self, mac: MacAddress, name: str = "",
               latency_ns: Optional[float] = None) -> Port:
        """Create a port for ``mac``; the frames it sends in are switched
        one at a time, ``switching_ns`` each, in arrival order."""
        if mac.value in self.ports:
            raise ValueError(f"MAC {mac} already attached")
        port = Port(self, mac, name, latency_ns=latency_ns)
        self.ports[mac.value] = port
        port.ingress.deliver_to(Stage(self._switching, self._forward).put)
        return port

    def add_route(self, mac: MacAddress | int, *ports: Port) -> None:
        """Route frames for ``mac`` out of ``ports`` (several = ECMP)."""
        if not ports:
            raise ValueError("a route needs at least one port")
        value = mac if isinstance(mac, int) else mac.value
        self.routes[value] = tuple(ports)

    def set_default_routes(self, *ports: Port) -> None:
        """Send unknown destinations out of ``ports`` (a ToR's uplinks)."""
        self.default_routes = tuple(ports)

    def bind_metrics(self, registry, prefix: str = "switch") -> None:
        """Register fabric drops and every port's link counters."""
        registry.probe(prefix, lambda: {
            "unknown_dst_drops": self.unknown_dst_drops,
        })
        for port in self.ports.values():
            port.bind_metrics(registry, f"{prefix}.{port.name}")

    def _route_port(self, dst_value: int, frame: Frame) -> Optional[Port]:
        """Resolve a non-local destination through the route table."""
        candidates = self.routes.get(dst_value) or self.default_routes
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        return candidates[self._flow_index(frame, len(candidates))]

    def _flow_index(self, frame: Frame, n: int) -> int:
        """ECMP member choice: RSS-style hash of the flow 4-tuple.

        A pure function of the wire bytes and the fabric's salt, so the
        same flow always takes the same path (flow affinity, hence no
        intra-flow reordering) while distinct flows spread.  Non-UDP/IP
        frames fall back to member 0.
        """
        flow = frame_flow(frame.data)
        if flow is None:
            return 0
        return (rss_hash(*flow) ^ self.ecmp_salt) % n

    def _switching(self, frame: Frame) -> Timeout:
        return self.sim.timeout(self.switching_ns, frame)

    def _forward(self, frame: Frame) -> None:
        """Send a switched frame out towards its destination MAC."""
        dst = frame_dst_mac(frame.data)
        target = self.ports.get(dst)
        if target is None:
            target = self._route_port(dst, frame)
            if target is None:
                self.unknown_dst_drops += 1
                return
        # Fire and forget: egress serialisation is timed by the
        # output link, so one slow output port does not
        # head-of-line block the whole switch.
        target.egress.send(frame)
