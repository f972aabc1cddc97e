"""Rack-scale switch topology: N ToR fabrics under an optional spine.

The single-machine testbeds wire everything into one
:class:`~repro.net.link.SwitchFabric`.  A :class:`Topology` scales that
to a rack: each host and client attaches to a top-of-rack switch, and
when there is more than one ToR a spine switch stitches them together
over trunk links.  Every hop keeps the existing link model — egress
serialisation + propagation per direction — so cross-rack RPCs pay
ToR switching, trunk wire time, spine switching, and the far ToR
again, with queueing emerging from the same FIFO links the
single-switch beds use.  A trunk direction is a FIFO
:class:`~repro.net.link.Stage` run by link callbacks, as a switch
port is, so a topology of any size adds **zero simulator processes**.

Degenerate case: ``n_tors == 1`` builds exactly one fabric, no spine
and no trunks, which is what lets a 1-host fleet replay byte-identical
to the legacy testbeds.

Routing is static and explicit: attaching an endpoint registers its
MAC on the spine (pointing at the owning ToR's downlinks) and each ToR
default-routes unknown destinations up its trunks.  Multiple trunks
per ToR form an ECMP group resolved by the fabric's seed-salted flow
hash (:meth:`SwitchFabric._flow_index`), so paths are deterministic
and flow-affine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..sim.engine import Simulator
from ..sim.rng import derive_seed
from .link import Port, Stage, SwitchFabric
from .headers import MacAddress

__all__ = ["TopologySpec", "Topology"]

#: synthetic locally-administered MAC prefixes for trunk attachment
#: points (never a frame's destination, only a port identity)
_TOR_UPLINK_BASE = 0x02FE_0000_0000
_SPINE_DOWNLINK_BASE = 0x02FD_0000_0000


@dataclass(frozen=True)
class TopologySpec:
    """Shape and timing of the rack fabric.

    ``bandwidth_bps`` of ``None`` defers to the builder (which uses the
    host machine's ``link_bps``), keeping a 1-ToR topology identical to
    the legacy single switch.
    """

    n_tors: int = 1
    bandwidth_bps: Optional[float] = None
    port_latency_ns: float = 250.0
    switching_ns: float = 300.0
    #: spine forwarding latency (it is a bigger, slower switch)
    spine_switching_ns: float = 350.0
    #: one-way propagation of a ToR<->spine trunk run
    trunk_latency_ns: float = 500.0
    #: parallel trunks per ToR (>1 forms an ECMP group)
    n_trunks: int = 1

    def __post_init__(self):
        if self.n_tors < 1:
            raise ValueError("a topology needs at least one ToR")
        if self.n_trunks < 1:
            raise ValueError("each ToR needs at least one trunk")


class Topology:
    """N ToR switches, optionally meshed through one spine."""

    def __init__(
        self,
        sim: Simulator,
        spec: TopologySpec = TopologySpec(),
        *,
        bandwidth_bps: Optional[float] = None,
        seed: int = 0,
    ):
        self.sim = sim
        self.spec = spec
        self.seed = seed
        bandwidth = spec.bandwidth_bps
        if bandwidth is None:
            bandwidth = bandwidth_bps if bandwidth_bps is not None else 100e9 / 8
        self.bandwidth_bps = bandwidth
        #: MAC value -> owning ToR index, for route bookkeeping
        self.endpoint_tor: dict[int, int] = {}

        self.tors = [
            SwitchFabric(
                sim,
                bandwidth_bps=bandwidth,
                port_latency_ns=spec.port_latency_ns,
                switching_ns=spec.switching_ns,
                name=f"tor{i}" if spec.n_tors > 1 else "switch",
            )
            for i in range(spec.n_tors)
        ]
        self.spine: Optional[SwitchFabric] = None
        #: per-ToR tuple of uplink ports (on the ToR, towards the spine)
        self.uplinks: list[tuple[Port, ...]] = [() for _ in self.tors]
        #: per-ToR tuple of downlink ports (on the spine, towards it)
        self.downlinks: list[tuple[Port, ...]] = [() for _ in self.tors]

        if spec.n_tors > 1:
            self.spine = SwitchFabric(
                sim,
                bandwidth_bps=bandwidth,
                port_latency_ns=spec.port_latency_ns,
                switching_ns=spec.spine_switching_ns,
                name="spine",
            )
            for index, tor in enumerate(self.tors):
                ups, downs = [], []
                for trunk in range(spec.n_trunks):
                    up = tor.attach(
                        MacAddress(_TOR_UPLINK_BASE + (index << 8) + trunk),
                        name=f"{tor.name}.up{trunk}",
                        latency_ns=spec.trunk_latency_ns,
                    )
                    down = self.spine.attach(
                        MacAddress(_SPINE_DOWNLINK_BASE + (index << 8) + trunk),
                        name=f"spine.d{index}t{trunk}",
                        latency_ns=spec.trunk_latency_ns,
                    )
                    self._shuttle(up, down)
                    ups.append(up)
                    downs.append(down)
                self.uplinks[index] = tuple(ups)
                self.downlinks[index] = tuple(downs)
                tor.set_default_routes(*ups)
            # Distinct salts so the spine does not mirror a ToR's ECMP
            # decisions (which would polarise traffic onto one trunk).
            for fabric in self.switches():
                fabric.ecmp_salt = derive_seed(seed, "ecmp", fabric.name)

    # -- wiring ----------------------------------------------------------

    @staticmethod
    def _shuttle(a: Port, b: Port) -> None:
        """Bridge two ports with one FIFO stage per way: a frame landing
        on one port's egress enters the other port once the frame ahead
        of it is on that wire."""
        a.egress.deliver_to(Stage(b.send).put)
        b.egress.deliver_to(Stage(a.send).put)

    def attach(
        self,
        mac: MacAddress,
        name: str = "",
        *,
        tor: int = 0,
        latency_ns: Optional[float] = None,
    ) -> Port:
        """Attach an endpoint to ToR ``tor`` and register its routes."""
        port = self.tors[tor].attach(mac, name, latency_ns=latency_ns)
        self.register_endpoint(mac, tor)
        return port

    def register_endpoint(self, mac: MacAddress, tor: int) -> None:
        """Record that ``mac`` lives under ToR ``tor``; route the spine."""
        if not 0 <= tor < len(self.tors):
            raise ValueError(f"no such ToR: {tor}")
        self.endpoint_tor[mac.value] = tor
        if self.spine is not None:
            self.spine.add_route(mac, *self.downlinks[tor])

    # -- introspection ---------------------------------------------------

    def switches(self) -> Iterator[SwitchFabric]:
        """All fabrics, ToRs first, spine (if any) last."""
        yield from self.tors
        if self.spine is not None:
            yield self.spine

    def hops(self, src_mac: MacAddress, dst_mac: MacAddress) -> int:
        """Switch count on the src->dst path (1 same-rack, 3 cross)."""
        src = self.endpoint_tor.get(src_mac.value)
        dst = self.endpoint_tor.get(dst_mac.value)
        if src is None or dst is None:
            raise KeyError("both endpoints must be attached")
        return 1 if src == dst else 3
