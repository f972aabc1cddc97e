"""Lauberhorn communication end-points.

Each end-point is a set of NIC-homed cache lines (Section 5.1): two
CONTROL lines — loads alternate between them, giving the NIC an
implicit completion signal — plus AUX lines for payloads larger than
the inline CONTROL capacity.

The end-point FSM, driven by the NIC core:

* ``IDLE`` — no load outstanding; arriving requests queue in the
  backlog.
* ``ARMED(parity)`` — a core's load on CONTROL[parity] is parked at the
  NIC; the next request is delivered by answering that fill.
* After delivery the end-point returns to IDLE *with* an in-flight
  request recorded; the load on CONTROL[1-parity] both signals
  completion (triggering response extraction) and re-arms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from ...hw.address import Region
from ...rpc.service import ServiceDef
from ...sim.engine import Event
from ...tenancy import TenantSpec
from .wire import max_inline_payload

__all__ = ["EndpointKind", "InflightRequest", "PendingRequest", "Endpoint"]


class EndpointKind(enum.Enum):
    #: bound to one service's process; runs the user-mode fast path
    USER = "user"
    #: owned by a parked kernel thread; receives any service's requests
    KERNEL = "kernel"


@dataclass(slots=True)
class PendingRequest:
    """A decoded request waiting to be delivered to a CPU."""

    service: ServiceDef
    method_id: int
    tag: int
    payload: bytes
    reply_ip: int
    reply_port: int
    reply_mac: Any
    born_ns: float
    arrived_ns: float
    meta: dict = field(default_factory=dict)
    #: owning tenant's TenantSpec, resolved at demux; None for
    #: continuation replies, which no tenant is charged for
    tenant: Optional[TenantSpec] = None


@dataclass(slots=True)
class InflightRequest:
    """A request delivered to a CPU whose response is still owed."""

    request: PendingRequest
    parity: int
    delivered_ns: float
    via_kernel: bool = False
    dma: bool = False


@dataclass
class EndpointStats:
    #: CPU loads observed on this end-point's CONTROL lines; each must
    #: be answered exactly once (deliver/Tryagain/Retire) or be parked
    ctrl_loads: int = 0
    delivered: int = 0
    completed: int = 0
    tryagains: int = 0
    retires: int = 0
    backlog_peak: int = 0
    kernel_dispatches: int = 0


class Endpoint:
    """One end-point's lines, FSM state, and queues."""

    def __init__(
        self,
        endpoint_id: int,
        kind: EndpointKind,
        region: Region,
        line_bytes: int,
        n_aux: int,
        service: Optional[ServiceDef] = None,
        backlog_capacity: int = 64,
    ):
        self.id = endpoint_id
        self.kind = kind
        self.region = region
        self.line_bytes = line_bytes
        self.service = service
        self.backlog_capacity = backlog_capacity
        # Line addresses: [ctrl0, ctrl1, aux0..auxN-1, resp_aux0..]
        self.ctrl_addrs = (region.base, region.base + line_bytes)
        self.aux_addrs = tuple(
            region.base + (2 + i) * line_bytes for i in range(n_aux)
        )
        # Response AUX lines are a disjoint set (the "transmit path uses
        # a similar, disjoint set of cache lines").
        self.resp_aux_addrs = tuple(
            region.base + (2 + n_aux + i) * line_bytes for i in range(n_aux)
        )
        #: parked fill: (core_id, parity, event) or None
        self.parked: Optional[tuple[int, int, Event]] = None
        #: request delivered, response not yet extracted
        self.inflight: Optional[InflightRequest] = None
        self.backlog: list[PendingRequest] = []
        #: bumps on every state change; invalidates stale Tryagain timers
        self.generation = 0
        #: thread/core bookkeeping for the OS layer
        self.owner_label: str = ""
        #: when the NIC last delivered a request here (victim selection)
        self.last_delivery_ns: float = -1.0
        self.stats = EndpointStats()

    @classmethod
    def region_size(cls, line_bytes: int, n_aux: int) -> int:
        """Bytes of NIC-homed address space an end-point occupies."""
        return (2 + 2 * n_aux) * line_bytes

    @property
    def armed(self) -> bool:
        return self.parked is not None

    def unpark(self) -> tuple[int, int, Event]:
        """Take the parked fill, bumping the generation so its Tryagain
        timer goes stale."""
        parked = self.parked
        self.parked = None
        self.generation += 1
        return parked

    def parity_of(self, addr: int) -> int:
        """Which CONTROL line an address belongs to (0 or 1)."""
        line_addr = addr - (addr % self.line_bytes)
        if line_addr == self.ctrl_addrs[0]:
            return 0
        if line_addr == self.ctrl_addrs[1]:
            return 1
        raise ValueError(f"{addr:#x} is not a CONTROL line of endpoint {self.id}")

    def is_ctrl(self, addr: int) -> bool:
        line_addr = addr - (addr % self.line_bytes)
        return line_addr in self.ctrl_addrs

    def max_line_payload(self) -> int:
        """Largest payload deliverable via lines (beyond: DMA fallback)."""
        return max_inline_payload(self.line_bytes) + len(self.aux_addrs) * self.line_bytes

    def push_backlog(self, request: PendingRequest) -> bool:
        """Queue a request; False if the backlog is full (drop)."""
        if len(self.backlog) >= self.backlog_capacity:
            return False
        self.backlog.append(request)
        self.stats.backlog_peak = max(self.stats.backlog_peak, len(self.backlog))
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        svc = self.service.name if self.service else "*"
        return (
            f"<Endpoint {self.id} {self.kind.value} svc={svc} "
            f"armed={self.armed} backlog={len(self.backlog)}>"
        )
