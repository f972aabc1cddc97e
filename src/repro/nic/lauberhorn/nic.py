"""The Lauberhorn NIC: an OS-integrated, cache-coherent RPC NIC.

This device implements the paper's receive fast path (Figure 3) and the
NIC<->CPU protocol (Figure 4):

* It **homes** every end-point's CONTROL/AUX cache lines on the
  coherence fabric.  A CPU load of a CONTROL line parks at the NIC
  until a request is available (the stalled load), or until the
  Tryagain timeout (15 ms) fires.
* Incoming frames stream through header decoders and the RPC
  deserialiser; the decoded request is delivered by *answering the
  parked fill* with a composed CONTROL line carrying the handler's code
  pointer, data pointer, and the arguments.
* The load on the *other* CONTROL line signals completion: before
  answering it, the NIC fetch-exclusives the first line (and any
  response AUX lines) out of the CPU's cache and transmits the response.
* Demultiplexing consults live OS scheduling state
  (:class:`~repro.nic.lauberhorn.sched_state.SchedTable`, updated by the
  kernel at every context switch) plus the arming state it observes
  directly from cache traffic.
* Payloads too large for the line protocol fall back to DMA
  (Section 6: "for large messages ... revert back to DMA-based
  transfers"; ~4 KiB on Enzian).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ...hw.coherence import FillResponse, HomeDevice
from ...hw.machine import Machine
from ...net.crypto import nic_crypto_ns
from ...net.headers import HeaderError, MacAddress
from ...net.link import Port
from ...net.packet import build_udp_frame, parse_udp_frame
from ...obs.spans import public_meta
from ...os import ops
from ...rpc.message import RpcError, RpcMessage, RpcType
from ...rpc.service import ServiceDef, ServiceRegistry
from ...sim.clock import bytes_time_ns
from ...sim.engine import AllOf, Event
from ...tenancy import DeficitRoundRobin, TenantSpec, TenantTable
from ..base import BaseNic
from . import wire
from .endpoint import Endpoint, EndpointKind, InflightRequest, PendingRequest
from .loadstats import LoadStats
from .sched_state import SchedTable
from .telemetry import TelemetryRing

__all__ = ["LauberhornNic", "LauberhornStats"]


@dataclass
class LauberhornStats:
    requests_decoded: int = 0
    delivered_fast: int = 0
    delivered_kernel: int = 0
    queued_endpoint: int = 0
    queued_global: int = 0
    dropped_no_service: int = 0
    dropped_backlog_full: int = 0
    responses_sent: int = 0
    tryagains: int = 0
    retires: int = 0
    dma_fallbacks: int = 0
    preempt_requests: int = 0


class LauberhornNic(BaseNic, HomeDevice):
    """The prototype NIC of Section 5, as a simulated device."""

    def __init__(
        self,
        machine: Machine,
        port: Port,
        registry: ServiceRegistry,
        mac: MacAddress,
        ip: int,
        n_aux: int = 31,
        dma_threshold_bytes: int = 4096,
        backlog_capacity: int = 64,
        preempt_on_backlog: bool = False,
        tryagain_timeout_ns: Optional[float] = None,
        name: str = "lauberhorn",
    ):
        if machine.fabric is None:
            raise ValueError(
                "Lauberhorn needs a cache-coherent interconnect "
                f"(machine {machine.params.name!r} has none)"
            )
        super().__init__(machine, port, name)
        self.fabric = machine.fabric
        self.line_bytes = self.fabric.line_bytes
        self.registry = registry
        self.mac = mac
        self.ip = ip
        self.default_n_aux = n_aux
        self.dma_threshold_bytes = dma_threshold_bytes
        #: response-direction threshold, the request one unless set.
        #: (Separable so experiments can force one direction's
        #: mechanism without perturbing the other.)
        self.response_dma_threshold_bytes = dma_threshold_bytes
        self.backlog_capacity = backlog_capacity
        self.preempt_on_backlog = preempt_on_backlog
        self.tryagain_timeout_ns = (
            tryagain_timeout_ns
            if tryagain_timeout_ns is not None
            else machine.params.nic.tryagain_timeout_ns
        )
        #: instructions the kernel pays per context switch to keep the
        #: NIC's scheduling state fresh (one posted line store).
        self.sched_push_instructions = 25

        self.endpoints: list[Endpoint] = []
        self._by_line: dict[int, Endpoint] = {}
        self._service_endpoints: dict[int, list[Endpoint]] = {}
        self._kernel_endpoints: list[Endpoint] = []
        self._service_pid: dict[int, int] = {}
        self.sched = SchedTable()
        self.load = LoadStats()
        self.lstats = LauberhornStats()
        self.telemetry = TelemetryRing()
        self._dma_payloads: dict[int, bytes] = {}
        #: continuation end-points for nested-RPC replies (Section 6)
        self._continuations: dict[int, Endpoint] = {}
        self._continuation_pool: list[Endpoint] = []
        self._next_cont_tag = 1 << 48  # disjoint from client request ids
        #: pseudo-service standing for "reply delivery" on continuations
        self._cont_service = ServiceDef(
            service_id=0, name="<continuation>", udp_port=0
        )
        #: the attached :class:`repro.tenancy.TenantTable`, or None.
        #: Only what exposes tenancy reads it (metric probes, invariant
        #: checks, span tags); the data path charges ``_table``, which
        #: an unattached NIC keeps private, every service falling into
        #: its ``_default`` tenant.
        self.tenants = None
        self._table = TenantTable()
        #: requests no end-point has taken yet: one FIFO per tenant
        #: under deficit-weighted round-robin, so a single tenant's
        #: queue is a plain FIFO
        self.backlog = DeficitRoundRobin()
        #: service id -> TenantSpec, memoised at first use
        self._specs: dict[int, TenantSpec] = {}

    # -- configuration -------------------------------------------------------

    def register_service(self, service: ServiceDef, pid: int,
                         tenant=None) -> None:
        """Install a service's demux entry (OS does this at bind time).

        ``tenant`` (a :class:`repro.tenancy.TenantSpec`, id, or name)
        binds the service to a tenant of the attached table — this is
        where tenant identity enters the NIC, exactly as budgets would
        be programmed into demux hardware at bind time.
        """
        self._service_pid[service.service_id] = pid
        self._service_endpoints.setdefault(service.service_id, [])
        if tenant is not None:
            if self.tenants is None:
                raise RuntimeError(
                    "register_service(tenant=...) requires attach_tenants() "
                    "first")
            self.tenants.assign(service.service_id, tenant)
        self._specs.clear()

    def attach_tenants(self, table) -> None:
        """Install a :class:`repro.tenancy.TenantTable` in place of the
        private one: demux charges its tenants, the global backlog
        arbitrates between their queues by weight, token-bucket rate
        limits police admission, and the table's ledger is exposed to
        metrics, invariant checks and span tags.  Must happen before
        traffic."""
        if self.stats.rx_frames:
            raise RuntimeError("attach_tenants() before traffic starts")
        self.tenants = self._table = table
        self.backlog = DeficitRoundRobin()
        self._specs.clear()
        for spec in table:
            self.backlog.add_tenant(spec.tenant_id, spec.weight)

    # -- tenant accounting ------------------------------------------------------

    def _tenant_of(self, service: ServiceDef) -> TenantSpec:
        """Spec of the tenant owning ``service`` (never the continuation
        pseudo-service).  The first lookup gives the tenant its slot in
        the DWRR ring, so ring order is first-use order."""
        try:
            return self._specs[service.service_id]
        except KeyError:
            spec = self._table.tenant_for_service(service.service_id)
            self.backlog.add_tenant(spec.tenant_id, spec.weight)
            self._specs[service.service_id] = spec
            return spec

    def _ledger(self, ep: Endpoint):
        """Ledger charged for CPU traffic on ``ep``: its service's
        tenant's, or None for kernel and continuation end-points."""
        if ep.service is None or ep.service is self._cont_service:
            return None
        return self._table.stats[self._tenant_of(ep.service).tenant_id]

    def _over_budget(self, spec: TenantSpec) -> bool:
        return (spec.ctrl_budget is not None
                and self._table.stats[spec.tenant_id].held_now
                >= spec.ctrl_budget)

    def _tenant_dispatchable(self, tenant_id: int) -> bool:
        return not self._over_budget(self._table.get(tenant_id))

    def _budget_kick(self) -> None:
        """A CONTROL line was just released: a parked fill that was
        budget-blocked may be serviceable now.  Without the kick it
        would sit until its Tryagain timeout — a 15 ms tail for no
        reason.  Scan order (endpoint id) is deterministic."""
        for ep in self.endpoints:
            if ep.parked is not None:
                request = self._next_request_for(ep)
                if request is not None:
                    self._consume_parked_and_deliver(ep, request)

    def create_endpoint(
        self,
        kind: EndpointKind,
        service: Optional[ServiceDef] = None,
        n_aux: Optional[int] = None,
        backlog_capacity: Optional[int] = None,
    ) -> Endpoint:
        """Allocate and home a new end-point's cache lines."""
        if kind is EndpointKind.USER and service is None:
            raise ValueError("user end-points must be bound to a service")
        aux = self.default_n_aux if n_aux is None else n_aux
        size = Endpoint.region_size(self.line_bytes, aux)
        region = self.machine.alloc.allocate(size, f"{self.name}-ep{len(self.endpoints)}")
        self.fabric.register_home(region, self)
        endpoint = Endpoint(
            endpoint_id=len(self.endpoints),
            kind=kind,
            region=region,
            line_bytes=self.line_bytes,
            n_aux=aux,
            service=service,
            backlog_capacity=(
                self.backlog_capacity if backlog_capacity is None else backlog_capacity
            ),
        )
        self.endpoints.append(endpoint)
        for addr in region.lines(self.line_bytes):
            self._by_line[addr] = endpoint
        if kind is EndpointKind.KERNEL:
            self._kernel_endpoints.append(endpoint)
        else:
            self._service_endpoints.setdefault(service.service_id, []).append(endpoint)
        return endpoint

    # -- continuation end-points (nested RPCs, Section 6) ---------------------

    def create_continuation_pool(self, n: int, n_aux: int = 4) -> None:
        """Pre-allocate reply end-points so acquiring one at call time
        is 'a cheap operation' — no allocation on the critical path."""
        for _ in range(n):
            endpoint = self.create_endpoint(
                EndpointKind.USER,
                service=self._cont_service,
                n_aux=n_aux,
            )
            endpoint.owner_label = "continuation-pool"
            self._continuation_pool.append(endpoint)

    def acquire_continuation(self) -> tuple[int, Endpoint]:
        """Take a reply end-point from the pool and bind a fresh tag.

        Returns (tag, endpoint).  The caller embeds the tag as the
        nested request's id; the matching RESPONSE is delivered to the
        end-point's CONTROL lines like a request.
        """
        if not self._continuation_pool:
            raise RuntimeError("continuation pool exhausted")
        endpoint = self._continuation_pool.pop()
        tag = self._next_cont_tag
        self._next_cont_tag += 1
        self._continuations[tag] = endpoint
        return tag, endpoint

    def release_continuation(self, tag: int, endpoint: Endpoint) -> None:
        """Return a reply end-point to the pool after use."""
        self._continuations.pop(tag, None)
        endpoint.inflight = None
        self._continuation_pool.append(endpoint)

    # -- kernel-pushed scheduling state ------------------------------------------

    def on_context_switch(self, core_id: int, process) -> None:
        """Called by the kernel on every address-space switch."""
        self.sched.record_switch(core_id, process.pid)

    # -- HomeDevice interface -----------------------------------------------------

    def service_time_ns(self) -> float:
        return 0.0

    def service_fill(self, core_id: int, addr: int, for_write: bool) -> Event:
        endpoint = self._by_line.get(addr - (addr % self.line_bytes))
        event = Event(self.sim)
        if endpoint is None or not endpoint.is_ctrl(addr):
            # AUX line (or stray): answer immediately from the home copy.
            event.succeed(FillResponse(data=b""))
            return event
        self._ctrl_fill_fsm(endpoint, core_id, endpoint.parity_of(addr), event)
        return event

    # -- the endpoint FSM ------------------------------------------------------------

    def _ctrl_fill_fsm(self, ep: Endpoint, core_id: int, parity: int, event: Event) -> None:
        """React to a CPU load on CONTROL[parity] of ``ep``."""
        ep.stats.ctrl_loads += 1
        ledger = self._ledger(ep)
        if ledger is not None:
            ledger.ctrl_loads += 1
        inflight = ep.inflight
        if inflight is not None and parity != inflight.parity:
            # Completion signal: issue the fetch-exclusive *before*
            # responding to this load ("Before responding to the read on
            # the second cache line, the NIC issues a fetch exclusive").
            # The invalidation takes effect now (channel ordering); the
            # data transfer and response transmission run concurrently
            # with the delivery below, keeping the pipeline full.
            self._complete(ep, inflight)
        self._arm(ep, core_id, parity, event)

    def _arm(self, ep: Endpoint, core_id: int, parity: int, event: Event) -> None:
        """Either deliver a waiting request or park the fill."""
        if ep.parked is not None:
            # A second core raced onto this end-point (end-points are
            # single-consumer by design): bounce it with Tryagain rather
            # than stranding the first core's parked fill.
            compose = self.sim.timeout(self.params.compose_line_ns)
            compose.add_callback(
                lambda _event: self._answer_tryagain(ep, event, "race"))
            return
        request = self._next_request_for(ep)
        if request is not None:
            self.sim.start(self._deliver(ep, parity, event, request))
            return
        ep.parked = (core_id, parity, event)
        ep.generation += 1
        self._start_tryagain_timer(ep, ep.generation)

    def _next_request_for(self, ep: Endpoint) -> Optional[PendingRequest]:
        """The request ``ep``'s CPU takes next: its own backlog first,
        then the global backlog — any tenant's work for a kernel
        end-point, picked by deficit-weighted round-robin, or its own
        service's for a user end-point.  A tenant holding its full
        CONTROL-line budget takes nothing; its fill parks."""
        if ep.backlog:
            spec = ep.backlog[0].tenant
            if spec is not None and self._over_budget(spec):
                return None
            request = ep.backlog.pop(0)
            self._note_unqueued(request)
            return request
        if ep.kind is EndpointKind.KERNEL:
            popped = self.backlog.pop(self._tenant_dispatchable)
            if popped is None:
                return None
            request = popped[1]
        elif ep.service is self._cont_service:
            return None
        else:
            spec = self._tenant_of(ep.service)
            if self._over_budget(spec):
                return None
            sid = ep.service.service_id
            # A user loop arming may drain requests that earlier fell
            # back to the global backlog for its service.
            request = self.backlog.steal(
                spec.tenant_id,
                lambda queued: queued.service.service_id == sid,
            )
            if request is None:
                return None
        self._note_unqueued(request)
        return request

    def _note_unqueued(self, request: PendingRequest) -> None:
        load = self.load.service(request.service.service_id)
        load.backlog_now = max(0, load.backlog_now - 1)
        spec = request.tenant
        if spec is not None:
            stats = self._table.stats[spec.tenant_id]
            stats.queued_now = max(0, stats.queued_now - 1)

    def set_tryagain_timeout_ns(self, value: float) -> None:
        """Runtime actuation hook (:mod:`repro.ctrl`): retune the
        Tryagain park timeout.  The timer reads the attribute fresh on
        every arm, so a change applies to the next parked fill — timers
        already in flight keep the timeout they were armed with.
        """
        if value <= 0:
            raise ValueError(f"non-positive tryagain timeout: {value}")
        self.tryagain_timeout_ns = float(value)

    def _start_tryagain_timer(self, ep: Endpoint, generation: int) -> None:
        """Bounce the fill parked at ``generation`` with Tryagain once
        the park timeout passes.  A timer that outlives its park (a
        delivery or preemption moved ``ep.generation`` on) fires and
        does nothing.  It is not cancelled: a cancelled timer stays
        queued as a tombstone that ``sim.pending_timers`` counts, and
        the machine telemetry probes that count."""

        def timed_out(_event) -> None:
            if ep.generation != generation or ep.parked is None:
                return
            _core, _parity, event = ep.unpark()
            compose = self.sim.timeout(self.params.compose_line_ns)
            compose.add_callback(
                lambda _event: self._answer_tryagain(ep, event, "timeout"))

        self.sim.timeout(self.tryagain_timeout_ns).add_callback(timed_out)

    def _answer_tryagain(self, ep: Endpoint, event: Event, reason: str) -> None:
        """Answer a fill on ``ep`` with the Tryagain line."""
        ep.stats.tryagains += 1
        self.lstats.tryagains += 1
        ledger = self._ledger(ep)
        if ledger is not None:
            ledger.tryagains += 1
        if self.flight is not None:
            self.flight.note("nic.tryagain", endpoint=ep.id, reason=reason)
        event.succeed(FillResponse(data=wire.tryagain_line(self.line_bytes)))

    def send_tryagain(self, ep: Endpoint) -> bool:
        """Immediately answer a parked fill with Tryagain (preemption
        support, Section 5.1/5.2).  Returns False if nothing is parked."""
        if ep.parked is None:
            return False
        _core, _parity, event = ep.unpark()
        self._answer_tryagain(ep, event, "preempt")
        return True

    def retire(self, ep: Endpoint) -> bool:
        """Answer a parked kernel thread with Retire, reclaiming its core
        (Section 5.2 on non-preemptive kernels)."""
        if ep.parked is None:
            return False
        _core, _parity, event = ep.unpark()
        ep.stats.retires += 1
        self.lstats.retires += 1
        event.succeed(FillResponse(data=wire.retire_line(self.line_bytes)))
        return True

    # -- delivery --------------------------------------------------------------------

    def _deliver(self, ep: Endpoint, parity: int, event: Event, request: PendingRequest):
        service = request.service
        method = service.methods.get(request.method_id)
        code_ptr = method.code_ptr if method else 0
        flags = wire.FLAG_VALID_REQ
        if ep.kind is EndpointKind.KERNEL:
            flags |= wire.FLAG_KERNEL_DISPATCH

        dma_addr = 0
        use_dma = (
            len(request.payload) > ep.max_line_payload()
            or len(request.payload) >= self.dma_threshold_bytes
        )
        if use_dma:
            flags |= wire.FLAG_DMA_FALLBACK
            dma_region = self.machine.alloc.allocate(
                max(len(request.payload), 1), "lauberhorn-dma"
            )
            dma_addr = dma_region.base
            self._dma_payloads[dma_addr] = request.payload
            self.lstats.dma_fallbacks += 1
            # Fixed DMA machinery cost (buffer, IOMMU, descriptors,
            # completion) plus the bulk transfer itself.
            yield self.sim.timeout(self.params.dma_fallback_fixed_ns)
            yield from self.link.dma_write(len(request.payload))

        control, aux_lines = wire.encode_request(
            self.line_bytes,
            service_id=service.service_id,
            method_id=request.method_id,
            code_ptr=code_ptr,
            data_ptr=service.data_ptr,
            tag=request.tag,
            payload=request.payload,
            flags=flags,
            dma_addr=dma_addr,
        )
        # Stage AUX lines before answering the CONTROL fill; any lines
        # the CPU still holds are recalled concurrently (the NIC's
        # coherence engine pipelines invalidations).
        to_recall = [
            ep.aux_addrs[i]
            for i in range(len(aux_lines))
            if self.fabric.has_holders(ep.aux_addrs[i])
        ]
        if to_recall:
            # Processes, not Simulator.start: the AllOf joins them.
            recalls = [
                self.sim.process(self.fabric.device_recall(addr))
                for addr in to_recall
            ]
            yield AllOf(self.sim, recalls)
        for index, line_data in enumerate(aux_lines):
            self.fabric.device_write(ep.aux_addrs[index], line_data)
        yield self.sim.timeout(self.params.compose_line_ns)

        ep.inflight = InflightRequest(
            request=request,
            parity=parity,
            delivered_ns=self.sim.now,
            via_kernel=ep.kind is EndpointKind.KERNEL,
            dma=use_dma,
        )
        ep.last_delivery_ns = self.sim.now
        ep.stats.delivered += 1
        ep.generation += 1
        if service is not self._cont_service:
            self.telemetry.on_delivery(
                request.tag, self.sim.now, ep.kind is EndpointKind.KERNEL
            )
            obs = self.obs
            if obs is not None:
                dispatch_span = request.meta.pop("_obs_dispatch", None)
                if dispatch_span is not None:
                    obs.finish(dispatch_span,
                               via_kernel=ep.kind is EndpointKind.KERNEL)
                ctx = request.meta.get("obs")
                if ctx is not None:
                    # Handler window, NIC-observed: delivery (CONTROL
                    # fill answered) to completion (the other line's
                    # load) — zero software on the data path.
                    request.meta["_obs_service"] = obs.start(
                        "app", "app", ctx)
            load = self.load.service(service.service_id)
            tstats = self._table.stats[request.tenant.tenant_id]
            tstats.held_now += 1  # CONTROL line now held by the tenant
            if use_dma:
                tstats.dma_fallbacks += 1
            if ep.kind is EndpointKind.KERNEL:
                ep.stats.kernel_dispatches += 1
                load.delivered_kernel += 1
                self.lstats.delivered_kernel += 1
                tstats.delivered_kernel += 1
            else:
                load.delivered_fast += 1
                self.lstats.delivered_fast += 1
                tstats.delivered_fast += 1
        event.succeed(FillResponse(data=control))
        return None

    def read_dma_buffer(self, addr: int) -> bytes:
        """CPU-side helper: fetch and free a DMA-fallback payload."""
        return self._dma_payloads.pop(addr)

    def stage_response_dma(self, payload: bytes) -> int:
        """CPU-side helper: place a large response in a host buffer the
        NIC will DMA-read (the response-direction twin of the Section 6
        fallback).  Returns the buffer address for the CONTROL line."""
        region = self.machine.alloc.allocate(max(len(payload), 1),
                                             "lauberhorn-resp-dma")
        self._dma_payloads[region.base] = payload
        return region.base

    def completion_signal(self, ep: Endpoint) -> bool:
        """Device-side: extract+transmit the in-flight response *now*.

        Used by the kernel dispatch path, which signals completion with
        an explicit posted write rather than by loading the alternate
        CONTROL line (it is about to leave for a promoted user loop,
        Figure 5 ①, so the implicit signal would come far too late).
        """
        inflight = ep.inflight
        if inflight is None:
            return False
        self._complete(ep, inflight)
        return True

    def completion_signal_op(self, ep: Endpoint):
        """CPU-side thread op raising :meth:`completion_signal`: a
        posted store to a NIC-homed doorbell line (~tens of ns busy)."""

        def signal(core, thread):
            yield from core.busy_ns(30.0)
            arrive = self.sim.timeout(self.machine.params.interconnect.one_way_ns)
            arrive.add_callback(lambda _event: self.completion_signal(ep))
            return None

        return ops.Call(signal)

    # -- response extraction ------------------------------------------------------------

    def _complete(self, ep: Endpoint, inflight: InflightRequest) -> None:
        """Close ``ep``'s in-flight request: claim the response lines
        (invalidations effective immediately, by interconnect channel
        ordering), spawn the timed extraction + transmit tail, which
        overlaps with the next delivery on this end-point, and release
        the tenant's CONTROL line."""
        ep.inflight = None
        self.telemetry.on_completion(inflight.request.tag, self.sim.now)
        obs = self.obs
        if obs is not None:
            service_span = inflight.request.meta.pop("_obs_service", None)
            if service_span is not None:
                obs.finish(service_span)
            if "obs" in inflight.request.meta:
                inflight.request.meta["_obs_done_ns"] = self.sim.now
        ctrl_addr = ep.ctrl_addrs[inflight.parity]
        data, dirty = self.fabric.device_claim(ctrl_addr)
        header_n_aux = data[1]
        aux_payloads = []
        wire_delay = self.fabric.claim_transfer_ns(dirty)
        for index in range(header_n_aux):
            aux_data, aux_dirty = self.fabric.device_claim(
                ep.resp_aux_addrs[index]
            )
            aux_payloads.append(aux_data)
            if aux_dirty:
                # AUX data pipelines behind the CONTROL line: one extra
                # serialisation each, no extra round trips.
                wire_delay += bytes_time_ns(
                    self.line_bytes,
                    self.machine.params.interconnect.bandwidth_bps,
                )
        self.sim.start(
            self._finish_response(ep, inflight, data, aux_payloads, wire_delay))
        spec = inflight.request.tenant
        if spec is not None:
            stats = self._table.stats[spec.tenant_id]
            stats.completed += 1
            stats.held_now = max(0, stats.held_now - 1)
            if spec.ctrl_budget is not None:
                self._budget_kick()

    def _finish_response(
        self,
        ep: Endpoint,
        inflight: InflightRequest,
        data: bytes,
        aux_payloads: list[bytes],
        wire_delay: float,
    ):
        yield self.sim.timeout(wire_delay)
        try:
            line, payload = wire.decode_response(data, aux_payloads)
        except wire.WireFormatError:
            line, payload = None, b""
        if line is not None and line.is_dma:
            # Large response: pull it from the host buffer over DMA.
            payload = self._dma_payloads.pop(line.dma_addr, b"")
            self.lstats.dma_fallbacks += 1
            yield self.sim.timeout(self.params.dma_fallback_fixed_ns)
            yield from self.link.dma_read(max(len(payload), 1))
        request = inflight.request
        message = RpcMessage.response(
            request.service.service_id,
            request.method_id,
            request.tag,
            payload,
        )
        if request.service.encrypted:
            yield self.sim.timeout(nic_crypto_ns(len(payload)))
        yield self.sim.timeout(self.params.compose_line_ns)
        obs = self.obs
        if obs is not None:
            ctx = request.meta.get("obs")
            done_ns = request.meta.pop("_obs_done_ns", None)
            if ctx is not None and done_ns is not None:
                obs.record("nic.egress", "nic", ctx, done_ns, self.sim.now)
        frame = build_udp_frame(
            src_mac=self.mac,
            dst_mac=request.reply_mac,
            src_ip=self.ip,
            dst_ip=request.reply_ip,
            src_port=request.service.udp_port,
            dst_port=request.reply_port,
            payload=message.pack(),
            born_ns=self.sim.now,
            meta=dict(public_meta(request.meta)),
        )
        ep.stats.completed += 1
        self.load.service(request.service.service_id).completed += 1
        self.lstats.responses_sent += 1
        self.telemetry.on_sent(request.tag, self.sim.now)
        self.queue_tx(frame)
        return None

    # -- receive path --------------------------------------------------------------------

    def _rx_frame(self, frame, ctx, rx_start_ns):
        try:
            parsed = parse_udp_frame(frame)
            message = RpcMessage.unpack(parsed.payload)
        except (HeaderError, RpcError):
            self.stats.rx_dropped += 1
            return
        obs = self.obs
        rpc_type = message.header.rpc_type
        if rpc_type is RpcType.RESPONSE:
            endpoint = self._continuations.get(message.header.request_id)
            if endpoint is None:
                self.stats.rx_dropped += 1
                return
            service, spec = self._cont_service, None
        elif rpc_type is RpcType.REQUEST:
            try:
                service = self.registry.by_port(parsed.udp.dst_port)
            except KeyError:
                self.lstats.dropped_no_service += 1
                self.stats.rx_dropped += 1
                return
            spec = self._tenant_of(service)
            # Demux is where the serving identity becomes known:
            # annotate the *root* span (its id is what rides in
            # Frame.meta["obs"]) so tail/SLO/flame forensics can group
            # by (host, tenant, service).  Gated on tag_origin so
            # armed-but-untagged runs keep their historical payloads.
            if ctx is not None and obs.tag_origin:
                obs.annotate(ctx, host=self.obs_host, service=service.name)
                if self.tenants is not None:
                    obs.annotate(ctx, tenant=spec.name)
            # Rate-limit policing at demux time: the tenant is known
            # but the expensive pipeline stages (AEAD, deserialise)
            # have not run yet — an over-rate frame costs only
            # parse+demux, which is the whole point of gating
            # admission here.
            tstats = self._table.stats[spec.tenant_id]
            tstats.arrivals += 1
            bucket = self._table.bucket_for(spec.tenant_id)
            if bucket is not None and not bucket.allow(self.sim.now):
                tstats.rate_dropped += 1
                self.stats.rx_dropped += 1
                return
            tstats.admitted += 1
            if service.encrypted:
                # Inline AEAD open in the NIC pipeline (Section 6).
                yield self.sim.timeout(nic_crypto_ns(len(message.payload)))
        else:
            self.stats.rx_dropped += 1
            return
        # On-NIC deserialisation (Optimus-Prime-style streaming).
        yield self.sim.timeout(
            self.params.deserialize_ns_per_64b
            * math.ceil(max(len(message.payload), 1) / 64)
        )
        request = PendingRequest(
            service=service,
            method_id=message.header.method_id,
            tag=message.header.request_id,
            payload=message.payload,
            reply_ip=parsed.ip.src,
            reply_port=parsed.udp.src_port,
            reply_mac=parsed.eth.src,
            born_ns=frame.born_ns,
            arrived_ns=self.sim.now,
            meta=frame.copy_meta(),
            tenant=spec,
        )
        if service is self._cont_service:
            # A nested call's reply, for its continuation end-point.
            if endpoint.armed:
                self._consume_parked_and_deliver(endpoint, request)
            else:
                endpoint.push_backlog(request)
            return
        self.lstats.requests_decoded += 1
        self.load.service(service.service_id).note_arrival(self.sim.now)
        self.telemetry.on_arrival(request.tag, service.service_id, self.sim.now)
        if ctx is not None:
            obs.record("nic.rx", "nic", ctx, rx_start_ns, self.sim.now)
            # Open the dispatch window; _deliver closes it (the
            # span object travels in the request's metadata).
            request.meta["_obs_dispatch"] = obs.start(
                "nic.dispatch", "nic", ctx)
        self._dispatch_request(request)

    def _dispatch_request(self, request: PendingRequest) -> None:
        """Route a decoded request per Section 5.2's policy.

        Direct delivery (steps 1 and 3) is budget-gated: a tenant at
        its CONTROL-line cap can still *queue* (queued work holds no
        lines) but cannot take another line until a completion frees
        one.  The global backlog (step 4) queues the request on its
        tenant's DWRR queue.
        """
        service_id = request.service.service_id
        load = self.load.service(service_id)
        spec = request.tenant
        tstats = self._table.stats[spec.tenant_id]
        budget_blocked = self._over_budget(spec)

        # 1. Fast path: a user-mode loop is stalled on this service's lines.
        if not budget_blocked:
            for ep in self._service_endpoints.get(service_id, ()):
                if ep.armed:
                    self._consume_parked_and_deliver(ep, request)
                    return

        # 2. The process is on-core but busy: queue on its end-point;
        #    its next CONTROL load picks the request up with no kernel
        #    involvement.
        pid = self._service_pid.get(service_id)
        if pid is not None and self.sched.is_running(pid):
            for ep in self._service_endpoints.get(service_id, ()):
                if ep.push_backlog(request):
                    load.queued += 1
                    load.backlog_now += 1
                    self.lstats.queued_endpoint += 1
                    tstats.queued_now += 1
                    return
            # fall through when backlogs are full

        # 3. Kernel dispatch: a parked kernel thread takes it.
        if not budget_blocked:
            for ep in self._kernel_endpoints:
                if ep.armed:
                    self._consume_parked_and_deliver(ep, request)
                    return

        # 4. Nobody is waiting: queue globally.
        if len(self.backlog) >= 4096:
            load.dropped += 1
            self.lstats.dropped_backlog_full += 1
            tstats.dropped += 1
            return
        self.backlog.push(spec.tenant_id, request)
        load.queued += 1
        load.backlog_now += 1
        self.lstats.queued_global += 1
        tstats.queued_now += 1
        if self.preempt_on_backlog:
            self._preempt_a_victim(service_id)

    def _consume_parked_and_deliver(self, ep: Endpoint, request: PendingRequest) -> None:
        _core, parity, event = ep.unpark()
        self.sim.start(self._deliver(ep, parity, event, request))

    def _preempt_a_victim(self, wanting_service_id: int) -> None:
        """Unblock an armed user loop of a *different* service so its
        core re-enters the kernel and can serve the backlog.  Picks the
        coldest victim (longest since its last delivery) to avoid
        preempting an actively hot loop."""
        candidates = [
            ep
            for ep in self.endpoints
            if ep.kind is EndpointKind.USER
            and ep.armed
            and ep.service is not None
            and ep.service.service_id != wanting_service_id
        ]
        if not candidates:
            return
        victim = min(candidates, key=lambda ep: ep.last_delivery_ns)
        self.lstats.preempt_requests += 1
        self.send_tryagain(victim)

    # -- observability ------------------------------------------------------------------------

    def bind_metrics(self, registry, prefix: str = "nic") -> None:
        super().bind_metrics(registry, prefix)
        registry.bind(f"{prefix}.lauberhorn", self.lstats)
        registry.probe(f"{prefix}.telemetry", lambda: {
            "completed": len(self.telemetry.completed),
            "inflight": len(self.telemetry._inflight),
            "dropped": self.telemetry.dropped,
            "reused": self.telemetry.reused,
        })
        registry.probe(f"{prefix}.backlog", lambda: {
            "global": len(self.backlog),
            "endpoints": sum(len(ep.backlog) for ep in self.endpoints),
        })
        if self.tenants is not None:
            # Per-tenant ledger; only present when a table is attached,
            # so untenanted metric snapshots are unchanged.  Two views
            # of the same counters: the nested dict for snapshot
            # consumers, and flat `{prefix}.tenant.<name>.<counter>`
            # rows so TimeSeriesSampler.series()/rate_series() can
            # chart a single tenant counter by key.
            registry.probe(f"{prefix}.tenants", self.tenants.snapshot)
            registry.probe(f"{prefix}.tenant", self.tenants.snapshot_by_id)

    # -- debug/validation --------------------------------------------------------------------

    def check_quiescent(self) -> list[str]:
        """Consistency check for a drained NIC; returns violations.

        After all traffic completes, nothing should be in flight: no
        undelivered backlog, no owed responses, no leaked continuations
        or DMA buffers, and the counters must balance.  Tests call this
        after a run; an empty list means all clear.
        """
        problems: list[str] = []
        if len(self.backlog):
            problems.append(f"{len(self.backlog)} requests in the "
                            "global backlog")
        for ep in self.endpoints:
            if ep.backlog:
                problems.append(f"endpoint {ep.id}: {len(ep.backlog)} "
                                "backlogged requests")
            if ep.inflight is not None:
                problems.append(f"endpoint {ep.id}: response still owed")
        if self._continuations:
            problems.append(f"{len(self._continuations)} leaked continuations")
        if self._dma_payloads:
            problems.append(f"{len(self._dma_payloads)} unclaimed DMA buffers")
        delivered = self.lstats.delivered_fast + self.lstats.delivered_kernel
        if self.lstats.responses_sent > delivered:
            problems.append(
                f"sent {self.lstats.responses_sent} responses for only "
                f"{delivered} deliveries"
            )
        if self.telemetry._inflight:
            problems.append(
                f"{len(self.telemetry._inflight)} telemetry timelines open"
            )
        return problems

    # -- CPU-side transmit (PIO path for non-RPC kernel traffic) ----------------------------

    def transmit(self, frame, core):
        """PIO transmit over the coherent link ([21]'s model): the core
        writes the frame as lines; cheap, posted."""
        lines = math.ceil(len(frame.data) / self.line_bytes)
        yield from core.busy_ns(lines * 15.0)
        arrive = self.sim.timeout(self.machine.params.interconnect.one_way_ns)
        arrive.add_callback(lambda _event: self.queue_tx(frame))
        return None
