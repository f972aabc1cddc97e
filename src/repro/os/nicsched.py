"""NIC-driven scheduling: the software side of Figure 5.

Three pieces:

* :func:`lauberhorn_user_loop` — the user-mode fast-path loop
  (Figure 5 ①): the thread alternates blocked loads between its
  end-point's two CONTROL lines; a returned line *is* the dispatched
  RPC (code pointer + arguments), so per-request software cost is just
  the handler itself.
* :func:`kernel_dispatch_loop` — a conventional kernel thread parked on
  a *kernel* end-point pair; Lauberhorn can dispatch **any** service's
  request to it.  On delivery it context-switches into the target
  process, completes the request in software, and (optionally)
  *promotes* the core: it stays in that process running the user-mode
  loop on the process's own CONTROL lines until a Tryagain/Retire hands
  the core back (Figure 5 ① / ② / ③).
* :class:`NicScheduler` — the control plane: owns the kernel
  dispatchers, turns on NIC-initiated preemption so a backlogged
  service can reclaim a core from an idle user loop, and exposes the
  NIC's load statistics to experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..net.packet import build_udp_frame
from ..nic.lauberhorn import wire
from ..nic.lauberhorn.endpoint import Endpoint, EndpointKind
from ..nic.lauberhorn.nic import LauberhornNic
from ..rpc.marshal import (
    MarshalError,
    count_fields,
    marshal_args,
    software_unmarshal_instructions,
    unmarshal_args,
)
from ..rpc.message import RpcMessage
from ..rpc.service import ServiceError, ServiceRegistry
from ..sim.clock import bytes_time_ns
from . import ops
from .kernel import Kernel

__all__ = [
    "lauberhorn_user_loop",
    "lauberhorn_nested_call",
    "kernel_dispatch_loop",
    "NicScheduler",
    "KERNEL_DISPATCH_SW_INSTRUCTIONS",
]

#: Software on the kernel dispatch path per request: validating the
#: delivered line, switching stacks, small bookkeeping (the NIC has
#: already demultiplexed and deserialised).
KERNEL_DISPATCH_SW_INSTRUCTIONS = 400
#: User-loop software around the handler: reading the code pointer and
#: jumping (a couple of registers' worth of work).
USER_LOOP_SW_INSTRUCTIONS = 20


def _gather_payload(nic: LauberhornNic, ep: Endpoint, request_line):
    """Collect a delivered message's full payload (inline / AUX / DMA).

    A generator of thread ops returning the payload bytes.
    """
    if request_line.is_dma:
        payload = nic.read_dma_buffer(request_line.dma_addr)
        # The CPU streams the payload out of DRAM.
        yield ops.ExecNs(
            bytes_time_ns(len(payload), nic.machine.params.cache.dram_bandwidth_bps)
        )
        return payload
    if request_line.n_aux:
        # Stream AUX lines with memory-level parallelism (prefetchable).
        aux_addrs = tuple(ep.aux_addrs[: request_line.n_aux])
        aux_chunks = yield ops.LoadLines(aux_addrs)
        payload = wire.assemble_request_payload(request_line, aux_chunks)
        # Drop the (clean) AUX lines now that the payload is assembled,
        # so the NIC can restage them without recalls (DC CIVAC after a
        # streaming read — free locally, saves a recall flit per line).
        for addr in aux_addrs:
            yield ops.EvictLine(addr)
        return payload
    return request_line.inline


def _serve_delivery(nic: LauberhornNic, ep: Endpoint, request_line, registry,
                    parity, software_unmarshal: bool = False):
    """Shared request-serving tail: gather payload, run handler, store
    the response lines.  A generator of thread ops (use ``yield from``).

    ``software_unmarshal=True`` is the ablation that disables the NIC's
    deserialisation offload: the host pays the software cost instead.
    """
    payload = yield from _gather_payload(nic, ep, request_line)

    try:
        if software_unmarshal:
            args = unmarshal_args(payload) if payload else []
            yield ops.Exec(
                software_unmarshal_instructions(count_fields(args), len(payload))
            )
        else:
            # The NIC already deserialised: extracting the values is free.
            args = unmarshal_args(payload) if payload else []
        service, method = registry.resolve(
            request_line.service_id, request_line.method_id
        )
        # "the load executed by the core immediately returns the address
        # to jump to": dispatch is a jump, not a lookup.
        yield ops.Exec(USER_LOOP_SW_INSTRUCTIONS)
        yield ops.Exec(method.cost_for(args))
        results = method.handler(args)
        resp_payload = marshal_args(list(results))
    except (MarshalError, ServiceError) as exc:
        # A malformed payload or stale method table must not kill the
        # worker: answer with an error marker so the protocol's
        # store-then-load sequence still completes.
        yield ops.Exec(USER_LOOP_SW_INSTRUCTIONS)
        resp_payload = marshal_args(["__rpc_error__", type(exc).__name__])

    resp_line_capacity = (
        ep.line_bytes - wire.RESP_INLINE_OFFSET
        + len(ep.resp_aux_addrs) * ep.line_bytes
    )
    if (len(resp_payload) > resp_line_capacity
            or len(resp_payload) >= nic.response_dma_threshold_bytes):
        # Large response: stage it in a host buffer for the NIC to
        # DMA-read (the response-direction twin of the Section 6
        # fallback), and hand the NIC a descriptor line.
        dma_addr = nic.stage_response_dma(resp_payload)
        yield ops.ExecNs(
            bytes_time_ns(
                len(resp_payload), nic.machine.params.cache.dram_bandwidth_bps
            )
        )
        ctrl = wire.encode_response_dma(
            ep.line_bytes, request_line.tag, len(resp_payload), dma_addr
        )
        yield ops.StoreLine(ep.ctrl_addrs[parity], ctrl)
        return len(resp_payload)

    ctrl, aux = wire.encode_response(ep.line_bytes, request_line.tag, resp_payload)
    for index, chunk in enumerate(aux):
        yield ops.StoreLine(ep.resp_aux_addrs[index], chunk)
    yield ops.StoreLine(ep.ctrl_addrs[parity], ctrl)
    return len(resp_payload)


def lauberhorn_nested_call(
    nic: LauberhornNic,
    dst_port: int,
    service_id: int,
    method_id: int,
    args,
):
    """Issue a nested RPC with a continuation end-point (Section 6).

    A thread-op generator for use inside a server worker body::

        results = yield from lauberhorn_nested_call(nic, port, sid, mid, args)

    The outgoing request carries a continuation tag; the reply is
    delivered straight to the continuation end-point's CONTROL line,
    where this code is stalled in a blocked load — the nested call
    costs one PIO transmit plus one fill, with no socket or kernel
    involvement.
    """
    tag, cont = nic.acquire_continuation()
    # "creating this continuation [is] a cheap operation": a pool pop
    # plus registering the tag — one posted store's worth of work.
    yield ops.Exec(30)
    payload = marshal_args(list(args))
    message = RpcMessage.request(service_id, method_id, tag, payload)
    frame = build_udp_frame(
        src_mac=nic.mac,
        dst_mac=nic.mac,  # loops through the switch back to this host
        src_ip=nic.ip,
        dst_ip=nic.ip,
        src_port=50_000 + (tag & 0x3FF),
        dst_port=dst_port,
        payload=message.pack(),
    )

    def _tx(core, thread):
        yield from nic.transmit(frame, core)
        return None

    yield ops.Call(_tx)

    ctrl = cont.ctrl_addrs[0]
    while True:
        line_data = yield ops.LoadLine(ctrl)
        line = wire.decode_request_line(line_data)
        if line.is_tryagain:
            yield ops.EvictLine(ctrl)
            continue
        if not line.is_request:
            yield ops.EvictLine(ctrl)
            continue
        reply_payload = yield from _gather_payload(nic, cont, line)
        yield ops.EvictLine(ctrl)
        nic.release_continuation(tag, cont)
        return unmarshal_args(reply_payload) if reply_payload else []


def lauberhorn_user_loop(
    nic: LauberhornNic,
    ep: Endpoint,
    registry: ServiceRegistry,
    max_requests: Optional[int] = None,
    stop_on_tryagain: bool = False,
    yield_on_tryagain: bool = False,
    software_unmarshal: bool = False,
):
    """Thread body: the user-mode receive loop on one end-point.

    Exits on Retire, on the first Tryagain once ``max_requests`` have
    been served, or (with ``stop_on_tryagain``) on any Tryagain — the
    mode the kernel dispatcher uses for its promoted user phase.
    Returns the number of requests served.
    """
    # Claim the end-point so the kernel dispatcher's promotion logic
    # never hijacks lines a dedicated loop is already cycling on.
    owned_here = not ep.owner_label
    if owned_here:
        ep.owner_label = "user-loop"
    try:
        served = yield from _user_loop_body(
            nic, ep, registry, max_requests, stop_on_tryagain,
            yield_on_tryagain, software_unmarshal,
        )
    finally:
        if owned_here:
            ep.owner_label = ""
    return served


def _user_loop_body(
    nic, ep, registry, max_requests, stop_on_tryagain, yield_on_tryagain,
    software_unmarshal,
):
    served = 0
    parity = 0
    while True:
        line_data = yield ops.LoadLine(ep.ctrl_addrs[parity])
        line = wire.decode_request_line(line_data)
        if line.is_retire:
            yield ops.EvictLine(ep.ctrl_addrs[parity])
            return served
        if line.is_tryagain:
            # Invalidate so the next load misses (re-arms the NIC).
            yield ops.EvictLine(ep.ctrl_addrs[parity])
            if stop_on_tryagain:
                return served
            if max_requests is not None and served >= max_requests:
                return served
            if yield_on_tryagain:
                yield ops.YieldCpu()
            continue
        if not line.is_request:
            # Spurious content (e.g. first load raced a reset): retry.
            yield ops.EvictLine(ep.ctrl_addrs[parity])
            continue
        yield from _serve_delivery(nic, ep, line, registry, parity,
                                   software_unmarshal=software_unmarshal)
        served += 1
        parity ^= 1
        # Loop: the load on the flipped line signals completion of this
        # request and waits for the next one.


def kernel_dispatch_loop(
    nic: LauberhornNic,
    kernel: Kernel,
    ep: Endpoint,
    registry: ServiceRegistry,
    promote: bool = True,
    max_requests: Optional[int] = None,
):
    """Thread body: Figure 5's NIC-driven kernel dispatcher.

    Runs as a kernel thread parked on a *kernel* end-point.  Returns the
    number of requests served (directly or via promoted user phases).
    """
    served = 0
    parity = 0
    while True:
        line_data = yield ops.LoadLine(ep.ctrl_addrs[parity])
        line = wire.decode_request_line(line_data)
        if line.is_retire:
            yield ops.EvictLine(ep.ctrl_addrs[parity])
            return served
        if line.is_tryagain:
            yield ops.EvictLine(ep.ctrl_addrs[parity])
            if max_requests is not None and served >= max_requests:
                return served
            # "As it is a conventional kernel thread, it periodically
            # calls schedule()" (Figure 5 ③).
            yield ops.YieldCpu()
            continue
        if not line.is_request:
            yield ops.EvictLine(ep.ctrl_addrs[parity])
            continue

        # Context switch into the target process's address space.
        yield ops.Exec(kernel.costs.context_switch_instructions)
        yield ops.Exec(KERNEL_DISPATCH_SW_INSTRUCTIONS)
        yield from _serve_delivery(nic, ep, line, registry, parity)
        served += 1
        parity ^= 1
        # Signal completion explicitly (posted doorbell): this thread is
        # about to promote into a user loop, so the implicit
        # load-the-other-line signal would be delayed indefinitely.
        yield nic.completion_signal_op(ep)

        if promote:
            user_ep = _claimable_user_endpoint(nic, line.service_id)
            if user_ep is not None:
                # Promote: stay in this process; run its dedicated
                # user-mode loop until it goes idle (Tryagain).
                user_ep.owner_label = "promoted"
                served += yield from lauberhorn_user_loop(
                    nic, user_ep, registry, stop_on_tryagain=True
                )
                user_ep.owner_label = ""
                # Return to the kernel (syscall + address-space switch).
                yield ops.Syscall("deschedule-user-loop")
                yield ops.Exec(kernel.costs.context_switch_instructions)


def _claimable_user_endpoint(nic: LauberhornNic, service_id: int):
    for candidate in nic._service_endpoints.get(service_id, ()):
        if not candidate.armed and not candidate.owner_label:
            return candidate
    return None


@dataclass
class DispatcherHandle:
    endpoint: Endpoint
    thread: object


class NicScheduler:
    """Control plane tying the kernel and the Lauberhorn NIC together."""

    def __init__(
        self,
        kernel: Kernel,
        nic: LauberhornNic,
        registry: ServiceRegistry,
        n_dispatchers: int = 2,
        promote: bool = True,
        dispatcher_cores: Optional[list[int]] = None,
    ):
        self.kernel = kernel
        self.nic = nic
        self.registry = registry
        self.promote = promote
        self.dispatchers: list[DispatcherHandle] = []
        # NIC-initiated preemption: a backlogged service may reclaim a
        # core whose user loop is idle-armed for a different service.
        nic.preempt_on_backlog = True
        cores = dispatcher_cores or [None] * n_dispatchers
        for index in range(n_dispatchers):
            self.add_dispatcher(
                pinned_core=cores[index] if index < len(cores) else None
            )

    def add_dispatcher(self, pinned_core: Optional[int] = None) -> DispatcherHandle:
        """Park one more kernel thread on a fresh kernel end-point."""
        endpoint = self.nic.create_endpoint(EndpointKind.KERNEL)
        thread = self.kernel.spawn_kernel_thread(
            kernel_dispatch_loop(
                self.nic, self.kernel, endpoint, self.registry, promote=self.promote
            ),
            name=f"lb-dispatch{len(self.dispatchers)}",
            pinned_core=pinned_core,
        )
        handle = DispatcherHandle(endpoint=endpoint, thread=thread)
        self.dispatchers.append(handle)
        return handle

    def retire_dispatcher(self) -> bool:
        """Reclaim a dispatcher core via a Retire message (Section 5.2)."""
        for handle in self.dispatchers:
            if self.nic.retire(handle.endpoint):
                self.dispatchers.remove(handle)
                return True
        return False

    def service_report(self) -> list:
        """The NIC's per-service load view (read over the kernel channel)."""
        return self.nic.load.all()

    def start_autoscaler(
        self,
        interval_ns: float = 500_000.0,
        min_dispatchers: int = 1,
        max_dispatchers: int = 8,
    ):
        """Scale dispatcher cores with load (§5.2: "dynamic scaling of
        the cores used for RPC based on load").

        A kernel control thread wakes every ``interval_ns``, reads the
        NIC's load statistics over the kernel channel, and:

        * **scales up** (spawns a dispatcher on a fresh end-point) when
          requests are queueing with nobody parked to take them;
        * **scales down** (Retire to a parked dispatcher) after an
          interval with no arrivals and more than the minimum parked.

        Returns the control thread.
        """
        if min_dispatchers < 0 or max_dispatchers < max(1, min_dispatchers):
            raise ValueError("bad autoscaler bounds")
        scheduler = self

        def control_body():
            last_decoded = scheduler.nic.lstats.requests_decoded
            while True:
                yield ops.Sleep(interval_ns)
                yield ops.Exec(300)  # read stats over the kernel channel
                nic = scheduler.nic
                arrivals = nic.lstats.requests_decoded - last_decoded
                last_decoded = nic.lstats.requests_decoded
                backlogged = sum(load.backlog_now for load in nic.load.all())
                parked = sum(
                    1 for handle in scheduler.dispatchers
                    if handle.endpoint.armed
                )
                if (backlogged > 0 and parked == 0
                        and len(scheduler.dispatchers) < max_dispatchers):
                    scheduler.add_dispatcher()
                elif (arrivals == 0 and backlogged == 0
                      and parked == len(scheduler.dispatchers)
                      and len(scheduler.dispatchers) > min_dispatchers):
                    scheduler.retire_dispatcher()

        return self.kernel.spawn_kernel_thread(
            control_body(), name="lb-autoscaler", priority=-1
        )
