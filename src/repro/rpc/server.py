"""Server-side RPC worker bodies for the baseline stacks.

Two of the three server flavours live here (the Lauberhorn flavour is
in :mod:`repro.os.nicsched`, since it is entangled with scheduling):

* :func:`linux_udp_worker` — the conventional path: blocking
  ``recvmsg`` on a kernel UDP socket, software unmarshal, handler,
  software marshal, ``sendmsg``.
* :func:`bypass_worker` — the kernel-bypass path: busy-poll a
  user-space ring, parse the raw frame in user space, software
  unmarshal, handler, marshal, PMD transmit.  No kernel involvement
  after setup.

Both bodies charge every step explicitly and emit ``rxstep`` trace
spans so experiment E2 can attribute cycles to the paper's Section 2
steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..net.crypto import software_crypto_instructions
from ..net.headers import HeaderError, MacAddress
from ..net.packet import Frame, build_udp_frame, parse_udp_frame
from ..os import ops
from ..sim.trace import Tracer
from .marshal import (
    MarshalError,
    count_fields,
    marshal_args,
    software_marshal_instructions,
    software_unmarshal_instructions,
    unmarshal_args,
)
from .message import RpcError, RpcMessage, RpcType
from .service import ServiceError, ServiceRegistry

__all__ = ["UserNetContext", "linux_udp_worker", "bypass_worker",
           "RPC_HEADER_DECODE_INSTRUCTIONS"]

#: Software cost of validating/decoding the 24 B RPC header.
RPC_HEADER_DECODE_INSTRUCTIONS = 80
#: User-space Ethernet/IP/UDP parse cost in a bypass stack (no skb,
#: just pointer arithmetic and checksum validation).
USER_PARSE_INSTRUCTIONS = 180


@dataclass
class UserNetContext:
    """Network identity for user-space (bypass) frame construction."""

    ip: int
    mac: MacAddress
    arp: dict[int, MacAddress]

    def build_frame(self, src_port, dst_ip, dst_port, payload, meta=None) -> Frame:
        dst_mac = self.arp.get(dst_ip)
        if dst_mac is None:
            raise KeyError(f"no neighbour entry for {dst_ip:#010x}")
        return build_udp_frame(
            src_mac=self.mac,
            dst_mac=dst_mac,
            src_ip=self.ip,
            dst_ip=dst_ip,
            src_port=src_port,
            dst_port=dst_port,
            payload=payload,
            meta=dict(meta or {}),
        )


def _execute_rpc(registry: ServiceRegistry, message: RpcMessage):
    """Resolve and run the handler in zero sim time; returns
    (method, args, result_payload, unmarshal_cost, handler_cost,
    marshal_cost) so the caller can charge them.  Unmarshal/marshal
    costs include software AEAD open/seal for encrypted services."""
    service, method = registry.resolve(
        message.header.service_id, message.header.method_id
    )
    args = unmarshal_args(message.payload)
    unmarshal_cost = software_unmarshal_instructions(
        count_fields(args), len(message.payload)
    )
    handler_cost = method.cost_for(args)
    results = method.handler(args)
    result_payload = marshal_args(list(results))
    marshal_cost = software_marshal_instructions(
        count_fields(results), len(result_payload)
    )
    if service.encrypted:
        unmarshal_cost += software_crypto_instructions(len(message.payload))
        marshal_cost += software_crypto_instructions(len(result_payload))
    return method, args, result_payload, unmarshal_cost, handler_cost, marshal_cost


def linux_udp_worker(
    socket,
    registry: ServiceRegistry,
    tracer: Optional[Tracer] = None,
    max_requests: Optional[int] = None,
):
    """Thread body: the classic kernel-socket RPC server loop."""
    served = 0
    while max_requests is None or served < max_requests:
        datagram = yield ops.RecvFromSocket(socket)
        span = tracer.span("rxstep", "app", stack="linux") if tracer else None
        try:
            message = RpcMessage.unpack(datagram.payload)
        except RpcError:
            continue
        if message.header.rpc_type is not RpcType.REQUEST:
            continue
        yield ops.Exec(RPC_HEADER_DECODE_INSTRUCTIONS)
        try:
            (_method, _args, result_payload, unmarshal_cost, handler_cost,
             marshal_cost) = _execute_rpc(registry, message)
        except (MarshalError, ServiceError) as exc:
            result_payload = marshal_args(["__rpc_error__", type(exc).__name__])
            unmarshal_cost = handler_cost = 0
            marshal_cost = RPC_HEADER_DECODE_INSTRUCTIONS
        yield ops.Exec(unmarshal_cost)
        yield ops.Exec(handler_cost)
        yield ops.Exec(marshal_cost)
        response = RpcMessage.response(
            message.header.service_id,
            message.header.method_id,
            message.header.request_id,
            result_payload,
        )
        yield ops.SendDatagram(
            socket,
            dst_ip=datagram.src_ip,
            dst_port=datagram.src_port,
            payload=response.pack(),
            meta=dict(datagram.meta),
        )
        if span:
            span.close(request_id=message.header.request_id)
        served += 1
    return served


def bypass_worker(
    nic,
    queue,
    netctx: UserNetContext,
    registry: ServiceRegistry,
    tracer: Optional[Tracer] = None,
    max_requests: Optional[int] = None,
):
    """Thread body: the kernel-bypass (PMD) RPC server loop.

    Pin the thread running this body to a dedicated core; it never
    blocks, so anything sharing the core starves — which is exactly the
    deployment model (and limitation) of bypass stacks.
    """
    multi_queue = isinstance(queue, (list, tuple))
    served = 0
    while max_requests is None or served < max_requests:
        if multi_queue:
            frame = yield nic.poll_many_op(queue)
        else:
            frame = yield nic.poll_op(queue)
        span = tracer.span("rxstep", "app", stack="bypass") if tracer else None
        yield ops.Exec(USER_PARSE_INSTRUCTIONS)
        try:
            parsed = parse_udp_frame(frame)
            message = RpcMessage.unpack(parsed.payload)
        except (HeaderError, RpcError):
            continue
        if message.header.rpc_type is not RpcType.REQUEST:
            continue
        yield ops.Exec(RPC_HEADER_DECODE_INSTRUCTIONS)
        try:
            (_method, _args, result_payload, unmarshal_cost, handler_cost,
             marshal_cost) = _execute_rpc(registry, message)
        except (MarshalError, ServiceError) as exc:
            result_payload = marshal_args(["__rpc_error__", type(exc).__name__])
            unmarshal_cost = handler_cost = 0
            marshal_cost = RPC_HEADER_DECODE_INSTRUCTIONS
        yield ops.Exec(unmarshal_cost)
        yield ops.Exec(handler_cost)
        yield ops.Exec(marshal_cost)
        response = RpcMessage.response(
            message.header.service_id,
            message.header.method_id,
            message.header.request_id,
            result_payload,
        )
        out = netctx.build_frame(
            src_port=parsed.udp.dst_port,
            dst_ip=parsed.ip.src,
            dst_port=parsed.udp.src_port,
            payload=response.pack(),
            meta=frame.copy_meta(),
        )

        def _tx(core, thread, out=out):
            yield from nic.transmit(out, core)
            return None

        yield ops.Call(_tx)
        if span:
            span.close(request_id=message.header.request_id)
        served += 1
    return served
