"""E9 — Section 6: nested RPCs with continuation end-points.

"Nested RPCs will benefit from the ability to rapidly create a
dedicated end-point for an RPC reply.  Fine-grained interaction with
the NIC should make creating this continuation a cheap operation with
significant performance benefits."

Scenario: service A's handler must call service B (co-located behind
the same NIC, reached through the switch) before answering its client.

* **Lauberhorn**: A's worker acquires a continuation end-point from a
  pre-allocated pool, PIO-transmits the nested request, and stalls on
  the continuation's CONTROL line; B's user loop serves the request;
  the reply is delivered straight into A's blocked load.
* **Linux**: A's worker does the same dance over sockets: sendmsg to
  B, blocking recvmsg on a reply socket, with the full kernel stack on
  both directions of the inner call.

Reported: client RTT of the outer (nested) call.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics.histogram import LatencyRecorder
from ..nic.lauberhorn import EndpointKind, wire
from ..os import ops
from ..os.nicsched import (
    _gather_payload,
    lauberhorn_nested_call,
    lauberhorn_user_loop,
)
from ..rpc.marshal import marshal_args, unmarshal_args
from ..rpc.message import RpcMessage, RpcType
from ..rpc.server import linux_udp_worker
from ..sim.clock import MS
from .grid import Grid, printed
from .report import fmt_ns, print_table
from .testbed import build_lauberhorn_testbed, build_linux_testbed

__all__ = ["GRID", "NestedResult", "render_nested_rpc", "run_nested_rpc"]

A_PORT, B_PORT = 9000, 9001
HANDLER_COST = 300


@dataclass(frozen=True)
class NestedResult:
    stack: str
    p50_rtt_ns: float
    mean_rtt_ns: float


def _lauberhorn_nested_worker(bed, ep_a, svc_b, m_b):
    """Service A's worker: Figure 4 loop + nested call to B."""
    nic, registry = bed.nic, bed.registry
    parity = 0
    while True:
        line_data = yield ops.LoadLine(ep_a.ctrl_addrs[parity])
        line = wire.decode_request_line(line_data)
        if line.is_retire:
            return
        if line.is_tryagain:
            yield ops.EvictLine(ep_a.ctrl_addrs[parity])
            continue
        payload = yield from _gather_payload(nic, ep_a, line)
        args = unmarshal_args(payload) if payload else []
        yield ops.Exec(HANDLER_COST)
        inner = yield from lauberhorn_nested_call(
            nic, B_PORT, svc_b.service_id, m_b.method_id, args
        )
        resp_payload = marshal_args(list(inner) + ["via-A"])
        ctrl, aux = wire.encode_response(ep_a.line_bytes, line.tag, resp_payload)
        for index, chunk in enumerate(aux):
            yield ops.StoreLine(ep_a.resp_aux_addrs[index], chunk)
        yield ops.StoreLine(ep_a.ctrl_addrs[parity], ctrl)
        parity ^= 1


def _linux_nested_worker(bed, socket_a, reply_socket, svc_b, m_b):
    """Service A's worker over sockets, calling B through the kernel."""
    next_inner_id = [1]
    while True:
        datagram = yield ops.RecvFromSocket(socket_a)
        message = RpcMessage.unpack(datagram.payload)
        if message.header.rpc_type is not RpcType.REQUEST:
            continue
        args = unmarshal_args(message.payload) if message.payload else []
        yield ops.Exec(HANDLER_COST)
        inner_id = next_inner_id[0]
        next_inner_id[0] += 1
        inner_req = RpcMessage.request(
            svc_b.service_id, m_b.method_id, inner_id, marshal_args(args)
        )
        yield ops.SendDatagram(
            reply_socket, dst_ip=bed.server_ip, dst_port=B_PORT,
            payload=inner_req.pack(),
        )
        inner_datagram = yield ops.RecvFromSocket(reply_socket)
        inner_resp = RpcMessage.unpack(inner_datagram.payload)
        inner = unmarshal_args(inner_resp.payload) if inner_resp.payload else []
        outer = RpcMessage.response(
            message.header.service_id, message.header.method_id,
            message.header.request_id, marshal_args(list(inner) + ["via-A"]),
        )
        yield ops.SendDatagram(
            socket_a, dst_ip=datagram.src_ip, dst_port=datagram.src_port,
            payload=outer.pack(),
        )


def _measure(bed, service, method, n: int) -> LatencyRecorder:
    client = bed.clients[0]
    recorder = LatencyRecorder()

    def driver():
        yield bed.sim.timeout(10_000)
        for i in range(n + 1):
            result = yield from client.call(
                args=[i], **bed.call_args(service, method)
            )
            if i > 0:  # drop the cold first call
                recorder.record(result.rtt_ns)

    bed.sim.process(driver())
    bed.machine.run(until=4000 * MS)
    return recorder


def run_nested_rpc(n_requests: int = 15) -> list[NestedResult]:
    results = []

    # Lauberhorn.  Hand-rolled on both stacks: the frontend calls out
    # through continuation end-points (a reply socket on Linux), which
    # deploy_service does not wire.
    bed = build_lauberhorn_testbed()
    svc_a = bed.registry.create_service("frontend", udp_port=A_PORT)
    m_a = bed.registry.add_method(svc_a, "handle", lambda a: list(a))
    svc_b = bed.registry.create_service("backend", udp_port=B_PORT)
    m_b = bed.registry.add_method(
        svc_b, "lookup", lambda a: [f"b({a[0]})"], cost_instructions=HANDLER_COST
    )
    proc_a = bed.kernel.spawn_process("frontend")
    proc_b = bed.kernel.spawn_process("backend")
    bed.nic.register_service(svc_a, proc_a.pid)
    bed.nic.register_service(svc_b, proc_b.pid)
    bed.nic.create_continuation_pool(4)
    ep_a = bed.nic.create_endpoint(EndpointKind.USER, service=svc_a)
    ep_b = bed.nic.create_endpoint(EndpointKind.USER, service=svc_b)
    bed.kernel.spawn_thread(
        proc_a, _lauberhorn_nested_worker(bed, ep_a, svc_b, m_b),
        name="frontend", pinned_core=0,
    )
    bed.kernel.spawn_thread(
        proc_b, lauberhorn_user_loop(bed.nic, ep_b, bed.registry),
        name="backend", pinned_core=1,
    )
    summary = _measure(bed, svc_a, m_a, n_requests).summary()
    results.append(NestedResult("lauberhorn", summary.p50, summary.mean))

    # Linux.
    bed = build_linux_testbed()
    bed.netstack.add_neighbor(bed.server_ip, bed.server_mac)  # self-route
    svc_a = bed.registry.create_service("frontend", udp_port=A_PORT)
    m_a = bed.registry.add_method(svc_a, "handle", lambda a: list(a))
    svc_b = bed.registry.create_service("backend", udp_port=B_PORT)
    m_b = bed.registry.add_method(
        svc_b, "lookup", lambda a: [f"b({a[0]})"], cost_instructions=HANDLER_COST
    )
    socket_a = bed.netstack.bind(A_PORT)
    socket_b = bed.netstack.bind(B_PORT)
    reply_socket = bed.netstack.bind(52_000)
    proc_a = bed.kernel.spawn_process("frontend")
    proc_b = bed.kernel.spawn_process("backend")
    bed.kernel.spawn_thread(
        proc_a, _linux_nested_worker(bed, socket_a, reply_socket, svc_b, m_b),
        name="frontend",
    )
    bed.kernel.spawn_thread(
        proc_b, linux_udp_worker(socket_b, bed.registry), name="backend",
    )
    summary = _measure(bed, svc_a, m_a, n_requests).summary()
    results.append(NestedResult("linux", summary.p50, summary.mean))
    return results


def render_nested_rpc(results: list[NestedResult]) -> None:
    print_table(
        ["stack", "p50 nested RTT", "mean nested RTT"],
        [(r.stack, fmt_ns(r.p50_rtt_ns), fmt_ns(r.mean_rtt_ns))
         for r in results],
        title="Section 6 — nested RPC (A -> B) with continuation "
              "end-points vs sockets",
    )


GRID = Grid(
    name="e9", title="Section 6 — nested RPCs",
    points=(("main", "nested_rpc:run_nested_rpc", {}),),
    assemble=printed((NestedResult, render_nested_rpc)),
)
