"""Failure-injection tests: corrupted frames, unknown methods,
malformed payloads, and backlog overflow must degrade gracefully —
counted and answered (or dropped), never crashing a worker or wedging
an end-point.
"""

import pytest

from repro.experiments import build_lauberhorn_testbed, build_linux_testbed
from repro.net.packet import Frame, build_udp_frame
from repro.nic.lauberhorn import EndpointKind
from repro.os.nicsched import lauberhorn_user_loop
from repro.rpc.message import RpcHeader, RpcMessage, RpcType
from repro.rpc.server import linux_udp_worker
from repro.sim import MS


def lauberhorn_echo(bed, port=9000, backlog_capacity=None):
    service = bed.registry.create_service("echo", udp_port=port)
    method = bed.registry.add_method(
        service, "echo", lambda args: list(args), cost_instructions=300
    )
    process = bed.kernel.spawn_process("echo")
    bed.nic.register_service(service, process.pid)
    kwargs = {}
    if backlog_capacity is not None:
        kwargs["backlog_capacity"] = backlog_capacity
    ep = bed.nic.create_endpoint(EndpointKind.USER, service=service, **kwargs)
    bed.kernel.spawn_thread(
        process, lauberhorn_user_loop(bed.nic, ep, bed.registry),
        pinned_core=0,
    )
    return service, method, ep


def raw_send(bed, payload, port=9000):
    client = bed.clients[0]
    frame = build_udp_frame(
        client.mac, bed.server_mac, client.ip, bed.server_ip,
        40_000, port, payload, born_ns=bed.sim.now,
    )
    client.port.send(frame)


def test_garbage_frame_dropped_not_fatal():
    bed = build_lauberhorn_testbed()
    service, method, _ep = lauberhorn_echo(bed)
    raw_send(bed, b"\xde\xad\xbe\xef" * 4)  # not an RPC message
    bed.machine.run(until=5 * MS)
    assert bed.nic.stats.rx_dropped == 1
    # The end-point still serves real traffic afterwards.
    client = bed.clients[0]
    results = []

    def driver():
        result = yield from client.call(args=[1], **bed.call_args(service, method))
        results.append(result)

    bed.sim.process(driver())
    bed.machine.run(until=20 * MS)
    assert results and results[0].results == [1]


def test_unknown_method_gets_error_response():
    bed = build_lauberhorn_testbed()
    service, _method, _ep = lauberhorn_echo(bed)
    from repro.rpc.marshal import marshal_args

    message = RpcMessage.request(service.service_id, 99, 7, marshal_args([1]))
    raw_send(bed, message.pack())
    bed.machine.run(until=20 * MS)
    # The worker answered (with an error marker) instead of dying.
    assert bed.nic.lstats.responses_sent == 1
    client = bed.clients[0]
    assert client.parse_errors == 0


def test_malformed_args_payload_answered_with_error():
    bed = build_lauberhorn_testbed()
    service, method, ep = lauberhorn_echo(bed)
    message = RpcMessage.request(
        service.service_id, method.method_id, 8, b"\xff\xff\xff"
    )
    raw_send(bed, message.pack())
    bed.machine.run(until=20 * MS)
    assert bed.nic.lstats.responses_sent == 1
    assert ep.stats.completed == 1
    # And the loop still works for well-formed traffic.
    client = bed.clients[0]
    done = []

    def driver():
        result = yield from client.call(args=["ok"], **bed.call_args(service, method))
        done.append(result.results)

    bed.sim.process(driver())
    bed.machine.run(until=40 * MS)
    assert done == [["ok"]]


def test_linux_worker_survives_malformed_args():
    bed = build_linux_testbed()
    service = bed.registry.create_service("echo", udp_port=9000)
    method = bed.registry.add_method(service, "m", lambda args: list(args))
    socket = bed.netstack.bind(9000)
    process = bed.kernel.spawn_process("echo")
    bed.kernel.spawn_thread(process, linux_udp_worker(socket, bed.registry))
    message = RpcMessage.request(service.service_id, method.method_id, 3, b"\x01\x99")
    raw_send(bed, message.pack())
    bed.machine.run(until=20 * MS)
    # Error response went back out through the kernel TX path.
    assert bed.nic.stats.tx_frames == 1
    client = bed.clients[0]
    done = []

    def driver():
        result = yield from client.call(args=[5], **bed.call_args(service, method))
        done.append(result.results)

    bed.sim.process(driver())
    bed.machine.run(until=40 * MS)
    assert done == [[5]]


def test_endpoint_backlog_overflow_spills_to_kernel_queue():
    """When an end-point's backlog fills while the worker is stuck in a
    long handler, further requests spill to the global queue (and the
    load stats record the pressure) instead of being lost silently."""
    bed = build_lauberhorn_testbed()
    service = bed.registry.create_service("slow", udp_port=9000)
    method = bed.registry.add_method(
        service, "m", lambda args: list(args), cost_instructions=5_000_000
    )
    process = bed.kernel.spawn_process("slow")
    bed.nic.register_service(service, process.pid)
    ep = bed.nic.create_endpoint(
        EndpointKind.USER, service=service, backlog_capacity=2
    )
    bed.kernel.spawn_thread(
        process, lauberhorn_user_loop(bed.nic, ep, bed.registry),
        pinned_core=0,
    )
    client = bed.clients[0]

    def driver():
        yield bed.sim.timeout(10_000)
        for i in range(6):
            client.send_request(
                bed.server_mac, bed.server_ip, 9000,
                service.service_id, method.method_id, [i],
            )

    bed.sim.process(driver())
    bed.machine.run(until=3 * MS)
    # 1 delivered (in the slow handler), 2 in the endpoint backlog, the
    # rest spilled to the global queue.
    assert len(ep.backlog) == 2
    assert len(bed.nic.backlog) == 3
    assert bed.nic.lstats.queued_global == 3
    load = bed.nic.load.service(service.service_id)
    assert load.backlog_now == 5


def test_truncated_rpc_header_dropped():
    bed = build_lauberhorn_testbed()
    lauberhorn_echo(bed)
    raw_send(bed, RpcHeader(RpcType.REQUEST, 1, 1, 1, 0).pack()[:10])
    bed.machine.run(until=5 * MS)
    assert bed.nic.stats.rx_dropped == 1


def test_request_to_unregistered_port_counted():
    bed = build_lauberhorn_testbed()
    lauberhorn_echo(bed, port=9000)
    message = RpcMessage.request(1, 1, 1, b"")
    raw_send(bed, message.pack(), port=9999)
    bed.machine.run(until=5 * MS)
    assert bed.nic.lstats.dropped_no_service == 1
