"""End-to-end tests of the conventional kernel-stack RPC path.

Client -> switch -> DMA NIC -> IRQ -> softirq -> socket -> worker
thread -> handler -> sendmsg -> DMA TX -> switch -> client.
"""

import pytest

from repro.experiments import build_linux_testbed
from repro.rpc.server import linux_udp_worker
from repro.sim import MS, US
from repro.workloads import client as client_module


def setup_echo(bed, n_workers=1, port=9000, handler_cost=500):
    service = bed.registry.create_service("echo", udp_port=port)
    method = bed.registry.add_method(
        service, "echo", lambda args: list(args), cost_instructions=handler_cost
    )
    socket = bed.netstack.bind(port)
    process = bed.kernel.spawn_process("echo-server")
    process.service = service
    for i in range(n_workers):
        bed.kernel.spawn_thread(
            process,
            linux_udp_worker(socket, bed.registry),
            name=f"echo-w{i}",
        )
    return service, method, socket


def test_single_rpc_roundtrip():
    bed = build_linux_testbed()
    service, method, _sock = setup_echo(bed)
    client = bed.clients[0]
    results = []

    def driver():
        result = yield from client.call(
            args=[42, "ping"], **bed.call_args(service, method)
        )
        results.append(result)

    bed.sim.process(driver())
    bed.machine.run(until=50 * MS)
    assert len(results) == 1
    assert results[0].results == [42, "ping"]
    # RTT through kernel stack: several microseconds at least, < 1ms idle.
    assert 2 * US < results[0].rtt_ns < 1 * MS


def test_sequential_rpcs_all_complete():
    bed = build_linux_testbed()
    service, method, sock = setup_echo(bed)
    client = bed.clients[0]
    rtts = []

    def driver():
        for i in range(20):
            result = yield from client.call(
                args=[i], **bed.call_args(service, method)
            )
            rtts.append(result.rtt_ns)
            assert result.results == [i]

    bed.sim.process(driver())
    bed.machine.run(until=200 * MS)
    assert len(rtts) == 20
    assert sock.stats.enqueued + sock.stats.delivered >= 20


def test_concurrent_rpcs_with_multiple_workers():
    bed = build_linux_testbed(n_clients=4)
    service, method, _sock = setup_echo(bed, n_workers=4)
    done = []

    def driver(client, n):
        for i in range(n):
            result = yield from client.call(
                args=[i], **bed.call_args(service, method)
            )
            done.append(result)

    for client in bed.clients:
        bed.sim.process(driver(client, 10))
    bed.machine.run(until=500 * MS)
    assert len(done) == 40


def test_interrupts_and_softirq_observed():
    bed = build_linux_testbed()
    service, method, _sock = setup_echo(bed)
    client = bed.clients[0]

    def driver():
        yield from client.call(args=[1], **bed.call_args(service, method))

    bed.sim.process(driver())
    bed.machine.run(until=50 * MS)
    assert bed.kernel.stats.irqs >= 1
    assert bed.machine.link.stats.dma_writes >= 2  # payload + descriptor
    assert bed.machine.link.stats.interrupts >= 1


def test_unknown_port_counted_and_dropped():
    bed = build_linux_testbed()
    setup_echo(bed, port=9000)
    client = bed.clients[0]
    # Send to a port nobody bound.
    client.send_request(
        bed.server_mac, bed.server_ip, 9999, service_id=1, method_id=1, args=[1]
    )
    bed.machine.run(until=10 * MS)
    assert bed.netstack.rx_no_socket == 1
    assert client.outstanding == 1  # never answered


def test_two_services_demultiplexed():
    bed = build_linux_testbed()
    s1, m1, _ = setup_echo(bed, port=9000)
    s2 = bed.registry.create_service("upper", udp_port=9001)
    m2 = bed.registry.add_method(
        s2, "upper", lambda args: [str(args[0]).upper()], cost_instructions=300
    )
    sock2 = bed.netstack.bind(9001)
    proc2 = bed.kernel.spawn_process("upper-server")
    bed.kernel.spawn_thread(proc2, linux_udp_worker(sock2, bed.registry))
    client = bed.clients[0]
    out = {}

    def driver():
        r1 = yield from client.call(args=["abc"], **bed.call_args(s1, m1))
        r2 = yield from client.call(args=["abc"], **bed.call_args(s2, m2))
        out["echo"] = r1.results
        out["upper"] = r2.results

    bed.sim.process(driver())
    bed.machine.run(until=100 * MS)
    assert out == {"echo": ["abc"], "upper": ["ABC"]}


def test_worker_blocks_idle_between_requests():
    bed = build_linux_testbed()
    service, method, _sock = setup_echo(bed)
    client = bed.clients[0]

    def driver():
        yield bed.sim.timeout(5 * MS)
        yield from client.call(args=[1], **bed.call_args(service, method))

    bed.sim.process(driver())
    bed.machine.run(until=20 * MS)
    # During the 5ms idle gap the worker is blocked, not spinning:
    # total busy time must be far below one core-5ms.
    assert bed.machine.total_busy_ns() < 1 * MS


def test_malformed_str_argument_gets_an_error_reply(monkeypatch):
    """A request whose one str argument is not UTF-8 is answered with
    an error marker, and the worker goes on to serve the next one."""
    bed = build_linux_testbed()
    service, method, _sock = setup_echo(bed)
    client = bed.clients[0]
    # one argument: a str of 2 bytes, neither of which starts a UTF-8 char
    malformed = bytes.fromhex("0103" "00000002" "fffe")
    encode = client_module.marshal_args
    monkeypatch.setattr(
        client_module, "marshal_args",
        lambda args: malformed if args == ["malformed"] else encode(args))
    results = []

    def driver():
        for args in (["malformed"], [7, "next"]):
            result = yield from client.call(
                args=args, **bed.call_args(service, method))
            results.append(result.results)

    bed.sim.process(driver())
    bed.machine.run(until=50 * MS)
    assert results == [["__rpc_error__", "MarshalError"], [7, "next"]]


def test_deeply_nested_argument_gets_an_error_reply(monkeypatch):
    """A request whose argument nests lists 1,200 deep, far past
    ``MAX_NESTING``, is answered with an error marker rather than
    crashing the run, and the worker goes on to serve the next one."""
    bed = build_linux_testbed()
    service, method, _sock = setup_echo(bed)
    client = bed.clients[0]
    # one argument: a None inside 1,200 one-element lists (3,602 B)
    deep = b"\x01" + b"\x05\x00\x01" * 1200 + b"\x06"
    encode = client_module.marshal_args
    monkeypatch.setattr(
        client_module, "marshal_args",
        lambda args: deep if args == ["deep"] else encode(args))
    results = []

    def driver():
        for args in (["deep"], [7, "next"]):
            result = yield from client.call(
                args=args, **bed.call_args(service, method))
            results.append(result.results)

    bed.sim.process(driver())
    bed.machine.run(until=50 * MS)
    assert results == [["__rpc_error__", "MarshalError"], [7, "next"]]
