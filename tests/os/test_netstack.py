"""Unit tests for the kernel UDP stack."""

import pytest

from repro.experiments import build_linux_testbed
from repro.net.packet import Frame, build_udp_frame
from repro.os import ops
from repro.os.kernel import KernelError
from repro.sim import MS


def test_bind_rejects_duplicate_port():
    bed = build_linux_testbed()
    bed.netstack.bind(9000)
    with pytest.raises(ValueError):
        bed.netstack.bind(9000)


def test_send_without_neighbor_entry_raises():
    bed = build_linux_testbed()
    socket = bed.netstack.bind(9000)
    process = bed.kernel.spawn_process("app")

    def body():
        yield ops.SendDatagram(socket, dst_ip=0xDEAD, dst_port=1, payload=b"x")

    bed.kernel.spawn_thread(process, body())
    with pytest.raises(KernelError):
        bed.machine.run(until=10 * MS)


def test_socket_queue_capacity_drops():
    bed = build_linux_testbed()
    socket = bed.netstack.bind(9000, capacity=3)
    client = bed.clients[0]
    for i in range(8):
        client.send_request(bed.server_mac, bed.server_ip, 9000, 1, 1, [i])
    bed.machine.run(until=10 * MS)
    assert len(socket.rx_queue) == 3
    assert socket.stats.dropped == 5


def test_recv_returns_queued_before_blocking():
    bed = build_linux_testbed()
    socket = bed.netstack.bind(9000)
    client = bed.clients[0]
    client.send_request(bed.server_mac, bed.server_ip, 9000, 1, 1, [1])
    bed.machine.run(until=5 * MS)
    assert len(socket.rx_queue) == 1
    got = []
    process = bed.kernel.spawn_process("app")

    def body():
        datagram = yield ops.RecvFromSocket(socket)
        got.append(datagram)

    bed.kernel.spawn_thread(process, body())
    bed.machine.run(until=10 * MS)
    assert len(got) == 1
    assert got[0].src_ip == client.ip
    assert socket.stats.delivered == 1


def test_multiple_waiters_fifo():
    bed = build_linux_testbed()
    socket = bed.netstack.bind(9000)
    order = []
    process = bed.kernel.spawn_process("app")

    def body(tag):
        datagram = yield ops.RecvFromSocket(socket)
        order.append(tag)

    bed.kernel.spawn_thread(process, body("first"))
    bed.machine.run(until=1 * MS)
    bed.kernel.spawn_thread(process, body("second"))
    bed.machine.run(until=2 * MS)
    client = bed.clients[0]
    client.send_request(bed.server_mac, bed.server_ip, 9000, 1, 1, [1])
    client.send_request(bed.server_mac, bed.server_ip, 9000, 1, 1, [2])
    bed.machine.run(until=10 * MS)
    assert order == ["first", "second"]


def test_parse_error_counted():
    bed = build_linux_testbed()
    bed.netstack.bind(9000)
    client = bed.clients[0]
    good = build_udp_frame(
        client.mac, bed.server_mac, client.ip, bed.server_ip, 1, 9000, b"x"
    )
    corrupted = bytearray(good.data)
    corrupted[20] ^= 0xFF  # break the IP header checksum
    client.port.send(Frame(bytes(corrupted)))
    bed.machine.run(until=10 * MS)
    assert bed.netstack.rx_parse_errors == 1


def test_wakeup_charges_pending_instructions():
    """A thread woken from recvmsg pays the copy-out on its next slice."""
    bed = build_linux_testbed()
    socket = bed.netstack.bind(9000)
    process = bed.kernel.spawn_process("app")
    state = {}

    def body():
        datagram = yield ops.RecvFromSocket(socket)
        state["datagram"] = datagram

    thread = bed.kernel.spawn_thread(process, body())
    bed.machine.run(until=1 * MS)
    assert thread.pending_charge_instructions > 0  # armed while blocked
    client = bed.clients[0]
    client.send_request(bed.server_mac, bed.server_ip, 9000, 1, 1, [1])
    bed.machine.run(until=10 * MS)
    assert "datagram" in state
    assert thread.pending_charge_instructions == 0  # charged on resume
