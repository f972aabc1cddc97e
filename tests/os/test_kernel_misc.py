"""Remaining kernel/client coverage: unknown ops, introspection,
cross-core stealing, and client-side bookkeeping."""

import pytest

from repro.experiments import build_linux_testbed
from repro.hw import ENZIAN, Machine
from repro.net.packet import Frame, build_udp_frame
from repro.os import Kernel, KernelError, ops
from repro.rpc.message import RpcMessage
from repro.sim import MS


def test_unknown_thread_op_rejected():
    machine = Machine(ENZIAN)
    kernel = Kernel(machine)
    kernel.start()
    process = kernel.spawn_process("app")

    class Bogus(ops.ThreadOp):
        pass

    def body():
        yield Bogus()

    kernel.spawn_thread(process, body())
    with pytest.raises(KernelError):
        machine.run()


def test_current_thread_introspection():
    machine = Machine(ENZIAN)
    kernel = Kernel(machine)
    kernel.start()
    process = kernel.spawn_process("app")
    observed = []

    def body():
        yield ops.Exec(10)
        observed.append(kernel.current_thread(0))
        yield ops.Exec(10)

    thread = kernel.spawn_thread(process, body(), pinned_core=0)
    machine.run()
    assert observed == [thread]
    assert kernel.current_thread(0) is None  # parked after exit


def test_work_stealing_spreads_unpinned_backlog():
    machine = Machine(ENZIAN)
    kernel = Kernel(machine, steal=True)
    kernel.start()
    process = kernel.spawn_process("app")
    cores_used = set()

    def body(tag):
        yield ops.ExecNs(200_000)
        cores_used.add(tag)

    # Pile several unpinned threads up; idle cores should steal them.
    for index in range(6):
        kernel.spawn_thread(process, body(index))
    machine.run()
    assert len(cores_used) == 6
    # Parallel execution: far faster than serial on one core.
    assert machine.sim.now < 6 * 200_000


def test_client_counts_unmatched_and_garbage():
    bed = build_linux_testbed()
    client = bed.clients[0]
    # Deliver a response nobody asked for, straight to the client port.
    bogus = RpcMessage.response(1, 1, request_id=999, payload=b"")
    frame = build_udp_frame(
        bed.server_mac, client.mac, bed.server_ip, client.ip,
        9000, 40_000, bogus.pack(),
    )
    switch_port = bed.switch.ports[bed.server_mac.value]

    def send():
        yield switch_port.send(frame)

    bed.sim.process(send())
    bed.machine.run(until=5 * MS)
    assert client.unmatched_responses == 1

    # And complete garbage increments parse_errors.
    garbage = Frame(b"\x00" * 40)

    def send_garbage():
        yield switch_port.send(
            build_udp_frame(bed.server_mac, client.mac, bed.server_ip,
                            client.ip, 1, 2, b"not-an-rpc")
        )

    bed.sim.process(send_garbage())
    bed.machine.run(until=10 * MS)
    assert client.parse_errors == 1


def test_client_outstanding_tracks_pending():
    bed = build_linux_testbed()
    client = bed.clients[0]
    client.send_request(bed.server_mac, bed.server_ip, 9999, 1, 1, [1])
    assert client.outstanding == 1  # nobody will ever answer port 9999
    bed.machine.run(until=5 * MS)
    assert client.outstanding == 1
