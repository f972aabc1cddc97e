"""End-to-end tests of the Lauberhorn fast path and kernel dispatch.

These exercise the Figure 4 protocol against the coherence fabric:
blocked loads, delivery-by-fill, completion via the alternate CONTROL
line, fetch-exclusive response extraction, Tryagain, Retire, promotion,
and the DMA fallback for large messages.
"""

import pytest

from repro.experiments import (
    build_bypass_testbed,
    build_lauberhorn_testbed,
    build_linux_testbed,
)
from repro.nic.lauberhorn import EndpointKind
from repro.os.nicsched import NicScheduler, lauberhorn_user_loop
from repro.rpc.server import bypass_worker, linux_udp_worker
from repro.sim import MS, US


def setup_service(bed, name="echo", port=9000, handler_cost=500, user_loop=True,
                  pinned_core=0, max_requests=None):
    service = bed.registry.create_service(name, udp_port=port)
    method = bed.registry.add_method(
        service, "echo", lambda args: list(args), cost_instructions=handler_cost
    )
    process = bed.kernel.spawn_process(f"{name}-server")
    process.service = service
    bed.nic.register_service(service, process.pid)
    endpoint = bed.nic.create_endpoint(EndpointKind.USER, service=service)
    thread = None
    if user_loop:
        thread = bed.kernel.spawn_thread(
            process,
            lauberhorn_user_loop(
                bed.nic, endpoint, bed.registry, max_requests=max_requests
            ),
            name=f"{name}-lbloop",
            pinned_core=pinned_core,
        )
    return service, method, endpoint, process, thread


def test_single_rpc_fast_path():
    bed = build_lauberhorn_testbed()
    service, method, ep, _proc, _t = setup_service(bed)
    client = bed.clients[0]
    results = []

    def driver():
        yield bed.sim.timeout(10_000)  # let the loop arm first
        result = yield from client.call(
            args=[11, "ping"], **bed.call_args(service, method)
        )
        results.append(result)

    bed.sim.process(driver())
    bed.machine.run(until=20 * MS)
    assert len(results) == 1
    assert results[0].results == [11, "ping"]
    assert bed.nic.lstats.delivered_fast == 1
    assert bed.nic.lstats.responses_sent == 1


def test_fast_path_rtt_beats_bypass_and_linux():
    """The headline claim: Lauberhorn < bypass < Linux for small RPCs."""

    def run_lauberhorn():
        bed = build_lauberhorn_testbed()
        service, method, *_ = setup_service(bed)
        return _measure(bed, service, method, n=10)

    def run_bypass():
        bed = build_bypass_testbed()
        service = bed.registry.create_service("echo", udp_port=9000)
        method = bed.registry.add_method(
            service, "echo", lambda args: list(args), cost_instructions=500
        )
        process = bed.kernel.spawn_process("echo-server")
        bed.kernel.spawn_thread(
            process,
            bypass_worker(bed.nic, bed.nic.queues[0], bed.user_netctx, bed.registry),
            pinned_core=0,
        )
        bed.nic.steer_port(9000, 0)
        return _measure(bed, service, method, n=10)

    def run_linux():
        bed = build_linux_testbed()
        service = bed.registry.create_service("echo", udp_port=9000)
        method = bed.registry.add_method(
            service, "echo", lambda args: list(args), cost_instructions=500
        )
        socket = bed.netstack.bind(9000)
        process = bed.kernel.spawn_process("echo-server")
        bed.kernel.spawn_thread(process, linux_udp_worker(socket, bed.registry))
        return _measure(bed, service, method, n=10)

    def _measure(bed, service, method, n):
        client = bed.clients[0]
        rtts = []

        def driver():
            yield bed.sim.timeout(10_000)
            for i in range(n):
                result = yield from client.call(
                    args=[i], **bed.call_args(service, method)
                )
                rtts.append(result.rtt_ns)

        bed.sim.process(driver())
        bed.machine.run(until=500 * MS)
        assert len(rtts) == n
        return sum(rtts[1:]) / (n - 1)

    lauberhorn_rtt = run_lauberhorn()
    bypass_rtt = run_bypass()
    linux_rtt = run_linux()
    assert lauberhorn_rtt < bypass_rtt < linux_rtt


def test_pipelined_requests_alternate_control_lines():
    bed = build_lauberhorn_testbed()
    service, method, ep, *_ = setup_service(bed)
    client = bed.clients[0]
    done = []

    def driver():
        yield bed.sim.timeout(10_000)
        for i in range(8):
            result = yield from client.call(
                args=[i], **bed.call_args(service, method)
            )
            done.append(result.results[0])

    bed.sim.process(driver())
    bed.machine.run(until=100 * MS)
    assert done == list(range(8))
    assert ep.stats.delivered == 8
    assert ep.stats.completed == 8
    # The fabric saw recalls (fetch-exclusive response extraction).
    assert bed.machine.fabric.stats.recalls >= 8


def test_blocked_load_is_stall_not_busy():
    """The energy story: an idle Lauberhorn worker stalls, it does not
    spin.  (Compare test_spinning_burns_cpu_while_idle for bypass.)"""
    bed = build_lauberhorn_testbed()
    setup_service(bed)
    bed.machine.run(until=10 * MS)
    core0 = bed.machine.cores[0]
    assert core0.stall_ns_now() > 9 * MS
    assert core0.counters.busy_ns < 0.5 * MS


def test_tryagain_fires_at_timeout():
    bed = build_lauberhorn_testbed(tryagain_timeout_ns=2 * MS)
    service, method, ep, *_ = setup_service(bed)
    bed.machine.run(until=7 * MS)
    # ~3 tryagains in 7ms at a 2ms timeout: the loop re-arms each time.
    assert 2 <= ep.stats.tryagains <= 4
    assert bed.nic.lstats.tryagains == ep.stats.tryagains


def test_request_after_tryagain_still_served():
    bed = build_lauberhorn_testbed(tryagain_timeout_ns=1 * MS)
    service, method, ep, *_ = setup_service(bed)
    client = bed.clients[0]
    results = []

    def driver():
        yield bed.sim.timeout(5 * MS)  # several tryagain cycles pass
        result = yield from client.call(args=["late"], **bed.call_args(service, method))
        results.append(result)

    bed.sim.process(driver())
    bed.machine.run(until=20 * MS)
    assert results and results[0].results == ["late"]


def test_kernel_dispatch_when_no_user_loop():
    bed = build_lauberhorn_testbed()
    service, method, ep, process, _ = setup_service(bed, user_loop=False)
    NicScheduler(bed.kernel, bed.nic, bed.registry, n_dispatchers=1, promote=False)
    client = bed.clients[0]
    results = []

    def driver():
        yield bed.sim.timeout(10_000)
        result = yield from client.call(args=[5], **bed.call_args(service, method))
        results.append(result)

    bed.sim.process(driver())
    bed.machine.run(until=50 * MS)
    assert results and results[0].results == [5]
    assert bed.nic.lstats.delivered_kernel == 1
    assert bed.nic.lstats.delivered_fast == 0


def test_promotion_moves_service_to_fast_path():
    bed = build_lauberhorn_testbed()
    # Service with a user endpoint but no thread arming it: the kernel
    # dispatcher should serve request 1, then promote into the user loop.
    service, method, ep, process, _ = setup_service(bed, user_loop=False)
    NicScheduler(bed.kernel, bed.nic, bed.registry, n_dispatchers=1, promote=True)
    client = bed.clients[0]
    results = []

    def driver():
        yield bed.sim.timeout(10_000)
        for i in range(5):
            result = yield from client.call(args=[i], **bed.call_args(service, method))
            results.append(result.results[0])

    bed.sim.process(driver())
    bed.machine.run(until=100 * MS)
    assert results == [0, 1, 2, 3, 4]
    assert bed.nic.lstats.delivered_kernel >= 1
    # After promotion, later requests ride the fast path.
    assert bed.nic.lstats.delivered_fast >= 3


def test_backlog_served_on_next_load():
    """A request arriving while the worker is mid-handler queues on the
    end-point and is delivered by the *next* CONTROL load, with no
    kernel involvement."""
    bed = build_lauberhorn_testbed()
    service, method, ep, *_ = setup_service(bed, handler_cost=200_000)  # slow
    client = bed.clients[0]
    done = []

    def driver():
        yield bed.sim.timeout(10_000)
        events = [
            client.send_request(
                bed.server_mac, bed.server_ip, 9000,
                service.service_id, method.method_id, [i],
            )
            for i in range(4)
        ]
        for event in events:
            result = yield event
            done.append(result.results[0])

    bed.sim.process(driver())
    bed.machine.run(until=100 * MS)
    assert sorted(done) == [0, 1, 2, 3]
    assert bed.nic.lstats.queued_endpoint >= 1
    assert bed.kernel.stats.syscalls == 0  # never touched the kernel


def test_dma_fallback_for_large_payload():
    bed = build_lauberhorn_testbed(dma_threshold_bytes=1024)
    service, method, ep, *_ = setup_service(bed)
    client = bed.clients[0]
    big = b"x" * 3000
    results = []

    def driver():
        yield bed.sim.timeout(10_000)
        result = yield from client.call(args=[big], **bed.call_args(service, method))
        results.append(result)

    bed.sim.process(driver())
    bed.machine.run(until=100 * MS)
    assert results and results[0].results == [big]
    # An echo above the threshold takes the DMA fallback both ways:
    # request delivery and response staging.
    assert bed.nic.lstats.dma_fallbacks == 2
    assert bed.machine.link.stats.dma_writes >= 1
    assert bed.machine.link.stats.dma_reads >= 1


def test_aux_lines_for_medium_payload():
    bed = build_lauberhorn_testbed()  # threshold 4096
    service, method, ep, *_ = setup_service(bed)
    client = bed.clients[0]
    medium = b"y" * 600  # > 80 B inline, < 4 KiB: AUX lines
    results = []

    def driver():
        yield bed.sim.timeout(10_000)
        result = yield from client.call(args=[medium], **bed.call_args(service, method))
        results.append(result)

    bed.sim.process(driver())
    bed.machine.run(until=100 * MS)
    assert results and results[0].results == [medium]
    assert bed.nic.lstats.dma_fallbacks == 0


def test_retire_reclaims_dispatcher():
    bed = build_lauberhorn_testbed()
    sched = NicScheduler(bed.kernel, bed.nic, bed.registry, n_dispatchers=1)
    handle = sched.dispatchers[0]
    bed.machine.run(until=1 * MS)  # dispatcher parks
    assert handle.endpoint.armed
    assert sched.retire_dispatcher()
    bed.machine.run(until=2 * MS)
    assert handle.thread.exit_event.triggered
    assert bed.nic.lstats.retires == 1


def test_preempt_on_backlog_reclaims_idle_user_loop():
    """Dynamic adaptation: service B's request arrives while only
    service A's user loop is armed; the NIC tryagains A's loop so the
    kernel can serve B."""
    bed = build_lauberhorn_testbed()
    svc_a, m_a, ep_a, *_ = setup_service(bed, name="hot", port=9000, pinned_core=0)
    svc_b = bed.registry.create_service("cold", udp_port=9001)
    m_b = bed.registry.add_method(svc_b, "work", lambda args: list(args))
    proc_b = bed.kernel.spawn_process("cold-server")
    bed.nic.register_service(svc_b, proc_b.pid)
    NicScheduler(bed.kernel, bed.nic, bed.registry, n_dispatchers=0)
    # No dispatcher is parked; B's request must preempt A's armed loop
    # ... but with no dispatcher nothing serves B.  Add one busy-able
    # dispatcher pinned to core 0?  No: the point is the tryagain path.
    # Spawn a dispatcher that is currently *inside* A's promoted loop is
    # complex; here we verify the NIC-side preemption trigger fires.
    client = bed.clients[0]

    def driver():
        yield bed.sim.timeout(10_000)
        client.send_request(
            bed.server_mac, bed.server_ip, 9001,
            svc_b.service_id, m_b.method_id, ["x"],
        )

    bed.sim.process(driver())
    bed.machine.run(until=5 * MS)
    assert bed.nic.lstats.preempt_requests == 1
    assert bed.nic.lstats.tryagains >= 1
    assert len(bed.nic.backlog) == 1


def test_sched_state_pushed_on_context_switch():
    bed = build_lauberhorn_testbed()
    setup_service(bed)
    bed.machine.run(until=1 * MS)
    assert bed.nic.sched.updates >= 1
    # The user-loop process shows as running on core 0.
    pid = bed.kernel.processes[-1].pid
    assert bed.nic.sched.is_running(pid)
