"""The invariants themselves: clean systems pass, broken states fail."""

import pytest

from repro.check import InvariantViolation, install_checks, install_fleet_checks
from repro.experiments.four_stacks import STACKS, _build_stack
from repro.experiments.testbed import build_lauberhorn_testbed, build_linux_testbed
from repro.fleet import HostSpec, build_fleet
from repro.hw.coherence import LineState
from repro.net.topology import TopologySpec
from repro.tenancy import TenantTable


def _drive(bed, service, method, n=10, horizon=20_000_000.0):
    client = bed.clients[0]

    def driver():
        yield bed.sim.timeout(10_000)
        for i in range(n):
            client.send_request(
                bed.server_mac, bed.server_ip, service.udp_port,
                service.service_id, method.method_id, [i],
            )
            yield bed.sim.timeout(200_000)

    bed.sim.process(driver())
    bed.machine.run(until=horizon)


@pytest.mark.parametrize("stack", STACKS)
def test_healthy_stacks_pass_all_invariants(stack):
    bed, service, method = _build_stack(stack)
    reg = install_checks(bed)
    reg.start(20_000_000.0)
    _drive(bed, service, method)
    reg.assert_clean()
    assert reg.samples > 10


def _home_some_lines(bed, n_bytes=256):
    from repro.hw.coherence import MemoryHome

    fabric = bed.machine.fabric
    region = bed.machine.alloc.allocate(n_bytes, "test-lines")
    fabric.register_home(region, MemoryHome(bed.sim))
    return fabric


def test_mesi_scan_catches_double_owner():
    bed = build_lauberhorn_testbed()
    fabric = _home_some_lines(bed)
    reg = install_checks(bed)
    addr, line = next(iter(fabric._lines.items()))
    line.holders[0] = LineState.MODIFIED
    line.holders[1] = LineState.MODIFIED
    reg.check_now()
    assert any(v.name == "mesi:scan" and "multiple writers" in v.detail
               for v in reg.violations)


def _run(bed, gen):
    proc = bed.sim.process(gen)
    bed.sim.run(until=proc)


def test_mesi_wrap_catches_illegal_transition():
    bed = build_lauberhorn_testbed()
    fabric = _home_some_lines(bed)
    reg = install_checks(bed)
    addr = next(iter(fabric._lines))

    _run(bed, fabric.load(0, addr))   # I -> E (legal)
    _run(bed, fabric.load(1, addr))   # demotes: both SHARED (legal)
    assert not reg.violations
    # Forge S -> E behind the fabric's back; the next wrapped op on the
    # line observes the transition.
    fabric._lines[addr].holders[1] = LineState.EXCLUSIVE
    _run(bed, fabric.load(0, addr))   # hit for core 0, but the wrap validates
    assert any(
        v.name == "mesi:transition"
        and v.detail == (f"line {addr:#x}: core 1 made illegal "
                         "transition S->E during load")
        for v in reg.violations
    )


def test_mesi_wrap_catches_modified_to_exclusive():
    bed = build_lauberhorn_testbed()
    fabric = _home_some_lines(bed)
    reg = install_checks(bed)
    addr = next(iter(fabric._lines))

    _run(bed, fabric.store(0, addr, b"\x01"))   # I -> M (legal)
    assert not reg.violations
    # A sole EXCLUSIVE holder breaks no per-line rule, so only the
    # transition check can see this.
    fabric._lines[addr].holders[0] = LineState.EXCLUSIVE
    _run(bed, fabric.load(0, addr))              # hit; the wrap validates
    assert [(v.name, v.detail) for v in reg.violations] == [(
        "mesi:transition",
        f"line {addr:#x}: core 0 made illegal transition M->E during load",
    )]


def test_mesi_wrap_sees_posted_write_invalidations():
    bed = build_lauberhorn_testbed()
    fabric = _home_some_lines(bed)
    reg = install_checks(bed)
    addr = next(iter(fabric._lines))

    _run(bed, fabric.load(0, addr))
    _run(bed, fabric.load(1, addr))   # both SHARED
    _run(bed, fabric.posted_write(0, addr, b"\x01"))   # drops every holder
    _run(bed, fabric.load(1, addr))   # I -> E, legal
    assert fabric.holder_state(1, addr) is LineState.EXCLUSIVE
    assert reg.violations == []


def test_packet_conservation_catches_unaccounted_frames():
    bed = build_linux_testbed()
    reg = install_checks(bed)
    link = bed.switch.ports[bed.server_mac.value].ingress
    link.stats.delivered += 3  # frames from nowhere
    reg.finish()
    assert any(v.name == "packet-conservation" for v in reg.violations)
    with pytest.raises(InvariantViolation):
        reg.assert_clean()


def test_ring_check_catches_overflow():
    bed = build_linux_testbed()
    reg = install_checks(bed)
    queue = bed.nic.queues[0]
    queue.completed.extend([object()] * (queue.capacity + 1))
    reg.check_now()
    assert any(v.name == "ring" and "exceeds capacity" in v.detail
               for v in reg.violations)


def test_scheduler_check_catches_mispinned_thread():
    from repro.os import ops

    bed = build_linux_testbed()
    reg = install_checks(bed)

    def body():
        yield ops.Exec(100)

    thread = bed.kernel.spawn_thread(
        bed.kernel.spawn_process("p"), body(), pinned_core=1,
    )
    # Shove it onto the wrong core's queue behind the scheduler's back.
    bed.kernel.scheduler.remove(thread)
    bed.kernel.scheduler._queues[0].append(thread)
    reg.check_now()
    assert any(v.name == "scheduler" and "pinned" in v.detail
               for v in reg.violations)


def test_lauberhorn_accounting_catches_dropped_fill():
    bed = build_lauberhorn_testbed()
    service = bed.registry.create_service("echo", udp_port=9000)
    bed.registry.add_method(service, "m", lambda a: list(a),
                            cost_instructions=100)
    from repro.nic.lauberhorn import EndpointKind

    proc = bed.kernel.spawn_process("srv")
    bed.nic.register_service(service, proc.pid)
    ep = bed.nic.create_endpoint(EndpointKind.USER, service=service)
    reg = install_checks(bed)
    # Claim a CONTROL fill happened that was never answered or parked.
    ep.stats.ctrl_loads += 1
    bed.machine.run(until=1_000_000.0)
    reg.finish()
    assert any(v.name == "lauberhorn-accounting" for v in reg.violations)


def test_tryagain_ledger_mismatch_detected():
    bed = build_lauberhorn_testbed()
    reg = install_checks(bed)
    bed.nic.lstats.tryagains += 1  # nic-level counter desyncs
    reg.finish()
    assert any("tryagain ledger mismatch" in v.detail
               for v in reg.violations)


def _registered(reg):
    """(sampled, quiesce) check names, sorted: the registered set."""
    return (sorted(name for name, _ in reg._checks),
            sorted(name for name, _ in reg._quiesce))


#: the sets each installer registers; a fleet-only check reaching a
#: testbed (the flow-order tap parses every delivered frame) or a lost
#: per-host one shows here
_TESTBED_CHECKS = (
    ["clock", "lauberhorn-accounting", "mesi:scan", "packet-conservation",
     "ring", "scheduler", "tenant-budget", "tenant-conservation"],
    ["lauberhorn-accounting", "packet-conservation", "ring", "scheduler",
     "tenant-budget", "tenant-conservation", "tenant-fairness"],
)
_FLEET_CHECKS = (
    ["clock", "flow-order", "lauberhorn-accounting", "mesi:scan",
     "packet-conservation", "replica-ledger", "ring", "ring", "scheduler",
     "scheduler", "tenant-budget", "tenant-conservation"],
    ["fleet-conservation", "flow-order", "lauberhorn-accounting",
     "packet-conservation", "replica-ledger", "ring", "ring", "scheduler",
     "scheduler", "tenant-budget", "tenant-conservation", "tenant-fairness"],
)


def _attach_one_tenant(nic):
    table = TenantTable()
    table.create("a")
    nic.attach_tenants(table)


def test_tenanted_testbed_registers_the_single_host_set():
    bed = build_lauberhorn_testbed()
    _attach_one_tenant(bed.nic)
    assert _registered(install_checks(bed)) == _TESTBED_CHECKS


def test_two_tor_fleet_registers_the_fleet_set():
    fleet = build_fleet([HostSpec(stack="lauberhorn", tor=0),
                         HostSpec(stack="linux", tor=1)],
                        topo=TopologySpec(n_tors=2), n_clients=2)
    _attach_one_tenant(fleet.hosts[0].nic)
    fleet.deploy(cost_instructions=500)
    assert _registered(install_fleet_checks(fleet)) == _FLEET_CHECKS
