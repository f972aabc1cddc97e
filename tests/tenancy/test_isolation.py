"""Tenanted-NIC integration: byte-identity, enforcement, check teeth."""

import random

import pytest

from repro.check import install_checks
from repro.experiments.testbed import build_lauberhorn_testbed, deploy_service
from repro.nic.lauberhorn import EndpointKind
from repro.obs import arm_testbed
from repro.obs.metrics import MetricsRegistry
from repro.os.nicsched import lauberhorn_user_loop
from repro.sim import MS
from repro.tenancy import TenantTable
from repro.workloads import OpenLoopGenerator, ServiceMix, Target

HORIZON = 20 * MS


def _drive(bed, service, method, rate=100_000.0, n=60, seed=1, client=0):
    gen = OpenLoopGenerator(
        bed.clients[client], ServiceMix([Target(service, method)]),
        bed.server_mac, bed.server_ip, random.Random(seed))
    bed.sim.process(gen.run(rate, n))
    bed.sim.run(until=HORIZON)
    return gen


def test_single_budgetless_tenant_is_byte_identical():
    """Property (a): one weight-1 tenant with no budget and no rate
    limit must replay the unattached NIC exactly — same RTT sequence,
    same NIC counters, event for event."""
    plain = build_lauberhorn_testbed()
    ps, pm = deploy_service(plain, "lauberhorn")
    pg = _drive(plain, ps, pm)

    tenanted = build_lauberhorn_testbed()
    table = TenantTable()
    table.create("only", weight=1.0)
    tenanted.nic.attach_tenants(table)
    ts, tm = deploy_service(tenanted, "lauberhorn", tenant="only")
    tg = _drive(tenanted, ts, tm)

    assert pg.completed == tg.completed == 60
    assert pg.recorder.samples == tg.recorder.samples
    assert plain.sim.now == tenanted.sim.now
    assert vars(plain.nic.lstats) == vars(tenanted.nic.lstats)
    # ...and the tenant ledger still accounted every frame.
    stats = table.stats_for("only")
    assert stats.arrivals == stats.admitted == 60
    assert stats.completed == 60 and stats.held_now == 0


def test_register_with_tenant_requires_attached_table():
    bed = build_lauberhorn_testbed()
    with pytest.raises(RuntimeError, match="attach_tenants"):
        deploy_service(bed, "lauberhorn", tenant="ghost")


def test_attach_refuses_mid_run():
    bed = build_lauberhorn_testbed()
    service, method = deploy_service(bed, "lauberhorn")
    _drive(bed, service, method, n=5)
    with pytest.raises(RuntimeError, match="before traffic"):
        bed.nic.attach_tenants(TenantTable())


def test_rate_limit_polices_and_conserves():
    """An over-rate tenant is policed at demux; the ledger accounts
    every frame and the isolation invariants stay clean."""
    bed = build_lauberhorn_testbed(n_clients=2)
    table = TenantTable()
    table.create("calm", weight=1.0)
    table.create("greedy", weight=1.0, rate_limit_rps=50_000.0,
                 rate_burst=8.0)
    bed.nic.attach_tenants(table)
    cs, cm = deploy_service(bed, "lauberhorn", name="calm", udp_port=9000,
                            core=0, tenant="calm")
    gs, gm = deploy_service(bed, "lauberhorn", name="greedy", udp_port=9100,
                            core=1, tenant="greedy")
    checks = install_checks(bed)
    checks.start(HORIZON)
    calm_gen = OpenLoopGenerator(
        bed.clients[0], ServiceMix([Target(cs, cm)]),
        bed.server_mac, bed.server_ip, random.Random(1))
    greedy_gen = OpenLoopGenerator(
        bed.clients[1], ServiceMix([Target(gs, gm)]),
        bed.server_mac, bed.server_ip, random.Random(2))
    bed.sim.process(calm_gen.run(50_000.0, 40))

    def greedy_blast():
        # Fire-and-forget: policed requests never complete, so the
        # OpenLoopGenerator's final AllOf barrier would hang.
        for _ in range(300):
            greedy_gen._fire(greedy_gen.mix.choose(greedy_gen.rng))
            yield bed.sim.timeout(500.0)  # 2 Mrps, far over the limit

    bed.sim.process(greedy_blast())
    bed.sim.run(until=HORIZON)
    assert checks.finish() == []
    greedy = table.stats_for("greedy")
    assert greedy.rate_dropped > 0
    assert greedy.arrivals == 300
    assert greedy.admitted + greedy.rate_dropped == 300
    calm = table.stats_for("calm")
    assert calm.rate_dropped == 0 and calm.completed == 40
    assert calm_gen.completed == 40


def test_budget_cap_is_enforced_live():
    """A ctrl_budget=1 tenant never holds two CONTROL lines at once,
    even with concurrent traffic — checked by the armed invariants."""
    bed = build_lauberhorn_testbed()
    table = TenantTable()
    table.create("capped", ctrl_budget=1)
    bed.nic.attach_tenants(table)
    service, method = deploy_service(bed, "lauberhorn", tenant="capped")
    checks = install_checks(bed, interval_ns=10_000.0)
    checks.start(HORIZON)
    gen = _drive(bed, service, method, rate=400_000.0, n=50)
    assert checks.finish() == []
    assert gen.completed == 50
    stats = table.stats_for("capped")
    assert stats.held_now == 0 and stats.completed == 50


def test_budget_check_has_teeth():
    """Satellite (c): a corrupted held ledger must trip tenant-budget —
    both the cap bound and the endpoint reconciliation."""
    bed = build_lauberhorn_testbed()
    table = TenantTable()
    table.create("capped", ctrl_budget=2)
    bed.nic.attach_tenants(table)
    service, method = deploy_service(bed, "lauberhorn", tenant="capped")
    checks = install_checks(bed)
    _drive(bed, service, method, n=10)
    assert not checks.violations
    table.stats_for("capped").held_now = 3  # over budget, nothing in flight
    checks.check_now()
    names = {v.name for v in checks.violations}
    assert "tenant-budget" in names
    details = "\n".join(v.detail for v in checks.violations)
    assert "budget is 2" in details
    assert "end-points show 0" in details


def test_conservation_check_has_teeth():
    bed = build_lauberhorn_testbed()
    table = TenantTable()
    table.create("t")
    bed.nic.attach_tenants(table)
    service, method = deploy_service(bed, "lauberhorn", tenant="t")
    checks = install_checks(bed)
    _drive(bed, service, method, n=10)
    table.stats_for("t").admitted -= 1  # arrivals != admitted + policed
    checks.check_now()
    assert any(v.name == "tenant-conservation" for v in checks.violations)


def test_fairness_check_has_teeth():
    """Satellite (c): a biased arbiter surfaces through the quiesce
    fairness check installed on the NIC's own DWRR instance."""
    bed = build_lauberhorn_testbed()
    table = TenantTable()
    a = table.create("a")
    b = table.create("b")
    bed.nic.attach_tenants(table)
    deploy_service(bed, "lauberhorn", name="a", udp_port=9000, tenant="a")
    deploy_service(bed, "lauberhorn", name="b", udp_port=9100, tenant="b")
    checks = install_checks(bed)
    dwrr = bed.nic.backlog
    for k in range(12):
        dwrr.push(a.tenant_id, k)
        dwrr.push(b.tenant_id, k)
    for _ in range(12):
        dwrr.force_serve(a.tenant_id)
    violations = checks.finish()
    assert any(v.name == "tenant-fairness" for v in violations)


def test_tenant_metrics_probe_appears_only_when_tenanted():
    from repro.obs.metrics import MetricsRegistry

    plain = build_lauberhorn_testbed()
    registry = MetricsRegistry()
    plain.nic.bind_metrics(registry)
    assert not any("tenants" in name for name in registry.snapshot())

    bed = build_lauberhorn_testbed()
    table = TenantTable()
    table.create("t")
    bed.nic.attach_tenants(table)
    service, method = deploy_service(bed, "lauberhorn", tenant="t")
    registry = MetricsRegistry()
    bed.nic.bind_metrics(registry)
    _drive(bed, service, method, n=8)
    snap = registry.snapshot()
    tenant_keys = [k for k in snap if "tenants" in k]
    assert tenant_keys
    assert any(k.endswith("t.completed") and snap[k] == 8
               for k in tenant_keys)


def test_tenanted_backlog_probe_counts_dwrr_queues():
    """On a tenanted NIC the ``nic.backlog.global`` probe reads the
    DWRR queues, so tail forensics see requests queued globally."""
    bed = build_lauberhorn_testbed()
    table = TenantTable()
    table.create("t")
    bed.nic.attach_tenants(table)
    service = bed.registry.create_service("slow", udp_port=9000)
    method = bed.registry.add_method(
        service, "m", lambda args: list(args), cost_instructions=5_000_000)
    process = bed.kernel.spawn_process("slow")
    bed.nic.register_service(service, process.pid, tenant="t")
    ep = bed.nic.create_endpoint(
        EndpointKind.USER, service=service, backlog_capacity=2)
    bed.kernel.spawn_thread(
        process, lauberhorn_user_loop(bed.nic, ep, bed.registry),
        pinned_core=0)
    registry = MetricsRegistry()
    bed.nic.bind_metrics(registry)
    client = bed.clients[0]

    def driver():
        yield bed.sim.timeout(10_000)
        for i in range(6):
            client.send_request(
                bed.server_mac, bed.server_ip, 9000,
                service.service_id, method.method_id, [i])

    bed.sim.process(driver())
    bed.machine.run(until=3 * MS)
    # 1 delivered (in the slow handler), 2 in the end-point backlog,
    # 3 spilled to the tenant's global queue.
    snap = registry.snapshot()
    assert snap["nic.backlog.endpoints"] == 2
    assert snap["nic.backlog.global"] == 3
    assert snap["nic.tenants.t.queued_now"] == 5


def test_unattached_nic_exposes_no_tenancy_after_traffic():
    """An unattached NIC charges every request to a private ``_default``
    ledger, but none of it is exposed: no tenant metric rows, no
    tenant-* invariant checks, no tenant tag on root spans."""
    bed = build_lauberhorn_testbed()
    service, method = deploy_service(bed, "lauberhorn")
    recorder = arm_testbed(bed)
    recorder.tag_origin = True
    registry = MetricsRegistry()
    bed.nic.bind_metrics(registry)
    checks = install_checks(bed)
    checks.start(HORIZON)
    gen = _drive(bed, service, method, n=20)
    assert gen.completed == 20
    assert bed.nic._table.stats_for("_default").completed == 20

    assert not [k for k in registry.snapshot() if k.startswith("nic.tenant")]
    names = {name for name, _check in checks._checks + checks._quiesce}
    assert names
    assert not [name for name in names if name.startswith("tenant-")]
    roots = [root for root in recorder.roots() if root.finished]
    assert len(roots) == 20
    assert all(root.fields.get("service") == service.name for root in roots)
    assert not [root for root in roots if "tenant" in root.fields]
    assert checks.finish() == []
