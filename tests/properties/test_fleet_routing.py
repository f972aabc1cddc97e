"""Properties of fleet routing: ECMP determinism, flow affinity, and
intra-flow delivery order.

The balancer and the trunk ECMP groups are both seed-salted flow
hashes, so the whole routing plane must be (a) a pure function of
(seed, flow) and (b) flow-affine — which is exactly what lets the
fleet invariants demand strictly ordered intra-flow delivery.
"""

from collections import Counter

import pytest

from repro.check import install_fleet_checks
from repro.fleet import EcmpBalancer, HostSpec, build_fleet
from repro.net import build_udp_frame, ip_address
from repro.net.topology import TopologySpec
from repro.sim.clock import MS

FLOWS = [(ip_address(f"10.0.1.{1 + (i % 4)}"), 40_000 + i)
         for i in range(64)]


def test_balancer_is_deterministic_across_instances():
    a = EcmpBalancer(list("wxyz"), seed=5)
    b = EcmpBalancer(list("wxyz"), seed=5)
    assert [a.index_for(*flow) for flow in FLOWS] == \
        [b.index_for(*flow) for flow in FLOWS]


def test_balancer_seed_reaches_the_hash():
    a = EcmpBalancer(list("wxyz"), seed=0)
    b = EcmpBalancer(list("wxyz"), seed=1)
    assert [a.index_for(*flow) for flow in FLOWS] != \
        [b.index_for(*flow) for flow in FLOWS]


def test_balancer_spreads_and_ledgers():
    balancer = EcmpBalancer(list("wxyz"), seed=0)
    for flow in FLOWS:
        for _ in range(3):
            balancer.pick(*flow)
    spread = balancer.spread()
    assert spread["flows"] == len(FLOWS)
    assert spread["requests"] == 3 * len(FLOWS)
    assert sum(spread["routed"]) == 3 * len(FLOWS)
    # 64 flows over 4 replicas: every replica carries some.
    assert all(count > 0 for count in spread["flows_per_replica"])


def test_balancer_is_flow_affine():
    balancer = EcmpBalancer(list("wxyz"), seed=0)
    for flow in FLOWS:
        first = balancer.pick(*flow)
        assert all(balancer.pick(*flow) is first for _ in range(5))
        # The ledger's affinity map replays through the pure hash.
        assert balancer.affinity[flow] == balancer.index_for(*flow)


def test_balancer_hashes_each_flow_once(monkeypatch):
    import repro.fleet.routing as routing

    real_hash, calls = routing.rss_hash, []

    def counting_hash(*args):
        calls.append(args)
        return real_hash(*args)

    monkeypatch.setattr(routing, "rss_hash", counting_hash)
    balancer = EcmpBalancer(list("wxyz"), seed=0)
    picks = [balancer.pick(*flow) for _ in range(3) for flow in FLOWS]
    assert len(calls) == len(FLOWS)
    assert picks == [balancer.replicas[balancer.index_for(*flow)]
                     for _ in range(3) for flow in FLOWS]


def test_balancer_rejects_zero_replicas():
    with pytest.raises(ValueError):
        EcmpBalancer([])


def _run_checked_fleet(n_trunks=2, n_flows=12, per_flow=4):
    fleet = build_fleet(
        [HostSpec(stack="lauberhorn", tor=i % 2) for i in range(4)],
        topo=TopologySpec(n_tors=2, n_trunks=n_trunks),
        n_clients=2,
    )
    fleet.deploy(cost_instructions=500)
    checks = install_fleet_checks(fleet)
    checks.start(100 * MS)
    done = []

    def flow_loop(flow):
        client = fleet.clients[flow % len(fleet.clients)]
        yield fleet.sim.timeout(10_000)
        for k in range(per_flow):
            yield fleet.send(client, 43_000 + flow, [k])
            done.append(flow)

    for flow in range(n_flows):
        fleet.sim.process(flow_loop(flow), name=f"flow{flow}")
    fleet.run(until=100 * MS)
    checks.finish()
    assert len(done) == n_flows * per_flow
    return fleet, checks


def test_no_intra_flow_reordering_across_ecmp_trunks():
    """The hard end-to-end property: with multi-trunk ECMP live, the
    flow-order invariant (strictly ascending request ids per flow at
    every replica's RX port) holds over a full multi-rack run."""
    fleet, checks = _run_checked_fleet(n_trunks=2)
    checks.assert_clean()
    assert checks.samples > 0
    # Every flow stayed on one replica, and the replicas split load.
    spread = fleet.balancer.spread()
    assert spread["flows"] == 12
    assert sum(1 for c in spread["flows_per_replica"] if c > 0) >= 2


def test_replica_ledger_replays_each_flow_once(monkeypatch):
    """With the fleet checks armed, each flow is hashed twice in the
    whole run: by the balancer's first pick and by the replica-ledger
    check's one replay, however many samples see it."""
    import repro.fleet.routing as routing

    real_hash, calls = routing.rss_hash, []

    def counting_hash(*args):
        calls.append(args)
        return real_hash(*args)

    monkeypatch.setattr(routing, "rss_hash", counting_hash)
    fleet, checks = _run_checked_fleet()
    assert checks.samples > 1
    assert len(fleet.balancer.affinity) == 12
    assert sorted(Counter(calls).values()) == [2] * 12


def test_replica_ledger_reports_a_corrupted_affinity_entry():
    """An affinity entry corrupted before the check first replays its
    flow is a replica-ledger violation."""
    fleet = build_fleet([HostSpec(), HostSpec()])
    fleet.deploy()
    checks = install_fleet_checks(fleet)
    balancer = fleet.balancer
    balancer.pick(*FLOWS[0])
    checks.check_now()
    balancer.pick(*FLOWS[1])
    balancer.affinity[FLOWS[1]] = 1 - balancer.affinity[FLOWS[1]]
    checks.check_now()
    ledger = [v for v in checks.violations if v.name == "replica-ledger"]
    assert len(ledger) == 1
    assert "the hash replays to" in ledger[0].detail


def test_flow_order_invariant_has_teeth():
    """Delivering an older request id on a host's RX link must trip
    the flow-order check (fed through the real on_deliver tap)."""
    fleet = build_fleet([HostSpec(), HostSpec()])
    fleet.deploy()
    checks = install_fleet_checks(fleet)
    link = fleet.hosts[0].nic.port.egress
    client = fleet.clients[0]
    for request_id in (7, 3):  # out of order
        frame = build_udp_frame(
            client.mac, fleet.hosts[0].server_mac, client.ip,
            fleet.hosts[0].server_ip, 44_000, 9000, b"p" * 32,
        )
        frame.meta["request_id"] = request_id
        link.on_deliver(link, frame)
    checks.check_now()
    assert any("reordering" in str(v) for v in checks.violations)
