"""Property: fleet-wide packet conservation holds under fault storms.

Every frame injected into any link of any switch (ToRs, spine,
trunks) must settle — delivered, dropped, or accounted lost — both
per link and fleet-summed, with E19-style loss/storm plans actively
deleting and duplicating frames mid-flight.  Client retransmission
makes the *workload* whole; the conservation invariant proves the
*fabric accounting* is whole.
"""

import pytest

from repro.check import install_fleet_checks
from repro.check.invariants import bed_links
from repro.faults.context import active
from repro.faults.plan import FaultPlan
from repro.fleet import HostSpec, build_fleet
from repro.net.topology import TopologySpec
from repro.sim.clock import MS

#: E19's lossy and storm operating points, plus duplication (the
#: nastiest case for conservation: frames appear out of thin air).
PLANS = {
    "lossy": "seed=3,loss=0.02",
    "storm": "seed=3,loss=0.02,stall=0.02",
    "dup-storm": "seed=3,loss=0.02,dup=0.02,stall=0.01",
}


def _run_faulted_fleet(spec: str):
    with active(FaultPlan.from_spec(spec)):
        fleet = build_fleet(
            [HostSpec(stack="lauberhorn", tor=0),
             HostSpec(stack="linux", tor=1),
             HostSpec(stack="bypass", tor=0)],
            topo=TopologySpec(n_tors=2, n_trunks=2),
            n_clients=2,
        )
    fleet.deploy(cost_instructions=500)
    checks = install_fleet_checks(fleet)
    checks.start(150 * MS)
    completed = []

    def flow_loop(flow):
        client = fleet.clients[flow % len(fleet.clients)]
        yield fleet.sim.timeout(10_000)
        for k in range(5):
            yield fleet.send(client, 45_000 + flow, [k])
            completed.append((flow, k))

    for flow in range(8):
        fleet.sim.process(flow_loop(flow), name=f"flow{flow}")
    fleet.run(until=150 * MS)
    checks.finish()
    return fleet, checks, completed


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_conservation_under_fault_plans(plan):
    fleet, checks, completed = _run_faulted_fleet(PLANS[plan])
    checks.assert_clean()
    assert len(completed) == 40  # retries recovered every injected loss
    # Not vacuous: the plan fired, somewhere, at least once.
    injected = fleet.fault_stats.total() + sum(
        m.fault_stats.total() for m in fleet.machines
        if m.fault_stats is not None)
    assert injected > 0


def test_fleet_summed_ledger_balances_after_drain():
    fleet, checks, _ = _run_faulted_fleet(PLANS["dup-storm"])
    checks.assert_clean()
    links = bed_links(fleet)
    assert len(links) > 10  # 2 ToRs + spine + trunks, both directions
    injected = sum(l.stats.frames + l.stats.fault_duplicated for l in links)
    settled = sum(l.stats.delivered + l.stats.dropped + l.stats.fault_lost
                  for l in links)
    assert injected == settled
    # The faulted machinery actually lost and duplicated frames.
    assert sum(l.stats.fault_lost for l in links) > 0
    assert sum(l.stats.fault_duplicated for l in links) > 0


def test_calm_fleet_conserves_exactly():
    fleet = build_fleet(
        [HostSpec(stack="lauberhorn", tor=0), HostSpec(stack="linux", tor=1)],
        topo=TopologySpec(n_tors=2),
    )
    fleet.deploy(cost_instructions=500)
    checks = install_fleet_checks(fleet)
    checks.start(100 * MS)

    def driver():
        client = fleet.clients[0]
        yield fleet.sim.timeout(10_000)
        for k in range(10):
            yield fleet.send(client, 46_000, [k])

    fleet.sim.process(driver())
    fleet.run(until=100 * MS)
    checks.finish()
    checks.assert_clean()
    links = bed_links(fleet)
    assert sum(l.stats.frames for l in links) == \
        sum(l.stats.delivered for l in links)
    assert sum(l.stats.dropped for l in links) == 0
