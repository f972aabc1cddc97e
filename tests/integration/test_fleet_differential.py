"""Differential harness: a 1-host fleet IS the legacy testbed.

The fleet builder promises that one host on a degenerate 1-ToR
topology replays the single-machine testbeds *byte-identically* —
same construction order, same names (so the same name-derived fault
streams), same seed draws.  This pins that promise for all four
stacks, calm and under an active loss+stall fault plan, comparing
full per-request RTT vectors and complete metrics snapshots — and,
armed, that the one-body installers (spans, flight, metrics, checks)
see a 1-host fleet exactly as they see the testbed.

(The E1-E18 golden corpus and the E19-E21 digest pins ride on the
same refactored testbed assembly, so `tests/golden` extends this
differential back over every experiment's recorded outputs.)
"""

import pytest

from repro.check import install_checks
from repro.experiments.four_stacks import HANDLER_COST, STACKS, _build_stack
from repro.faults.context import active
from repro.faults.plan import FaultPlan
from repro.fleet import HostSpec, build_fleet
from repro.obs import (
    FlightRecorder,
    arm_flight,
    arm_testbed,
    bind_testbed_metrics,
)
from repro.sim.clock import MS

FAULT_SPEC = "seed=3,loss=0.02,stall=0.02"


def _drive(bed, run, service, method, n_requests):
    """The four-stacks driver, generic over Testbed and Host."""
    client = bed.clients[0]
    rtts = []

    def driver():
        yield bed.sim.timeout(10_000)
        yield from client.call(args=[0], **bed.call_args(service, method))
        for i in range(n_requests):
            result = yield client.send_request(
                bed.server_mac, bed.server_ip, service.udp_port,
                service.service_id, method.method_id, [i],
            )
            rtts.append(result.rtt_ns)

    bed.sim.process(driver())
    run(until=500 * MS)
    return rtts


def _legacy_run(stack, n_requests):
    bed, service, method = _build_stack(stack)
    rtts = _drive(bed, bed.machine.run, service, method, n_requests)
    return rtts, bind_testbed_metrics(bed).snapshot()


def _fleet_run(stack, n_requests):
    fleet = build_fleet([HostSpec(stack=stack)])
    [deployment] = fleet.deploy(cost_instructions=HANDLER_COST)
    rtts = _drive(fleet.hosts[0], fleet.run,
                  deployment.service, deployment.method, n_requests)
    # A Host is a Testbed: binding it uses the legacy prefixes, so the
    # snapshot is comparable key-for-key with the single-machine bed.
    return rtts, bind_testbed_metrics(fleet.hosts[0]).snapshot()


@pytest.mark.parametrize("stack", STACKS)
def test_one_host_fleet_is_byte_identical_calm(stack):
    legacy_rtts, legacy_metrics = _legacy_run(stack, 30)
    fleet_rtts, fleet_metrics = _fleet_run(stack, 30)
    assert len(legacy_rtts) == 30
    assert fleet_rtts == legacy_rtts
    assert fleet_metrics == legacy_metrics


@pytest.mark.parametrize("stack", STACKS)
def test_one_host_fleet_is_byte_identical_faulted(stack):
    with active(FaultPlan.from_spec(FAULT_SPEC)):
        legacy_rtts, legacy_metrics = _legacy_run(stack, 40)
    with active(FaultPlan.from_spec(FAULT_SPEC)):
        fleet_rtts, fleet_metrics = _fleet_run(stack, 40)
    assert len(legacy_rtts) == 40
    assert fleet_rtts == legacy_rtts
    assert fleet_metrics == legacy_metrics


def _armed(bed, drive_bed, run, service, method, n_requests):
    """Arm ``bed`` (a testbed or a fleet) with every installer, drive
    ``drive_bed`` and return what each installer observed."""
    recorder = arm_testbed(bed)
    flight = FlightRecorder(bed.sim)
    arm_flight(bed, flight, recorder=recorder)
    registry = bind_testbed_metrics(bed)
    checks = install_checks(bed)
    checks.start(500 * MS)
    rtts = _drive(drive_bed, run, service, method, n_requests)
    return dict(
        rtts=rtts,
        spans=[span.as_dict() for span in recorder.spans],
        flight=flight.snapshot(),
        metrics={key.removeprefix("host0."): value
                 for key, value in registry.snapshot().items()},
        checks=([name for name, _ in checks._checks],
                [name for name, _ in checks._quiesce]),
        violations=[str(v) for v in checks.finish()],
    )


def _legacy_armed(stack, n_requests):
    bed, service, method = _build_stack(stack)
    return _armed(bed, bed, bed.machine.run, service, method, n_requests)


def _fleet_armed(stack, n_requests):
    fleet = build_fleet([HostSpec(stack=stack)])
    [deployment] = fleet.deploy(cost_instructions=HANDLER_COST)
    return _armed(fleet, fleet.hosts[0], fleet.run,
                  deployment.service, deployment.method, n_requests)


@pytest.mark.parametrize("faulted", [False, True], ids=["calm", "faulted"])
@pytest.mark.parametrize("stack", STACKS)
def test_one_host_fleet_arms_like_the_testbed(stack, faulted):
    plan = FaultPlan.from_spec(FAULT_SPEC) if faulted else None
    with active(plan):
        legacy = _legacy_armed(stack, 30)
    with active(plan):
        fleet = _fleet_armed(stack, 30)
    assert len(legacy["rtts"]) == 30
    assert legacy["spans"] and legacy["flight"]
    assert legacy["violations"] == [] and fleet["violations"] == []
    assert fleet == legacy


def test_differential_would_catch_a_perturbation():
    """Sanity that RTT-vector equality is a sharp instrument: a fleet
    whose switch is 50 ns slower does NOT replay the legacy bed."""
    legacy_rtts, _ = _legacy_run("lauberhorn", 20)
    fleet = build_fleet([HostSpec(stack="lauberhorn")],
                        switch_latency_ns=300.0)
    [deployment] = fleet.deploy(cost_instructions=HANDLER_COST)
    perturbed = _drive(fleet.hosts[0], fleet.run,
                       deployment.service, deployment.method, 20)
    assert perturbed != legacy_rtts
