"""E21: timelines, flight dumps, tail joins, and determinism.

That arming E21's whole stack moves no simulated result is checked, stack
by stack, in ``test_arming_is_inert.py``.
"""

import json

import pytest

from repro.exp.claims import CLAIMS, check, failures
from repro.exp.pool import jsonable
from repro.experiments.e21_timeline import (
    measure_timeline_stack,
    render_timeline,
    write_timeline_artifact,
)
from repro.experiments.four_stacks import STACKS, _build_stack
from repro.faults import FaultPlan, active
from repro.obs.flight import FlightRecorder
from repro.obs.instrument import arm_flight, arm_testbed, bind_testbed_metrics
from repro.obs.timeseries import TimeSeriesSampler
from repro.sim.clock import MS

HORIZON_NS = 20 * MS


@pytest.fixture(scope="module")
def results():
    return {stack: measure_timeline_stack(stack, n_requests=6)
            for stack in STACKS}


@pytest.mark.parametrize("stack", STACKS)
def test_windowed_series_span_all_three_layers(results, stack):
    result = results[stack]
    ts = result.timeseries
    assert ts["windows"], "no windows sampled"
    assert ts["samples"] == len(ts["windows"]) + ts["dropped_windows"]
    layers = result.layers
    assert sum(layers.values()) >= 6
    for layer in ("hw", "os", "nic"):
        assert layers[layer] >= 1, (stack, layers)


@pytest.mark.parametrize("stack", STACKS)
def test_injected_violation_freezes_flight_dump(results, stack):
    result = results[stack]
    assert len(result.violations) == 1
    assert "e21-injected" in result.violations[0]
    dump = result.flight_dump
    assert dump is not None
    assert dump["reason"]["check"] == "e21-injected"
    assert dump["events"][-1]["kind"] == "invariant.violation"
    # The dump carries real pre-violation history, not just the trigger.
    assert len(dump["events"]) > 1


@pytest.mark.parametrize("stack", STACKS)
def test_tail_attributes_every_slow_request(results, stack):
    tail = results[stack].tail
    assert tail["requests"], "tail report has no subjects"
    for record in tail["requests"]:
        assert record["duration_ns"] >= tail["threshold_ns"]
        assert record["stages"], "no stage breakdown"
        assert not record["windows_missing"]
        assert record["state"], "no concurrent-state join"
        assert "flight" in record


def test_lauberhorn_flight_sees_nic_and_scheduler_feeds(results):
    dump = results["lauberhorn"].flight_dump
    kinds = set(dump["kinds"])
    assert "sched.dispatch" in kinds
    assert any(kind.startswith("span.") or kind == "span"
               for kind in kinds)


def test_render_and_artifact(results, tmp_path, capsys):
    ordered = [results[stack] for stack in STACKS]
    render_timeline(ordered)
    out = capsys.readouterr().out
    assert "timelines and post-mortems" in out
    assert "Tail forensics" in out
    for stack in STACKS:
        assert stack in out

    path = tmp_path / "artifacts" / "e21_timeline.json"
    payload = write_timeline_artifact(ordered, str(path))
    on_disk = json.loads(path.read_text())
    assert on_disk == json.loads(json.dumps(payload))
    assert set(on_disk["stacks"]) == set(STACKS)


def test_validate_rejects_broken_payloads(results):
    value = jsonable([results[stack] for stack in STACKS])
    assert failures({"e21": value}) == []
    # no stacks: every claim selects nothing, which the ledger test
    # counts as a failure
    assert all(check(claim, [])[0] == 0 for claim in CLAIMS
               if claim.experiment == "e21")
    broken = json.loads(json.dumps(value))
    broken[1]["flight_dump"] = None
    assert failures({"e21": broken}) == ["e21.violation_freezes_flight_dump"]


def test_e21_registered_with_runner():
    from repro.exp.jobs import EXPERIMENT_SPECS, build_jobs

    spec = EXPERIMENT_SPECS["e21"]
    jobs = build_jobs(spec, 0)
    assert [job.job_id for job in jobs] == [f"e21/{s}" for s in STACKS]
    assert spec.assemble is not None


# -- sampler determinism under explicit fault plans -----------------------

PLANS = {
    "calm": "default,seed=3,loss=0,stall=0",
    "lossy": "default,seed=3,loss=0.02,stall=0.02",
}


def _rtts(stack: str, spec: str, armed: bool) -> list[float]:
    plan = FaultPlan.from_spec(spec)
    with active(plan):
        bed, service, method = _build_stack(stack)
    if armed:
        recorder = arm_testbed(bed)
        registry = bind_testbed_metrics(bed)
        sampler = TimeSeriesSampler(bed.sim, registry,
                                    window_ns=250_000.0, max_windows=32)
        flight = FlightRecorder(bed.sim, capacity=64)
        arm_flight(bed, flight, recorder=recorder)
        sampler.start(HORIZON_NS)

    client = bed.clients[0]
    rtts: list[float] = []

    def driver():
        yield bed.sim.timeout(10_000)
        for index in range(6):
            event = client.send_request(
                bed.server_mac, bed.server_ip, service.udp_port,
                service.service_id, method.method_id, [index],
            )
            event.add_callback(lambda e: rtts.append(e._value.rtt_ns))
            yield bed.sim.timeout(150_000.0)

    bed.sim.process(driver())
    bed.machine.run(until=HORIZON_NS)
    if armed:
        sampler.finish()
        assert sampler.samples > 0
        assert flight.recorded > 0
    return rtts


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("label", sorted(PLANS))
def test_sampler_and_flight_are_invisible_under_faults(stack, label):
    spec = PLANS[label]
    base = _rtts(stack, spec, armed=False)
    armed = _rtts(stack, spec, armed=True)
    assert base, f"{stack}/{label}: no requests completed"
    assert armed == base
