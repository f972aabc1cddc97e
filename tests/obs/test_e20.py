"""E20: attribution correctness and the zero-overhead guarantee."""

import json

import pytest

from repro.experiments.four_stacks import STACKS
from repro.experiments.obs_attribution import (
    STAGE_ORDER,
    measure_obs_stack,
    render_obs_attribution,
    write_trace_artifact,
)
from repro.obs.export import validate_chrome_trace


@pytest.fixture(scope="module")
def results():
    return {stack: measure_obs_stack(stack, n_requests=6)
            for stack in STACKS}


@pytest.mark.parametrize("stack", STACKS)
def test_arming_does_not_move_simulated_results(results, stack):
    # The tentpole guarantee: spans never touch the simulator, so the
    # armed run's RTT list is bit-identical to the unarmed run's.
    assert results[stack].identical


@pytest.mark.parametrize("stack", STACKS)
def test_span_trees_are_clean(results, stack):
    assert results[stack].violations == []


@pytest.mark.parametrize("stack", STACKS)
def test_every_expected_stage_is_attributed(results, stack):
    result = results[stack]
    for stage in STAGE_ORDER[stack]:
        assert stage in result.stages, (stack, sorted(result.stages))
        count, mean = result.stages[stage]
        assert count > 0 and mean >= 0.0
    assert "rpc" in result.stages
    assert result.p50_rtt_ns > 0
    assert result.metric_rows > 0
    assert result.spans


def test_linux_attribution_includes_socket_wait(results):
    # The kernel stack's defining overhead must be visible by name.
    assert "os.socket" in results["linux"].stages or \
        "os.softirq" in results["linux"].stages


def test_render_and_artifact(results, tmp_path, capsys):
    ordered = [results[stack] for stack in STACKS]
    render_obs_attribution(ordered)
    out = capsys.readouterr().out
    for stack in STACKS:
        assert f"{stack} — per-stage latency attribution" in out
    assert "Tracing overhead" in out

    path = tmp_path / "artifacts" / "e20_trace.json"
    payload = write_trace_artifact(ordered, str(path))
    assert validate_chrome_trace(payload) == []
    on_disk = json.loads(path.read_text())
    process_names = {e["args"]["name"] for e in on_disk["traceEvents"]
                     if e["ph"] == "M" and e["name"] == "process_name"}
    assert process_names == set(STACKS)


def test_results_are_deterministic_in_process():
    # No wall-clock field: two runs of the same stack serialise alike,
    # so the E20 digest needs no field stripped before hashing.
    from repro.exp.pool import jsonable

    first = jsonable(measure_obs_stack("linux", n_requests=6))
    second = jsonable(measure_obs_stack("linux", n_requests=6))
    assert first == second


def test_e20_registered_with_runner():
    from repro.exp.jobs import EXPERIMENT_SPECS, build_jobs

    spec = EXPERIMENT_SPECS["e20"]
    jobs = build_jobs(spec, 0)
    assert [job.job_id for job in jobs] == [f"e20/{s}" for s in STACKS]
    assert spec.assemble is not None
