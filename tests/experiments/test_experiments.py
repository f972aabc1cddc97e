"""Smoke + shape tests for the experiment modules (reduced scale).

The benchmarks run the full-size experiments; these tests run reduced
configurations so the unit suite stays fast while still validating the
paper-shape assertions end to end.
"""

import pytest

from repro.experiments.crossover import measure_rtt_for_size
from repro.experiments.dynamic_mix import MIX_STACKS, measure_mix_point
from repro.experiments.fig2_roundtrip import (
    coherent_roundtrip_ns,
    dma_roundtrip_ns,
    run_fig2,
)
from repro.experiments.fig5_dispatch import run_fig5_dispatch
from repro.experiments.model_check import run_model_check
from repro.experiments.nested_rpc import run_nested_rpc
from repro.experiments.protocol_cost import run_protocol_cost
from repro.experiments.sched_state import run_sched_state
from repro.experiments.tryagain import run_timeout_ablation, run_tryagain_energy
from repro.hw.params import ENZIAN, ENZIAN_PCIE
from repro.sim import MS


def test_fig2_coherent_beats_dma_on_same_machine():
    eci = coherent_roundtrip_ns(ENZIAN, n=4)
    pcie = dma_roundtrip_ns(ENZIAN_PCIE, n=4)
    assert eci < pcie / 2
    assert 300 < eci < 1500  # the [21] regime


def test_fig2_run_returns_four_bars():
    results = run_fig2()
    assert len(results) == 4
    assert {r.mechanism for r in results} == {"coherent", "dma"}


def test_fig5_ordering_small():
    results = run_fig5_dispatch(n_requests=5)
    by_config = {r.config: r for r in results}
    assert (by_config["lauberhorn-hot"].p50_rtt_ns
            < by_config["lauberhorn-kernel"].p50_rtt_ns
            < by_config["linux"].p50_rtt_ns)


def test_crossover_extremes():
    small_line = measure_rtt_for_size(64, force_dma=False, n=3)
    small_dma = measure_rtt_for_size(64, force_dma=True, n=3)
    big_line = measure_rtt_for_size(16384, force_dma=False, n=3)
    big_dma = measure_rtt_for_size(16384, force_dma=True, n=3)
    assert small_line < small_dma
    assert big_dma < big_line


def test_dynamic_mix_small():
    results = [measure_mix_point(stack, 2, n_requests=60)
               for stack in MIX_STACKS]
    assert len(results) == 3
    lauberhorn = next(r for r in results if r.stack == "lauberhorn")
    bypass = next(r for r in results if r.stack == "bypass")
    assert lauberhorn.completed == 60
    assert lauberhorn.p50_ns < bypass.p50_ns


def test_tryagain_energy_shape():
    rows = run_tryagain_energy(gap_ns=2 * MS, n_requests=3)
    by_stack = {r.stack: r for r in rows}
    spin = by_stack["bypass (spin)"]
    blocked = by_stack["lauberhorn (blocked load)"]
    assert spin.busy_ns > 5 * blocked.busy_ns
    assert blocked.stall_ns > blocked.busy_ns


def test_timeout_ablation_monotone():
    rows = run_timeout_ablation(
        timeouts_ns=(1 * MS, 10 * MS), idle_ns=50 * MS
    )
    assert rows[0].tryagains_per_sec > rows[1].tryagains_per_sec


def test_model_check_experiment():
    rows = run_model_check()
    ok_rows = [r for r in rows if r.config.startswith("correct")]
    bug_rows = [r for r in rows if r.config.startswith("bug")]
    assert all(r.ok for r in ok_rows)
    assert all(not r.ok for r in bug_rows)


def test_sched_state_overhead_negligible():
    result = run_sched_state(n_switches=50)
    assert result.push_overhead_pct < 3.0
    assert result.pushed_switch_ns > result.base_switch_ns


def test_nested_rpc_speedup():
    results = run_nested_rpc(n_requests=4)
    by_stack = {r.stack: r for r in results}
    assert by_stack["lauberhorn"].p50_rtt_ns < by_stack["linux"].p50_rtt_ns / 2


def test_protocol_cost_minimal():
    cost = run_protocol_cost(n_requests=8)
    assert cost.fills_per_request == 1.0
    assert cost.recalls_per_request == 1.0
    assert cost.upgrades_per_request == 0.0


def test_run_all_cli_rejects_unknown():
    from repro.experiments.run_all import main

    assert main(["nonsense"]) == 2


def test_run_all_cli_runs_selected(capsys):
    from repro.experiments.run_all import main

    assert main(["e7"]) == 0
    out = capsys.readouterr().out
    assert "model checking" in out


@pytest.mark.parametrize("spec, directory", [
    (None, "results"),
    ("loss=0", "results"),              # a plan that injects nothing
    ("default", "results/faults"),
])
def test_faulted_runs_write_artifacts_under_results_faults(
        spec, directory, tmp_path, monkeypatch):
    from repro.experiments.grid import write_json_artifact
    from repro.experiments.obs_attribution import write_trace_artifact
    from repro.faults import FaultPlan, active

    monkeypatch.chdir(tmp_path)
    with active(FaultPlan.from_spec(spec) if spec else None):
        write_json_artifact({}, "results/e24_tenancy.json")
        write_trace_artifact([])
    assert sorted(str(path.relative_to(tmp_path))
                  for path in tmp_path.rglob("*.json")) == [
        f"{directory}/e20_trace.json", f"{directory}/e24_tenancy.json"]
