"""The grid scaffold: every experiment's jobs derive from its GRID."""

import hashlib
import json
from importlib import import_module

import pytest

from repro.exp import jobs as jobs_mod
from repro.exp.cache import module_closure
from repro.exp.jobs import EXPERIMENT_SPECS, build_jobs

GRID_MODULES = {
    "e1": "fig2_roundtrip",
    "e2": "fig1_steps",
    "e3": "fig5_dispatch",
    "e4": "dynamic_mix",
    "e5": "crossover",
    "e6": "tryagain",
    "e7": "model_check",
    "e8": "sched_state",
    "e9": "nested_rpc",
    "e10": "protocol_cost",
    "e11": "four_stacks",
    "e12": "ablation",
    "e13": "telemetry_breakdown",
    "e14": "throughput",
    "e15": "load_sweep",
    "e16": "iommu_tax",
    "e17": "serverless",
    "e18": "sensitivity",
    "e19": "fault_sweep",
    "e20": "obs_attribution",
    "e21": "e21_timeline",
    "e22": "e22_control",
    "e23": "e23_fleet",
    "e24": "e24_tenancy",
    "e25": "e25_slo",
}

#: the other experiment modules each grid module imports (beyond the
#: shared grid, report and testbed modules)
IMPORTED_EXPERIMENTS = {
    "fault_sweep": {"four_stacks"},
    "obs_attribution": {"four_stacks"},
    "e21_timeline": {"four_stacks"},
    "e22_control": {"four_stacks"},
    "e25_slo": {"e24_tenancy", "four_stacks"},
}

#: every job of every experiment at root seeds 0 and 7: a changed id, fn,
#: param or seed would move results, seeds and cache keys
JOB_ROWS = 316
JOB_ROWS_SHA256 = (
    "3c42b35bd266ff03081be7cdefb97f5621c83279e49354211eaed230d8469e59")


def _grid(name):
    return import_module(f"repro.experiments.{GRID_MODULES[name]}").GRID


def test_job_lists_are_pinned():
    rows = [
        [root_seed, job.job_id, job.experiment, job.fn, job.params,
         job.seed]
        for root_seed in (0, 7)
        for spec in EXPERIMENT_SPECS.values()
        for job in build_jobs(spec, root_seed)
    ]
    material = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    assert len(rows) == JOB_ROWS
    assert hashlib.sha256(material.encode()).hexdigest() == JOB_ROWS_SHA256


def test_every_experiment_comes_from_its_grid():
    assert list(EXPERIMENT_SPECS) == list(GRID_MODULES)
    for name, spec in EXPERIMENT_SPECS.items():
        grid = _grid(name)
        assert spec is grid and grid.name == name
        assert [job.job_id for job in build_jobs(spec, 0)] == [
            f"{name}/{key}" for key, _fn, _kwargs in grid.points]


@pytest.mark.parametrize("name", list(GRID_MODULES))
def test_smoke_keys_name_points_and_share_their_jobs(name):
    grid, spec = _grid(name), EXPERIMENT_SPECS[name]
    keys = [key for key, _fn, _kwargs in grid.points]
    assert len(set(keys)) == len(keys)
    assert set(grid.smoke or ()) <= set(keys)
    for root_seed in (0, 7):
        full = build_jobs(spec, root_seed)
        smoke = jobs_mod._jobs(spec, root_seed, smoke=True)
        expected = full if grid.smoke is None else [
            job for job in full if job.job_id.partition("/")[2]
            in grid.smoke]
        # equal specs, so smoke and full runs share cache entries
        assert smoke == expected and smoke


@pytest.mark.parametrize("module", list(GRID_MODULES.values()))
def test_grid_modules_import_no_runner(module):
    closure = module_closure(f"repro.experiments.{module}")
    assert "repro.exp" not in closure
    assert "repro.exp.jobs" not in closure
    experiments = {name.rpartition(".")[2] for name in closure
                   if name.startswith("repro.experiments.")}
    others = experiments - {module, "grid", "report", "testbed"}
    assert others <= IMPORTED_EXPERIMENTS.get(module, set())
