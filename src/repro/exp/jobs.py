"""The job registry: every experiment as independently schedulable jobs.

Every experiment module declares a ``GRID``
(:class:`repro.experiments.grid.Grid`), and each point of it is one
job: each (stack, rate) of the load sweep, each (size, delivery mode)
of the DMA crossover, each printed part of an experiment that is not a
sweep (E6's energy table and its timeout table).  A multi-core host can
therefore fan the whole artifact out, and the cache can invalidate
single points.

Every job is a pure function of its params + seed (fresh testbed per
point) that returns a value and prints nothing, so execution order and
worker placement never change results.  ``run_experiments`` hands the
point values back to each grid's ``assemble``, the only code that
prints, so ``--jobs N`` output is byte-identical to ``--jobs 1`` and to
a run served from the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..experiments import (ablation, crossover, dynamic_mix, e21_timeline,
                           e22_control, e23_fleet, e24_tenancy, e25_slo,
                           fault_sweep, fig1_steps, fig2_roundtrip,
                           fig5_dispatch, four_stacks, iommu_tax,
                           load_sweep, model_check, nested_rpc,
                           obs_attribution, protocol_cost, sched_state,
                           sensitivity, serverless, telemetry_breakdown,
                           throughput, tryagain)
from ..experiments.grid import Grid
from ..sim.rng import derive_seed
from .pool import JobResult, JobSpec, jsonable, run_jobs

__all__ = ["EXPERIMENT_SPECS", "RunOutcome", "build_jobs",
           "run_experiments"]

_EXP = "repro.experiments"


EXPERIMENT_SPECS: dict[str, Grid] = {
    module.GRID.name: module.GRID for module in [
        fig2_roundtrip, fig1_steps, fig5_dispatch, dynamic_mix, crossover,
        tryagain, model_check, sched_state, nested_rpc, protocol_cost,
        four_stacks, ablation, telemetry_breakdown, throughput, load_sweep,
        iommu_tax, serverless, sensitivity, fault_sweep, obs_attribution,
        e21_timeline, e22_control, e23_fleet, e24_tenancy, e25_slo,
    ]
}


def build_jobs(grid: Grid, root_seed: int) -> list[JobSpec]:
    """One job per point of ``grid``, in point order."""
    jobs = []
    for key, fn, kwargs in grid.points:
        params = dict(kwargs)
        seed = None
        if grid.seeded:
            # Root seed 0 reproduces the point functions' built-in
            # seed; any other root derives an independent per-point
            # seed, stable across workers and execution order.
            seed = (0 if root_seed == 0
                    else derive_seed(root_seed, grid.name, key))
            params["seed"] = seed
        jobs.append(JobSpec(
            job_id=f"{grid.name}/{key}",
            experiment=grid.name,
            fn=f"{_EXP}.{fn}",
            params=tuple(sorted(params.items())),
            seed=seed,
        ))
    return jobs


@dataclass
class RunOutcome:
    """Everything a ``run_all`` invocation produced."""

    values: dict[str, Any] = field(default_factory=dict)
    timings_s: dict[str, float] = field(default_factory=dict)
    job_results: list[JobResult] = field(default_factory=list)
    failed: bool = False


def _jobs(grid: Grid, root_seed: int, smoke: bool) -> list[JobSpec]:
    jobs = build_jobs(grid, root_seed)
    if smoke and grid.smoke is not None:
        keep = {f"{grid.name}/{key}" for key in grid.smoke}
        jobs = [job for job in jobs if job.job_id in keep]
    return jobs


def _finish(grid: Grid, results: list[JobResult], smoke: bool) -> Any:
    """Print one experiment's tables (or its failures); its value."""
    bad = [r for r in results if not r.ok]
    if bad:
        for r in bad:
            print(f"\nJOB FAILED: {r.job_id}\n{r.error}", end="")
        return {"error": [
            {"job_id": r.job_id, "error": r.error} for r in bad
        ]}
    return jsonable(grid.assemble([r.value for r in results], smoke))


def run_experiments(
    selected: list[str],
    jobs: int = 1,
    cache=None,
    root_seed: int = 0,
    smoke: bool = False,
) -> RunOutcome:
    """Run a selection of experiments and print the paper artifact.

    ``jobs <= 1`` runs and prints the experiments one at a time, in
    order; ``jobs > 1`` fans every job of every selected experiment
    over the pool at once, then prints the experiment blocks in order.
    ``smoke=True`` is the CI-sized run: each grid keeps only the points
    it marks for smoke runs (the whole grid if it marks none).
    """
    outcome = RunOutcome()
    job_lists = {
        name: _jobs(EXPERIMENT_SPECS[name], root_seed, smoke)
        for name in selected
    }
    batches = ([[name] for name in selected] if jobs <= 1
               else [selected])
    for batch in batches:
        by_id = run_jobs([job for name in batch for job in job_lists[name]],
                         jobs=jobs, cache=cache)
        for name in batch:
            grid = EXPERIMENT_SPECS[name]
            results = [by_id[job.job_id] for job in job_lists[name]]
            bar = "=" * 72
            print(f"\n{bar}\n{name.upper()}: {grid.title}\n{bar}")
            outcome.values[name] = _finish(grid, results, smoke)
            # a cache hit costs this run no job time
            wall = sum(r.wall_s for r in results if not r.cached)
            outcome.timings_s[name] = wall
            outcome.job_results.extend(results)
            outcome.failed |= any(not r.ok for r in results)
            print(f"\n[{name} completed in {wall:.1f} s wall clock]")
    return outcome
