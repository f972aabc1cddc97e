"""The job registry: every experiment as independently schedulable jobs.

Monolithic experiments (a single ``run_*`` body that prints its own
tables) map to one job per printed section.  Sweep experiments map to
one job per point of the ``GRID`` their module declares
(:class:`repro.experiments.grid.Grid`): each (stack, rate) of the load
sweep, each (size, delivery mode) of the DMA crossover, each stack of
the design space.  A multi-core host can therefore fan the whole
artifact out, and the cache can invalidate single points.

Every job is a pure function of its params + seed (fresh testbed per
point), so execution order and worker placement never change results.
``run_experiments`` hands the point values back to each grid's
``assemble``, which prints the tables, so ``--jobs N`` output is
byte-identical to ``--jobs 1``.
"""

from __future__ import annotations

import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from typing import Any, Callable, Optional

from ..experiments import (crossover, dynamic_mix, e21_timeline,
                           e22_control, e23_fleet, e24_tenancy, e25_slo,
                           fault_sweep, four_stacks, load_sweep,
                           obs_attribution, sensitivity, serverless)
from ..experiments.grid import Grid
from ..sim.rng import derive_seed
from .pool import JobResult, JobSpec, execute_job, jsonable, run_jobs

__all__ = ["ExperimentSpec", "EXPERIMENT_SPECS", "RunOutcome",
           "run_experiments"]

_EXP = "repro.experiments"


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: its jobs plus how to reassemble/render them."""

    name: str
    title: str
    build_jobs: Callable[[int], list[JobSpec]]
    #: sweep experiments only: (values in job order, smoke) -> final
    #: value (printing the tables to stdout); monolithic experiments
    #: return their jobs' values directly and their stdout is replayed.
    assemble: Optional[Callable[[list[Any], bool], Any]] = None
    #: the job ids a smoke run keeps (None: every job)
    smoke: Optional[frozenset[str]] = None


def _mono(name: str, title: str, parts: list[tuple[str, str]]) -> ExperimentSpec:
    """A monolithic experiment: one stdout-printing job per section."""

    def build_jobs(root_seed: int) -> list[JobSpec]:
        return [
            JobSpec.make(f"{name}/{part}", name, f"{_EXP}.{fn}", capture=True)
            for part, fn in parts
        ]

    return ExperimentSpec(name=name, title=title, build_jobs=build_jobs)


def _sweep(grid: Grid) -> ExperimentSpec:
    """A sweep experiment: one silent job per point of its ``GRID``."""

    def build_jobs(root_seed: int) -> list[JobSpec]:
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
                capture=False,
            ))
        return jobs

    def assemble(values: list[Any], smoke: bool) -> Any:
        return jsonable(grid.assemble(values, smoke))

    smoke = None
    if grid.smoke is not None:
        smoke = frozenset(f"{grid.name}/{key}" for key in grid.smoke)
    return ExperimentSpec(name=grid.name, title=grid.title,
                          build_jobs=build_jobs, assemble=assemble,
                          smoke=smoke)


EXPERIMENT_SPECS: dict[str, ExperimentSpec] = {
    spec.name: spec for spec in [
        _mono("e1", "Figure 2 — 64 B round-trip latencies",
              [("main", "fig2_roundtrip:run_fig2")]),
        _mono("e2", "Section 2 — receive-path steps",
              [("main", "fig1_steps:run_fig1_steps")]),
        _mono("e3", "Figure 5 — dispatch comparison",
              [("main", "fig5_dispatch:run_fig5_dispatch")]),
        _sweep(dynamic_mix.GRID),
        _sweep(crossover.GRID),
        _mono("e6", "Section 5.1 — Tryagain & energy",
              [("energy", "tryagain:run_tryagain_energy"),
               ("timeout", "tryagain:run_timeout_ablation")]),
        _mono("e7", "Section 6 — model checking",
              [("main", "model_check:run_model_check")]),
        _mono("e8", "Section 5.2 — sched-state push",
              [("main", "sched_state:run_sched_state")]),
        _mono("e9", "Section 6 — nested RPCs",
              [("main", "nested_rpc:run_nested_rpc")]),
        _mono("e10", "Figure 4 — protocol cost",
              [("main", "protocol_cost:run_protocol_cost")]),
        _sweep(four_stacks.GRID),
        _mono("e12", "Ablations — deserialisation offload & crypto placement",
              [("deserialize", "ablation:run_deserialize_ablation"),
               ("crypto", "ablation:run_crypto_ablation")]),
        _mono("e13", "Section 6 — NIC telemetry breakdown",
              [("main", "telemetry_breakdown:run_telemetry_breakdown")]),
        _mono("e14", "Peak throughput & end-point scaling",
              [("throughput", "throughput:run_throughput"),
               ("scaling", "throughput:run_lauberhorn_scaling")]),
        _sweep(load_sweep.GRID),
        _mono("e16", "Section 3 — the IOMMU tax",
              [("main", "iommu_tax:run_iommu_tax")]),
        _sweep(serverless.GRID),
        _sweep(sensitivity.GRID),
        _sweep(fault_sweep.GRID),
        _sweep(obs_attribution.GRID),
        _sweep(e21_timeline.GRID),
        _sweep(e22_control.GRID),
        _sweep(e23_fleet.GRID),
        _sweep(e24_tenancy.GRID),
        _sweep(e25_slo.GRID),
    ]
}


@dataclass
class RunOutcome:
    """Everything a ``run_all`` invocation produced."""

    values: dict[str, Any] = field(default_factory=dict)
    timings_s: dict[str, float] = field(default_factory=dict)
    job_results: list[JobResult] = field(default_factory=list)
    failed: bool = False


def _header(name: str, title: str) -> str:
    bar = "=" * 72
    return f"\n{bar}\n{name.upper()}: {title}\n{bar}"


def _jobs(spec: ExperimentSpec, root_seed: int, smoke: bool) -> list[JobSpec]:
    jobs = spec.build_jobs(root_seed)
    if smoke and spec.smoke is not None:
        jobs = [job for job in jobs if job.job_id in spec.smoke]
    return jobs


def _finish(spec: ExperimentSpec, results: list[JobResult], smoke: bool):
    """(final value, table text still to print) for one experiment."""
    bad = [r for r in results if not r.ok]
    if bad:
        text = "".join(
            f"\nJOB FAILED: {r.job_id}\n{r.error}" for r in bad
        )
        value = {"error": [
            {"job_id": r.job_id, "error": r.error} for r in bad
        ]}
        return value, text
    if spec.assemble is None:
        values = [r.value for r in results]
        return (values[0] if len(values) == 1 else values), ""
    sink = StringIO()
    with redirect_stdout(sink):
        value = spec.assemble([r.value for r in results], smoke)
    return value, sink.getvalue()


def run_experiments(
    selected: list[str],
    jobs: int = 1,
    cache=None,
    root_seed: int = 0,
    smoke: bool = False,
) -> RunOutcome:
    """Run a selection of experiments and print the paper artifact.

    ``jobs <= 1`` streams each experiment in order (monolithic bodies
    print live); ``jobs > 1`` fans every job of every selected
    experiment over the pool at once, then prints the experiment blocks
    in order from captured output.  ``smoke=True`` is the CI-sized run:
    each sweep keeps only the points its grid marks for smoke runs (the
    whole grid if it marks none).
    """
    outcome = RunOutcome()
    job_lists = {
        name: _jobs(EXPERIMENT_SPECS[name], root_seed, smoke)
        for name in selected
    }

    if jobs <= 1:
        for name in selected:
            spec = EXPERIMENT_SPECS[name]
            print(_header(name, spec.title))
            started = time.perf_counter()
            results = []
            for job in job_lists[name]:
                hit = cache.lookup(job) if cache is not None else None
                if hit is not None:
                    if hit.stdout:
                        sys.stdout.write(hit.stdout)
                    results.append(hit)
                    continue
                result = execute_job(job, tee=True)
                if cache is not None and result.ok:
                    cache.store(job, result)
                results.append(result)
            value, tail = _finish(spec, results, smoke)
            if tail:
                sys.stdout.write(tail)
            wall = time.perf_counter() - started
            _record(outcome, name, value, wall, results)
    else:
        flat = [job for name in selected for job in job_lists[name]]
        by_id = run_jobs(flat, jobs=jobs, cache=cache)
        for name in selected:
            spec = EXPERIMENT_SPECS[name]
            print(_header(name, spec.title))
            results = [by_id[job.job_id] for job in job_lists[name]]
            for result in results:
                if result.stdout:
                    sys.stdout.write(result.stdout)
            value, tail = _finish(spec, results, smoke)
            if tail:
                sys.stdout.write(tail)
            wall = sum(r.wall_s for r in results)
            _record(outcome, name, value, wall, results)
    return outcome


def _record(outcome: RunOutcome, name: str, value: Any, wall: float,
            results: list[JobResult]) -> None:
    outcome.values[name] = value
    outcome.timings_s[name] = wall
    outcome.job_results.extend(results)
    if any(not r.ok for r in results):
        outcome.failed = True
    print(f"\n[{name} completed in {wall:.1f} s wall clock]")
