"""Run every experiment (E1-E25) and print the paper-shaped output.

Usage::

    python -m repro.experiments.run_all                   # everything
    python -m repro.experiments.run_all e1 e5 e7          # a subset
    python -m repro.experiments.run_all --json out.json   # + raw results
    python -m repro.experiments.run_all --jobs 4          # process pool
    python -m repro.experiments.run_all --no-cache        # force re-run
    python -m repro.experiments.run_all --timings         # per-job table
    python -m repro.experiments.run_all --faults          # fault plan on
    python -m repro.experiments.run_all --faults loss=0.01,stall=0.02

The printed tables are the reproduction's equivalents of the paper's
figures; EXPERIMENTS.md records a captured run next to the paper's own
numbers.  ``--json`` additionally dumps every experiment's structured
results (dataclasses, recursively serialised) plus per-experiment wall
clock under the ``"_timings_s"`` key.

This module is a thin CLI over :mod:`repro.exp`: experiments are
decomposed into independently schedulable jobs (one per sweep point),
fanned out over ``--jobs N`` processes (default ``$REPRO_JOBS`` or 1),
and memoised in the content-addressed cache under ``.repro-cache/``
(keyed by experiment, params, seed, and the code fingerprint of the
modules each experiment imports).  The tables are identical at any job
count; re-runs only execute jobs whose key changed.
"""

from __future__ import annotations

import json
import os
import sys

from ..exp.cache import ResultCache
from ..faults.context import ENV_VAR
from ..faults.plan import FaultPlan
from ..exp.jobs import EXPERIMENT_SPECS, run_experiments
from ..exp.pool import default_jobs, jsonable as _jsonable
from .report import format_table

__all__ = ["main"]


def _print_timings(outcome, cache) -> None:
    rows = [
        (r.job_id, "cache" if r.cached else "ran",
         f"{r.wall_s:.3f}", f"{r.cpu_s:.3f}")
        for r in outcome.job_results
    ]
    print()
    print(format_table(["job", "source", "wall s", "cpu s"], rows,
                       title="Per-job timings"))
    if cache is not None:
        print(f"\ncache: {cache.hits} hit(s), {cache.misses} miss(es) "
              f"under {cache.root}/")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    json_path = None
    jobs = default_jobs()
    root_seed = 0
    use_cache = True
    show_timings = False
    fault_spec = None
    names: list[str] = []

    index = 0
    while index < len(argv):
        arg = argv[index]
        if arg == "--json":
            if index + 1 >= len(argv):
                print("--json needs a path")
                return 2
            json_path = argv[index + 1]
            index += 2
        elif arg in ("--jobs", "--seed"):
            if index + 1 >= len(argv):
                print(f"{arg} needs an integer")
                return 2
            try:
                value = int(argv[index + 1])
            except ValueError:
                print(f"{arg} needs an integer")
                return 2
            if arg == "--jobs":
                jobs = max(1, value)
            else:
                root_seed = value
            index += 2
        elif arg == "--no-cache":
            use_cache = False
            index += 1
        elif arg == "--faults":
            # Optional spec argument ("default,loss=0.05"); bare --faults
            # means the default plan.
            fault_spec = "default"
            if index + 1 < len(argv) and "=" in argv[index + 1]:
                fault_spec = argv[index + 1]
                index += 1
            try:
                FaultPlan.from_spec(fault_spec)
            except ValueError as error:
                print(f"--faults: {error}")
                return 2
            index += 1
        elif arg == "--timings":
            show_timings = True
            index += 1
        else:
            names.append(arg)
            index += 1

    selected = [a.lower() for a in names] or list(EXPERIMENT_SPECS)
    unknown = [name for name in selected if name not in EXPERIMENT_SPECS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}")
        print(f"available: {', '.join(EXPERIMENT_SPECS)}")
        return 2

    cache = ResultCache() if use_cache else None
    # The plan travels to every testbed (and pool worker) via the
    # REPRO_FAULTS env var for the length of the run, and is part of
    # the result-cache key, so fault runs cache like any other (each
    # distinct spec under its own keys).
    previous = os.environ.get(ENV_VAR)
    if fault_spec is not None:
        os.environ[ENV_VAR] = fault_spec
    try:
        outcome = run_experiments(selected, jobs=jobs, cache=cache,
                                  root_seed=root_seed)
    finally:
        if previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous

    if show_timings:
        _print_timings(outcome, cache)
    if json_path is not None:
        payload = dict(outcome.values)
        payload["_timings_s"] = {
            name: round(wall, 6) for name, wall in outcome.timings_s.items()
        }
        with open(json_path, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nraw results written to {json_path}")
    return 1 if outcome.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
