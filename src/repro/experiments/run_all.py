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
decomposed into independently schedulable jobs (one per grid point),
fanned out over ``--jobs N`` processes (default ``$REPRO_JOBS`` or 1),
and memoised in the content-addressed cache under ``.repro-cache/``
(keyed by experiment, params, seed, and the code fingerprint of the
modules each experiment imports).  The tables are identical at any job
count; re-runs only execute jobs whose key changed.
"""

from __future__ import annotations

import argparse
import json
import os

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


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.run_all", allow_abbrev=False,
        description="Run the experiments and print the paper's tables.")
    parser.add_argument("names", nargs="*", metavar="eN",
                        help="experiments to run (default: all)")
    parser.add_argument("--jobs", type=int, default=default_jobs(),
                        help="worker processes (default: $REPRO_JOBS, else 1)")
    parser.add_argument("--no-cache", dest="use_cache", action="store_false",
                        help="ignore and do not write .repro-cache/")
    parser.add_argument("--timings", action="store_true",
                        help="print a per-job wall/CPU table after the run")
    parser.add_argument("--json", metavar="PATH",
                        help="dump structured results + timings here")
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed; 0 reproduces the canonical runs")
    parser.add_argument("--faults", nargs="?", const="default",
                        metavar="SPEC",
                        help="run under a fault plan (default: 'default')")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_intermixed_args(argv)
    except SystemExit as stop:  # a bad flag: argparse printed why
        return stop.code
    if args.faults is not None:
        try:
            FaultPlan.from_spec(args.faults)
        except ValueError as error:
            print(f"--faults: {error}")
            return 2

    selected = [a.lower() for a in args.names] or list(EXPERIMENT_SPECS)
    unknown = [name for name in selected if name not in EXPERIMENT_SPECS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}")
        print(f"available: {', '.join(EXPERIMENT_SPECS)}")
        return 2

    cache = ResultCache() if args.use_cache else None
    # The plan travels to every testbed (and pool worker) via the
    # REPRO_FAULTS env var for the length of the run, and is part of
    # the result-cache key, so fault runs cache like any other (each
    # distinct spec under its own keys).
    previous = os.environ.get(ENV_VAR)
    if args.faults is not None:
        os.environ[ENV_VAR] = args.faults
    try:
        outcome = run_experiments(selected, jobs=max(1, args.jobs),
                                  cache=cache,
                                  root_seed=args.seed)
    finally:
        if previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous

    if args.timings:
        _print_timings(outcome, cache)
    if args.json is not None:
        payload = dict(outcome.values)
        payload["_timings_s"] = {
            name: round(wall, 6) for name, wall in outcome.timings_s.items()
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nraw results written to {args.json}")
    return 1 if outcome.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
