"""Experiment orchestration: job registry, process pool, result cache.

``repro.experiments.run_all`` is a thin CLI over this package:

* :mod:`repro.exp.jobs`  — every experiment decomposed into pure,
  independently schedulable *jobs* (one per point of its ``GRID``),
  plus the orchestrator that runs a selection and hands the values to
  each grid's ``assemble``, which prints the paper-shaped tables;
* :mod:`repro.exp.pool`  — the ``multiprocessing`` fan-out with
  deterministic per-job seeding, crash isolation, and per-job timing;
* :mod:`repro.exp.cache` — the content-addressed result cache under
  ``.repro-cache/`` keyed by (experiment, params, seed, code
  fingerprint).
"""

from .cache import ResultCache
from .jobs import EXPERIMENT_SPECS, run_experiments
from .pool import JobResult, JobSpec, default_jobs, execute_job, run_jobs

__all__ = [
    "EXPERIMENT_SPECS",
    "JobResult",
    "JobSpec",
    "ResultCache",
    "default_jobs",
    "execute_job",
    "run_experiments",
    "run_jobs",
]
