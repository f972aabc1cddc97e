"""Process-pool job execution with crash isolation and timing.

A *job* is a pure function call: an importable callable plus primitive
keyword arguments, identified by a stable ``job_id``.  Jobs never share
state — every experiment point builds a fresh testbed from its
parameters and seed — so they can run in any order on any worker and
produce bit-identical results.

Workers return a structured :class:`JobResult` even when the job
raises: a crash in one grid point must not kill the other 24
experiments.  A job returns a value and prints nothing; its grid's
``assemble`` prints the tables from the values, so a value served from
a worker or from the cache renders byte for byte like a fresh one.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import re
import time
import traceback
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Iterable, Optional

__all__ = [
    "JobSpec",
    "JobResult",
    "default_jobs",
    "execute_job",
    "jsonable",
    "resolve",
    "run_jobs",
]


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` env var, else 1 (pure serial)."""
    value = os.environ.get("REPRO_JOBS", "").strip()
    if value:
        try:
            return max(1, int(value))
        except ValueError:
            pass
    return 1


def jsonable(value: Any) -> Any:
    """Recursively convert results to JSON-friendly data.

    Dataclass instances become field dicts, tuples become lists, and
    anything non-primitive falls back to ``repr``.  This is the shape
    stored in the result cache and emitted by ``run_all --json``.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    # Default object reprs embed the instance address, which differs per
    # process; strip it so results compare equal across workers and runs.
    return re.sub(r" at 0x[0-9a-fA-F]+", "", repr(value))


def resolve(fn_path: str) -> Callable:
    """Import ``"package.module:callable"`` and return the callable."""
    module_name, _, attr = fn_path.partition(":")
    if not attr:
        raise ValueError(f"job fn must be 'module:callable', got {fn_path!r}")
    return getattr(import_module(module_name), attr)


@dataclass(frozen=True)
class JobSpec:
    """One schedulable unit of experiment work.

    ``params`` is a sorted tuple of (name, value) pairs so specs hash
    and canonicalise deterministically; values must be primitives (they
    cross the process boundary and enter the cache key).
    """

    job_id: str
    experiment: str
    fn: str
    params: tuple[tuple[str, Any], ...] = ()
    #: the seed baked into ``params`` (None when the callable's own
    #: deterministic defaults apply); recorded in the cache key.
    seed: Optional[int] = None

    @property
    def kwargs(self) -> dict[str, Any]:
        return dict(self.params)

    @staticmethod
    def make(job_id: str, experiment: str, fn: str,
             seed: Optional[int] = None, **params: Any) -> "JobSpec":
        return JobSpec(
            job_id=job_id,
            experiment=experiment,
            fn=fn,
            params=tuple(sorted(params.items())),
            seed=seed,
        )


@dataclass
class JobResult:
    """Outcome of one job: value (JSON-able), timing, status."""

    job_id: str
    experiment: str
    ok: bool
    value: Any = None
    error: str = ""
    wall_s: float = 0.0
    cpu_s: float = 0.0
    cached: bool = False


def execute_job(spec: JobSpec) -> JobResult:
    """Run one job in this process; never raises.

    Exceptions become structured failures with the traceback in
    ``error``.
    """
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        value = resolve(spec.fn)(**spec.kwargs)
        ok, payload, error = True, jsonable(value), ""
    except Exception:
        ok, payload, error = False, None, traceback.format_exc()
    return JobResult(
        job_id=spec.job_id,
        experiment=spec.experiment,
        ok=ok,
        value=payload,
        error=error,
        wall_s=time.perf_counter() - wall0,
        cpu_s=time.process_time() - cpu0,
    )


def run_jobs(
    specs: Iterable[JobSpec],
    jobs: int = 1,
    cache=None,
) -> dict[str, JobResult]:
    """Run jobs (cache-aware), return results keyed by ``job_id``.

    Cache hits are resolved in the parent; only misses reach the pool.
    With ``jobs <= 1`` everything runs in-process.  Results come back in
    spec order regardless of completion order, and the parent — never a
    worker — writes cache entries, so ``.repro-cache/`` sees a single
    writer.
    """
    specs = list(specs)
    results: dict[str, JobResult] = {}
    misses: list[JobSpec] = []
    for spec in specs:
        hit = cache.lookup(spec) if cache is not None else None
        if hit is not None:
            results[spec.job_id] = hit
        else:
            misses.append(spec)
    if misses:
        if jobs <= 1 or len(misses) == 1:
            fresh = [execute_job(spec) for spec in misses]
        else:
            with multiprocessing.Pool(processes=min(jobs, len(misses))) as pool:
                fresh = pool.map(execute_job, misses, chunksize=1)
        for spec, result in zip(misses, fresh):
            results[spec.job_id] = result
            if cache is not None and result.ok:
                cache.store(spec, result)
    return {spec.job_id: results[spec.job_id] for spec in specs}
