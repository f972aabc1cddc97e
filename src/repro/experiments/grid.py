"""The one declaration a sweep experiment makes: its ``GRID``.

:mod:`repro.exp.jobs` derives every job spec, per-point seed, smoke run
and assembly from a sweep module's ``GRID``, so a new cell is one new
point.  This module imports nothing from :mod:`repro.exp` or another
experiment: ``repro.exp`` imports every experiment module, so an
experiment importing it would meet a half-initialised package, and the
result cache (which fingerprints a job by its module's import closure)
would key every experiment on every other experiment's source.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..faults.context import active_plan

__all__ = ["Grid", "artifact_path", "rendered", "write_json_artifact"]


@dataclass(frozen=True)
class Grid:
    """One sweep experiment: its points and how to reassemble them."""

    name: str
    title: str
    #: ``(key, "module:fn", kwargs)`` in job order.  The job id is
    #: ``"{name}/{key}"`` and the job calls
    #: ``repro.experiments.<module>.<fn>(**kwargs)``.
    points: tuple[tuple[str, str, dict], ...]
    #: ``(point values in order, smoke) -> result``: prints the tables
    #: and writes the artifact, if there is one
    assemble: Callable[[list, bool], Any]
    #: point functions take a ``seed`` keyword: 0 at root seed 0, else
    #: derived from (root seed, name, key)
    seeded: bool = False
    #: the point keys a smoke run keeps (None: every point)
    smoke: Optional[tuple[str, ...]] = None


def rendered(record: type, render: Callable[[list], None]
             ) -> Callable[[list, bool], list]:
    """The plain ``assemble``: rebuild each point's record, print them."""

    def assemble(values: list, smoke: bool) -> list:
        records = [record(**value) for value in values]
        render(records)
        return records

    return assemble


def artifact_path(path: str) -> str:
    """Where an artifact meant for ``path`` is written: under
    ``faults/`` beside it while a fault plan that injects something is
    active, so a faulted run never overwrites the committed artifacts."""
    plan = active_plan()
    if plan is None or not plan.active:
        return path
    directory, name = os.path.split(path)
    return os.path.join(directory, "faults", name)


def write_json_artifact(payload: dict, path: str) -> dict:
    """Write ``payload`` as indented JSON at ``artifact_path(path)``;
    return it."""
    path = artifact_path(path)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)
    return payload
