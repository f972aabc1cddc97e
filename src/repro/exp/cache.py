"""Content-addressed result cache for experiment jobs.

A job's cache key is the SHA-256 of the canonical JSON of::

    {experiment id, fn, canonicalised params, seed, code fingerprint,
     active fault plan, active policy spec}

The *active fault plan* term is whatever
:func:`repro.faults.context.active_plan` resolves to at lookup time
(explicit scope or the ``REPRO_FAULTS`` env var), canonicalised to its
dataclass fields — so a plain run, ``--faults``, and two different
fault specs all key (and cache) separately, and ``run_all --faults``
no longer needs to disable the cache to stay correct.  A zero plan
keys identically to no plan, matching the null-plan byte-identity
property.

The *active policy spec* term mirrors the fault-plan fix for the
control plane (:mod:`repro.ctrl`): the ambient
:func:`repro.ctrl.context.active_policy_spec` is result-determining
state, so two different policy specs never collide in the cache.  An
inert spec keys as ``None``, matching the inert-controller
byte-identity contract.

The *code fingerprint* hashes the source bytes of every
``repro.*`` module the job's function transitively imports (resolved
statically from the import statements, including function-local ones).
Touching any module an experiment depends on — its own file, the
testbed, the NIC model, the sim engine — changes the fingerprint and
invalidates exactly the jobs that import it; editing the runner itself
(`repro.exp.*` is not imported by experiment code) invalidates nothing.

Entries are JSON files under ``.repro-cache/<experiment>/<key>.json``
(override the root with ``REPRO_CACHE_DIR``), carrying the job's
JSON-able value and timings.  Writes are atomic
(tmp + rename) and only the parent process writes, so concurrent
readers never observe torn entries.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import os
import time
from importlib import util as importlib_util
from pathlib import Path
from typing import Optional

from ..ctrl.context import active_policy_spec
from ..faults.context import active_plan
from .pool import JobResult, JobSpec

__all__ = ["ResultCache", "code_fingerprint", "module_closure"]

CACHE_VERSION = 4
_DEFAULT_ROOT = ".repro-cache"

# Per-process memos: module -> (path, direct repro imports), path -> sha.
_module_files: dict[str, Optional[str]] = {}
_direct_imports: dict[str, tuple[str, ...]] = {}
_file_hashes: dict[tuple[str, float, int], str] = {}


def _module_file(name: str) -> Optional[str]:
    """Source file for a ``repro.*`` module, or None if unresolvable."""
    if name in _module_files:
        return _module_files[name]
    path = None
    try:
        spec = importlib_util.find_spec(name)
        if spec is not None and spec.origin and spec.origin.endswith(".py"):
            path = spec.origin
    except (ImportError, AttributeError, ValueError):
        path = None
    _module_files[name] = path
    return path


def _resolve_from(package_parts: list[str], level: int,
                  module: Optional[str]) -> Optional[str]:
    """Absolute module named by a ``from ... import`` statement."""
    if level == 0:
        return module
    if level > len(package_parts):
        return None
    base = package_parts[:len(package_parts) - (level - 1)]
    if module:
        base = base + module.split(".")
    return ".".join(base)


def _direct_repro_imports(module_name: str) -> tuple[str, ...]:
    """``repro.*`` modules imported anywhere in ``module_name``'s source."""
    cached = _direct_imports.get(module_name)
    if cached is not None:
        return cached
    path = _module_file(module_name)
    found: set[str] = set()
    if path is not None:
        if path.endswith("__init__.py"):
            package_parts = module_name.split(".")
        else:
            package_parts = module_name.split(".")[:-1]
        tree = ast.parse(Path(path).read_bytes())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "repro" or alias.name.startswith("repro."):
                        found.add(alias.name)
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_from(package_parts, node.level, node.module)
                if not base or not (base == "repro"
                                    or base.startswith("repro.")):
                    continue
                if _module_file(base) is not None:
                    found.add(base)
                # `from repro.pkg import sub` may name a submodule.
                for alias in node.names:
                    candidate = f"{base}.{alias.name}"
                    if _module_file(candidate) is not None:
                        found.add(candidate)
    result = tuple(sorted(found))
    _direct_imports[module_name] = result
    return result


def module_closure(module_name: str) -> list[str]:
    """Transitive ``repro.*`` import closure, including the root."""
    seen: set[str] = set()
    queue = [module_name]
    while queue:
        name = queue.pop()
        if name in seen or _module_file(name) is None:
            continue
        seen.add(name)
        queue.extend(_direct_repro_imports(name))
    return sorted(seen)


def _file_hash(path: str) -> str:
    stat = os.stat(path)
    memo_key = (path, stat.st_mtime, stat.st_size)
    cached = _file_hashes.get(memo_key)
    if cached is None:
        cached = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        _file_hashes[memo_key] = cached
    return cached


def code_fingerprint(module_name: str) -> str:
    """Hash of the source of every module in ``module_name``'s closure."""
    digest = hashlib.sha256()
    for name in module_closure(module_name):
        path = _module_file(name)
        digest.update(name.encode())
        digest.update(b"\0")
        digest.update(_file_hash(path).encode())
        digest.update(b"\0")
    return digest.hexdigest()


class ResultCache:
    """JSON result store addressed by job content keys."""

    def __init__(self, root: Optional[str] = None):
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR", _DEFAULT_ROOT)
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def key(self, spec: JobSpec) -> str:
        module_name = spec.fn.partition(":")[0]
        # The ambient fault plan changes every testbed a job builds, so
        # it is result-determining state exactly like params and seed.
        # An inactive (zero) plan behaves byte-identically to no plan
        # and keys the same way.
        plan = active_plan()
        if plan is not None and not plan.active:
            plan = None
        # Same contract for the control plane: an inert spec behaves
        # byte-identically to no spec and keys the same way.
        policy = active_policy_spec()
        if policy is not None and policy.inert:
            policy = None
        material = json.dumps(
            {
                "version": CACHE_VERSION,
                "experiment": spec.experiment,
                "fn": spec.fn,
                "params": spec.params,
                "seed": spec.seed,
                "fingerprint": code_fingerprint(module_name),
                "faults": None if plan is None else dataclasses.asdict(plan),
                "policy": None if policy is None else policy.as_dict(),
            },
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        )
        return hashlib.sha256(material.encode()).hexdigest()

    def _path(self, spec: JobSpec) -> Path:
        return self.root / spec.experiment / f"{self.key(spec)}.json"

    def lookup(self, spec: JobSpec) -> Optional[JobResult]:
        """Return the cached result for ``spec``, or None on a miss."""
        path = self._path(spec)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return JobResult(
            job_id=spec.job_id,
            experiment=spec.experiment,
            ok=True,
            value=payload["value"],
            wall_s=payload.get("wall_s", 0.0),
            cpu_s=payload.get("cpu_s", 0.0),
            cached=True,
        )

    def store(self, spec: JobSpec, result: JobResult) -> None:
        """Persist a successful result (atomic write, parent-only)."""
        path = self._path(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "job_id": spec.job_id,
            "experiment": spec.experiment,
            "fn": spec.fn,
            "params": {name: value for name, value in spec.params},
            "seed": spec.seed,
            "value": result.value,
            "wall_s": result.wall_s,
            "cpu_s": result.cpu_s,
            "created_unix": time.time(),
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, indent=1))
        os.replace(tmp, path)
