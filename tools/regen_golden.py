#!/usr/bin/env python3
"""Regenerate the golden regression corpus under tests/golden/.

Runs every deterministic experiment at the default root seed and pins
its structured results: E1-E18 as full JSON files
(``tests/golden/<name>.json``), E19-E23 and the E24/E25 smoke artifacts
as SHA-256 digests (``tests/golden/hashes.json``, see
:mod:`repro.exp.golden`).  The same file pins the
output digest of each end-to-end benchmark workload
(``perfbench/scenarios.py``) at seed 1 as ``perfbench.<workload>`` and
at seed 3 as ``perfbench.<workload>.seed3``.
The tier-1 tests (``tests/golden/test_golden.py``,
``test_perfbench_pins.py``, ``tests/experiments/test_e24.py`` and
``test_e25.py``) re-run the experiments and workloads and compare
against these pins, so regenerate (``make regen-golden``) whenever an
intentional behaviour change shifts the numbers — and eyeball the git
diff to confirm the shift is the one you meant to make.

Both modes first evaluate the paper's claims (:mod:`repro.exp.claims`)
on what they just computed: if a claim fails, nothing is written, the
failing claim ids are printed and the exit status is 1.  A golden that
breaks a paper claim cannot be re-pinned by accident.

Usage::

    python tools/regen_golden.py            # all of e1..e18
    python tools/regen_golden.py e5 e11     # a subset
    python tools/regen_golden.py --hashes   # re-pin e19..e23, smoke and
                                            # perfbench digests
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import sys
import tempfile
from contextlib import redirect_stdout

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "perfbench"))

from repro.exp.claims import failures  # noqa: E402
from repro.exp.golden import (GOLDEN_EXPERIMENTS,  # noqa: E402
                              HASHED_EXPERIMENTS, golden_digest)
from repro.exp.jobs import run_experiments  # noqa: E402
from repro.experiments.e24_tenancy import TENANCY_ARTIFACT  # noqa: E402
from repro.experiments.e25_slo import SLO_ARTIFACT  # noqa: E402
from scenarios import WORKLOADS as PERFBENCH_WORKLOADS  # noqa: E402

GOLDEN_DIR = REPO / "tests" / "golden"
#: smoke-sized runs pinned by the digest of the artifact they write:
#: pin name -> (experiment, artifact path)
SMOKE_RUNS = {
    "e24_smoke": ("e24", TENANCY_ARTIFACT),
    "e25_smoke": ("e25", SLO_ARTIFACT),
}
#: the seeds the perfbench workload pins are recorded at; a second
#: seed catches a same-instant reorder that happens not to show at the
#: first
PERFBENCH_SEEDS = (1, 3)


def perfbench_pin(workload: str, seed: int) -> str:
    """The ``hashes.json`` key of ``workload``'s digest at ``seed``."""
    name = f"perfbench.{workload}"
    return name if seed == PERFBENCH_SEEDS[0] else f"{name}.seed{seed}"


def refuse_broken_claims(values: dict) -> bool:
    """Print the ids of the claims ``values`` break; True if any."""
    broken = failures(json.loads(json.dumps(values)))
    for claim_id in broken:
        print(f"claim fails: {claim_id}", file=sys.stderr)
    if broken:
        print("paper claims broken; nothing written", file=sys.stderr)
    return bool(broken)


def regenerate(names: list[str]) -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    tables = io.StringIO()
    with redirect_stdout(tables):
        outcome = run_experiments(list(names), jobs=1, cache=None,
                                  root_seed=0)
    if outcome.failed:
        sys.stdout.write(tables.getvalue())
        print("experiment failures; goldens NOT written", file=sys.stderr)
        return 1
    if refuse_broken_claims(outcome.values):
        return 1
    for name in names:
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(
            json.dumps(outcome.values[name], indent=2, sort_keys=True)
            + "\n"
        )
        print(f"wrote {path.relative_to(REPO)}")
    return 0


def regenerate_hashes() -> int:
    """Re-pin the digest corpus (artifact writes go to a tmp cwd)."""
    keep = os.getcwd()
    tables = io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            with redirect_stdout(tables):
                outcome = run_experiments(list(HASHED_EXPERIMENTS), jobs=1,
                                          cache=None, root_seed=0)
                smoke = run_experiments(
                    [name for name, _path in SMOKE_RUNS.values()], jobs=1,
                    cache=None, root_seed=0, smoke=True)
            smoke_pins = {
                pin: golden_digest(json.loads(pathlib.Path(path).read_text()))
                for pin, (_name, path) in SMOKE_RUNS.items()
            }
        finally:
            os.chdir(keep)
    if outcome.failed or smoke.failed:
        sys.stdout.write(tables.getvalue())
        print("experiment failures; hashes NOT written", file=sys.stderr)
        return 1
    if refuse_broken_claims({**outcome.values, **smoke.values}):
        return 1
    pins = {
        name: golden_digest(
            json.loads(json.dumps(outcome.values[name], sort_keys=True)))
        for name in HASHED_EXPERIMENTS
    }
    pins.update(smoke_pins)
    for name, workload in PERFBENCH_WORKLOADS.items():
        for seed in PERFBENCH_SEEDS:
            pins[perfbench_pin(name, seed)] = workload(seed)().digest()
    path = GOLDEN_DIR / "hashes.json"
    path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(REPO)}")
    return 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "--hashes":
        if argv[1:]:
            print("--hashes takes no further arguments", file=sys.stderr)
            return 2
        return regenerate_hashes()
    names = [a.lower() for a in argv] or list(GOLDEN_EXPERIMENTS)
    unknown = [n for n in names if n not in GOLDEN_EXPERIMENTS]
    if unknown:
        print(f"not golden experiments: {', '.join(unknown)} "
              f"(choose from {', '.join(GOLDEN_EXPERIMENTS)})",
              file=sys.stderr)
        return 2
    return regenerate(names)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
