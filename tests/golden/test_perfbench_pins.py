"""Identity pins for the end-to-end benchmark's six workloads.

Each workload in ``perfbench/scenarios.py`` is built at seeds 1 and 3,
at full size, and run once per seed.  Its output digest (the measured
stream, the simulated counters and the post-run forensics) must equal
the ``perfbench.<workload>`` pin (seed 1) or the
``perfbench.<workload>.seed3`` pin in ``tests/golden/hashes.json``: a
change that only makes the simulator cheaper to run must not move a
simulated result, and a same-instant reorder that happens not to show
at one seed can show at the other.  The engine events the seed-1 run
dispatched must also stay at or under a recorded ceiling, so one-shot
delayed actions keep costing one timer event each and fire-and-forget
work keeps running without a process (whose start and completion
events cost two more each).
"""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import scenarios  # noqa: E402

SEED = 1
#: the second pinned seed, with pins named ``perfbench.<workload>.seed3``
SECOND_SEED = 3
#: engine events dispatched per workload at SEED, recorded when frames
#: began to cross the fabric by timer callbacks, with no process woken
#: per switch port, trunk or client.  Lower a ceiling when a change
#: removes events; raising one needs the reason written down.
EVENT_CEILINGS = {
    "echo4.linux": 41_966,
    "echo4.snap": 44_972,
    "echo4.bypass": 32_943,
    "echo4.lauberhorn": 28_250,
    "tenant_storm": 138_653,
    "fleet_mixed": 68_775,
}


@pytest.fixture(scope="module")
def pins():
    return json.loads((pathlib.Path(__file__).parent / "hashes.json")
                      .read_text())


def _run_against_pin(workload: str, seed: int, name: str, pins: dict):
    """Run ``workload`` at ``seed``; its digest must equal pin ``name``."""
    rep = scenarios.WORKLOADS[workload](seed)()
    assert rep.problems == []
    pin = pins.get(name)
    assert pin is not None, (
        f"{name} has no pin in tests/golden/hashes.json — "
        "regenerate with `python tools/regen_golden.py --hashes`"
    )
    digest = rep.digest()
    assert digest == pin, (
        f"{workload} at seed {seed}: simulated outputs diverged from the "
        f"pinned digest ({pin[:12]}… -> {digest[:12]}…); if the change is "
        "intentional, regenerate with `python tools/regen_golden.py --hashes`"
    )
    return rep


@pytest.mark.parametrize("workload", list(scenarios.WORKLOADS))
def test_perfbench_workload_matches_its_pins(workload, pins):
    rep = _run_against_pin(workload, SEED, f"perfbench.{workload}", pins)
    events = rep.engine["events"]
    assert events <= EVENT_CEILINGS[workload], (
        f"{workload} dispatched {events} engine events, over its ceiling "
        f"of {EVENT_CEILINGS[workload]}"
    )


@pytest.mark.parametrize("workload", list(scenarios.WORKLOADS))
def test_perfbench_workload_matches_its_second_seed_pin(workload, pins):
    _run_against_pin(workload, SECOND_SEED,
                     f"perfbench.{workload}.seed{SECOND_SEED}", pins)
