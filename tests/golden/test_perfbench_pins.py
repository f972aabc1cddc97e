"""Identity pins for the end-to-end benchmark's six workloads.

Each workload in ``perfbench/scenarios.py`` is built at seed 1, at full
size, and run once.  Its output digest (the measured stream, the
simulated counters and the post-run forensics) must equal the
``perfbench.<workload>`` pin in ``tests/golden/hashes.json``: a change
that only makes the simulator cheaper to run must not move a simulated
result.  The engine events the run dispatched must also stay at or
under a recorded ceiling, so one-shot delayed actions keep costing one
timer event each rather than quietly going back to throwaway processes
(three events each: start, timer, completion).
"""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import scenarios  # noqa: E402

SEED = 1
#: engine events dispatched per workload at SEED, recorded when the
#: timed callbacks went in.  Lower a ceiling when a change removes
#: events; raising one needs the reason written down.
EVENT_CEILINGS = {
    "echo4.linux": 47_469,
    "echo4.snap": 50_475,
    "echo4.bypass": 38_446,
    "echo4.lauberhorn": 35_953,
    "tenant_storm": 178_522,
    "fleet_mixed": 84_169,
}


@pytest.fixture(scope="module")
def pins():
    return json.loads((pathlib.Path(__file__).parent / "hashes.json")
                      .read_text())


@pytest.mark.parametrize("workload", list(scenarios.WORKLOADS))
def test_perfbench_workload_matches_its_pins(workload, pins):
    rep = scenarios.WORKLOADS[workload](SEED)()
    assert rep.problems == []
    pin = pins.get(f"perfbench.{workload}")
    assert pin is not None, (
        f"perfbench.{workload} has no pin in tests/golden/hashes.json — "
        "regenerate with `python tools/regen_golden.py --hashes`"
    )
    digest = rep.digest()
    assert digest == pin, (
        f"{workload} simulated outputs diverged from the pinned digest "
        f"({pin[:12]}… -> {digest[:12]}…); if the change is intentional, "
        "regenerate with `python tools/regen_golden.py --hashes`"
    )
    events = rep.engine["events"]
    assert events <= EVENT_CEILINGS[workload], (
        f"{workload} dispatched {events} engine events, over its ceiling "
        f"of {EVENT_CEILINGS[workload]}"
    )
