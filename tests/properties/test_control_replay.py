"""Control-plane determinism: same inputs ⇒ identical actuation log.

Policies are deterministic functions of the sampled signals and their
spec parameters (no ambient randomness), so an armed E22 cell must
replay bit-for-bit: the actuation log, the deferral count, and every
latency are pinned to the (stack, plan, policy, seed) tuple.  The
inert side of the contract — an inert cell runs byte-identical to a
build without the controller — is checked on every E22 ``none`` cell
by ``tests/obs/test_arming_is_inert.py`` and swept across E1-E21 by the
golden corpus.
"""

import pytest

from repro.experiments.e22_control import measure_control_cell


@pytest.mark.parametrize("stack,policy", [
    ("lauberhorn", "backoff"),
    ("linux", "tuner"),
])
def test_armed_cell_replays_identically(stack, policy):
    first = measure_control_cell(stack, "storm", policy, seed=0)
    second = measure_control_cell(stack, "storm", policy, seed=0)
    assert first == second
    assert first.actuations == second.actuations


def test_backoff_cell_actually_actuates_and_defers():
    cell = measure_control_cell("lauberhorn", "storm", "backoff", seed=0)
    assert cell.epochs >= 1
    assert cell.actuations, "storm plan never triggered the backoff policy"
    assert cell.deferrals > 0
    knobs = {record["knob"] for record in cell.actuations}
    assert "admission_hold" in knobs


def test_inert_cell_never_actuates():
    cell = measure_control_cell("bypass", "lossy", "none", seed=0)
    assert cell.actuations == []
    assert cell.epochs == 0


def test_seed_changes_the_run_not_just_the_label():
    base = measure_control_cell("lauberhorn", "storm", "backoff", seed=0)
    other = measure_control_cell("lauberhorn", "storm", "backoff", seed=7)
    assert (base.p50_rtt_ns, base.actuations) != \
        (other.p50_rtt_ns, other.actuations)
