"""Statistical confidence for the headline claim: across independent
seeds, Lauberhorn's latency and efficiency advantages are not noise."""

import pytest

from repro.experiments.dynamic_mix import MIX_STACKS, measure_mix_point
from repro.metrics import t_confidence_interval

SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def multiseed_results():
    rows = {"lauberhorn": [], "bypass": [], "linux": []}
    for seed in SEEDS:
        for stack in MIX_STACKS:
            rows[stack].append(
                measure_mix_point(stack, 8, n_requests=120, seed=seed))
    return rows


def test_p50_advantage_statistically_clear(multiseed_results):
    lauberhorn = t_confidence_interval(
        [r.p50_ns for r in multiseed_results["lauberhorn"]]
    )
    bypass = t_confidence_interval(
        [r.p50_ns for r in multiseed_results["bypass"]]
    )
    linux = t_confidence_interval(
        [r.p50_ns for r in multiseed_results["linux"]]
    )
    # Non-overlapping 95% CIs across seeds: the ordering is robust.
    assert not lauberhorn.overlaps(bypass)
    assert not bypass.overlaps(linux)
    assert lauberhorn.high < bypass.low < linux.low


def test_efficiency_advantage_statistically_clear(multiseed_results):
    lauberhorn = t_confidence_interval(
        [r.busy_ns_per_request for r in multiseed_results["lauberhorn"]]
    )
    bypass = t_confidence_interval(
        [r.busy_ns_per_request for r in multiseed_results["bypass"]]
    )
    assert lauberhorn.high * 10 < bypass.low


def test_all_seeds_completed(multiseed_results):
    for stack_rows in multiseed_results.values():
        assert all(r.completed == 120 for r in stack_rows)
