"""tools/perf_ab.py: the gain rule on synthetic paired samples."""

import importlib.util
import json
import pathlib
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent.parent


@pytest.fixture(scope="module")
def perf_ab():
    spec = importlib.util.spec_from_file_location(
        "perf_ab", REPO / "tools" / "perf_ab.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve it by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


#: a parent whose quartiles are 97.75 and 103.25 (spread 5.5)
PARENT = [100.0, 96.0, 104.0, 99.0, 101.0, 98.0, 103.0, 97.0, 102.0, 105.0]


def test_nine_wins_inside_the_spread_is_not_a_gain(perf_ab):
    change = [p - 2.0 for p in PARENT]
    change[0] = PARENT[0] + 1.0  # the one pair the parent wins
    result = perf_ab.verdict(PARENT, change, "lower")
    assert (result.pairs, result.wins) == (10, 9)
    assert result.spread == pytest.approx(5.5)
    assert 0 < result.gap < result.spread
    assert not result.met


def test_nine_wins_beyond_the_spread_is_a_gain(perf_ab):
    change = [p - 10.0 for p in PARENT]
    change[3] = PARENT[3] + 1.0
    result = perf_ab.verdict(PARENT, change, "lower")
    assert result.wins == 9 and result.gap > result.spread
    assert result.met


def test_eight_wins_is_not_a_gain_whatever_the_gap(perf_ab):
    change = [p - 50.0 for p in PARENT]
    change[0] = change[1] = 1000.0
    result = perf_ab.verdict(PARENT, change, "lower")
    assert result.wins == 8 and result.gap > result.spread
    assert not result.met


def test_three_of_three_wins_is_too_few_pairs(perf_ab):
    parent = PARENT[:3]
    change = [p - 50.0 for p in parent]
    result = perf_ab.verdict(parent, change, "lower")
    assert (result.pairs, result.wins) == (3, 3)
    assert result.gap > result.spread
    assert not result.met


def test_ties_count_for_neither_side(perf_ab):
    change = [p - 10.0 for p in PARENT]
    change[5] = PARENT[5]
    result = perf_ab.verdict(PARENT, change, "lower")
    assert result.wins == 9


def test_higher_is_better_flips_the_sign(perf_ab):
    change = [p + 10.0 for p in PARENT]
    assert perf_ab.verdict(PARENT, change, "higher").met
    assert not perf_ab.verdict(PARENT, change, "lower").met
    assert perf_ab.verdict(PARENT, change, "lower").gap < 0


def test_unpaired_samples_are_rejected(perf_ab):
    with pytest.raises(ValueError):
        perf_ab.verdict(PARENT, PARENT[:-1], "lower")


def test_parse_output_reads_the_digest_and_the_json_line(perf_ab):
    result = {"correct": True, "attempted": 30, "failed": 0,
              "metrics": {"norm_us_per_req": {"value": 201.5, "unit": "us"}}}
    stdout = "\n".join(["perfbench: workload=echo4.linux seed=3",
                        "digest: abc123", "checks: ok",
                        "  norm_us_per_req 201.5 us", json.dumps(result)])
    run = perf_ab.parse_output(stdout)
    assert (run.digest, run.correct, run.attempted, run.failed) == (
        "abc123", True, 30, 0)
    assert run.metrics == {"norm_us_per_req": 201.5}


def _run(perf_ab, digest="abc", correct=True, attempted=30, failed=0):
    return perf_ab.Run(digest, correct, attempted, failed,
                       {"norm_us_per_req": 1.0})


def test_agreeing_pair_has_no_problems(perf_ab):
    assert perf_ab.pair_problems(1, _run(perf_ab), _run(
        perf_ab, attempted=40)) == []


def test_pair_problems_name_each_disagreement(perf_ab):
    problems = perf_ab.pair_problems(
        2, _run(perf_ab, correct=False, failed=1),
        _run(perf_ab, digest="abd", failed=2))
    assert problems == [
        "pair 2: parent failed its checks",
        "pair 2: digests differ (abc vs abd)",
        "pair 2: failed shares differ (0.0333333 vs 0.0666667)",
    ]


def test_a_run_that_attempted_nothing_is_a_problem(perf_ab):
    problems = perf_ab.pair_problems(3, _run(perf_ab, attempted=0),
                                     _run(perf_ab))
    assert problems == ["pair 3: parent attempted no requests"]
