"""BENCH_e2e.json, the committed end-to-end baseline, and its recorder."""

import importlib.util
import json
import pathlib
import re
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

from attribution import LAYERS  # noqa: E402


@pytest.fixture(scope="module")
def bench_e2e():
    """tools/bench_e2e.py, which imports its sibling perf_ab."""
    sys.path.insert(0, str(REPO / "tools"))
    spec = importlib.util.spec_from_file_location(
        "bench_e2e", REPO / "tools" / "bench_e2e.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(REPO / "tools"))
        sys.modules.pop("perf_ab", None)


@pytest.fixture(scope="module")
def declared():
    return json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def baseline():
    return json.loads((REPO / "BENCH_e2e.json").read_text())


def test_baseline_records_its_settings_host_and_commit(baseline, declared):
    assert baseline["schema"] == 1
    assert baseline["command"] == declared["command"]
    assert baseline["seed"] == 1
    assert baseline["runs"] >= 5
    assert baseline["seconds"] == declared["run_seconds"]
    assert set(baseline["host"]) == {"python", "nproc", "cpu_count",
                                     "platform"}
    commit = baseline["commit"]
    assert re.fullmatch(r"[0-9a-f]{40}", commit["head"])
    assert isinstance(commit["dirty"], bool)
    assert re.fullmatch(r"[0-9a-f]{64}", commit["source_sha256"])


def test_baseline_covers_every_workload_and_metric(baseline, declared):
    assert list(baseline["workloads"]) == [
        entry["name"] for entry in declared["workloads"]]
    for name, record in baseline["workloads"].items():
        assert re.fullmatch(r"[0-9a-f]{64}", record["digest"]), name
        assert record["attempted"] > 0 and record["failed"] == 0, name
        metrics = record["end_to_end"]
        assert list(metrics) == [e["name"] for e in declared["end_to_end"]]
        for entry in declared["end_to_end"]:
            summary = metrics[entry["name"]]
            assert summary["unit"] == entry["unit"]
            assert len(summary["runs"]) == baseline["runs"]
            assert summary["q1"] <= summary["median"] <= summary["q3"]
            assert min(summary["runs"]) <= summary["median"]
            assert summary["median"] <= max(summary["runs"])


def test_baseline_trace_has_events_and_layer_shares(baseline):
    for name, record in baseline["workloads"].items():
        trace = record["trace"]
        assert trace["sim.events_per_req"] > 0, name
        shares = trace["shares"]
        assert set(shares) == set(LAYERS) | {"other"}, name
        assert sum(shares.values()) == pytest.approx(1.0), name


def test_summarise_takes_quartiles_over_runs(bench_e2e):
    runs = [bench_e2e.parse_output(
        f'digest: d\n{{"correct": true, "attempted": 10, "failed": 0, '
        f'"metrics": {{"norm_us_per_req": {{"value": {v}, "unit": "us"}}}}}}')
        for v in (5.0, 1.0, 4.0, 2.0, 3.0)]
    declared = [{"name": "norm_us_per_req", "unit": "us"}]
    summary = bench_e2e.summarise(runs, declared)["norm_us_per_req"]
    assert summary["median"] == 3.0
    assert summary["q1"] < 3.0 < summary["q3"]
    assert summary["runs"] == [5.0, 1.0, 4.0, 2.0, 3.0]


def test_traced_summary_keeps_events_and_shares_only(bench_e2e):
    run = bench_e2e.parse_output(json.dumps({
        "correct": True, "attempted": 1, "failed": 0, "metrics": {
            "sim.events_per_req": {"value": 41.5, "unit": "count/req"},
            "sim.share": {"value": 0.25, "unit": "frac"},
            "other.share": {"value": 0.75, "unit": "frac"},
            "sim.self_s": {"value": 1.0, "unit": "s"},
        }}))
    assert bench_e2e.traced_summary(run) == {
        "sim.events_per_req": 41.5,
        "shares": {"sim": 0.25, "other": 0.75},
    }
