"""Self-tests of the benchmark, at a tiny size.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import fnmatch
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import attribution  # noqa: E402
import calibrate  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: every workload shrunk to a few dozen requests and a few ms
TINY = {
    "ECHO_REQUESTS": 40, "ECHO_HORIZON_NS": 3 * scenarios.MS,
    "VICTIM_REQUESTS": 40, "AGGR_COUNT": 150,
    "STORM_DELAY_NS": 0.3 * scenarios.MS,
    "STORM_HORIZON_NS": 4 * scenarios.MS,
    "FLEET_VICTIM_REQUESTS": 60, "FLEET_AGGR_COUNT": 150,
    "FLEET_HORIZON_NS": 4 * scenarios.MS,
}


@pytest.fixture
def tiny(monkeypatch):
    for name, value in TINY.items():
        monkeypatch.setattr(scenarios, name, value)
    monkeypatch.setattr(run, "SETUPS_PER_REP", 1)
    # a calibration chunk after every slice
    monkeypatch.setattr(calibrate, "CAL_EVERY_S", 0.0)


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _result(argv, capsys) -> tuple[int, dict]:
    status = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return status, json.loads(lines[-1])


def test_every_source_file_maps_to_one_layer():
    package = os.path.join(ROOT, "src", "repro")
    seen = 0
    for directory, _dirs, files in os.walk(package):
        for name in files:
            if name.endswith(".py"):
                relative = os.path.relpath(os.path.join(directory, name),
                                           package).replace(os.sep, "/")
                assert attribution.layer_of(relative) in attribution.LAYERS
                seen += 1
    assert seen > 100


def test_layers_and_other_sum_to_the_traced_total(tiny):
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    scenarios.WORKLOADS["echo4.linux"](1)()
    profiler.disable()
    profiler.create_stats()
    out = attribution.attribute(profiler.stats,
                                os.path.join(ROOT, "src", "repro"))
    parts = sum(out[f"{layer}.self_s"] for layer in attribution.LAYERS)
    assert parts + out["other.self_s"] == pytest.approx(out["total_s"])
    assert out["sim.calls_in"] > 0
    assert out["obs.tail.self_s"] == 0.0


@pytest.mark.parametrize("workload", sorted(scenarios.WORKLOADS))
def test_outputs_pass_their_checks_and_digest_follows_the_seed(tiny,
                                                               workload):
    setup = scenarios.WORKLOADS[workload]
    meter = calibrate.Meter()
    first, again, other = setup(1)(), setup(1)(meter), setup(2)()
    assert first.problems == []
    assert other.problems == []
    assert first.failed == 0
    # the calibrated run simulates exactly what the plain one does
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()
    assert meter.chunks > 0 and meter.sim_s > 0


def test_benchmark_file_matches_the_code(bench):
    assert [w["name"] for w in bench["workloads"]] == list(scenarios.WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in {m["name"] for m in bench["end_to_end"]}


def test_every_per_layer_metric_has_an_expected_move(bench):
    with open(os.path.join(HERE, "expected_moves.json")) as handle:
        entries = json.load(handle)["entries"]
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    for entry in entries:
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["workloads"]) <= workloads
    for metric in bench["per_layer"]:
        assert any(fnmatch.fnmatchcase(metric["name"], pattern)
                   for entry in entries for pattern in entry["metrics"]), \
            metric["name"]


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_are_exactly_the_declared_ones(tiny, capsys, bench,
                                                       trace, key):
    status, result = _result(
        ["--workload", "tenant_storm", "--seed", "3", "--seconds", "0",
         "--trace", str(trace)], capsys)
    assert status == 0
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in bench[key]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    assert all(NAME.match(name) for name in emitted)


def test_without_the_simulator_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "echo4.linux",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
