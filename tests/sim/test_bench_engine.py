"""Smoke test for the engine microbenchmark harness.

Runs every benchmark at --quick size, headless, and checks the report
shape — so the tier-1 suite catches a bench_engine.py that no longer
runs long before anyone compares numbers across PRs.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = str(Path(__file__).resolve().parents[2] / "benchmarks")
if BENCH_DIR not in sys.path:  # benchmarks/ is not a package
    sys.path.insert(0, BENCH_DIR)

import bench_engine  # noqa: E402


def test_quick_run_writes_report(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert bench_engine.main(["--quick", "--repeat", "1",
                              "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["mode"] == "quick"
    assert report["has_cancel"] is True
    names = set(report["benchmarks"])
    assert names == {"timer_churn", "zero_delay_chain", "anyof_fanin",
                     "cancel_churn", "frame_churn"}
    for result in report["benchmarks"].values():
        assert result["events"] > 0
        assert result["events_per_sec"] > 0
        profile = result["profile"]
        assert profile["events_dispatched"] > 0
        assert profile["heap_high_water"] >= 0
    # The quick run prints a table but must not prompt or block.
    assert "benchmark" in capsys.readouterr().out


def test_benchmark_subset_selection(tmp_path):
    out = tmp_path / "subset.json"
    assert bench_engine.main(["--quick", "--repeat", "1", "--out", str(out),
                              "timer_churn"]) == 0
    report = json.loads(out.read_text())
    assert list(report["benchmarks"]) == ["timer_churn"]


def test_profile_counters_consistent():
    sim, events = bench_engine._run_timer_churn(50, 20)
    from repro.sim import attach_profile

    report = attach_profile(sim).report()
    assert report["events_dispatched"] >= events
    # Every timer in this workload is future-dated: all heap pushes.
    assert report["timer_pushes"] >= events
    assert 0 < report["heap_high_water"] <= 50 + 1
    assert report["timeouts_cancelled"] == 0
    assert report["pending_timers"] == 0  # run() drained the heap


def test_guard_fails_on_missing_baseline_entry():
    report = {"benchmarks": {
        "timer_churn": {"args": [1, 1], "events_per_sec": 100},
        "brand_new": {"args": [1, 1], "events_per_sec": 100},
    }}
    baseline = {"benchmarks": {
        "timer_churn": {"args": [1, 1], "events_per_sec": 100},
    }}
    failures = bench_engine.check_guard(report, baseline, tolerance=0.05)
    assert len(failures) == 1
    assert "brand_new" in failures[0]
    assert "no baseline entry" in failures[0]


def test_guard_update_rewrites_baseline_canonically(tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "benchmarks": {
            "retired_bench": {"args": [9, 9], "events_per_sec": 1},
        },
    }))
    assert bench_engine.main(["--quick", "--repeat", "1",
                              "--guard", str(baseline), "--update",
                              "timer_churn"]) == 0
    text = baseline.read_text()
    updated = json.loads(text)
    # The run's entries replace their baseline counterparts; untouched
    # entries survive, and the file is in canonical sorted-key order.
    assert "timer_churn" in updated["benchmarks"]
    assert "retired_bench" in updated["benchmarks"]
    assert text == json.dumps(updated, indent=2, sort_keys=True) + "\n"
