"""End-to-end runner behavior: CLI flags, parity, cache reuse."""

import json
import os

from repro.exp.cache import ResultCache
from repro.exp.jobs import EXPERIMENT_SPECS, build_jobs, run_experiments
from repro.experiments import run_all
from repro.experiments.run_all import main
from repro.faults.context import ENV_VAR, active_plan

FAST = ["e7", "e18"]  # sub-second experiments: one part, one sweep


def _tables(text: str) -> str:
    """Output minus the (run-dependent) per-experiment timing lines."""
    return "\n".join(
        line for line in text.splitlines() if "completed in" not in line
    )


def test_registry_covers_all_experiments():
    assert list(EXPERIMENT_SPECS) == [f"e{i}" for i in range(1, 26)]
    for name, spec in EXPERIMENT_SPECS.items():
        jobs = build_jobs(spec, 0)
        assert jobs, name
        assert len({job.job_id for job in jobs}) == len(jobs)
        assert all(job.experiment == name for job in jobs)


def test_subset_selection_and_order(capsys):
    assert main(["e18", "e7", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert out.index("E18:") < out.index("E7:")
    assert "E1:" not in out


def test_unknown_experiment_exit_code():
    assert main(["e7", "e99", "--no-cache"]) == 2


def test_flag_value_errors():
    assert main(["--jobs"]) == 2
    assert main(["--jobs", "two"]) == 2
    assert main(["--json"]) == 2


def test_faults_flag_is_scoped_to_the_run(monkeypatch):
    seen = []

    def spy(*args, **kwargs):
        seen.append(os.environ.get(ENV_VAR))
        return run_experiments(*args, **kwargs)

    monkeypatch.setattr(run_all, "run_experiments", spy)
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert main(["e7", "--faults", "--no-cache"]) == 0
    assert ENV_VAR not in os.environ
    assert active_plan() is None
    monkeypatch.setenv(ENV_VAR, "loss=0.01")
    assert main(["e7", "--faults", "stall=0.02", "--no-cache"]) == 0
    assert os.environ[ENV_VAR] == "loss=0.01"
    # pool workers inherit the plan through the environment
    assert seen == ["default", "stall=0.02"]


def test_json_includes_timings(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(["e7", "--no-cache", "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["e7"][0]["ok"] is True
    assert set(data["_timings_s"]) == {"e7"}
    assert data["_timings_s"]["e7"] >= 0.0


def test_parallel_results_and_tables_match_serial(capsys):
    serial = run_experiments(FAST, jobs=1, cache=None)
    serial_out = capsys.readouterr().out
    parallel = run_experiments(FAST, jobs=2, cache=None)
    parallel_out = capsys.readouterr().out
    assert serial.values == parallel.values
    assert _tables(serial_out) == _tables(parallel_out)
    assert not serial.failed and not parallel.failed


def test_cache_reuse_and_identical_replay(tmp_path, capsys):
    cache = ResultCache(root=tmp_path)
    cold = run_experiments(FAST, jobs=1, cache=cache)
    cold_out = capsys.readouterr().out
    assert cache.hits == 0 and cache.misses > 0

    warm_cache = ResultCache(root=tmp_path)
    warm = run_experiments(FAST, jobs=1, cache=warm_cache)
    warm_out = capsys.readouterr().out
    assert warm_cache.misses == 0
    assert warm_cache.hits == cache.misses
    assert warm.values == cold.values
    assert _tables(warm_out) == _tables(cold_out)
    assert all(r.cached for r in warm.job_results)


def test_timings_flag_prints_job_table(capsys):
    assert main(["e7", "--no-cache", "--timings"]) == 0
    out = capsys.readouterr().out
    assert "Per-job timings" in out
    assert "e7/main" in out


def test_failure_is_isolated_and_reported(capsys, monkeypatch):
    import dataclasses

    broken = (("main", "model_check:run_model_check", {"bogus": 1}),)
    monkeypatch.setitem(
        EXPERIMENT_SPECS, "e7",
        dataclasses.replace(EXPERIMENT_SPECS["e7"], points=broken),
    )
    outcome = run_experiments(["e7", "e18"], jobs=1, cache=None)
    out = capsys.readouterr().out
    assert outcome.failed
    assert "JOB FAILED: e7/main" in out
    assert "error" in outcome.values["e7"]
    assert "e18" in outcome.values and "error" not in outcome.values["e18"]
