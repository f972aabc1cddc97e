"""Pool mechanics: execution, crash isolation, parallel fan-out."""

import pytest

from repro.exp.pool import (
    JobSpec,
    default_jobs,
    execute_job,
    jsonable,
    resolve,
    run_jobs,
)


def _spec(job_id, fn, **params):
    return JobSpec.make(job_id, "t", fn, **params)


def test_resolve_imports_callable():
    fn = resolve("repro.experiments.report:fmt_ns")
    assert fn(1500.0) == "1.50 us"


def test_resolve_rejects_bare_module():
    with pytest.raises(ValueError):
        resolve("repro.experiments.report")


def test_execute_job_returns_value_and_timing():
    result = execute_job(_spec("t/fmt", "repro.experiments.report:fmt_ns",
                               value_ns=1500.0))
    assert result.ok
    assert result.value == "1.50 us"
    assert result.wall_s >= 0.0
    assert not result.cached


def test_execute_job_isolates_crashes():
    result = execute_job(_spec("t/boom", "repro.exp.pool:resolve",
                               fn_path="no-colon-here"))
    assert not result.ok
    assert result.value is None
    assert "ValueError" in result.error


def test_run_jobs_preserves_order_and_isolates_failures():
    specs = [
        _spec("t/good1", "repro.experiments.report:fmt_ns", value_ns=10.0),
        _spec("t/bad", "repro.exp.pool:resolve", fn_path="nope"),
        _spec("t/good2", "repro.experiments.report:fmt_ns", value_ns=2e6),
    ]
    results = run_jobs(specs, jobs=2)
    assert list(results) == ["t/good1", "t/bad", "t/good2"]
    assert results["t/good1"].value == "10 ns"
    assert not results["t/bad"].ok
    assert results["t/good2"].value == "2.00 ms"


def test_run_jobs_parallel_matches_serial():
    specs = [
        _spec(f"t/{i}", "repro.experiments.report:fmt_ns",
              value_ns=float(10 ** i))
        for i in range(6)
    ]
    serial = run_jobs(specs, jobs=1)
    parallel = run_jobs(specs, jobs=3)
    assert {k: r.value for k, r in serial.items()} == \
        {k: r.value for k, r in parallel.items()}


def test_default_jobs_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert default_jobs() == 4
    monkeypatch.setenv("REPRO_JOBS", "junk")
    assert default_jobs() == 1


def test_jsonable_roundtrips_dataclasses():
    from repro.experiments.load_sweep import LoadPoint

    point = LoadPoint(stack="linux", rate_per_sec=5e4, completed=3,
                      p50_ns=1.5, p99_ns=2.5)
    encoded = jsonable(point)
    assert LoadPoint(**encoded) == point
