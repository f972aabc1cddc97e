"""Cache keys, fingerprints, and invalidation rules."""

from pathlib import Path

import repro.experiments.sched_state
from repro.exp.cache import ResultCache, code_fingerprint, module_closure
from repro.exp.pool import JobSpec, execute_job


def _spec(job_id="e7/main", experiment="e7",
          fn="repro.experiments.model_check:run_model_check", seed=None,
          **params):
    return JobSpec.make(job_id, experiment, fn, seed=seed, **params)


def test_module_closure_is_transitive():
    closure = module_closure("repro.experiments.load_sweep")
    assert "repro.experiments.load_sweep" in closure
    assert "repro.experiments.testbed" in closure   # direct import
    assert "repro.sim.engine" in closure            # transitive
    runner_modules = {"repro.exp", "repro.exp.cache", "repro.exp.jobs",
                      "repro.exp.pool"}
    assert not (set(closure) & runner_modules), \
        "runner modules must not invalidate experiment results"


def test_store_then_lookup_roundtrip(tmp_path):
    cache = ResultCache(root=tmp_path)
    spec = _spec()
    assert cache.lookup(spec) is None
    result = execute_job(spec)
    assert result.ok
    cache.store(spec, result)
    hit = cache.lookup(spec)
    assert hit is not None and hit.cached
    assert hit.value == result.value


def test_key_changes_with_params_and_seed(tmp_path):
    cache = ResultCache(root=tmp_path)
    base = _spec(fn="repro.experiments.report:fmt_ns", value_ns=1.0)
    other_params = _spec(fn="repro.experiments.report:fmt_ns", value_ns=2.0)
    other_seed = _spec(fn="repro.experiments.report:fmt_ns", seed=7,
                       value_ns=1.0)
    keys = {cache.key(base), cache.key(other_params), cache.key(other_seed)}
    assert len(keys) == 3


def test_code_change_invalidates_only_importers(tmp_path):
    cache = ResultCache(root=tmp_path)
    touched = _spec(fn="repro.experiments.sched_state:run_sched_state",
                    experiment="e8", job_id="e8/main")
    untouched = _spec(fn="repro.experiments.model_check:run_model_check")
    key_touched = cache.key(touched)
    key_untouched = cache.key(untouched)

    target = Path(repro.experiments.sched_state.__file__)
    original = target.read_bytes()
    try:
        target.write_bytes(original + b"\n# fingerprint probe\n")
        assert cache.key(touched) != key_touched
        assert cache.key(untouched) == key_untouched
    finally:
        target.write_bytes(original)


def test_key_includes_active_fault_plan(tmp_path):
    from repro.faults.context import active
    from repro.faults.plan import FaultPlan

    cache = ResultCache(root=tmp_path)
    spec = _spec()
    calm_key = cache.key(spec)

    with active(FaultPlan.from_spec("default")):
        default_key = cache.key(spec)
        assert cache.key(spec) == default_key  # stable under one plan
    assert default_key != calm_key

    # Distinct specs key separately; re-entering a spec reproduces it.
    with active(FaultPlan.from_spec("loss=0.01")):
        low_loss_key = cache.key(spec)
    with active(FaultPlan.from_spec("loss=0.02")):
        assert cache.key(spec) != low_loss_key
    with active(FaultPlan.from_spec("loss=0.01")):
        assert cache.key(spec) == low_loss_key

    # An all-zero plan is behaviourally a no-plan run and keys as one.
    with active(FaultPlan()):
        assert cache.key(spec) == calm_key


def test_faulty_results_cached_separately(tmp_path):
    from repro.faults.context import active
    from repro.faults.plan import FaultPlan

    cache = ResultCache(root=tmp_path)
    spec = _spec(fn="repro.experiments.report:fmt_ns", value_ns=1.0)
    calm = execute_job(spec)
    cache.store(spec, calm)
    with active(FaultPlan.from_spec("default")):
        assert cache.lookup(spec) is None  # calm result must not leak in
        cache.store(spec, execute_job(spec))
        assert cache.lookup(spec) is not None
    assert cache.lookup(spec) is not None  # calm entry still intact


def test_fingerprint_stable_within_process():
    assert (code_fingerprint("repro.experiments.model_check")
            == code_fingerprint("repro.experiments.model_check"))


def test_policy_spec_is_part_of_the_key():
    from repro.ctrl import PolicySpec
    from repro.ctrl.context import active

    cache = ResultCache()
    spec = _spec()
    bare_key = cache.key(spec)

    with active(PolicySpec.from_spec("backoff,epoch=4")):
        backoff_key = cache.key(spec)
    with active(PolicySpec.from_spec("tuner")):
        tuner_key = cache.key(spec)
    assert len({bare_key, backoff_key, tuner_key}) == 3

    # Same spec ⇒ same key (replay), different params ⇒ different key.
    with active(PolicySpec.from_spec("backoff,epoch=4")):
        assert cache.key(spec) == backoff_key
    with active(PolicySpec.from_spec("backoff,epoch=8")):
        assert cache.key(spec) != backoff_key

    # An inert spec behaves byte-identically to no spec and keys as one.
    with active(PolicySpec.from_spec("none")):
        assert cache.key(spec) == bare_key


def test_policy_results_cached_separately(tmp_path):
    from repro.ctrl import PolicySpec
    from repro.ctrl.context import active

    cache = ResultCache(root=tmp_path)
    spec = _spec(fn="repro.experiments.report:fmt_ns", value_ns=1.0)
    cache.store(spec, execute_job(spec))
    with active(PolicySpec.from_spec("backoff")):
        assert cache.lookup(spec) is None  # bare result must not leak in
        cache.store(spec, execute_job(spec))
        assert cache.lookup(spec) is not None
    assert cache.lookup(spec) is not None  # bare entry still intact


def test_policy_env_var_reaches_the_key(monkeypatch):
    from repro.ctrl.context import ENV_VAR

    cache = ResultCache()
    spec = _spec()
    bare_key = cache.key(spec)
    monkeypatch.setenv(ENV_VAR, "backoff,epoch=4")
    assert cache.key(spec) != bare_key
    monkeypatch.setenv(ENV_VAR, "none")
    assert cache.key(spec) == bare_key
