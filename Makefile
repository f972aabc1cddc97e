# Targets:
#   test               tier-1 suite (ROADMAP.md): pytest -x -q, stop on
#                      first failure — the gate every PR must keep green
#   test-fast          alias of the tier-1 command (kept for muscle memory)
#   test-props         property tests only (replay, null-plan, fault matrix)
#   test-faults        fault-injection + invariant-layer tests only
#   regen-golden       re-record tests/golden/*.json + hashes.json (then
#                      review the diff!)
#   coverage           src/repro line coverage (stdlib tracer) -> coverage.json
#   bench-engine       sim-engine microbenchmarks -> BENCH_engine.json
#   bench-engine-quick CI-sized engine smoke (seconds, not minutes)
#   bench-frames       frame-churn benchmark alone: Frame build/parse
#                      allocation diet (slots + lazy meta)
#   bench-guard        engine benchmarks vs the recorded BENCH_engine.json
#                      baseline; fails on a >5% events/sec regression
#                      (run with --update via bench-engine to re-record)
#   bench-runall       serial-vs-parallel + cold-vs-warm-cache wall clock
#                      for the experiment runner -> BENCH_runall.json
#   run-all            all 25 experiments, serial (bit-for-bit the
#                      historical output)
#   run-all-par        the same artifact fanned out over REPRO_JOBS
#                      workers (default 4); tables are identical
#   run-all-faults     the artifact under the default fault plan (cached
#                      under its own keys — the plan is in the cache key)
#   run-e20            the observability experiment alone: per-stage
#                      attribution + overhead + results/e20_trace.json
#   run-e21            timelines/flight/tail forensics alone ->
#                      results/e21_timeline.json
#   run-e22            control-plane policy tournaments + epoch
#                      migration -> results/e22_control.json
#   run-e23            rack-scale fleet grid: replica scaling, Zipf
#                      skew, NIC placement -> results/e23_fleet.json
#   run-e24            multi-tenant isolation grid: budgets, DWRR,
#                      noisy neighbours -> results/e24_tenancy.json
#   run-e25            tenant SLO grid: burn-rate alerts, budget
#                      ledgers, flame attribution -> results/e25_slo.json
#   trace-export       Perfetto/Chrome-trace artifact for all four
#                      stacks -> results/e20_trace.json (schema-checked)
#   dashboard          self-contained HTML from the E21 artifact (plus
#                      the E25 SLO/flamegraph pane when its artifact
#                      exists) -> results/e21_dashboard.html
#   flamegraph         collapsed-stack + speedscope exports from the
#                      E25 artifact (see tools/flamegraph.py --help)
PYTHON ?= python
export PYTHONPATH := src
REPRO_JOBS ?= 4
#: CI coverage gate; see .github/workflows/ci.yml for the recorded baseline
COVER_MIN ?= 92

.PHONY: test test-fast test-props test-faults regen-golden coverage \
	bench-engine bench-engine-quick bench-frames bench-guard bench-runall \
	run-all run-all-par run-all-faults run-e20 run-e21 run-e22 \
	run-e23 run-e24 run-e25 trace-export dashboard flamegraph

test:
	$(PYTHON) -m pytest -x -q

test-fast:
	$(PYTHON) -m pytest -x -q

test-props:
	$(PYTHON) -m pytest tests/properties -q

test-faults:
	$(PYTHON) -m pytest tests/faults tests/check tests/net/test_link_drops.py -q

regen-golden:
	$(PYTHON) tools/regen_golden.py
	$(PYTHON) tools/regen_golden.py --hashes

coverage:
	$(PYTHON) tools/coverage_gate.py --fail-under $(COVER_MIN) --report coverage.json

# Engine microbenchmarks; writes BENCH_engine.json at the repo root so
# successive PRs can track the events/sec trajectory.
bench-engine:
	$(PYTHON) benchmarks/bench_engine.py --out BENCH_engine.json

# CI-sized smoke run of the same benchmarks (seconds, not minutes).
bench-engine-quick:
	$(PYTHON) benchmarks/bench_engine.py --quick

# Frame allocation diet alone: one built+parsed UDP frame per event.
bench-frames:
	$(PYTHON) benchmarks/bench_engine.py frame_churn

# Regression fence: fail if the engine hot path lost more than 5%
# events/sec against the recorded baseline (use --repeat to de-noise).
bench-guard:
	$(PYTHON) benchmarks/bench_engine.py --guard BENCH_engine.json --repeat 5

bench-runall:
	$(PYTHON) benchmarks/bench_runall.py --out BENCH_runall.json

run-all:
	$(PYTHON) -m repro.experiments.run_all

run-all-par:
	$(PYTHON) -m repro.experiments.run_all --jobs $(REPRO_JOBS)

run-all-faults:
	$(PYTHON) -m repro.experiments.run_all --faults

run-e20:
	$(PYTHON) -m repro.experiments.run_all e20

run-e21:
	$(PYTHON) -m repro.experiments.run_all e21

# Policy tournaments + epoch migration -> results/e22_control.json.
run-e22:
	$(PYTHON) -m repro.experiments.run_all e22

# Rack-scale fleets (scaling/skew/placement) -> results/e23_fleet.json.
run-e23:
	$(PYTHON) -m repro.experiments.run_all e23

# Multi-tenant isolation (noisy neighbours) -> results/e24_tenancy.json.
run-e24:
	$(PYTHON) -m repro.experiments.run_all e24

# Tenant SLOs: burn-rate alerts, budgets, flames -> results/e25_slo.json.
run-e25:
	$(PYTHON) -m repro.experiments.run_all e25

trace-export:
	$(PYTHON) tools/trace_export.py --all --out results/e20_trace.json --validate

# Needs results/e21_timeline.json (make run-e21 writes it); renders the
# E25 SLO pane too when results/e25_slo.json exists (make run-e25).
dashboard:
	$(PYTHON) tools/dashboard.py --validate --out results/e21_dashboard.html

# Needs results/e25_slo.json (make run-e25 writes it).
flamegraph:
	$(PYTHON) tools/flamegraph.py --list
	$(PYTHON) tools/flamegraph.py --cell 2t-tight-storm \
		--out results/e25_storm.collapsed.txt
	$(PYTHON) tools/flamegraph.py --cell 2t-tight-storm --format speedscope \
		--out results/e25_storm.speedscope.json
