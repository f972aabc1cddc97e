"""SLO engine: ledgers, burn windows, alert latching, exhaustion."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOSpec, SLOTracker
from repro.obs.spans import SpanRecorder
from repro.obs.timeseries import TimeSeriesSampler
from repro.sim.engine import Simulator


def _spec(**over):
    base = dict(name="svc", latency_threshold_ns=100.0,
                latency_target=0.9, fast_window_ns=100.0,
                slow_window_ns=1000.0, burn_threshold=2.0, min_requests=4)
    base.update(over)
    return SLOSpec(**base)


def _tracker(spec=None, flight=None):
    sim = Simulator()
    tracker = SLOTracker(sim, [spec or _spec()], flight=flight)
    recorder = SpanRecorder(sim)
    tracker.arm(recorder=recorder)
    return sim, tracker, recorder


def _request(sim, recorder, duration_ns, **fields):
    root = recorder.start_trace("rpc", "client")
    if fields:
        recorder.annotate(root.ctx, **fields)
    sim.now += duration_ns
    recorder.finish(root)
    return root


def _burst(sim, recorder, n, duration_ns):
    """``n`` overlapping requests finishing together — the only way a
    burst lands inside one fast window."""
    roots = [recorder.start_trace("rpc", "client") for _ in range(n)]
    sim.now += duration_ns
    for root in roots:
        recorder.finish(root)


# -- spec ---------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError, match="latency_target"):
        _spec(latency_target=1.0)
    with pytest.raises(ValueError, match="positive"):
        _spec(latency_threshold_ns=0.0)
    with pytest.raises(ValueError, match="fast window"):
        _spec(fast_window_ns=2000.0)
    with pytest.raises(ValueError, match="burn_threshold"):
        _spec(burn_threshold=0.0)


def test_spec_budget_and_matching():
    spec = _spec(tenant="victim")
    assert spec.budget_fraction == pytest.approx(0.1)
    assert spec.matches({"tenant": "victim", "service": "x"})
    assert not spec.matches({"tenant": "aggressor"})
    assert not spec.matches({})
    wildcard = _spec()
    assert wildcard.matches({}) and wildcard.matches({"tenant": "anyone"})


def test_tracker_rejects_empty_and_duplicate_specs():
    sim = Simulator()
    with pytest.raises(ValueError, match="at least one"):
        SLOTracker(sim, [])
    with pytest.raises(ValueError, match="duplicate"):
        SLOTracker(sim, [_spec(), _spec()])


# -- classification -----------------------------------------------------------


def test_roots_classified_against_threshold():
    sim, tracker, recorder = _tracker()
    _request(sim, recorder, 50.0)
    _request(sim, recorder, 150.0)
    tracker.evaluate(sim.now)
    report = tracker.report()["specs"]["svc"]
    assert report["total"] == 2
    assert report["bad"] == 1
    assert tracker.budget_consumed("svc") == pytest.approx(5.0)


def test_tenant_scoped_spec_ignores_other_tenants():
    sim, tracker, recorder = _tracker(_spec(tenant="victim"))
    _request(sim, recorder, 150.0, tenant="victim")
    _request(sim, recorder, 150.0, tenant="aggressor")
    _request(sim, recorder, 150.0)  # untagged
    assert tracker.report()["specs"]["svc"]["total"] == 1


def test_timeout_charged_once_even_if_root_later_finishes():
    sim, tracker, recorder = _tracker(_spec(timeout_ns=500.0))
    root = recorder.start_trace("rpc", "client")
    sim.now = 600.0
    tracker.evaluate(sim.now)       # past timeout: charged as bad
    ledger = tracker.report()["specs"]["svc"]
    assert (ledger["total"], ledger["bad"], ledger["timeouts"]) == (1, 1, 1)
    recorder.finish(root)           # late completion must not double-count
    ledger = tracker.report()["specs"]["svc"]
    assert (ledger["total"], ledger["bad"]) == (1, 1)
    assert tracker.availability("svc") == pytest.approx(0.0)


# -- burn windows and alerting ------------------------------------------------


def test_alert_needs_both_windows_and_min_requests():
    sim, tracker, recorder = _tracker()
    # three bads: hot burn but under min_requests=4 -> no alert
    _burst(sim, recorder, 3, 150.0)
    tracker.evaluate(sim.now)
    assert not tracker.alerts
    sim.now += 2000.0               # old events age out of both windows
    _burst(sim, recorder, 4, 150.0)
    tracker.evaluate(sim.now)
    assert len(tracker.alerts) == 1
    alert = tracker.alerts[0]
    assert alert.spec == "svc"
    assert alert.fast_total == 4
    assert alert.burn_fast >= 2.0 and alert.burn_slow >= 2.0


def test_alert_latches_and_rearms_after_recovery():
    sim, tracker, recorder = _tracker()
    _burst(sim, recorder, 4, 150.0)
    tracker.evaluate(sim.now)
    tracker.evaluate(sim.now)       # still breaching: no second page
    assert len(tracker.alerts) == 1
    # fast window (100 ns) empties: the latch re-arms
    tracker.evaluate(sim.now + 200.0)
    # a fresh storm after recovery pages again
    sim.now += 2000.0
    _burst(sim, recorder, 4, 150.0)
    tracker.evaluate(sim.now)
    assert len(tracker.alerts) == 2
    assert tracker.report()["specs"]["svc"]["alerts"] == 2


def test_good_traffic_never_alerts_or_exhausts():
    sim, tracker, recorder = _tracker()
    for _ in range(50):
        _request(sim, recorder, 50.0)
        sim.now += 10.0
    tracker.evaluate(sim.now)
    report = tracker.report()["specs"]["svc"]
    assert not tracker.alerts
    assert report["exhausted_ns"] is None
    assert not report["violated"]
    assert report["burn_fast"] == 0.0


def test_exhaustion_fires_once_and_alert_lead_is_reported():
    sim, tracker, recorder = _tracker()
    for _ in range(20):             # calm history
        _request(sim, recorder, 50.0)
        sim.now += 100.0
    tracker.evaluate(sim.now)
    assert not tracker.alerts
    _burst(sim, recorder, 4, 150.0)
    tracker.evaluate(sim.now)       # alert: fast window is pure bad
    assert len(tracker.alerts) == 1
    report = tracker.report()["specs"]["svc"]
    assert report["exhausted_ns"] is not None   # 4 bad > 10% of 24
    assert report["violated"]
    assert report["alert_lead_ns"] == (report["exhausted_ns"]
                                       - report["first_alert_ns"])
    exhausted_at = report["exhausted_ns"]
    _request(sim, recorder, 150.0)
    tracker.evaluate(sim.now + 500.0)
    assert tracker.report()["specs"]["svc"]["exhausted_ns"] == exhausted_at


# -- integration seams --------------------------------------------------------


def test_sampler_windows_drive_evaluation():
    sim = Simulator()
    registry = MetricsRegistry()
    sampler = TimeSeriesSampler(sim, registry, window_ns=100.0,
                                max_windows=64)
    recorder = SpanRecorder(sim)
    tracker = SLOTracker(sim, [_spec(min_requests=1)])
    tracker.arm(recorder=recorder, sampler=sampler, registry=registry)

    def workload():
        for _ in range(6):
            root = recorder.start_trace("rpc", "client")
            yield sim.timeout(150.0)      # all bad
            recorder.finish(root)

    sim.process(workload())
    sampler.start(1000.0)
    sim.run(until=1000.0)
    sampler.finish()
    assert tracker.alerts                 # fired at a window close
    assert tracker.alerts[0].t_ns % 100.0 == 0.0
    # the probe mirrors the ledger into sampler windows
    last = sampler.windows[-1].values
    assert last["slo.svc.total"] == 6.0
    assert last["slo.svc.bad"] == 6.0
    assert last["slo.svc.alerts"] >= 1.0
    assert "slo.svc.burn_fast" in last


def test_alerts_and_exhaustion_land_in_flight_recorder():
    sim = Simulator()
    flight = FlightRecorder(sim)
    tracker = SLOTracker(sim, [_spec()], flight=flight)
    recorder = SpanRecorder(sim)
    tracker.arm(recorder=recorder)
    _burst(sim, recorder, 4, 150.0)
    tracker.evaluate(sim.now)
    kinds = [event["kind"] for event in flight.snapshot()]
    assert "slo.alert" in kinds
    assert "slo.exhausted" in kinds


def test_unarmed_recorder_never_touches_tracker():
    sim = Simulator()
    recorder = SpanRecorder(sim)
    assert recorder.slo is None
    root = recorder.start_trace("rpc", "client")
    sim.now = 500.0
    recorder.finish(root)           # no tracker anywhere: no crash


# -- the early-stopping timeout scan against the full scan -------------------


class _FullScanTracker(SLOTracker):
    """The reference timeout scan: every open root against every spec,
    at every evaluation."""

    def _charge_timeouts(self, now_ns):
        expired = []
        for span_id, span in self._open.items():
            age = now_ns - span.start_ns
            charged = False
            for spec in self.specs:
                if spec.timeout_ns is None or age <= spec.timeout_ns:
                    continue
                if not spec.matches(span.fields):
                    continue
                ledger = self._ledgers[spec.name]
                ledger.total += 1
                ledger.bad += 1
                ledger.timeouts += 1
                ledger.events.append((now_ns, True))
                charged = True
            if charged:
                expired.append(span_id)
        for span_id in expired:
            del self._open[span_id]
            self._timed_out.add(span_id)


class _Both:
    """One span feed into two trackers."""

    def __init__(self, *trackers):
        self.trackers = trackers

    def note_root_start(self, span):
        for tracker in self.trackers:
            tracker.note_root_start(span)

    def observe_root(self, span):
        for tracker in self.trackers:
            tracker.observe_root(span)


_specs = st.lists(
    st.fixed_dictionaries({
        "tenant": st.sampled_from([None, "a", "b"]),
        "timeout_ns": st.one_of(st.none(), st.integers(1, 400).map(float),
                                st.floats(0.5, 400.0)),
        "latency_threshold_ns": st.integers(10, 300).map(float),
    }),
    min_size=1, max_size=4,
).map(lambda rows: [_spec(name=f"s{i}", min_requests=2, **row)
                    for i, row in enumerate(rows)])

_steps = st.lists(st.one_of(
    st.tuples(st.just("start"), st.sampled_from([None, "a", "b"])),
    st.tuples(st.just("finish"), st.integers(0, 50)),
    st.tuples(st.just("advance"),
              st.one_of(st.integers(0, 150).map(float),
                        st.floats(0.0, 150.0))),
    st.tuples(st.just("window"), st.none()),
), max_size=120)


@settings(max_examples=150, deadline=None)
@given(_specs, _steps)
def test_early_stopping_scan_matches_full_scan(specs, steps):
    sim = Simulator()
    fast, full = SLOTracker(sim, specs), _FullScanTracker(sim, specs)
    recorder = SpanRecorder(sim)
    recorder.slo = _Both(fast, full)
    roots = []
    charged = {fast: [], full: []}
    for kind, arg in steps + [("window", None)]:
        if kind == "start":
            fields = {} if arg is None else {"tenant": arg}
            roots.append(recorder.start_trace("rpc", "client", **fields))
        elif kind == "finish" and roots:
            recorder.finish(roots.pop(arg % len(roots)))
        elif kind == "advance":
            sim.now += arg
        elif kind == "window":
            for tracker in (fast, full):
                before = list(tracker._open)
                tracker.evaluate(sim.now)
                charged[tracker].append(
                    [sid for sid in before if sid not in tracker._open])
    assert charged[fast] == charged[full]
    assert fast._timed_out == full._timed_out
    assert list(fast._open) == list(full._open)
    assert ([alert.as_dict() for alert in fast.alerts]
            == [alert.as_dict() for alert in full.alerts])
    for name in fast._ledgers:
        assert (dataclasses.asdict(fast._ledgers[name])
                == dataclasses.asdict(full._ledgers[name]))
