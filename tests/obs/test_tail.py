"""Tail forensics: joining spans, windows, and flight events."""

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder
from repro.obs.tail import (
    STATE_PATTERNS,
    metric_host,
    render_tail_report,
    slow_roots,
    slow_roots_by_group,
    tail_report,
)
from repro.obs.timeseries import TimeSeriesSampler
from repro.sim.engine import Simulator


def _scene():
    """Ten requests, one slow outlier, windows + flight around them."""
    sim = Simulator()
    recorder = SpanRecorder(sim)
    registry = MetricsRegistry()
    depth = registry.gauge("server.runq.depth")
    sampler = TimeSeriesSampler(sim, registry, window_ns=100.0,
                                max_windows=64)
    flight = FlightRecorder(sim)

    def workload():
        for index in range(10):
            start = sim.now
            duration = 500.0 if index == 7 else 50.0
            if index == 7:
                depth.set(9)
                flight.note("sched.dispatch", core=0, queued=9)
            yield sim.timeout(duration)
            trace_id = index + 1
            root = recorder.record("rpc", "app", (trace_id, None),
                                   start, sim.now)
            recorder.record("handler", "app", (trace_id, root.span_id),
                            start + 1.0, sim.now - 1.0)
            depth.set(0)

    sim.process(workload())
    sampler.start(2000.0)
    sim.run(until=2000.0)
    return recorder, sampler, flight


def test_slow_roots_picks_the_outlier():
    recorder, sampler, flight = _scene()
    slow = slow_roots(recorder, quantile=0.999)
    assert len(slow) == 1
    assert slow[0].duration_ns == 500.0


def test_slow_roots_never_empty_when_roots_finished():
    recorder, sampler, flight = _scene()
    for quantile in (0.5, 0.99, 0.999, 1.0):
        assert slow_roots(recorder, quantile=quantile)


def test_tail_report_joins_windows_state_and_flight():
    recorder, sampler, flight = _scene()
    report = tail_report(recorder, sampler, flight=flight, quantile=0.999)
    assert report["n_requests"] == 10
    assert report["n_slow"] == 1
    assert report["truncated"] == 0
    (record,) = report["requests"]
    assert record["duration_ns"] == 500.0
    assert record["stages"] == {"handler": 498.0}
    # The slow request overlapped real windows...
    assert record["window_indices"] and not record["windows_missing"]
    # ...whose state captured the deep queue while it was in flight.
    assert record["state"]["server.runq.depth"]["max"] == 9
    # ...and the dispatch decision landed inside its lifetime.
    assert any(e["kind"] == "sched.dispatch" for e in record["flight"])


def test_tail_report_without_flight_omits_flight_key():
    recorder, sampler, flight = _scene()
    report = tail_report(recorder, sampler, quantile=0.999)
    (record,) = report["requests"]
    assert "flight" not in record


def test_tail_report_flags_evicted_windows():
    recorder, sampler, flight = _scene()
    # Shrink the ring after the fact: drop every window the slow
    # request (which starts at 350 ns) could have overlapped.
    while sampler.windows and sampler.windows[0].end_ns < 1900.0:
        sampler.windows.popleft()
        sampler.dropped_windows += 1
    report = tail_report(recorder, sampler, quantile=0.999)
    (record,) = report["requests"]
    assert record["windows_missing"]
    assert record["state"] == {}


def test_tail_report_truncates_at_max_requests():
    recorder, sampler, flight = _scene()
    report = tail_report(recorder, sampler, quantile=0.0, max_requests=3)
    assert report["n_slow"] == 10
    assert len(report["requests"]) == 3
    assert report["truncated"] == 7
    # Slowest first.
    durations = [r["duration_ns"] for r in report["requests"]]
    assert durations == sorted(durations, reverse=True)


def test_render_tail_report_mentions_the_evidence():
    recorder, sampler, flight = _scene()
    report = tail_report(recorder, sampler, flight=flight, quantile=0.999)
    text = render_tail_report(report, title="demo")
    assert "demo" in text and "p99.9" in text
    assert "handler" in text
    assert "server.runq.depth" in text
    assert "flight event(s)" in text


def test_state_patterns_cover_the_interesting_namespaces():
    # The join keys must keep matching what the components bind.
    for fragment in ("runq", "backlog", "tryagain", "fault", "idle_cores"):
        assert fragment in STATE_PATTERNS


# -- (host, tenant) origin attribution ---------------------------------------


def _tagged_scene():
    """Two hosts' requests, fleet-namespaced metrics, one slow victim."""
    sim = Simulator()
    recorder = SpanRecorder(sim)
    registry = MetricsRegistry()
    depth0 = registry.gauge("host0.server.runq.depth")
    depth1 = registry.gauge("host1.server.runq.depth")
    sampler = TimeSeriesSampler(sim, registry, window_ns=100.0,
                                max_windows=64)

    def workload():
        for index in range(10):
            start = sim.now
            slow = index == 7
            duration = 500.0 if slow else 50.0
            depth0.set(9 if slow else 0)
            depth1.set(1)
            yield sim.timeout(duration)
            root = recorder.record("rpc", "app", (index + 1, None),
                                   start, sim.now)
            root.fields["host"] = "host0" if slow else "host1"
            root.fields["tenant"] = "victim" if slow else "bystander"

    sim.process(workload())
    sampler.start(2000.0)
    sim.run(until=2000.0)
    return recorder, sampler


def test_slow_roots_by_group_buckets_on_origin():
    recorder, sampler = _tagged_scene()
    grouped = slow_roots_by_group(recorder, quantile=0.0)
    assert set(grouped) == {("host0", "victim"), ("host1", "bystander")}
    assert len(grouped[("host0", "victim")]) == 1
    assert grouped[("host0", "victim")][0].duration_ns == 500.0


def test_untagged_roots_bucket_under_the_dash():
    recorder, sampler, flight = _scene()
    grouped = slow_roots_by_group(recorder, quantile=0.999)
    assert set(grouped) == {("-", "-")}


def test_tail_report_state_join_is_host_scoped():
    recorder, sampler = _tagged_scene()
    report = tail_report(recorder, sampler, quantile=0.999)
    (record,) = report["requests"]
    assert record["host"] == "host0"
    assert record["tenant"] == "victim"
    # the slow host0 request joins host0's queue, never host1's
    assert record["state"]["host0.server.runq.depth"]["max"] == 9
    assert "host1.server.runq.depth" not in record["state"]
    # the rollup covers all slow roots, keyed host/tenant
    assert report["groups"]["host0/victim"]["n_slow"] == 1
    assert report["groups"]["host0/victim"]["worst_ns"] == 500.0
    text = render_tail_report(report)
    assert "(host0/victim)" in text
    assert "[host0/victim]" in text


def test_untagged_report_has_no_origin_keys():
    recorder, sampler, flight = _scene()
    report = tail_report(recorder, sampler, quantile=0.999)
    assert "groups" not in report       # byte-identical to historical
    (record,) = report["requests"]
    assert "host" not in record and "tenant" not in record


# -- the state join ------------------------------------------------------------


def _reference_state(windows, patterns, host=None):
    """The state join as a triple loop over window × name × pattern."""
    samples = {}
    for window in windows:
        for name, value in window.values.items():
            if any(pattern in name for pattern in patterns):
                if host is not None:
                    owner = metric_host(name)
                    if owner is not None and owner != host:
                        continue
                samples.setdefault(name, []).append(value)
    return {
        name: {"min": min(values), "mean": sum(values) / len(values),
               "max": max(values)}
        for name, values in sorted(samples.items())
    }


def test_tail_report_accepts_one_shot_patterns():
    recorder, sampler, _flight = _scene()
    scenes = [(recorder, sampler, STATE_PATTERNS),
              (*_tagged_scene(), ("runq",))]
    for recorder, sampler, patterns in scenes:
        expected = tail_report(recorder, sampler, quantile=0.5,
                               patterns=patterns)
        report = tail_report(recorder, sampler, quantile=0.5,
                             patterns=iter(patterns))
        assert len(report["requests"]) > 1
        assert all(record["state"] for record in report["requests"])
        assert report == expected


def test_state_join_equals_the_triple_loop():
    recorder, sampler = _tagged_scene()
    for patterns in (STATE_PATTERNS, ("runq",), ("host1.",), ()):
        report = tail_report(recorder, sampler, quantile=0.0,
                             patterns=patterns)
        assert {record["host"] for record in report["requests"]} == {
            "host0", "host1"}
        for record in report["requests"]:
            windows = sampler.overlapping(record["start_ns"],
                                          record["end_ns"])
            assert record["state"] == _reference_state(
                windows, patterns, record["host"])
