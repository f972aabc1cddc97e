"""tools/dashboard.py: self-contained HTML from the E21 artifact."""

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent.parent


@pytest.fixture(scope="module")
def dashboard():
    spec = importlib.util.spec_from_file_location(
        "dashboard", REPO / "tools" / "dashboard.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _payload():
    """A minimal but schema-shaped E21 artifact (two stacks)."""
    windows = [
        {"index": i, "start_ns": i * 100.0, "end_ns": (i + 1) * 100.0,
         "values": {"machine.event_queue": i % 3,
                    "kernel.runq0.depth": i % 2,
                    "nic.txq_depth": 1}}
        for i in range(6)
    ]
    entry = {
        "stack": "linux",
        "n_requests": 4,
        "completed": 4,
        "p50_rtt_ns": 12_000.0,
        "p999_rtt_ns": 2_000_000.0,
        "layers": {"hw": 3, "os": 2, "nic": 1},
        "timeseries": {"window_ns": 100.0, "max_windows": 64,
                       "samples": 6, "dropped_windows": 0,
                       "windows": windows},
        "flight_dump": {
            "time_ns": 500.0, "capacity": 16, "recorded": 3,
            "dropped": 0, "kinds": {"sched.dispatch": 2,
                                    "invariant.violation": 1},
            "reason": {"check": "e21-injected", "time_ns": 400.0,
                       "detail": "<deliberate>"},
            "events": [
                {"time_ns": 100.0, "kind": "sched.dispatch",
                 "fields": {"core": 0}},
                {"time_ns": 300.0, "kind": "sched.dispatch",
                 "fields": {"core": 1}},
                {"time_ns": 400.0, "kind": "invariant.violation",
                 "fields": {"check": "e21-injected"}},
            ],
        },
        "violations": ["[e21-injected @ 400 ns] deliberate"],
        "tail": {
            "quantile": 0.999, "n_requests": 4,
            "threshold_ns": 2_000_000.0, "n_slow": 1, "truncated": 0,
            "requests": [{
                "trace_id": 3, "start_ns": 100.0, "end_ns": 2_000_100.0,
                "duration_ns": 2_000_000.0,
                "stages": {"wire.req": 1_990_000.0, "app": 1_000.0},
                "window_indices": [1, 2], "windows_missing": False,
                "state": {"kernel.runq0.depth":
                          {"min": 0, "mean": 0.5, "max": 1}},
                "flight": [{"time_ns": 300.0, "kind": "sched.dispatch",
                            "fields": {"core": 1}}],
            }],
        },
    }
    import copy

    other = copy.deepcopy(entry)
    other["stack"] = "lauberhorn"
    return {"experiment": "e21", "window_ns": 100.0,
            "horizon_ns": 60_000_000.0,
            "stacks": {"linux": entry, "lauberhorn": other}}


def test_build_dashboard_is_self_contained(dashboard):
    html = dashboard.build_dashboard(_payload())
    assert html.startswith("<!doctype html>")
    # Self-contained: no external fetches of any kind.
    for marker in ("http://", "https://", "<script src", "<link "):
        assert marker not in html
    # All three layers render: sparklines, tail table, flight table.
    assert "<svg" in html and "polyline" in html
    assert "Tail forensics" in html
    assert "Flight-recorder post-mortem" in html
    assert "e21-injected" in html


def test_dashboard_escapes_untrusted_strings(dashboard):
    html = dashboard.build_dashboard(_payload())
    # The injected detail contains "<...>": it must arrive escaped.
    assert "<deliberate>" not in html
    assert "&lt;deliberate&gt;" in html


def test_sparklines_prefer_moving_state_metrics(dashboard):
    entry = _payload()["stacks"]["linux"]
    picked = dashboard._pick_metrics(entry)
    assert "machine.event_queue" in picked
    assert "kernel.runq0.depth" in picked
    # Flat series (nic.txq_depth never moves) are not worth a chart.
    assert "nic.txq_depth" not in picked


def test_cli_writes_html_and_validates_real_schema(dashboard, tmp_path):
    # The synthetic payload is *not* schema-complete (two stacks only),
    # so --validate must fail on it...
    artifact = tmp_path / "timeline.json"
    artifact.write_text(json.dumps(_payload()))
    out = tmp_path / "dash.html"
    code = dashboard.main(["--in", str(artifact), "--out", str(out),
                           "--validate"])
    assert code == 1
    # ...while a plain render succeeds and writes the document.
    code = dashboard.main(["--in", str(artifact), "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("<!doctype html>")


def test_cli_missing_artifact_is_a_clean_error(dashboard, tmp_path, capsys):
    code = dashboard.main(["--in", str(tmp_path / "nope.json"),
                           "--out", str(tmp_path / "dash.html")])
    assert code == 1
    assert "run_all e21" in capsys.readouterr().out


def test_validate_checks_every_cell_carries_its_fields(dashboard, tmp_path,
                                                       capsys):
    payload = _payload()
    payload["stacks"] = {stack: dict(payload["stacks"]["linux"])
                         for stack in ("linux", "snap", "bypass", "lauberhorn")}
    slo = json.loads((REPO / "results" / "e25_slo.json").read_text())
    artifact, slo_path = tmp_path / "timeline.json", tmp_path / "slo.json"
    args = ["--in", str(artifact), "--slo-in", str(slo_path),
            "--out", str(tmp_path / "dash.html"), "--validate"]

    def validate() -> int:
        artifact.write_text(json.dumps(payload))
        slo_path.write_text(json.dumps(slo))
        return dashboard.main(args)

    assert validate() == 0
    del payload["stacks"]["snap"]["tail"], slo["cells"][0]["flame"]
    assert validate() == 1
    out = capsys.readouterr().out
    assert "schema check: OK" in out
    assert "violations: snap: missing tail; single/2t-tight-calm: missing " \
        "flame" in out
