#!/usr/bin/env python3
"""Render the E21/E25 observability artifacts as one HTML dashboard.

Reads ``results/e21_timeline.json`` (written by
``python -m repro.experiments.run_all e21`` or ``make run-e21``) and
emits one HTML file with **no external dependencies** — inline CSS and
inline SVG sparklines only — so it can be opened from a CI artifact
listing or an air-gapped machine:

* per-stack time-series sparklines (the busiest windowed metrics);
* the tail-forensics table: every p99.9 request with its stage
  breakdown and the system state while it was in flight;
* the flight-recorder post-mortem: trigger, event-kind counts, and
  the final events before the (deliberately injected) violation.

When ``results/e25_slo.json`` is present too (``make run-e25``), a
tenant-SLO pane is appended: the per-cell error-budget/burn-rate
table (alert vs exhaustion instants and the lead between them) and
inline per-(host, tenant) flamegraph SVGs folded from the exact
simulated-ns stacks the artifact carries.

Usage::

    python tools/dashboard.py --in results/e21_timeline.json \
        --slo-in results/e25_slo.json --out results/e21_dashboard.html
    python tools/dashboard.py --validate          # schema check + exit
    python tools/dashboard.py --text              # terminal summary too
"""

from __future__ import annotations

import argparse
import dataclasses
import html
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.experiments.e21_timeline import (  # noqa: E402
    TIMELINE_ARTIFACT,
    TimelineResult,
)
from repro.experiments.e25_slo import SLO_ARTIFACT, SloCell  # noqa: E402
from repro.experiments.four_stacks import STACKS  # noqa: E402
from repro.obs.tail import STATE_PATTERNS, render_tail_report  # noqa: E402

#: how many sparklines per stack (busiest state metrics first)
MAX_SPARKLINES = 12
#: how many trailing flight events the post-mortem table shows
MAX_FLIGHT_ROWS = 30

_CSS = """
body { font: 14px/1.5 -apple-system, 'Segoe UI', sans-serif;
       margin: 2em auto; max-width: 72em; color: #1a1a2e; }
h1 { font-size: 1.5em; } h2 { font-size: 1.2em; margin-top: 2em;
     border-bottom: 2px solid #4361ee; padding-bottom: .2em; }
h3 { font-size: 1em; margin-bottom: .3em; }
table { border-collapse: collapse; margin: .5em 0; font-size: 13px; }
th, td { border: 1px solid #d0d0e0; padding: .25em .6em;
         text-align: left; vertical-align: top; }
th { background: #eef0fb; }
.ok { color: #0a7d36; font-weight: 600; }
.bad { color: #c0182b; font-weight: 600; }
.spark { display: inline-block; margin: .3em .6em .3em 0;
         padding: .3em .5em; border: 1px solid #e0e0ee;
         border-radius: 4px; background: #fafaff; }
.spark .name { font-size: 11px; color: #555; display: block; }
.spark .range { font-size: 10px; color: #999; }
.mono { font-family: ui-monospace, monospace; font-size: 12px; }
.summary { color: #444; }
"""


def _spark_svg(points: list[tuple[float, float]], width: int = 220,
               height: int = 36) -> str:
    """One polyline sparkline (inline SVG, no dependencies)."""
    if len(points) < 2:
        return "<svg width='220' height='36'></svg>"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    coords = " ".join(
        f"{(x - x_lo) / x_span * (width - 4) + 2:.1f},"
        f"{height - 2 - (y - y_lo) / y_span * (height - 4):.1f}"
        for x, y in points
    )
    return (f"<svg width='{width}' height='{height}'>"
            f"<polyline points='{coords}' fill='none' "
            f"stroke='#4361ee' stroke-width='1.5'/></svg>")


def _series(entry: dict, name: str) -> list[tuple[float, float]]:
    return [(w["end_ns"], w["values"][name])
            for w in entry["timeseries"]["windows"]
            if name in w["values"]]


def _pick_metrics(entry: dict) -> list[str]:
    """The busiest windowed metrics: state-like first, movers only."""
    windows = entry["timeseries"]["windows"]
    names: set[str] = set()
    for window in windows:
        names.update(window["values"].keys())

    def spread(name: str) -> float:
        values = [v for _, v in _series(entry, name)]
        return (max(values) - min(values)) if values else 0.0

    movers = [n for n in names if spread(n) > 0]
    state = [n for n in movers
             if any(p in n for p in STATE_PATTERNS)]
    rest = [n for n in movers if n not in state]
    ranked = (sorted(state, key=lambda n: -spread(n))
              + sorted(rest, key=lambda n: -spread(n)))
    return ranked[:MAX_SPARKLINES]


def _fmt_ns(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.2f} ms"
    if value >= 1e3:
        return f"{value / 1e3:.2f} us"
    return f"{value:.0f} ns"


def _tail_table(entry: dict) -> str:
    rows = []
    for record in entry["tail"]["requests"]:
        stages = sorted(record["stages"].items(), key=lambda kv: -kv[1])
        stage_text = ", ".join(
            f"{html.escape(name)} {_fmt_ns(duration)}"
            for name, duration in stages[:4])
        state = sorted(record["state"].items(),
                       key=lambda kv: -kv[1]["max"])
        state_text = ", ".join(
            f"{html.escape(name)} max {stat['max']:g}"
            for name, stat in state[:4] if stat["max"] > 0) or "all quiet"
        flight_n = len(record.get("flight", []))
        rows.append(
            f"<tr><td class='mono'>{record['trace_id']}</td>"
            f"<td>{_fmt_ns(record['duration_ns'])}</td>"
            f"<td>{stage_text}</td><td>{state_text}</td>"
            f"<td>{flight_n}</td></tr>")
    tail = entry["tail"]
    caption = (f"p{tail['quantile'] * 100:g} threshold "
               f"{_fmt_ns(tail['threshold_ns'])} — {tail['n_slow']} of "
               f"{tail['n_requests']} requests")
    return (f"<h3>Tail forensics <span class='summary'>({caption})"
            "</span></h3><table><tr><th>trace</th><th>RTT</th>"
            "<th>slowest stages</th><th>concurrent state</th>"
            f"<th>flight events</th></tr>{''.join(rows)}</table>")


def _flight_table(entry: dict) -> str:
    dump = entry.get("flight_dump")
    if not dump:
        return "<h3>Flight recorder</h3><p class='bad'>no dump</p>"
    reason = dump.get("reason") or {}
    kinds = ", ".join(f"{html.escape(kind)}×{count}" for kind, count
                      in sorted(dump["kinds"].items()))
    events = dump["events"][-MAX_FLIGHT_ROWS:]
    rows = "".join(
        f"<tr><td class='mono'>{event['time_ns']:.0f}</td>"
        f"<td>{html.escape(event['kind'])}</td>"
        f"<td class='mono'>{html.escape(json.dumps(event['fields']))}"
        "</td></tr>"
        for event in events)
    return (
        "<h3>Flight-recorder post-mortem</h3>"
        f"<p class='summary'>triggered by <b>{html.escape(str(reason.get('check')))}"
        f"</b> at {reason.get('time_ns', 0):.0f} ns — "
        f"{html.escape(str(reason.get('detail')))}<br>"
        f"{dump['recorded']} recorded, {dump['dropped']} dropped "
        f"(ring capacity {dump['capacity']}); kinds: {kinds}</p>"
        f"<table><tr><th>time ns</th><th>kind</th><th>fields</th></tr>"
        f"{rows}</table>"
        f"<p class='summary'>showing the final {len(events)} of "
        f"{len(dump['events'])} retained events</p>")


def _stack_section(stack: str, entry: dict) -> str:
    ts = entry["timeseries"]
    layers = entry["layers"]
    sparks = []
    for name in _pick_metrics(entry):
        points = _series(entry, name)
        values = [v for _, v in points]
        sparks.append(
            f"<span class='spark'><span class='name'>"
            f"{html.escape(name)}</span>{_spark_svg(points)}"
            f"<span class='range'>{min(values):g} .. {max(values):g}"
            "</span></span>")
    return (
        f"<h2>{html.escape(stack)}</h2>"
        f"<p class='summary'>{entry['completed']}/{entry['n_requests']} "
        f"requests — p50 {_fmt_ns(entry['p50_rtt_ns'])}, "
        f"p99.9 {_fmt_ns(entry['p999_rtt_ns'])} "
        f"— {ts['samples']} windows of {ts['window_ns']:g} ns "
        f"({ts['dropped_windows']} evicted) — metrics: "
        f"hw {layers.get('hw', 0)}, os {layers.get('os', 0)}, "
        f"nic {layers.get('nic', 0)}</p>"
        f"<div>{''.join(sparks)}</div>"
        f"{_tail_table(entry)}"
        f"{_flight_table(entry)}")


# -- E25: tenant SLOs + flamegraphs -------------------------------------------

#: flamegraph geometry (pure inline SVG, one rect per stack frame)
_FLAME_WIDTH = 640
_FLAME_ROW = 17
_FLAME_COLORS = ("#e4572e", "#f3a712", "#4361ee", "#0a7d36", "#7b2d8b")


def _flame_svg(stacks: dict[str, float], width: int = _FLAME_WIDTH) -> str:
    """Icicle-layout flamegraph from collapsed ``"a;b;c" -> ns`` stacks.

    Weights are *self* times, so each frame's width is its self time
    plus everything folded beneath it — the standard flamegraph sum.
    """
    totals: dict[tuple[str, ...], float] = {}
    for key, weight in stacks.items():
        frames = tuple(key.split(";"))
        # negative self (overlapping children) still sums correctly,
        # but a frame is never drawn wider than its parent
        for depth in range(1, len(frames) + 1):
            prefix = frames[:depth]
            totals[prefix] = totals.get(prefix, 0.0) + weight
    if not totals:
        return "<svg width='1' height='1'></svg>"
    roots = sorted({k[:1] for k in totals})
    grand = sum(totals[r] for r in roots) or 1.0
    depth_max = max(len(k) for k in totals)
    rects = []

    def emit(prefix: tuple[str, ...], x: float, avail: float) -> None:
        w = totals[prefix] / grand * width
        w = max(0.0, min(w, avail))
        if w < 1.0:
            return
        depth = len(prefix)
        color = _FLAME_COLORS[(hash(prefix[-1]) & 0xFFFF)
                              % len(_FLAME_COLORS)]
        label = html.escape(prefix[-1]) if w > 40 else ""
        rects.append(
            f"<g><rect x='{x:.1f}' y='{(depth - 1) * _FLAME_ROW}' "
            f"width='{w:.1f}' height='{_FLAME_ROW - 1}' fill='{color}' "
            f"fill-opacity='0.75'><title>{html.escape(';'.join(prefix))} "
            f"— {totals[prefix]:.1f} ns</title></rect>"
            f"<text x='{x + 3:.1f}' y='{(depth - 1) * _FLAME_ROW + 12}' "
            f"font-size='10' fill='#fff'>{label}</text></g>")
        child_x = x
        children = sorted(k for k in totals
                          if len(k) == depth + 1 and k[:depth] == prefix)
        for child in children:
            cw = totals[child] / grand * width
            emit(child, child_x, min(cw, x + w - child_x))
            child_x += cw

    x = 0.0
    for root in roots:
        emit(root, x, width - x)
        x += totals[root] / grand * width
    height = depth_max * _FLAME_ROW
    return (f"<svg width='{width}' height='{height}' "
            f"font-family='ui-monospace,monospace'>{''.join(rects)}</svg>")


def _slo_cell_row(cell: dict) -> str:
    victim = cell.get("slo", {}).get("specs", {}).get("victim", {})
    alert = victim.get("first_alert_ns")
    exhausted = victim.get("exhausted_ns")
    lead = victim.get("alert_lead_ns")
    verdict = ("<span class='bad'>violated</span>" if victim.get("violated")
               else "<span class='ok'>in budget</span>")
    return (
        f"<tr><td class='mono'>{html.escape(cell['label'])}</td>"
        f"<td>{victim.get('bad', 0)}/{victim.get('total', 0)}</td>"
        f"<td>{victim.get('budget_consumed', 0.0):.2f}</td>"
        f"<td>{_fmt_ns(alert) if alert is not None else '—'}</td>"
        f"<td>{_fmt_ns(exhausted) if exhausted is not None else '—'}</td>"
        f"<td>{_fmt_ns(lead) if lead is not None else '—'}</td>"
        f"<td>{verdict}</td></tr>")


def _slo_section(payload: dict) -> str:
    """The E25 pane: burn-rate table + per-group flamegraphs."""
    cells = payload["cells"]
    rows = "".join(_slo_cell_row(cell) for cell in cells)
    flames = []
    for cell in cells:
        if cell.get("interference") != "storm":
            continue
        for group, summary in sorted(cell.get("flame", {}).items()):
            flames.append(
                f"<h3>{html.escape(cell['label'])} — "
                f"{html.escape(group)} <span class='summary'>"
                f"({summary['n_traces']} traces, "
                f"{_fmt_ns(summary['root_sum_ns'])} total)</span></h3>"
                f"{_flame_svg(summary['stacks'])}")
    objectives = payload.get("objectives", {})
    tight = objectives.get("tight", {})
    return (
        "<h2>E25 — tenant SLOs: error budgets, burn-rate alerts &amp; "
        "flame attribution</h2>"
        "<p class='summary'>Victim objective per cell (tight: "
        f"{_fmt_ns(tight.get('latency_threshold_ns', 0))} at "
        f"{tight.get('latency_target', 0) * 100:g}%): the alert must "
        "land before the error budget exhausts, never in calm cells. "
        "Flamegraphs are folded from exact simulated-ns span trees, "
        "grouped by (host, tenant).</p>"
        "<table><tr><th>cell</th><th>bad/total</th><th>budget burned</th>"
        "<th>first alert</th><th>exhausted</th><th>lead</th>"
        f"<th>verdict</th></tr>{rows}</table>"
        f"{''.join(flames)}")


def build_dashboard(payload: dict, slo_payload: dict | None = None) -> str:
    """The full HTML document for one E21 (+ optional E25) payload."""
    sections = "".join(_stack_section(stack, entry)
                       for stack, entry in payload["stacks"].items())
    if slo_payload is not None:
        sections += _slo_section(slo_payload)
    return (
        "<!doctype html><html><head><meta charset='utf-8'>"
        "<title>E21 — system timelines</title>"
        f"<style>{_CSS}</style></head><body>"
        "<h1>E21 — time series, flight recorder &amp; tail forensics</h1>"
        "<p class='summary'>One section per stack: windowed metric "
        "sparklines spanning the hardware/OS/NIC layers, every p99.9 "
        "request joined with the system state it ran through, and the "
        "flight-recorder dump frozen at the injected invariant "
        "violation.</p>"
        f"{sections}</body></html>")


def schema_problems(cells: dict, record: type) -> list[str]:
    """What the dashboard needs of an artifact it reads from disk: every
    cell (name -> field dict, None when absent) carries each field of
    its ``record`` dataclass."""
    names = [field.name for field in dataclasses.fields(record)]
    problems = []
    for key, cell in cells.items():
        absent = names if cell is None else [n for n in names
                                             if n not in cell]
        if absent:
            problems.append(f"{key}: missing {', '.join(absent)}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--in", dest="in_path", default=TIMELINE_ARTIFACT,
                        help=f"artifact path (default {TIMELINE_ARTIFACT})")
    parser.add_argument("--slo-in", dest="slo_path", default=SLO_ARTIFACT,
                        help="E25 SLO artifact; pane is skipped when the "
                             f"file is absent (default {SLO_ARTIFACT})")
    parser.add_argument("--out", default="results/e21_dashboard.html",
                        help="HTML output path")
    parser.add_argument("--validate", action="store_true",
                        help="check the artifact against the E21 schema; "
                             "nonzero exit on violations")
    parser.add_argument("--text", action="store_true",
                        help="also print the per-stack tail report")
    args = parser.parse_args(argv)

    try:
        with open(args.in_path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        print(f"no artifact at {args.in_path} — run "
              "`python -m repro.experiments.run_all e21` first")
        return 1

    slo_payload = None
    try:
        with open(args.slo_path) as handle:
            slo_payload = json.load(handle)
    except FileNotFoundError:
        pass                            # the SLO pane is optional

    if args.validate:
        stacks = payload.get("stacks", {})
        problems = schema_problems(
            {stack: stacks.get(stack) for stack in STACKS}, TimelineResult)
        if slo_payload is not None:
            problems += schema_problems(
                {f"{cell.get('section')}/{cell.get('label')}": cell
                 for cell in slo_payload.get("cells", [])}, SloCell)
        if problems:
            print(f"schema violations: {'; '.join(problems)}")
            return 1
        print("schema check: OK")

    if args.text:
        for stack, entry in payload["stacks"].items():
            print(render_tail_report(entry["tail"], title=stack))
            print()

    document = build_dashboard(payload, slo_payload)
    out = pathlib.Path(args.out)
    if out.parent != pathlib.Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(document)
    print(f"wrote {args.out}: {len(document)} bytes, "
          f"{len(payload['stacks'])} stacks")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
