"""Flame folding: exactness, grouping, exporters, host-CPU profiler."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.flame import (
    HostCpuProfiler,
    diff_stacks,
    fold_spans,
    render_collapsed,
    speedscope_json,
    validate_speedscope,
)
from repro.obs.spans import SpanRecorder
from repro.sim.engine import Simulator


def _recorder():
    return SpanRecorder(Simulator())


def _trace(rec, trace_id, start, end, splits, **fields):
    """One root spanning [start, end] with child spans at ``splits``
    (list of (name, start, end) triples)."""
    root = rec.record("rpc", "client", (trace_id, None), start, end)
    if fields:
        root.fields.update(fields)
    for name, s, e in splits:
        rec.record(name, "nic", (trace_id, root.span_id), s, e)
    return root


# -- folding ------------------------------------------------------------------


def test_self_time_telescopes_to_root_duration_exactly():
    rec = _recorder()
    # awkward floats on purpose: exactness must not depend on niceness
    _trace(rec, 1, 0.1, 1000.3,
           [("nic.rx", 10.7, 300.9), ("handler", 300.9, 900.1)])
    profile = fold_spans(rec)
    (group,) = profile.groups()
    assert group == "-/-"           # untagged runs fold under the dash
    assert profile.self_sum_ns(group) == profile.root_sum_ns(group)
    assert profile.root_sum_ns(group) == 1000.3 - 0.1
    assert profile.check_exact() == []
    # three stacks: root self, root;nic.rx, root;handler
    stacks = profile.stacks(group)
    assert set(stacks) == {("rpc",), ("rpc", "nic.rx"), ("rpc", "handler")}
    assert stacks[("rpc", "nic.rx")] == 300.9 - 10.7


def test_nested_children_attribute_to_nested_stacks():
    rec = _recorder()
    root = rec.record("rpc", "client", (1, None), 0.0, 100.0)
    mid = rec.record("nic.rx", "nic", (1, root.span_id), 10.0, 60.0)
    rec.record("crypto", "nic", (1, mid.span_id), 20.0, 50.0)
    profile = fold_spans(rec)
    stacks = profile.stacks("-/-")
    assert stacks[("rpc", "nic.rx", "crypto")] == 30.0
    assert stacks[("rpc", "nic.rx")] == 20.0
    assert stacks[("rpc",)] == 50.0


def test_overrunning_children_yield_negative_self_not_clamped():
    rec = _recorder()
    # children sum to 120 ns inside a 100 ns parent
    _trace(rec, 1, 0.0, 100.0,
           [("a", 0.0, 60.0), ("b", 40.0, 100.0)])
    profile = fold_spans(rec)
    assert profile.negative_self == 1
    stacks = profile.stacks("-/-")
    assert stacks[("rpc",)] == -20.0
    # the identity still holds *because* nothing was clamped
    assert profile.self_sum_ns("-/-") == profile.root_sum_ns("-/-")


def test_grouping_by_host_and_tenant_fields():
    rec = _recorder()
    _trace(rec, 1, 0.0, 100.0, [], host="host0", tenant="victim")
    _trace(rec, 2, 0.0, 200.0, [], host="host0", tenant="aggressor")
    _trace(rec, 3, 0.0, 300.0, [], host="host1", tenant="victim")
    _trace(rec, 4, 0.0, 400.0, [])          # untagged
    profile = fold_spans(rec)
    assert profile.groups() == ["-/-", "host0/aggressor",
                                "host0/victim", "host1/victim"]
    assert profile.n_traces("host0/victim") == 1
    for group in profile.groups():
        assert profile.self_sum_ns(group) == profile.root_sum_ns(group)


def test_unfinished_root_skipped_unfinished_child_stays_in_parent():
    rec = _recorder()
    rec.start_trace("rpc", "client")         # never finished: no root sum
    root = rec.record("rpc", "client", (99, None), 0.0, 100.0)
    rec.start("nic.rx", "nic", (99, root.span_id))  # open child
    profile = fold_spans(rec)
    (group,) = profile.groups()
    assert profile.n_traces(group) == 1
    # the open child's time stays in the root's self bucket
    assert profile.stacks(group)[("rpc",)] == 100.0


def test_diff_stacks_signs_and_keys():
    rec = _recorder()
    _trace(rec, 1, 0.0, 100.0, [("nic.rx", 0.0, 80.0)],
           host="h", tenant="victim")
    _trace(rec, 2, 0.0, 50.0, [("nic.rx", 0.0, 10.0)],
           host="h", tenant="aggressor")
    profile = fold_spans(rec)
    diff = diff_stacks(profile, "h/victim", "h/aggressor")
    assert diff["rpc;nic.rx"] == 70.0       # victim spent more in rx
    assert diff["rpc"] == (100.0 - 80.0) - (50.0 - 10.0)


# -- against a rational reference fold ----------------------------------------


def _reference_fold(recorder, group_by=("host", "tenant")):
    """The fold in :class:`~fractions.Fraction` over the recorded floats.

    Returns ``(stacks, roots, n_traces, negative_self)``: per group,
    the self weight per stack in post-order, the summed root
    durations and the trace count.
    """
    stacks: dict = {}
    roots: dict = {}
    n_traces: dict = {}
    negative = 0
    for spans in recorder.traces().values():
        root = next((s for s in spans if s.parent_id is None), None)
        if root is None or not root.finished:
            continue
        children: dict = {}
        for span in spans:
            if span.finished and span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(span)
        group = "/".join(str(root.fields.get(key, "-")) for key in group_by)
        bucket = stacks.setdefault(group, {})

        def walk(span, path):
            nonlocal negative
            stack = path + (span.name,)
            weight = Fraction(span.end_ns) - Fraction(span.start_ns)
            for child in children.get(span.span_id, ()):
                weight -= Fraction(child.end_ns) - Fraction(child.start_ns)
                walk(child, stack)
            bucket[stack] = bucket.get(stack, 0) + weight
            negative += weight < 0

        walk(root, ())
        roots[group] = (roots.get(group, 0)
                        + Fraction(root.end_ns) - Fraction(root.start_ns))
        n_traces[group] = n_traces.get(group, 0) + 1
    return stacks, roots, n_traces, negative


#: endpoints that are not exact in decimal, span 15 orders of magnitude,
#: sit at the bottom of the float range, or repeat one another
AWKWARD_NS = (0.0, 5e-324, 1e-3, 0.1, 0.3, 1 / 3, 2.5, 1000.3, 123456.789,
              1e12 / 7, 1e12, 1e12 + 0.5, 2.0 ** 40 + 0.25)
_endpoint = st.one_of(
    st.sampled_from(AWKWARD_NS),
    st.floats(min_value=0.0, max_value=1e13,
              allow_nan=False, allow_infinity=False),
)


@st.composite
def _span_trees(draw):
    """1-4 traces of 1-12 spans at most 4 deep, some left open.

    Children draw their own endpoints, so they overlap, overrun and
    even end before they start.
    """
    rec = _recorder()
    for trace_id in range(1, draw(st.integers(1, 4)) + 1):
        fields = draw(st.fixed_dictionaries({}, optional={
            "host": st.sampled_from(("h0", "h1")),
            "tenant": st.sampled_from(("victim", "aggressor")),
        }))
        spans = []      # (span, depth)
        for i in range(draw(st.integers(1, 12))):
            if i == 0:
                parent, depth = None, 0
            else:
                parent_span, parent_depth = draw(st.sampled_from(
                    [(s, d) for s, d in spans if d < 3]))
                parent, depth = parent_span.span_id, parent_depth + 1
            name = draw(st.sampled_from(("rpc", "nic.rx", "handler")))
            ctx = (trace_id, parent)
            if draw(st.integers(0, 9)) == 0:
                span = rec.start(name, "nic", ctx)      # never finished
            else:
                span = rec.record(name, "nic", ctx, draw(_endpoint),
                                  draw(_endpoint))
            if i == 0:
                span.fields.update(fields)
            spans.append((span, depth))
    return rec


@settings(max_examples=300, deadline=None)
@given(_span_trees())
def test_fold_matches_rational_reference(rec):
    profile = fold_spans(rec)
    stacks, roots, n_traces, negative = _reference_fold(rec)
    groups = sorted(stacks)
    assert profile.groups() == groups
    assert profile.check_exact() == []
    assert profile.negative_self == negative
    for group in groups:
        assert list(profile.stacks(group).items()) == [
            (stack, float(w)) for stack, w in stacks[group].items()]
    assert profile.as_dict() == {
        "group_by": ["host", "tenant"],
        "negative_self": negative,
        "groups": {group: {
            "n_traces": n_traces[group],
            "self_sum_ns": float(sum(stacks[group].values())),
            "root_sum_ns": float(roots[group]),
            "stacks": {";".join(stack): float(w)
                       for stack, w in sorted(stacks[group].items())},
        } for group in groups},
    }
    assert render_collapsed(profile) == "\n".join(
        f"{';'.join(tuple(group.split('/')) + stack)} {float(w):.3f}"
        for group in groups for stack, w in sorted(stacks[group].items()))
    payload = speedscope_json(profile)
    if groups:
        validate_speedscope(payload)
    names = [frame["name"] for frame in payload["shared"]["frames"]]
    assert [(p["name"], p["endValue"], p["weights"],
             [tuple(names[i] for i in sample) for sample in p["samples"]])
            for p in payload["profiles"]] == [
        (group, float(sum(stacks[group].values())),
         [float(w) for _stack, w in sorted(stacks[group].items())],
         sorted(stacks[group]))
        for group in groups]
    for a, b in permutations(groups, 2):
        merged = sorted(set(stacks[a]) | set(stacks[b]))
        assert diff_stacks(profile, a, b) == {
            ";".join(stack): float(stacks[a].get(stack, 0)
                                   - stacks[b].get(stack, 0))
            for stack in merged}


# -- exporters ----------------------------------------------------------------


def _profile():
    rec = _recorder()
    _trace(rec, 1, 0.0, 100.0, [("nic.rx", 10.0, 40.0)],
           host="host0", tenant="victim")
    _trace(rec, 2, 0.0, 900.0, [("handler", 100.0, 800.0)],
           host="host0", tenant="aggressor")
    return fold_spans(rec)


def test_render_collapsed_folds_group_into_frames():
    text = render_collapsed(_profile())
    lines = text.splitlines()
    assert "host0;victim;rpc;nic.rx 30.000" in lines
    assert "host0;aggressor;rpc;handler 700.000" in lines
    # every line is "frames weight"
    for line in lines:
        frames, weight = line.rsplit(" ", 1)
        assert frames and float(weight) is not None


def test_speedscope_export_validates_and_is_exact():
    profile = _profile()
    payload = speedscope_json(profile)
    validate_speedscope(payload)            # must not raise
    by_name = {p["name"]: p for p in payload["profiles"]}
    assert set(by_name) == {"host0/victim", "host0/aggressor"}
    victim = by_name["host0/victim"]
    assert victim["endValue"] == sum(victim["weights"])
    assert victim["endValue"] == profile.root_sum_ns("host0/victim")


def test_validate_speedscope_rejects_corruption():
    payload = speedscope_json(_profile())
    bad = dict(payload, **{"$schema": "nope"})
    with pytest.raises(ValueError, match="schema"):
        validate_speedscope(bad)
    bad = dict(payload)
    bad["profiles"] = [dict(payload["profiles"][0], unit="seconds")]
    with pytest.raises(ValueError, match="unit"):
        validate_speedscope(bad)
    bad = dict(payload)
    bad["profiles"] = [dict(payload["profiles"][0],
                            samples=[[999999]])]
    with pytest.raises(ValueError):
        validate_speedscope(bad)


# -- host-CPU profiler --------------------------------------------------------


def test_host_cpu_profiler_slices_and_exports():
    sim = Simulator()

    def ticker():
        while True:
            yield sim.timeout(10.0)

    sim.process(ticker())
    profiler = HostCpuProfiler(sim, n_slices=8)
    profiler.run(until_ns=1000.0)
    assert len(profiler.slices) == 8
    assert sim.now == 1000.0
    assert profiler.events_per_sec() >= 0.0
    validate_speedscope(profiler.to_speedscope())
    with pytest.raises(ValueError, match="ahead"):
        profiler.run(until_ns=500.0)
    with pytest.raises(ValueError, match="slice"):
        HostCpuProfiler(sim, n_slices=0)
