"""Flamegraph folding over span trees: exact simulated-ns, no sampling.

A classic flamegraph is built from stack *samples*; in a simulator we
can do better, because every span's start and end are known exactly.
:func:`fold_spans` walks each finished span tree and attributes each
span's **self time** — its duration minus the summed durations of its
children — to the stack of span names leading to it, grouped by the
``(host, tenant)`` labels the Lauberhorn demux annotates onto root
spans.  Arithmetic is exact: every finite float is a whole multiple of
2**-1074, so each recorded endpoint becomes an integer count of
2**-1074 ns and weights are plain integers.  The folded profile's summed
self time therefore equals the summed root durations *identically* per
group — the E25 validator checks float equality of the two, which the
integers guarantee by construction (the telescoping sum has no rounding
anywhere).  Weights go back to float only at the edge, through integer
true division, which rounds correctly.

Two exporters ship the profile out of the repo's world:
:func:`render_collapsed` emits Brendan-Gregg collapsed-stack text
(``host0;victim;rpc;nic.rx 123.5``) for ``flamegraph.pl``-style
tooling, and :func:`speedscope_json` emits a speedscope file (one
sampled-profile per group, nanosecond unit) that
https://speedscope.app renders directly; :func:`validate_speedscope`
schema-checks the latter and is run in CI.

:class:`HostCpuProfiler` is the host-side twin: it wraps the engine
run loop in bounded slices and times each with ``perf_counter_ns``,
yielding a wall-clock profile of *the simulator itself* (events/sec
per simulated phase) for the ROADMAP 10×-throughput hunt.  Wall times
are inherently nondeterministic, so they never feed golden-pinned
artifacts — the profiler is a reporting tool only.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Optional

__all__ = ["FlameProfile", "fold_spans", "render_collapsed",
           "speedscope_json", "validate_speedscope", "diff_stacks",
           "HostCpuProfiler"]

SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"

#: group label used when a root span carries no host/tenant annotation
#: (single-host, untenanted runs — the historical default)
UNTAGGED = "-"

#: one nanosecond in weight units: 2**-1074 (the smallest subnormal
#: float) divides every finite float, so every recorded time is a whole
#: number of units
_NS = 1 << 1074


def _units(ns: float) -> int:
    """``ns`` as an exact integer count of 2**-1074 ns."""
    numerator, denominator = ns.as_integer_ratio()
    # denominator is 2**k with k <= 1074; scale by 2**(1074 - k)
    return numerator << (1075 - denominator.bit_length())


def _ns(units: int) -> float:
    """Weight units back to float ns, correctly rounded."""
    return units / _NS


class FlameProfile:
    """Collapsed stacks per (host, tenant) group, exact to the span ns.

    Weights are kept as integer counts of 2**-1074 ns internally;
    :meth:`stacks` and the exporters round to float only at the edge.
    """

    def __init__(self, group_by: tuple[str, ...] = ("host", "tenant")):
        self.group_by = tuple(group_by)
        self._stacks: dict[str, dict[tuple[str, ...], int]] = {}
        self._root_sum: dict[str, int] = {}
        self._n_traces: dict[str, int] = {}
        self.negative_self = 0  # spans whose children overlap/overrun

    # -- building -------------------------------------------------------------

    def group_label(self, fields: dict) -> str:
        return "/".join(
            str(fields.get(key, UNTAGGED)) for key in self.group_by)

    def add_trace(self, group: str, root_duration: int,
                  stacks: Iterable[tuple[tuple[str, ...], int]]) -> None:
        """Add one trace; durations and weights in 2**-1074 ns units."""
        bucket = self._stacks.setdefault(group, {})
        for stack, weight in stacks:
            bucket[stack] = bucket.get(stack, 0) + weight
            if weight < 0:
                self.negative_self += 1
        self._root_sum[group] = self._root_sum.get(group, 0) + root_duration
        self._n_traces[group] = self._n_traces.get(group, 0) + 1

    # -- queries --------------------------------------------------------------

    def groups(self) -> list[str]:
        return sorted(self._stacks)

    def stacks(self, group: str) -> dict[tuple[str, ...], float]:
        return {stack: _ns(weight)
                for stack, weight in self._stacks[group].items()}

    def n_traces(self, group: str) -> int:
        return self._n_traces.get(group, 0)

    def self_sum_ns(self, group: str) -> float:
        return _ns(sum(self._stacks[group].values()))

    def root_sum_ns(self, group: str) -> float:
        return _ns(self._root_sum.get(group, 0))

    def check_exact(self) -> list[str]:
        """Groups whose folded self time != summed root durations.

        Empty by construction; kept as a harness the validator can run
        rather than an assumption it must trust.
        """
        problems = []
        for group in self.groups():
            folded = sum(self._stacks[group].values())
            roots = self._root_sum.get(group, 0)
            if folded != roots:
                problems.append(
                    f"group {group}: folded {_ns(folded)} ns != "
                    f"root {_ns(roots)} ns")
        return problems

    def as_dict(self) -> dict[str, Any]:
        """JSON-able view: stacks keyed ``"a;b;c"`` with float weights."""
        groups = {}
        for group in self.groups():
            groups[group] = {
                "n_traces": self.n_traces(group),
                "self_sum_ns": self.self_sum_ns(group),
                "root_sum_ns": self.root_sum_ns(group),
                "stacks": {
                    ";".join(stack): _ns(weight)
                    for stack, weight in sorted(self._stacks[group].items())
                },
            }
        return {
            "group_by": list(self.group_by),
            "negative_self": self.negative_self,
            "groups": groups,
        }


def fold_spans(recorder, group_by: tuple[str, ...] = ("host", "tenant"),
               ) -> FlameProfile:
    """Fold every finished span tree into a :class:`FlameProfile`.

    Traces whose root never finished are skipped whole (nothing to
    attribute); unfinished child spans are skipped individually, their
    time staying in the parent's self bucket.  A span whose finished
    children overlap (or overrun it) gets a *negative* self weight —
    deliberately not clamped, so the telescoping identity
    ``sum(self) == root duration`` stays exact; the profile counts
    such spans in :attr:`FlameProfile.negative_self`.
    """
    profile = FlameProfile(group_by)
    for spans in recorder.traces().values():
        root = None
        for span in spans:
            if span.parent_id is None:
                root = span
                break
        if root is None or root.end_ns is None:
            continue
        children: dict[int, list] = {}
        for span in spans:
            if span.parent_id is not None and span.end_ns is not None:
                children.setdefault(span.parent_id, []).append(span)
        group = profile.group_label(root.fields)
        stacks: list[tuple[tuple[str, ...], int]] = []

        def walk(span, duration: int, path: tuple[str, ...]) -> None:
            stack = path + (span.name,)
            self_units = duration
            for child in children.get(span.span_id, ()):
                child_duration = _units(child.end_ns) - _units(child.start_ns)
                self_units -= child_duration
                walk(child, child_duration, stack)
            stacks.append((stack, self_units))

        root_duration = _units(root.end_ns) - _units(root.start_ns)
        walk(root, root_duration, ())
        profile.add_trace(group, root_duration, stacks)
    return profile


def diff_stacks(profile: FlameProfile, group_a: str, group_b: str,
                ) -> dict[str, float]:
    """Per-stack ``weight(a) - weight(b)``, for victim-vs-aggressor diffs.

    Stacks are keyed in collapsed form (``"rpc;nic.rx"``); a positive
    value means ``group_a`` spent more simulated ns there.
    """
    a = profile._stacks.get(group_a, {})
    b = profile._stacks.get(group_b, {})
    out: dict[str, float] = {}
    for stack in sorted(set(a) | set(b)):
        out[";".join(stack)] = _ns(a.get(stack, 0) - b.get(stack, 0))
    return out


# -- exporters ----------------------------------------------------------------

def render_collapsed(profile: FlameProfile,
                     group: Optional[str] = None) -> str:
    """Brendan-Gregg collapsed-stack text, one ``frames weight`` line.

    The group label is folded in as leading frames
    (``host0;victim;rpc;nic.rx 123.500``) so a single file holds every
    tenant and standard flamegraph tooling still groups them visually.
    """
    lines = []
    groups = [group] if group is not None else profile.groups()
    for label in groups:
        prefix = tuple(label.split("/"))
        for stack, weight in sorted(profile._stacks[label].items()):
            frames = ";".join(prefix + stack)
            lines.append(f"{frames} {_ns(weight):.3f}")
    return "\n".join(lines)


def speedscope_json(profile: FlameProfile,
                    name: str = "repro-sim-flame") -> dict:
    """Speedscope file: one sampled profile per (host, tenant) group."""
    frame_index: dict[str, int] = {}
    frames: list[dict] = []

    def frame_of(frame_name: str) -> int:
        index = frame_index.get(frame_name)
        if index is None:
            index = len(frames)
            frame_index[frame_name] = index
            frames.append({"name": frame_name})
        return index

    profiles = []
    for group in profile.groups():
        samples: list[list[int]] = []
        weights: list[float] = []
        total = 0
        for stack, weight in sorted(profile._stacks[group].items()):
            samples.append([frame_of(frame) for frame in stack])
            weights.append(_ns(weight))
            total += weight
        profiles.append({
            "type": "sampled",
            "name": group,
            "unit": "nanoseconds",
            "startValue": 0.0,
            "endValue": _ns(total),
            "samples": samples,
            "weights": weights,
        })
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "name": name,
        "exporter": "repro.obs.flame",
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": profiles,
    }


def validate_speedscope(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` is a sane speedscope file."""
    if payload.get("$schema") != SPEEDSCOPE_SCHEMA:
        raise ValueError(f"bad $schema: {payload.get('$schema')!r}")
    shared = payload.get("shared")
    if not isinstance(shared, dict):
        raise ValueError("missing shared section")
    frames = shared.get("frames")
    if not isinstance(frames, list):
        raise ValueError("shared.frames must be a list")
    for i, frame in enumerate(frames):
        if not isinstance(frame, dict) or "name" not in frame:
            raise ValueError(f"frame {i} has no name")
    profiles = payload.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        raise ValueError("profiles must be a non-empty list")
    for profile in profiles:
        if profile.get("type") != "sampled":
            raise ValueError(f"profile {profile.get('name')!r}: "
                             "only sampled profiles are emitted")
        if profile.get("unit") != "nanoseconds":
            raise ValueError(f"profile {profile.get('name')!r}: "
                             f"bad unit {profile.get('unit')!r}")
        samples = profile.get("samples")
        weights = profile.get("weights")
        if not isinstance(samples, list) or not isinstance(weights, list):
            raise ValueError("samples/weights must be lists")
        if len(samples) != len(weights):
            raise ValueError(
                f"profile {profile.get('name')!r}: {len(samples)} samples "
                f"vs {len(weights)} weights")
        for sample in samples:
            for index in sample:
                if not 0 <= index < len(frames):
                    raise ValueError(f"frame index {index} out of range")
    index = payload.get("activeProfileIndex", 0)
    if not 0 <= index < len(profiles):
        raise ValueError("activeProfileIndex out of range")


# -- host-CPU mode ------------------------------------------------------------

class HostCpuProfiler:
    """Profile the *simulator's own* run loop in wall-clock slices.

    Drives ``sim.run`` in ``n_slices`` bounded steps over a horizon,
    timing each slice with ``time.perf_counter_ns`` and diffing the
    engine's dispatched-event counter, so hot simulated phases (storm
    onset, drain, quiesce) show up as wide frames.  Export with
    :meth:`to_speedscope`; numbers are host wall time and must never
    enter a golden-pinned artifact.
    """

    def __init__(self, sim, n_slices: int = 32):
        if n_slices < 1:
            raise ValueError("need at least one slice")
        self.sim = sim
        self.n_slices = n_slices
        #: (t0_ns, t1_ns, wall_ns, events) per executed slice
        self.slices: list[tuple[float, float, int, int]] = []

    def run(self, until_ns: float) -> None:
        sim = self.sim
        start = sim.now
        if until_ns <= start:
            raise ValueError("horizon must lie ahead of sim.now")
        step = (until_ns - start) / self.n_slices
        for i in range(self.n_slices):
            t0 = sim.now
            target = min(until_ns, start + (i + 1) * step)
            before = getattr(sim, "_stat_dispatched", 0)
            wall0 = time.perf_counter_ns()
            sim.run(until=target)
            wall = time.perf_counter_ns() - wall0
            events = getattr(sim, "_stat_dispatched", 0) - before
            self.slices.append((t0, sim.now, wall, events))

    def events_per_sec(self) -> float:
        wall = sum(s[2] for s in self.slices)
        events = sum(s[3] for s in self.slices)
        if wall <= 0:
            return 0.0
        return events / (wall / 1e9)

    def to_speedscope(self, name: str = "repro-host-cpu") -> dict:
        frames = [{"name": "engine.run"}]
        samples: list[list[int]] = []
        weights: list[float] = []
        for t0, t1, wall, events in self.slices:
            label = (f"sim[{t0:.0f}..{t1:.0f})ns "
                     f"{events} ev")
            frames.append({"name": label})
            samples.append([0, len(frames) - 1])
            weights.append(float(wall))
        return {
            "$schema": SPEEDSCOPE_SCHEMA,
            "name": name,
            "exporter": "repro.obs.flame",
            "activeProfileIndex": 0,
            "shared": {"frames": frames},
            "profiles": [{
                "type": "sampled",
                "name": "host-cpu",
                "unit": "nanoseconds",
                "startValue": 0.0,
                "endValue": float(sum(weights)),
                "samples": samples,
                "weights": weights,
            }],
        }
