"""A process-wide metrics registry: counters, gauges, histograms.

Before this module, every component kept its own ad-hoc stats object —
``NicStats``, ``KernelStats``, ``LinkStats``, ``SocketStats``,
``LauberhornStats``, per-core ``CoreCounters`` — and every experiment
that wanted a number had to know which object to reach into.  A
:class:`MetricsRegistry` gives them one namespace and one
``snapshot()`` call:

* :meth:`MetricsRegistry.counter` / :meth:`gauge` /
  :meth:`histogram` create owned instruments for new code;
* :meth:`bind` registers an *existing* stats dataclass as a live
  probe — its numeric fields are read at snapshot time, so the
  component keeps mutating its own object with zero added cost on the
  data path (the registry only pays at ``snapshot()``).

Components expose a ``bind_metrics(registry, prefix)`` hook;
:func:`repro.obs.instrument.bind_testbed_metrics` calls them all for
an assembled testbed.
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import Any, Callable, Optional

from ..metrics.histogram import LatencyRecorder

__all__ = ["Counter", "Gauge", "MetricsCollision", "MetricsRegistry",
           "REGISTRY"]


class MetricsCollision(ValueError):
    """Two instruments produced the same snapshot key (strict mode)."""


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value: either set directly or computed by ``fn``."""

    __slots__ = ("name", "fn", "_value")

    def __init__(self, name: str, fn: Optional[Callable[[], Any]] = None):
        self.name = name
        self.fn = fn
        self._value = 0

    def set(self, value) -> None:
        self._value = value

    @property
    def value(self):
        return self.fn() if self.fn is not None else self._value


def _field_names(obj) -> Optional[tuple[str, ...]]:
    """The non-underscore names :func:`_numeric_fields` reads on ``obj``:
    its dataclass fields, or the ``__slots__`` declared anywhere in its
    MRO.  None for a ``__dict__`` object, whose attribute set can differ
    per instance and change over time, so it is walked on every read."""
    if dataclasses.is_dataclass(obj):
        names = [f.name for f in dataclasses.fields(obj)]
    elif hasattr(obj, "__dict__"):
        return None
    else:
        names = [name for klass in type(obj).__mro__
                 for name in getattr(klass, "__slots__", ())]
    return tuple(name for name in names if not name.startswith("_"))


def _numeric_fields(obj, memo: dict) -> dict[str, Any]:
    """The int/float attributes of a stats object (dataclass or not).

    ``memo`` maps a type to its :func:`_field_names`, resolved at the
    type's first read rather than when it is bound, so binding adds
    nothing to a run's set-up.
    """
    try:
        names = memo[type(obj)]
    except KeyError:
        names = memo[type(obj)] = _field_names(obj)
    if names is None:
        return {name: value for name, value in vars(obj).items()
                if isinstance(value, (int, float)) and not name.startswith("_")}
    # An unset slot reads as None, which the type filter drops.
    return {name: value for name in names
            if isinstance(value := getattr(obj, name, None), (int, float))}


class MetricsRegistry:
    """One flat namespace over every component's instruments."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, LatencyRecorder] = {}
        self._probes: list[tuple[str, Callable[[], dict]]] = []
        #: field names per bound type (see :func:`_numeric_fields`)
        self._names_by_type: dict[type, Optional[tuple[str, ...]]] = {}
        #: key collisions detected by the most recent :meth:`snapshot`
        self.collisions = 0

    # -- instrument factories (memoised by name) ------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str,
              fn: Optional[Callable[[], Any]] = None) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name, fn)
        elif fn is not None:
            gauge.fn = fn
        return gauge

    def histogram(self, name: str) -> LatencyRecorder:
        recorder = self._histograms.get(name)
        if recorder is None:
            recorder = self._histograms[name] = LatencyRecorder(name)
        return recorder

    # -- live probes over existing stats objects ------------------------------

    def probe(self, prefix: str, fn: Callable[[], dict]) -> None:
        """Register ``fn() -> {name: value}``, read at snapshot time."""
        self._probes.append((prefix, fn))

    def bind(self, prefix: str, obj) -> None:
        """Expose a stats object's numeric fields as live gauges.

        The probe holds only a *weak* reference to ``obj`` (when the
        type allows one): a registry must never be what keeps a whole
        testbed alive — long-lived registries over short-lived runs
        were exactly the leak that pinned testbeds across
        ``repro.exp`` pool jobs.  Once the stats object is collected
        the probe contributes nothing.
        """
        memo = self._names_by_type
        try:
            ref = weakref.ref(obj)
        except TypeError:
            # Not weak-referenceable (slots without __weakref__):
            # fall back to a strong reference.
            self.probe(prefix, lambda obj=obj: _numeric_fields(obj, memo))
            return

        def read(ref=ref) -> dict:
            target = ref()
            return _numeric_fields(target, memo) if target is not None else {}

        self.probe(prefix, read)

    # -- lifecycle ------------------------------------------------------------

    def reset(self) -> None:
        """Drop every instrument and probe (cross-run hygiene).

        Experiments should prefer a fresh per-run registry; ``reset``
        exists for the process-wide :data:`REGISTRY` and long-lived
        harnesses, so ad-hoc bindings from one run cannot leak stats
        objects — or stale numbers — into the next.
        """
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._probes.clear()
        self.collisions = 0

    # -- the one call everything funnels into ---------------------------------

    def snapshot(self, strict: bool = False) -> dict[str, Any]:
        """Flat ``{"prefix.name": value}`` view of every instrument.

        Histograms contribute their summary row (or nothing while
        empty, via :meth:`LatencyRecorder.summary_or_none`).

        The namespace is flat, so a ``probe()``/``bind()`` prefix can
        produce a key that an owned instrument (or another probe)
        already claimed.  Collisions are detected here, at snapshot
        time: the **last writer wins**, deterministically — sources
        contribute in the fixed order counters, gauges, histogram
        rows, then probes in registration order — the collision count
        lands in :attr:`collisions` and, when non-zero, in the
        snapshot itself under ``"metrics.collisions"``.  Check
        harnesses pass ``strict=True`` to raise
        :class:`MetricsCollision` instead of silently overwriting.
        """
        out: dict[str, Any] = {}
        collided: list[str] = []

        def put(key: str, value: Any) -> None:
            if key in out:
                collided.append(key)
            out[key] = value

        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            put(name, gauge.value)
        for name, recorder in self._histograms.items():
            summary = recorder.summary_or_none()
            if summary is not None:
                for stat, value in summary.row().items():
                    put(f"{name}.{stat}", value)
        for prefix, fn in self._probes:
            for name, value in fn().items():
                put(f"{prefix}.{name}", value)
        self.collisions = len(collided)
        if collided:
            if strict:
                raise MetricsCollision(
                    f"{len(collided)} snapshot key collision(s): "
                    + ", ".join(sorted(set(collided))))
            out["metrics.collisions"] = len(collided)
        return out


#: Process-wide default registry, reserved for *ad-hoc* use (REPL
#: poking, one-off scripts).  Experiments and tests must build per-run
#: registries (``bind_testbed_metrics(bed)`` does) so one run's
#: bindings cannot leak into — or pin testbeds across — the next;
#: call :meth:`MetricsRegistry.reset` to scrub this one.
REGISTRY = MetricsRegistry()
