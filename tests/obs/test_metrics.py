"""Metrics registry: instruments, live probes, testbed binding."""

import gc
from dataclasses import dataclass

import pytest

from repro.experiments.four_stacks import _build_stack
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsCollision,
    MetricsRegistry,
)


def test_counter_and_gauge_basics():
    registry = MetricsRegistry()
    requests = registry.counter("rx.requests")
    requests.inc()
    requests.inc(4)
    depth = registry.gauge("rx.depth")
    depth.set(17)
    snapshot = registry.snapshot()
    assert snapshot["rx.requests"] == 5
    assert snapshot["rx.depth"] == 17


def test_instruments_are_memoised_by_name():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.gauge("g") is registry.gauge("g")
    assert registry.histogram("h") is registry.histogram("h")
    assert isinstance(registry.counter("a"), Counter)
    assert isinstance(registry.gauge("g"), Gauge)


def test_callable_gauge_reads_live():
    registry = MetricsRegistry()
    box = {"value": 1}
    registry.gauge("live", fn=lambda: box["value"])
    assert registry.snapshot()["live"] == 1
    box["value"] = 9
    assert registry.snapshot()["live"] == 9


def test_histogram_summary_rows_appear_when_nonempty():
    registry = MetricsRegistry()
    histogram = registry.histogram("rtt")
    assert "rtt.count" not in registry.snapshot()  # empty: no rows
    histogram.extend([1.0, 2.0, 3.0])
    snapshot = registry.snapshot()
    assert snapshot["rtt.count"] == 3
    assert snapshot["rtt.mean"] == 2.0
    assert snapshot["rtt.min"] == 1.0 and snapshot["rtt.max"] == 3.0


def test_bind_exposes_numeric_fields_live():
    @dataclass
    class Stats:
        rx: int = 0
        dropped: int = 0
        label: str = "ignored"      # non-numeric: excluded
        _secret: int = 42           # underscore: excluded

    registry = MetricsRegistry()
    stats = Stats()
    registry.bind("nic", stats)
    assert registry.snapshot()["nic.rx"] == 0
    stats.rx = 7
    stats.dropped = 2
    snapshot = registry.snapshot()
    assert snapshot["nic.rx"] == 7 and snapshot["nic.dropped"] == 2
    assert "nic.label" not in snapshot and "nic._secret" not in snapshot


def test_probe_namespacing():
    registry = MetricsRegistry()
    registry.probe("a", lambda: {"x": 1})
    registry.probe("b", lambda: {"x": 2})
    snapshot = registry.snapshot()
    assert snapshot["a.x"] == 1 and snapshot["b.x"] == 2


def test_bind_testbed_metrics_covers_every_layer():
    from repro.obs.instrument import bind_testbed_metrics

    bed, service, method = _build_stack("linux")
    registry = bind_testbed_metrics(bed)
    snapshot = registry.snapshot()
    # One registry sees hardware, kernel, NIC, netstack, switch, client.
    assert "machine.busy_ns" in snapshot
    assert "machine.core0.instructions" in snapshot
    assert "kernel.syscalls" in snapshot
    assert "nic.rx_frames" in snapshot
    assert "netstack.rx_parse_errors" in snapshot
    assert f"netstack.udp{service.udp_port}.queue_depth" in snapshot
    assert "switch.unknown_dst_drops" in snapshot
    assert "client0.outstanding" in snapshot
    # Live: counters move when the system runs.
    client = bed.clients[0]

    def driver():
        yield bed.sim.timeout(10_000)
        yield from client.call(args=[1], **bed.call_args(service, method))

    bed.sim.process(driver())
    bed.machine.run(until=50_000_000)
    after = registry.snapshot()
    assert after["nic.rx_frames"] > 0
    assert after["kernel.syscalls"] > 0
    assert after["machine.busy_ns"] > 0


def test_bind_testbed_metrics_lauberhorn_exposes_telemetry():
    from repro.obs.instrument import bind_testbed_metrics

    bed, service, method = _build_stack("lauberhorn")
    registry = bind_testbed_metrics(bed, prefix="lb")
    snapshot = registry.snapshot()
    assert "lb.nic.telemetry.completed" in snapshot
    assert "lb.machine.busy_ns" in snapshot
    assert "lb.kernel.context_switches" in snapshot


# -- namespace collisions (detected at snapshot time) ---------------------


def test_collisions_are_counted_and_last_writer_wins():
    registry = MetricsRegistry()
    registry.counter("nic.rx").inc(5)
    registry.probe("nic", lambda: {"rx": 99})
    snapshot = registry.snapshot()
    # Deterministic order: counters, gauges, histograms, then probes in
    # registration order — so the probe's value wins.
    assert snapshot["nic.rx"] == 99
    assert registry.collisions == 1
    assert snapshot["metrics.collisions"] == 1


def test_probe_vs_probe_collision_resolves_by_registration_order():
    registry = MetricsRegistry()
    registry.probe("a", lambda: {"x": 1})
    registry.probe("a", lambda: {"x": 2})
    assert registry.snapshot()["a.x"] == 2
    assert registry.collisions == 1


def test_strict_snapshot_raises_on_collision():
    # A probe prefix producing a key an owned gauge already claimed.
    registry = MetricsRegistry()
    registry.gauge("a.x").set(1)
    registry.probe("a", lambda: {"x": 2})
    with pytest.raises(MetricsCollision, match="a.x"):
        registry.snapshot(strict=True)


def test_clean_snapshot_has_no_collision_row():
    registry = MetricsRegistry()
    registry.counter("a").inc()
    registry.gauge("b").set(2)
    snapshot = registry.snapshot(strict=True)   # must not raise
    assert "metrics.collisions" not in snapshot
    assert registry.collisions == 0


def test_collision_count_resets_per_snapshot():
    registry = MetricsRegistry()
    registry.gauge("a.x").set(1)
    probes = registry._probes
    registry.probe("a", lambda: {"x": 2})
    assert registry.snapshot()["metrics.collisions"] == 1
    probes.clear()
    assert "metrics.collisions" not in registry.snapshot()
    assert registry.collisions == 0


# -- lifetime hygiene: weak binds and reset -------------------------------


class _PlainStats:
    def __init__(self):
        self.rx = 3


def test_bind_does_not_pin_the_stats_object():
    registry = MetricsRegistry()
    stats = _PlainStats()
    registry.bind("nic", stats)
    assert registry.snapshot()["nic.rx"] == 3
    del stats
    gc.collect()
    # The registry held only a weak reference: the probe now reads {}.
    assert "nic.rx" not in registry.snapshot()


def test_bind_falls_back_to_strong_ref_for_slotted_types():
    class Slotted:
        __slots__ = ("rx",)

        def __init__(self):
            self.rx = 7

    registry = MetricsRegistry()
    registry.bind("nic", Slotted())
    # Not weak-referenceable: the registry keeps it alive instead of
    # silently dropping the metrics.
    gc.collect()
    assert registry.snapshot()["nic.rx"] == 7


def test_reset_drops_every_instrument_and_probe():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.gauge("g").set(1)
    registry.histogram("h").record(1.0)
    registry.probe("p", lambda: {"x": 1})
    registry.bind("b", _PlainStats())
    assert registry.snapshot()
    registry.reset()
    assert registry.snapshot() == {}
    assert registry.collisions == 0
    # Fresh instruments after reset start from zero.
    assert registry.counter("c").value == 0


# -- cached field walk ------------------------------------------------------------


def _uncached_numeric_fields(obj):
    """The registry's field walk before field names were cached per type."""
    import dataclasses

    if dataclasses.is_dataclass(obj):
        pairs = ((f.name, getattr(obj, f.name))
                 for f in dataclasses.fields(obj))
    else:
        try:
            pairs = vars(obj).items()
        except TypeError:
            pairs = ((name, getattr(obj, name))
                     for klass in type(obj).__mro__
                     for name in getattr(klass, "__slots__", ())
                     if hasattr(obj, name))
    return {name: value for name, value in pairs
            if isinstance(value, (int, float)) and not name.startswith("_")}


@dataclass
class _DataStats:
    rx: int = 0
    maybe: object = None
    ratio: float = 0.5
    label: str = "ignored"
    _hidden: int = 3


class _DictStats:
    def __init__(self):
        self.rx = 0
        self.maybe = None
        self.label = "ignored"
        self._hidden = 3


class _SlotBase:
    __slots__ = ("base",)

    def __init__(self):
        self.base = 1.5


class _SlotStats(_SlotBase):
    __slots__ = ("rx", "maybe", "unset", "_hidden")

    def __init__(self):
        super().__init__()
        self.rx = 0
        self.maybe = None
        self._hidden = 3


def test_memoised_field_names_read_like_the_uncached_reference():
    """The registry resolves a bound type's field names once; every
    snapshot must still equal a full field walk, in the same order."""
    stats = [_DataStats(), _DictStats(), _SlotStats(), _DataStats()]
    registry = MetricsRegistry()
    for index, obj in enumerate(stats):
        registry.bind(f"s{index}", obj)
    for step, maybe in enumerate((None, 7, None, 0, 2.5, None)):
        for index, obj in enumerate(stats):
            obj.rx = 10 * step + index
            obj.maybe = maybe
        if step == 3:
            stats[1].late = 11          # __dict__ objects may grow
            stats[2].unset = 4          # a slot filled after binding
        expected = [(f"s{index}.{name}", value)
                    for index, obj in enumerate(stats)
                    for name, value in _uncached_numeric_fields(obj).items()]
        assert list(registry.snapshot().items()) == expected
    keys = [key for key, _value in expected]
    assert "s1.late" in keys and "s2.unset" in keys
    assert "s0.maybe" not in keys and "s2._hidden" not in keys
