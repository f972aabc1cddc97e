"""Unit + property tests for latency, energy, and cycle metrics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hw import ENZIAN, Machine
from repro.metrics import (
    CycleWindow,
    LatencyRecorder,
    PowerParams,
    core_energy,
    machine_energy,
    percentile,
)
from repro.metrics.histogram import nearest_rank


def test_percentile_simple():
    samples = sorted([10.0, 20.0, 30.0, 40.0])
    assert percentile(samples, 0) == 10
    assert percentile(samples, 100) == 40
    assert percentile(samples, 50) == 25  # interpolated


def test_percentile_single_sample():
    assert percentile([5.0], 99) == 5.0


def test_percentile_errors():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 120)


def _old_nearest_rank(samples, q):
    """Reference: the nearest-rank index expression, written out."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


QUANTILES = (0.0, 0.5, 0.99, 0.999, 1.0)


def test_nearest_rank_edges():
    for q in QUANTILES:
        assert nearest_rank([], q) == 0.0
        assert nearest_rank([7.5], q) == 7.5
        assert nearest_rank([3.0, 3.0, 3.0], q) == 3.0
    assert nearest_rank([4.0, 1.0, 3.0, 2.0], 0.5) == 3.0  # never averaged
    assert nearest_rank(iter([2.0, 1.0]), 1.0) == 2.0


@given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1,
                max_size=300)
       | st.lists(st.sampled_from([1.0, 2.0, 5.0]), min_size=1, max_size=50),
       st.sampled_from(QUANTILES) | st.floats(min_value=0, max_value=1))
def test_nearest_rank_matches_the_old_expression(samples, q):
    assert nearest_rank(samples, q) == _old_nearest_rank(samples, q)


@given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=200))
def test_percentile_monotone_property(samples):
    ordered = sorted(samples)
    values = [percentile(ordered, p) for p in (0, 25, 50, 75, 90, 99, 100)]
    tolerance = 1e-9 * max(1.0, ordered[-1])
    assert all(b >= a - tolerance for a, b in zip(values, values[1:]))
    assert ordered[0] <= values[0] + tolerance
    assert values[-1] <= ordered[-1] + tolerance


def test_latency_recorder_summary():
    recorder = LatencyRecorder("t")
    recorder.extend(float(v) for v in range(1, 101))
    summary = recorder.summary()
    assert summary.count == 100
    assert summary.mean == pytest.approx(50.5)
    assert summary.minimum == 1 and summary.maximum == 100
    assert summary.p50 == pytest.approx(50.5)
    assert summary.p99 > summary.p90 > summary.p50
    assert set(summary.row()) == {
        "count", "mean", "p50", "p90", "p99", "p999", "min", "max"
    }


def test_latency_recorder_empty_summary_raises():
    with pytest.raises(ValueError):
        LatencyRecorder().summary()


def test_latency_recorder_summary_or_none():
    recorder = LatencyRecorder("t")
    assert recorder.summary_or_none() is None
    recorder.record(5.0)
    summary = recorder.summary_or_none()
    assert summary is not None and summary.count == 1


def test_latency_recorder_sort_cache_invalidated_on_insert():
    recorder = LatencyRecorder("t")
    recorder.extend([3.0, 1.0, 2.0])
    first = recorder.summary()
    assert (first.minimum, first.maximum) == (1.0, 3.0)
    # Repeated summaries reuse the cached sorted view...
    assert recorder.summary() == first
    # ...and both insertion paths invalidate it.
    recorder.record(0.5)
    assert recorder.summary().minimum == 0.5
    recorder.extend([10.0])
    assert recorder.summary().maximum == 10.0
    # Direct appends to .samples (legacy callers) are also caught.
    recorder.samples.append(20.0)
    assert recorder.summary().maximum == 20.0


def test_core_energy_states_ordered():
    machine = Machine(ENZIAN)
    core = machine.cores[0]
    window = 1e6  # 1 ms

    idle = core_energy(core, window)  # all idle
    core.counters.stall_ns = window
    stalled = core_energy(core, window)
    core.counters.stall_ns = 0
    core.counters.busy_ns = window
    busy = core_energy(core, window)
    assert idle.total_j < stalled.total_j < busy.total_j


def test_core_energy_breakdown_adds_up():
    machine = Machine(ENZIAN)
    core = machine.cores[0]
    core.counters.busy_ns = 300_000
    core.counters.stall_ns = 200_000
    energy = core_energy(core, 1_000_000, PowerParams(2.0, 1.0, 0.1))
    # 300 us busy at 2 W = 600 uJ, etc.
    assert energy.busy_j == pytest.approx(300_000e-9 * 2.0)
    assert energy.stall_j == pytest.approx(200_000e-9 * 1.0)
    assert energy.idle_j == pytest.approx(500_000e-9 * 0.1)
    assert energy.total_j == pytest.approx(
        energy.busy_j + energy.stall_j + energy.idle_j
    )


def test_machine_energy_sums_cores():
    machine = Machine(ENZIAN)
    machine.cores[0].counters.busy_ns = 1000
    machine.cores[1].counters.busy_ns = 1000
    total = machine_energy(machine.cores[:2], 2000)
    single = core_energy(machine.cores[0], 2000)
    assert total.total_j == pytest.approx(2 * single.total_j)


def test_energy_window_validation():
    machine = Machine(ENZIAN)
    with pytest.raises(ValueError):
        core_energy(machine.cores[0], 0)


def test_cycle_window_per_request():
    machine = Machine(ENZIAN)
    window = CycleWindow(machine)
    window.begin()

    def work(core):
        yield from core.execute(10_000)

    machine.sim.process(work(machine.cores[0]))
    machine.sim.process(work(machine.cores[1]))
    machine.run()
    cost = window.end(requests=4)
    assert cost.instructions_per_request == pytest.approx(5000)
    assert cost.busy_ns_per_request > 0
    assert cost.cycles_per_request(2.0) == pytest.approx(
        cost.busy_ns_per_request * 2.0
    )


def test_cycle_window_requires_begin():
    machine = Machine(ENZIAN)
    with pytest.raises(RuntimeError):
        CycleWindow(machine).end(1)
