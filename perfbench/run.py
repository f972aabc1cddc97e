"""End-to-end and per-layer benchmark of the simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload echo4.lauberhorn --seed 1 \\
        --seconds 10 --trace 0

One run repeats the workload -- build, simulate to a fixed horizon,
run the post-run forensics -- for ``--seconds`` of host time (at least
three times) and checks every repetition's outputs.  Host times are
normalized to a reference host's speed by a calibration loop
interleaved with the simulation (see ``calibrate.py``), and the
end-to-end metrics report their median over the repetitions.  The
simulated results are deterministic for a seed; every repetition must
produce the same digest of them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` adds one
repetition under cProfile and reports the per-layer metrics: host self
time per package of ``src/repro``, inbound calls, named hot spots, and
the simulated counters of each layer.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed output check exits with status 1.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass

from calibrate import Meter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PACKAGE = os.path.join(SRC, "repro")
MIN_REPS = 3
SETUPS_PER_REP = 4

#: simulated per-layer counters (read from the first repetition) and
#: their units; a workload without the component reports 0
_COUNTERS = {
    "net.frames": "count", "net.bytes": "B", "net.drops": "count",
    "nic.rx_frames": "count", "nic.rx_dropped": "count",
    "nic.tryagains": "count", "nic.dma_fallbacks": "count",
    "nic.backlog_drops": "count", "nic.preempt_requests": "count",
    "os.context_switches": "count", "os.irqs": "count",
    "os.syscalls": "count", "os.preemptions": "count",
    "hw.busy_ns_per_req": "ns", "hw.stall_ns_per_req": "ns",
    "check.samples": "count", "check.violations": "count",
    "obs.spans": "count", "obs.windows": "count",
    "tenancy.policed": "count", "tenancy.admitted": "count",
    "tenancy.aggressor_completed": "count",
    "fleet.imbalance": "ratio", "fleet.cross_rack_flows": "count",
}


def import_simulator():
    """Put this checkout's ``src`` first on the path; refuse any other."""
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        raise SystemExit(f"perfbench: no simulator sources at {PACKAGE}")
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != PACKAGE:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__},"
                         f" not from {PACKAGE}")


def host_metadata() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


@dataclass
class Timed:
    """One untraced repetition and its host times."""

    rep: object
    #: host seconds of simulation plus forensics, calibration excluded
    busy_s: float
    #: host seconds of the simulation alone
    sim_s: float
    #: host seconds of this repetition's build and the set-up-only
    #: builds after it
    setups: list
    #: host time relative to the reference host's, from the calibration
    #: chunks interleaved with this repetition
    slowdown: float


def timed_rep(workload, seed: int) -> Timed:
    """One repetition through a calibration meter, followed by
    :data:`SETUPS_PER_REP` set-up-only builds, each followed by a
    calibration chunk, so set-up time is sampled across the whole run
    and under the same calibration."""
    gc.collect()
    meter = Meter()
    rep = workload(seed)(meter)
    busy = rep.timed_s - meter.cal_s  # chunks ran inside the run phase
    meter.chunk()
    setups = [rep.setup_s]
    for _ in range(SETUPS_PER_REP):
        gc.collect()
        start = time.perf_counter()
        workload(seed)
        setups.append(time.perf_counter() - start)
        meter.chunk()
    return Timed(rep, busy, meter.sim_s, setups, meter.slowdown)


def run_reps(workload, seed: int, seconds: float) -> list:
    """Repeat the workload for ``seconds`` of host time, at least
    :data:`MIN_REPS` times."""
    timed = []
    deadline = time.perf_counter() + seconds
    while len(timed) < MIN_REPS or time.perf_counter() < deadline:
        timed.append(timed_rep(workload, seed))
    return timed


def traced_rep(workload, seed: int):
    """One repetition under cProfile: ``(rep, wall_s, stats)``."""
    gc.collect()
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    rep = workload(seed)()
    profiler.disable()
    wall = time.perf_counter() - start
    profiler.create_stats()
    return rep, wall, profiler.stats


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of pre-sorted samples."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(timed: list) -> dict:
    """Host times normalized to the reference host, median over the run."""
    first = timed[0].rep
    rtts = first.rtts()
    return {
        "setup_s": (statistics.median(
            s / t.slowdown for t in timed for s in t.setups), "s"),
        "norm_us_per_req": (statistics.median(
            t.busy_s / t.slowdown for t in timed) / first.offered * 1e6,
            "us"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "sim_p99_rtt_us": (percentile(rtts, 0.99) / 1000, "us"),
    }


def per_layer(timed: list, traced_wall: float, stats: dict) -> dict:
    """Raw (not normalized) host times: the traced run is not calibrated."""
    from attribution import attribute

    reps = [t.rep for t in timed]
    first = reps[0]
    metrics = {}
    attributed = attribute(stats, PACKAGE)
    print(f"traced: {attributed.pop('total_s'):.3f} s of self time over "
          f"{traced_wall:.3f} s wall, split into layers + other")
    for name, value in attributed.items():
        unit = ("s" if name.endswith("self_s") else
                "frac" if name.endswith("share") else "count")
        metrics[name] = (value, unit)
    untraced = min(t.setups[0] + t.busy_s for t in timed)
    metrics["trace_overhead"] = (traced_wall / untraced, "ratio")
    events = first.engine["events"]
    run_s = min(t.sim_s for t in timed)
    metrics["sim.events"] = (events, "count")
    metrics["sim.events_per_req"] = (events / first.offered, "count/req")
    metrics["sim.events_per_s"] = (events / run_s, "1/s")
    metrics["sim.ms_per_wall_s"] = (first.engine["sim_ns"] / 1e6 / run_s,
                                    "ms/s")
    metrics["sim.timeouts_cancelled"] = (
        first.engine["timeouts_cancelled"], "count")
    for name, phase in (("experiments.build_s", "build"),
                        ("obs.arm_s", "arm"),
                        ("check.install_s", "install"),
                        ("obs.post_s", "post")):
        metrics[name] = (min(r.phases.get(phase, 0.0) for r in reps), "s")
    for name, unit in _COUNTERS.items():
        metrics[name] = (first.counters.get(name, 0), unit)
    metrics["rtt_samples"] = (len(first.rtts()), "count")
    return metrics


def check_reps(reps: list) -> list:
    """Output checks: each repetition's own, plus identical digests."""
    problems = []
    for index, rep in enumerate(reps):
        problems += [f"rep {index}: {p}" for p in rep.problems]
    digests = {rep.digest() for rep in reps}
    if len(digests) != 1:
        problems.append(f"{len(digests)} different output digests across "
                        f"{len(reps)} repetitions of one seed")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_simulator()
    from scenarios import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"host: {json.dumps(host_metadata(), sort_keys=True)}")

    timed = run_reps(workload, args.seed, args.seconds)
    all_reps = [t.rep for t in timed]
    if args.trace:
        traced, traced_wall, stats = traced_rep(workload, args.seed)
        all_reps.append(traced)
    problems = check_reps(all_reps)

    first = timed[0].rep
    rtts = first.rtts()
    p99 = percentile(rtts, 0.99)
    print(f"repetitions: {len(timed)} untraced"
          f"{' + 1 traced' if args.trace else ''}; host s each: "
          + " ".join(f"{t.busy_s:.3f}" for t in timed))
    print("host slowdown vs reference, each: "
          + " ".join(f"{t.slowdown:.3f}" for t in timed))
    print(f"simulated: {first.offered} requests offered "
          f"({first.stream.offered} measured), "
          f"{first.engine['sim_ns'] / 1e6:g} ms horizon")
    print(f"rtt samples: {len(rtts)}, {sum(1 for x in rtts if x > p99)} "
          "beyond p99")
    for label, samples in sorted(first.rtts_by_label().items()):
        print(f"  {label:<12} n={len(samples):<5} "
              f"p50={percentile(samples, 0.50) / 1000:.3f} us "
              f"p99={percentile(samples, 0.99) / 1000:.3f} us")
    print(f"digest: {first.digest()}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"checks: {'ok' if not problems else f'{len(problems)} failed'}")

    if args.trace:
        metrics = per_layer(timed, traced_wall, stats)
    else:
        metrics = end_to_end(timed)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": sum(r.stream.offered for r in all_reps),
        "failed": sum(r.failed for r in all_reps),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
