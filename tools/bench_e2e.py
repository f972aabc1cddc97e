#!/usr/bin/env python3
"""Record the end-to-end benchmark's baseline as ``BENCH_e2e.json``.

For every workload that ``BENCHMARK.json`` declares, runs
``perfbench/run.py`` from this checkout five times untraced and once
with ``--trace 1``, all at seed 1 and the benchmark's run length, and
records:

* the median and quartiles of each end-to-end metric over the untraced
  runs, with the runs' own values;
* ``sim.events_per_req`` and every layer's share of traced host time,
  from the traced run;
* the host metadata the benchmark printed, and the commit measured:
  ``HEAD``, whether the sources differed from it, and a digest of the
  sources that were run.

Usage (from the repository root)::

    python tools/bench_e2e.py [--out BENCH_e2e.json]

Runs are parsed with ``tools/perf_ab.py``'s parser.  Every run must
pass its output checks and agree on the digest; otherwise nothing is
written and the exit status is 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import subprocess
import sys

from perf_ab import parse_output, quartiles

REPO = pathlib.Path(__file__).resolve().parent.parent
SCHEMA = 1
SEED = 1
#: untraced runs per workload
RUNS = 5
#: the sources a benchmark run executes
MEASURED = ("src", "perfbench")


def run_benchmark(workload: str, seed: int, seconds: float, trace: int):
    """One ``perfbench/run.py`` run: ``(Run, host metadata)``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace",
               str(trace)]
    done = subprocess.run(command, cwd=REPO, capture_output=True, text=True)
    if not done.stdout.strip():
        raise SystemExit(f"bench_e2e: no output from {workload}:\n"
                         f"{done.stderr}")
    host = next(json.loads(line.split(":", 1)[1])
                for line in done.stdout.splitlines()
                if line.startswith("host:"))
    return parse_output(done.stdout), host


def summarise(runs: list, declared: list) -> dict:
    """Median and quartiles of each declared end-to-end metric."""
    out = {}
    for entry in declared:
        values = [run.metrics[entry["name"]] for run in runs]
        q1, median, q3 = quartiles(values)
        out[entry["name"]] = {"unit": entry["unit"], "q1": q1,
                              "median": median, "q3": q3, "runs": values}
    return out


def traced_summary(run) -> dict:
    """Events per request and each layer's share of traced host time."""
    return {
        "sim.events_per_req": run.metrics["sim.events_per_req"],
        "shares": {name[:-len(".share")]: value
                   for name, value in run.metrics.items()
                   if name.endswith(".share")},
    }


def source_digest() -> str:
    """SHA-256 over the path and bytes of every tracked measured file."""
    listed = subprocess.run(["git", "ls-files", "-z", *MEASURED], cwd=REPO,
                            capture_output=True, text=True, check=True)
    digest = hashlib.sha256()
    for path in sorted(filter(None, listed.stdout.split("\0"))):
        digest.update(path.encode() + b"\0")
        digest.update((REPO / path).read_bytes())
    return digest.hexdigest()


def commit() -> dict:
    def git(*args) -> str:
        return subprocess.run(["git", *args], cwd=REPO, capture_output=True,
                              text=True, check=True).stdout.strip()

    return {"head": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--", *MEASURED)),
            "source_sha256": source_digest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=pathlib.Path,
                        default=REPO / "BENCH_e2e.json")
    args = parser.parse_args(argv)

    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    problems = []
    hosts = []
    workloads = {}
    for entry in bench["workloads"]:
        name = entry["name"]
        runs = []
        for _ in range(RUNS):
            run, host = run_benchmark(name, SEED, seconds, 0)
            runs.append(run)
            hosts.append(host)
        traced, host = run_benchmark(name, SEED, seconds, 1)
        hosts.append(host)
        everything = runs + [traced]
        problems += [f"{name}: a run failed its checks"
                     for run in everything if not run.correct]
        if len({run.digest for run in everything}) != 1:
            problems.append(f"{name}: runs disagree on the digest")
        workloads[name] = {
            "digest": runs[0].digest,
            "attempted": sum(run.attempted for run in runs),
            "failed": sum(run.failed for run in runs),
            "end_to_end": summarise(runs, bench["end_to_end"]),
            "trace": traced_summary(traced),
        }
        median = workloads[name]["end_to_end"]["norm_us_per_req"]["median"]
        print(f"{name}: norm_us_per_req median {median:.1f} us over "
              f"{RUNS} runs", flush=True)
    if any(host != hosts[0] for host in hosts):
        problems.append("the host metadata changed between runs")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if problems:
        return 1
    record = {
        "schema": SCHEMA,
        "command": bench["command"],
        "seed": SEED,
        "runs": RUNS,
        "seconds": seconds,
        "host": hosts[0],
        "commit": commit(),
        "workloads": workloads,
    }
    # in BENCHMARK.json's order, workloads and metrics alike
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
