#!/usr/bin/env python3
"""A microservice mesh with a rotating hot set, served three ways.

Eight services share four serving cores while the traffic's hot set
rotates every 2 ms — the dynamic workload of the paper's Sections 1/4.
The same load runs against the Linux kernel stack, a kernel-bypass
deployment, and Lauberhorn with NIC-driven scheduling, and the script
prints the latency/efficiency comparison.

Run:  python examples/microservice_mesh.py
"""

from repro.experiments.dynamic_mix import (
    MIX_STACKS,
    measure_mix_point,
    render_dynamic_mix,
)


def main() -> None:
    results = [
        measure_mix_point(stack, n_services=8, n_serving=4,
                          rate_per_sec=50_000, n_requests=200)
        for stack in MIX_STACKS
    ]
    render_dynamic_mix(results, n_serving=4, rate_per_sec=50_000)
    lauberhorn = next(r for r in results if r.stack == "lauberhorn")
    bypass = next(r for r in results if r.stack == "bypass")
    print()
    print(f"Lauberhorn p50 is {bypass.p50_ns / lauberhorn.p50_ns:.1f}x "
          "faster than kernel bypass on this dynamic mix, using "
          f"{bypass.busy_ns_per_request / lauberhorn.busy_ns_per_request:.0f}x "
          "fewer CPU cycles per request.")


if __name__ == "__main__":
    main()
