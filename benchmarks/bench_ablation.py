"""Ablation benches for the design choices DESIGN.md §6 calls out."""

from repro.experiments.ablation import run_crypto_ablation, run_deserialize_ablation
from repro.experiments.telemetry_breakdown import run_telemetry_breakdown


def test_deserialize_offload(once):
    rows = once(run_deserialize_ablation, payload_bytes=512)
    offloaded = next(r for r in rows if r.config == "lauberhorn")
    software = next(r for r in rows if "sw-unmarshal" in r.config)
    # The offload removes the software unmarshal from the host path.
    assert offloaded.busy_ns_per_request < software.busy_ns_per_request / 1.5
    assert offloaded.p50_rtt_ns < software.p50_rtt_ns


def test_crypto_placement(once):
    rows = once(run_crypto_ablation, payload_bytes=1024)
    by_config = {r.config: r for r in rows}
    lb_plain = by_config["lauberhorn"]
    lb_enc = by_config["lauberhorn+encrypted"]
    lx_plain = by_config["linux"]
    lx_enc = by_config["linux+encrypted"]

    # NIC inline crypto: small latency add, zero host-cycle add.
    assert lb_enc.p50_rtt_ns - lb_plain.p50_rtt_ns < 500
    assert abs(lb_enc.busy_ns_per_request - lb_plain.busy_ns_per_request) < 50
    # Host crypto: pays both latency and cycles.
    assert lx_enc.busy_ns_per_request > lx_plain.busy_ns_per_request + 500
    assert lx_enc.p50_rtt_ns > lx_plain.p50_rtt_ns + 500


def test_telemetry_breakdown(once):
    breakdown = once(run_telemetry_breakdown, n_requests=20)
    assert breakdown.completed == 20
    assert breakdown.kernel_dispatch_fraction == 0.5
    # The cold (kernel-dispatched) service shows a larger service stage
    # than the hot one — exactly the signal an operator needs.
    hot = breakdown.services["hot"]["service"].p50_ns
    cold = breakdown.services["cold"]["service"].p50_ns
    assert cold > hot * 1.5
