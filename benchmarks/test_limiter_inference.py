"""Extension — measuring a hop's ICMPv6 token bucket from outside.

Figure 5 observes that hops rate-limit with heterogeneous aggressiveness;
this bench quantifies each premise hop's bucket by active measurement
(burst read for capacity, steady-rate scan for refill) and validates the
estimates against the simulator's ground-truth parameters.
"""

from repro.analysis import render_table
from repro.analysis.limiter import LimiterProbeConfig, infer_limiter
from repro.netsim import Internet


def run_inference(world):
    net = Internet(world)
    vantage = world.vantages["US-EDU-2"]
    target = next(iter(world.truth.subnets.values())).prefix.base | 0x1234
    rows = []
    for hop_index, (router, _) in enumerate(vantage.premise_chain, start=1):
        estimate = infer_limiter(net, "US-EDU-2", target, ttl=hop_index)
        rows.append(
            (
                hop_index,
                router.rate,
                router.burst,
                estimate.rate,
                estimate.burst,
                estimate.probes_used,
            )
        )
    return rows


def test_limiter_inference(world, save_result, benchmark):
    rows = benchmark.pedantic(run_inference, args=(world,), rounds=1, iterations=1)
    save_result(
        "limiter_inference",
        render_table(
            ["Hop", "True rate", "True burst", "Est. rate", "Est. burst", "Probes"],
            [
                [
                    hop,
                    "%.0f/s" % true_rate,
                    "%.0f" % true_burst,
                    "%.0f/s" % est_rate,
                    "%.0f" % est_burst,
                    probes,
                ]
                for hop, true_rate, true_burst, est_rate, est_burst, probes in rows
            ],
            title="Extension: remote token-bucket inference (US-EDU-2 premise hops)",
        ),
    )

    for hop, true_rate, true_burst, est_rate, est_burst, _ in rows:
        scan_ceiling = max(LimiterProbeConfig().scan_rates)
        if true_rate <= scan_ceiling:
            # Within the scan range: estimates land near truth.
            assert abs(est_rate - true_rate) <= max(10, true_rate * 0.35), hop
        else:
            # Beyond it: the method reports the measured floor.
            assert est_rate == scan_ceiling, hop
        assert abs(est_burst - true_burst) <= max(10, true_burst * 0.35), hop
    # The aggressive hop 5 is measurably the stingiest.
    est_rates = {hop: est for hop, _, _, est, _, _ in rows}
    assert est_rates[5] == min(est_rates.values())
