"""Figure 5 — Probing strategy, rate, and per-hop responsiveness.

Runs randomized (Yarrp6) and sequential (scamper-style) campaigns over
the CAIDA-style target list at 20 / 1000 / 2000 pps from two vantages
and reports the fraction of traces answered at each hop.  The paper's
headline: the strategies tie at 20 pps, but at 1–2 kpps sequential
probing collapses at the near hops (ICMPv6 token buckets drain under its
per-TTL waves) while randomization keeps responsiveness high; some hops
(US-EDU-2's hop 5) rate-limit aggressively regardless.
"""

import random

from repro.analysis import per_hop_responsiveness, render_table
from repro.hitlist import zn, fixediid
from repro.netsim import Internet
from repro.obs import MetricsRegistry, series_points
from repro.prober import run_sequential, run_yarrp6

from .emit import emit_json

RATES = (20.0, 1000.0, 2000.0)
VANTAGES = ("US-EDU-1", "US-EDU-2")
MAX_TTL = 16


def series_total(dump, name):
    return sum(value for _, value in series_points(dump, name))


def fig5_targets(world, seeds):
    """CAIDA-style list, Ark-fashion: the ::1-equivalent fixed-IID target
    plus several random /64s per advertised prefix (enough traces for the
    per-TTL waves to outlast the token buckets)."""
    rng = random.Random(5)
    prefixes = zn(seeds["caida"].items, 48)
    targets = list(fixediid(prefixes))
    for prefix in prefixes:
        for _ in range(8):
            targets.append(prefix.random_subnet(64, rng).base | 0x1234)
    return sorted(set(targets))


def run_all(world, seeds):
    targets = fig5_targets(world, seeds)
    series = {}
    results = {}
    for vantage in VANTAGES:
        for rate in RATES:
            internet = Internet(world)
            yarrp = run_yarrp6(
                internet, vantage, targets, pps=rate, max_ttl=MAX_TTL,
                metrics=MetricsRegistry(),
            )
            seq = run_sequential(
                internet, vantage, targets, pps=rate, max_ttl=MAX_TTL,
                metrics=MetricsRegistry(),
            )
            series[(vantage, "yarrp", rate)] = per_hop_responsiveness(yarrp, MAX_TTL)
            series[(vantage, "sequential", rate)] = per_hop_responsiveness(seq, MAX_TTL)
            results[(vantage, "yarrp", rate)] = yarrp
            results[(vantage, "sequential", rate)] = seq
    return targets, series, results


def test_fig5(world, seeds, save_result, benchmark):
    targets, series, results = benchmark.pedantic(
        run_all, args=(world, seeds), rounds=1, iterations=1
    )
    for vantage in VANTAGES:
        headers = ["hop"] + [
            "%s@%d" % (strategy[:4], rate)
            for rate in RATES
            for strategy in ("sequential", "yarrp")
        ]
        rows = []
        for hop in range(1, MAX_TTL + 1):
            row = [hop]
            for rate in RATES:
                for strategy in ("sequential", "yarrp"):
                    fraction = dict(series[(vantage, strategy, rate)])[hop]
                    row.append("%.2f" % fraction)
            rows.append(row)
        save_result(
            "fig5_rate_limiting_%s" % vantage.lower(),
            render_table(
                headers,
                rows,
                title="Figure 5: per-hop responsiveness, %s (%d traces)"
                % (vantage, len(targets)),
            ),
        )

    def hop1(vantage, strategy, rate):
        return dict(series[(vantage, strategy, rate)])[1]

    for vantage in VANTAGES:
        # At 20 pps the strategies are near-identical at the first hop.
        assert abs(hop1(vantage, "yarrp", 20) - hop1(vantage, "sequential", 20)) < 0.1
        # At 1k and 2k pps Yarrp6 stays high...
        assert hop1(vantage, "yarrp", 1000) > 0.9
        assert hop1(vantage, "yarrp", 2000) > 0.9
        # ...while sequential collapses (paper: <20% at 1k, <10% at 2k).
        assert hop1(vantage, "sequential", 1000) < 0.5
        assert hop1(vantage, "sequential", 2000) < 0.3
        # And 2k pps hurts sequential more than 1k pps.
        assert hop1(vantage, "sequential", 2000) <= hop1(vantage, "sequential", 1000)
    # US-EDU-2's aggressive hop 5 dips even for Yarrp6 at speed.
    eddy = dict(series[("US-EDU-2", "yarrp", 2000.0)])
    assert eddy[5] < 0.5 < eddy[6]

    # The telemetry tells the same rate-limiting story from the router
    # side: sequential probing at speed trips far more token-bucket
    # denials than the trickle run, and the campaign's sent count agrees
    # with its virtual-time series.
    for vantage in VANTAGES:
        for strategy in ("yarrp", "sequential"):
            for rate in RATES:
                result = results[(vantage, strategy, rate)]
                assert result.sent == series_total(result.metrics, "campaign.sent")
        slow = results[(vantage, "sequential", 20.0)].metrics
        fast = results[(vantage, "sequential", 2000.0)].metrics
        assert series_total(fast, "ratelimit.denied") > series_total(
            slow, "ratelimit.denied"
        )

    emit_json(
        "fig5_rate_limiting",
        {
            "benchmark": "fig5_rate_limiting",
            "targets": len(targets),
            "max_ttl": MAX_TTL,
            "campaigns": {
                "%s/%s@%g" % (vantage, strategy, rate): {
                    "hop1_responsiveness": dict(
                        series[(vantage, strategy, rate)]
                    )[1],
                    "sent": results[(vantage, strategy, rate)].sent,
                    "ratelimit_denied": series_total(
                        results[(vantage, strategy, rate)].metrics,
                        "ratelimit.denied",
                    ),
                    "metrics": results[(vantage, strategy, rate)].metrics,
                }
                for vantage in VANTAGES
                for strategy in ("yarrp", "sequential")
                for rate in RATES
            },
        },
    )
