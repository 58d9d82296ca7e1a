"""Extension — adaptive-rate probing (the paper's [3], Alvarez et al.).

When the operator can't know the path's rate-limiter provisioning, a
fixed high rate silently loses the near hops (Figure 5).  The AIMD
controller starts fast, detects the collapse, and converges to a
sustainable rate.  Compared here at an aggressive starting rate: fixed
vs adaptive, on near-hop completeness, discovery, and (virtual) time.
"""

from repro.analysis import render_table
from repro.netsim import Internet
from repro.prober import run_yarrp6
from repro.prober.adaptive import AdaptiveConfig, run_adaptive_yarrp6

START_PPS = 20_000.0


def run_trials(world, suite):
    targets = suite["caida-z64"].addresses * 1  # modest set, shared paths
    extra = suite["random-z64"].addresses[:1500]
    targets = sorted(set(targets) | set(extra))
    net = Internet(world)
    fixed = run_yarrp6(net, "US-EDU-1", targets, pps=START_PPS, max_ttl=16)
    adaptive, controller = run_adaptive_yarrp6(
        net,
        "US-EDU-1",
        targets,
        AdaptiveConfig(initial_pps=START_PPS, window_us=100_000),
    )
    return targets, fixed, adaptive, controller


def near_records(result):
    return sum(1 for record in result.records if record.ttl <= 3)


def test_adaptive_rate(world, suite, save_result, benchmark):
    targets, fixed, adaptive, controller = benchmark.pedantic(
        run_trials, args=(world, suite), rounds=1, iterations=1
    )
    rows = [
        [
            "fixed @%dk" % (START_PPS / 1000),
            fixed.sent,
            near_records(fixed),
            len(fixed.interfaces),
            "%.1fs" % (fixed.duration_us / 1e6),
        ],
        [
            "adaptive",
            adaptive.sent,
            near_records(adaptive),
            len(adaptive.interfaces),
            "%.1fs" % (adaptive.duration_us / 1e6),
        ],
    ]
    trajectory = ", ".join(
        "%.0f" % pps for _, pps, _ in controller.history[:12]
    )
    save_result(
        "adaptive_rate",
        render_table(
            ["Run", "Probes", "Near-hop records", "Interfaces", "Virtual time"],
            rows,
            title="Extension: AIMD rate control vs fixed overload rate",
        )
        + "\nrate trajectory (first windows): %s" % trajectory,
    )

    # The controller backed off from the unsustainable start.
    assert controller.history
    assert controller.history[-1][1] < START_PPS
    # Near-hop completeness recovers substantially.
    assert near_records(adaptive) > near_records(fixed) * 1.3
    # Discovery is at least on par.
    assert len(adaptive.interfaces) >= len(fixed.interfaces) * 0.95
    # The cost is time, not probes.
    assert adaptive.duration_us > fixed.duration_us
    assert adaptive.sent == fixed.sent
