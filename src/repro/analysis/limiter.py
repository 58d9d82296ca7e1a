"""Remote inference of a hop's ICMPv6 rate-limiter parameters.

Figure 5 shows hops *have* heterogeneous token buckets; this module
measures them, turning the paper's qualitative observation ("hop 3
appears to implement more aggressive rate limiting") into numbers:

* **burst capacity** — fire a tight burst of TTL-limited probes at the
  hop; the bucket answers until it empties, so the response count of a
  sufficiently large burst reads the capacity directly;
* **refill rate** — after draining the bucket, probe at a steady rate r:
  the sustained response fraction approximates ``min(1, rate/r)``, so
  ``r × fraction`` estimates the refill rate wherever the hop is
  overloaded.  Several overloaded rates are scanned and the estimates
  combined by median.

This is an active-measurement methodology (an extension the paper's
data would support); the bench validates it against the simulator's
ground-truth buckets.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import List, Optional, Tuple

from ..netsim.engine import US_PER_SECOND, pps_interval
from ..netsim.internet import Internet
from ..prober.encoding import encode_probe


@dataclass
class LimiterEstimate:
    """Inferred token-bucket parameters for one hop."""

    burst: float
    rate: float
    #: Per-scan (probe rate, response fraction) evidence.
    scan: List[Tuple[float, float]]
    probes_used: int


@dataclass
class LimiterProbeConfig:
    """Measurement schedule."""

    #: Burst size for capacity reading (should exceed plausible bursts).
    burst_probes: int = 400
    #: Burst emission rate (effectively back-to-back).
    burst_pps: float = 100_000.0
    #: Steady rates scanned for the refill estimate.
    scan_rates: Tuple[float, ...] = (100.0, 200.0, 400.0, 800.0)
    #: Duration of each steady scan.
    scan_seconds: float = 4.0
    #: Quiet gap letting the bucket refill between phases.
    settle_seconds: float = 5.0
    instance: int = 5

    def __post_init__(self) -> None:
        for name in ("scan_seconds", "settle_seconds"):
            if getattr(self, name) < 0:
                raise ValueError("negative %s: %r" % (name, getattr(self, name)))


def _probe_hop(
    internet: Internet,
    source: int,
    target: int,
    ttl: int,
    count: int,
    pps: float,
    start: int,
    instance: int,
) -> Tuple[int, int]:
    """Emit ``count`` probes at ``pps`` beginning at ``start`` and listen
    until two seconds after the last slot; returns (responses heard by
    then, the time listening stopped)."""
    interval = pps_interval(pps)
    until = start + count * interval + 2 * US_PER_SECOND
    answered = 0
    for index in range(count):
        now = start + index * interval
        packet = encode_probe(source, target, ttl, elapsed=now & 0xFFFFFFFF, instance=instance)
        reply = internet.answer(packet, now)
        if reply is not None and reply[0] <= until:
            answered += 1
    return answered, until


def infer_limiter(
    internet: Internet,
    vantage_name: str,
    target: int,
    ttl: int,
    config: Optional[LimiterProbeConfig] = None,
) -> LimiterEstimate:
    """Measure the token bucket of the hop at ``ttl`` toward ``target``.

    The internet's dynamic state is reset first; the measurement then
    owns the virtual clock, so other traffic does not pollute it (the
    real-world method would subtract a baseline instead).
    """
    config = config or LimiterProbeConfig()
    internet.reset_dynamics()
    vantage = internet.vantage(vantage_name)
    probes_used = config.burst_probes

    # Phase 1: capacity. The bucket starts full; a tight burst reads it.
    burst_answered, now = _probe_hop(
        internet,
        vantage.address,
        target,
        ttl,
        config.burst_probes,
        config.burst_pps,
        0,
        config.instance,
    )

    # Phase 2: refill-rate scan.  Before each steady scan, drain the
    # bucket again with a quick burst so the steady phase measures pure
    # refill rather than stored burst.
    scan: List[Tuple[float, float]] = []
    estimates: List[float] = []
    for rate in config.scan_rates:
        settle = now + int(config.settle_seconds * US_PER_SECOND)
        _, now = _probe_hop(
            internet,
            vantage.address,
            target,
            ttl,
            config.burst_probes,
            config.burst_pps,
            settle,
            config.instance,
        )
        count = int(rate * config.scan_seconds)
        answered, now = _probe_hop(
            internet, vantage.address, target, ttl, count, rate, now, config.instance
        )
        probes_used += config.burst_probes + count
        fraction = answered / count if count else 0.0
        scan.append((rate, fraction))
        if fraction < 0.95:  # overloaded: fraction ~ refill/rate
            estimates.append(rate * fraction)

    if estimates:
        refill = median(estimates)
    else:
        # Never overloaded: the refill rate exceeds the largest scan rate.
        refill = max(config.scan_rates)
    return LimiterEstimate(
        burst=float(burst_answered),
        rate=refill,
        scan=scan,
        probes_used=probes_used,
    )
