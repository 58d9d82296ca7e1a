"""No driver leaves its world in a reference cycle.

Every driver loop is a generator the engine resumes (``Engine.drive``),
so once an entry point returns, the only references to the ``Internet``
are the caller's: dropping them frees the world by reference count, with
the cyclic collector switched off.  A loop written as a closure that
schedules itself keeps the world alive until a full collection.
"""

import gc
import weakref

import pytest

from repro.addrs.prefix import Prefix
from repro.analysis.limiter import LimiterProbeConfig, infer_limiter
from repro.hitlist.dealias import detect_aliased
from repro.netsim import Internet, InternetConfig, build_internet
from repro.prober.adaptive import run_adaptive_yarrp6
from repro.prober.campaign import PROBERS, run_campaign
from repro.prober.mda import MDAConfig, run_mda
from repro.prober.pmtud import discover_pmtu
from repro.prober.speedtrap import run_speedtrap
from repro.prober.yarrp6 import Yarrp6Config

VANTAGE = "US-EDU-1"


@pytest.fixture(scope="module")
def built():
    return build_internet(InternetConfig(n_edge=20, cpe_customers_per_isp=60, seed=9))


@pytest.fixture(scope="module")
def targets(built):
    subnets = sorted(built.truth.subnets.values(), key=lambda subnet: subnet.prefix.base)
    return [subnet.prefix.base | 0x1234 for subnet in subnets[:12]]


ENTRY_POINTS = {
    **{
        "run_campaign[%s]" % kind: (
            lambda net, targets, kind=kind: run_campaign(net, VANTAGE, targets, kind)
        )
        for kind in PROBERS
    },
    "run_campaign[fill]": lambda net, targets: run_campaign(
        net, VANTAGE, targets, "yarrp6", config=Yarrp6Config(fill=True)
    ),
    "run_campaign[batch=0]": lambda net, targets: run_campaign(
        net, VANTAGE, targets, "yarrp6", batch=0
    ),
    "run_adaptive_yarrp6": lambda net, targets: run_adaptive_yarrp6(net, VANTAGE, targets),
    "run_mda": lambda net, targets: run_mda(
        net, VANTAGE, targets, MDAConfig(max_ttl=6, flows=2)
    ),
    "run_speedtrap": lambda net, targets: run_speedtrap(net, VANTAGE, targets),
    "discover_pmtu": lambda net, targets: discover_pmtu(net, VANTAGE, targets),
    "detect_aliased": lambda net, targets: detect_aliased(
        net, VANTAGE, [Prefix(target & ~((1 << 64) - 1), 64) for target in targets]
    ),
    "infer_limiter": lambda net, targets: infer_limiter(
        net,
        VANTAGE,
        targets[0],
        2,
        LimiterProbeConfig(burst_probes=20, scan_rates=(100.0,), scan_seconds=0.2),
    ),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_world_is_freed_by_reference_count(built, targets, name):
    internet = Internet(built)
    freed = weakref.ref(internet)
    gc.disable()
    try:
        result = ENTRY_POINTS[name](internet, targets)
        del internet
        assert freed() is None, "%s left its Internet in a reference cycle" % name
        assert result is not None  # the result outlives the world it came from
    finally:
        gc.enable()
