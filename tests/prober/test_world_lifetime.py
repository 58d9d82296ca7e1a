"""No driver leaves its world in a reference cycle, or moves a byte.

Every driver is a plain loop over its own clock, so once an entry point
returns, the only references to the ``Internet`` are the caller's:
dropping them frees the world by reference count, with the cyclic
collector switched off.  A loop written as a closure that schedules
itself keeps the world alive until a full collection.  Each entry point
also has its whole output pinned.
"""

import dataclasses
import gc
import hashlib
import weakref

import pytest

from repro.analysis.limiter import LimiterProbeConfig, infer_limiter
from repro.netsim import Internet, InternetConfig, build_internet
from repro.prober.adaptive import run_adaptive_yarrp6
from repro.prober.campaign import PROBERS, run_campaign
from repro.prober.speedtrap import run_speedtrap
from repro.prober.yarrp6 import Yarrp6Config

VANTAGE = "US-EDU-1"


@pytest.fixture(scope="module")
def built():
    return build_internet(InternetConfig(n_edge=20, cpe_customers_per_isp=60, seed=9))


def leaf_targets(truth, count):
    """One address in each of the first ``count`` leaf subnets."""
    subnets = sorted(truth.subnets.values(), key=lambda subnet: subnet.prefix.base)
    return [subnet.prefix.base | 0x1234 for subnet in subnets[:count]]


def router_aliases(truth, count):
    """The first two interfaces of routers that have two, ``count`` in all."""
    routers = sorted(truth.routers.values(), key=lambda router: router.interfaces[0])
    pairs = [
        address
        for router in routers
        if len(router.interfaces) >= 2
        for address in router.interfaces[:2]
    ]
    return pairs[:count]


@pytest.fixture(scope="module")
def targets(built):
    return leaf_targets(built.truth, 12)


#: sha256 of each prober's default campaign (see :func:`output_digest`).
CAMPAIGN_PINS = {
    "doubletree": "d94688e2c559e1d2aa004ecdd2e92d645a511dff03f928a31991101459ccf6e2",
    "sequential": "f656d8968b5d5bd39af6f516ad51f1cf8defc5563a71001c30061a0e50f1d620",
    "yarrp6": "6c2332a48f92db8991893395852fdaa4d2e64ac5adcde1420931e93b16086deb",
}

#: name -> (entry point, sha256 of its whole output and the world's
#: ``Internet.stats`` counters, see :func:`output_digest`).
ENTRY_POINTS = {
    **{
        "run_campaign[%s]" % kind: (
            lambda net, targets, kind=kind: run_campaign(net, VANTAGE, targets, kind),
            CAMPAIGN_PINS[kind],
        )
        for kind in PROBERS
    },
    "run_campaign[fill]": (
        lambda net, targets: run_campaign(
            net, VANTAGE, targets, "yarrp6", config=Yarrp6Config(fill=True)
        ),
        "6c2332a48f92db8991893395852fdaa4d2e64ac5adcde1420931e93b16086deb",
    ),
    "run_campaign[batch=0]": (
        lambda net, targets: run_campaign(net, VANTAGE, targets, "yarrp6", batch=0),
        "6c2332a48f92db8991893395852fdaa4d2e64ac5adcde1420931e93b16086deb",
    ),
    "run_adaptive_yarrp6": (
        lambda net, targets: run_adaptive_yarrp6(net, VANTAGE, targets),
        "c5627f3bb82e433c3cd7e80cccab72964287200ed174e996f10f2fe3e2571842",
    ),
    # Enough traces that replies land exactly on a slot while the
    # controller still sends: the order they are heard in shows.
    "run_adaptive_yarrp6[40 targets]": (
        lambda net, targets: run_adaptive_yarrp6(net, VANTAGE, leaf_targets(net.truth, 40)),
        "fd4a998684c0e277cde08491b18a5e00e540e8247a62e416a02801bc2d94ba45",
    ),
    "run_speedtrap": (
        lambda net, targets: run_speedtrap(net, VANTAGE, targets),
        "147481d82d7d445ac9b46d784dcade75d65742e81976ab539ef66c8fa79ed763",
    ),
    # Routers answer the lure, so every candidate collects samples in the
    # order their replies arrive.
    "run_speedtrap[aliases]": (
        lambda net, targets: run_speedtrap(net, VANTAGE, router_aliases(net.truth, 24)),
        "ac5330ec21dd085705b91f57d0a1ba4abdf838a0f64c052bdfc979faad468231",
    ),
    "infer_limiter": (
        lambda net, targets: infer_limiter(
            net,
            VANTAGE,
            targets[0],
            2,
            LimiterProbeConfig(burst_probes=20, scan_rates=(100.0,), scan_seconds=0.2),
        ),
        "d14798e03ca7df914fb1d2a5521bd9b84822e83b74adce63e9e3680767eb25be",
    ),
}


def canonical(value):
    """``value``'s content as nested lists of scalars: an object by its
    fields or slots, a dict in insertion order (the order a driver filled
    it in is part of its output), a set sorted."""
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(item) for item in value), key=repr)
    if isinstance(value, dict):
        return [[canonical(key), canonical(item)] for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (int, float, str, bytes, type(None))):
        return value
    if dataclasses.is_dataclass(value):
        names = [field.name for field in dataclasses.fields(value)]
    else:
        names = getattr(type(value), "__slots__", None) or sorted(vars(value))
    return [type(value).__name__] + [[name, canonical(getattr(value, name))] for name in names]


def output_digest(result, internet):
    """sha256 over a driver's whole result and what the world counted."""
    stats = internet.stats
    counters = [(name, getattr(stats, name)) for name in type(stats).__slots__]
    return hashlib.sha256(repr([canonical(result), counters]).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_world_is_freed_by_reference_count(built, targets, name):
    internet = Internet(built)
    freed = weakref.ref(internet)
    gc.disable()
    try:
        result = ENTRY_POINTS[name][0](internet, targets)
        del internet
        assert freed() is None, "%s left its Internet in a reference cycle" % name
        assert result is not None  # the result outlives the world it came from
    finally:
        gc.enable()


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_output_reproduces_its_pin(built, targets, name):
    """Every driver's bytes, pinned: how a loop paces its probes and
    hands on its replies may change, what it reports may not."""
    call, pin = ENTRY_POINTS[name]
    internet = Internet(built)
    assert output_digest(call(internet, targets), internet) == pin
