"""The built world is read-only, checked by fingerprint.

Everything a campaign changes lives in the ``Internet`` that ran it
(``stats``, ``router_state``, ``_rng``, ``_limiter_observer``); the
``build_internet`` result it probes is never written.  Two contracts,
each over every probing driver:

* **untouched** — ``pickle.dumps(built)`` is byte-equal before and after
  the driver runs (a changed slot, list, dict or an added key all show);
* **rewind complete** — after the driver runs with observers attached,
  :meth:`Internet.fresh_run_state` leaves the instance's fields (less the
  path cache, which survives the rewind by design) byte-equal to a fresh
  ``Internet(built)``'s, so a field a campaign sets that the rewind does
  not reset shows.

The single and sharded rows run ``run_single`` and ``run_parallel``
(serially, at 1, 2 and 4 shards, on the world's decoupled twin, the
only world ``run_parallel`` shards) on the process-shared world, so the
campaign, its shards, their rewinds and the merge all touch one object.
The last tests check that both fingerprints see each kind of write they
stand guard over.
"""

import pickle
from typing import List, NamedTuple

import pytest

from repro.addrs.prefix import Prefix
from repro.analysis import AsnResolver, build_traces, discover_by_path_div
from repro.hitlist.dealias import detect_aliased
from repro.netsim import (
    BuiltInternet,
    Internet,
    InternetConfig,
    build_internet,
    decoupled_dynamics,
)
from repro.obs import MetricsRegistry
from repro.prober import (
    CampaignSpec,
    discover_pmtu,
    run_adaptive_yarrp6,
    run_doubletree,
    run_mda,
    run_parallel,
    run_sequential,
    run_speedtrap,
    run_yarrp6,
)
from repro.prober.mda import MDAConfig
from repro.prober.parallel import _world_for, run_single

WORLD = InternetConfig(n_edge=12, cpe_customers_per_isp=20, seed=7)
DECOUPLED = decoupled_dynamics(WORLD)
VANTAGE = "EU-NET"
PPS = 20_000.0


class Inputs(NamedTuple):
    built: BuiltInternet
    targets: List[int]
    interfaces: List[int]
    prefixes: List[Prefix]


@pytest.fixture
def inputs():
    # A fresh build per test (~5 ms): one driver's write cannot hide
    # behind an earlier one's.
    built = build_internet(WORLD)
    truth = built.truth
    subnets = list(truth.subnets.values())
    return Inputs(
        built,
        [subnet.prefix.base | 1 for subnet in subnets][:40],
        [router.interfaces[0] for router in truth.routers.values() if router.interfaces][:24],
        [subnet.prefix for subnet in subnets][:10],
    )


def _campaign(run, **options):
    return lambda net, world: run(
        net, VANTAGE, world.targets, pps=PPS, metrics=MetricsRegistry(), **options
    )


def _path_div(net, world):
    campaign = run_yarrp6(net, VANTAGE, world.targets, pps=PPS)
    truth = net.truth
    discover_by_path_div(
        build_traces(campaign.records),
        AsnResolver(truth.registry, truth.equivalent_asns),
    )


def _spec(internet, world):
    return CampaignSpec(
        internet=internet, vantage=VANTAGE, targets=tuple(world.targets), pps=PPS
    )


def _sharded(shards):
    return lambda net, world: run_parallel(_spec(DECOUPLED, world), shards=shards, processes=1)


#: name -> ``driver(net, inputs)``: one probing driver run on ``net``.
DRIVERS = {
    "yarrp6-walk": _campaign(run_yarrp6),
    "yarrp6-fill": _campaign(run_yarrp6, fill=True),
    "sequential": _campaign(run_sequential),
    "doubletree": _campaign(run_doubletree),
    "adaptive-yarrp6": lambda net, world: run_adaptive_yarrp6(net, VANTAGE, world.targets),
    "mda": lambda net, world: run_mda(net, VANTAGE, world.targets[:6], MDAConfig(max_ttl=8)),
    "speedtrap": lambda net, world: run_speedtrap(net, VANTAGE, world.interfaces),
    "pmtud": lambda net, world: discover_pmtu(net, VANTAGE, world.targets[:10]),
    "dealias": lambda net, world: detect_aliased(net, VANTAGE, world.prefixes),
    "path-div": _path_div,
    "single": lambda net, world: run_single(_spec(WORLD, world)),
    "sharded-1": _sharded(1),
    "sharded-2": _sharded(2),
    "sharded-4": _sharded(4),
}

#: Drivers that probe the process-shared world rather than their own
#: facade -> the config that world is built from.
SHARED = {
    "single": WORLD,
    "sharded-1": DECOUPLED,
    "sharded-2": DECOUPLED,
    "sharded-4": DECOUPLED,
}


def instance(name, world):
    """What ``name`` probes: the process-shared world for the single and
    sharded runs, a fresh facade over this test's build otherwise."""
    return _world_for(SHARED[name]) if name in SHARED else Internet(world.built)


def run_fingerprint(net):
    """Every field of ``net`` but the path cache, pickled."""
    fields = {key: value for key, value in vars(net).items() if key != "_path_cache"}
    return pickle.dumps(fields)


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_driver_leaves_the_built_world_untouched(name, inputs):
    net = instance(name, inputs)
    before = pickle.dumps(net.built)
    DRIVERS[name](net, inputs)
    assert net.stats.probes  # the driver probed this instance
    assert pickle.dumps(net.built) == before


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_rewind_after_driver_equals_a_fresh_instance(name, inputs):
    net = instance(name, inputs)
    net.attach_observers(MetricsRegistry())
    DRIVERS[name](net, inputs)
    assert net.stats.probes
    net.fresh_run_state()
    assert run_fingerprint(net) == run_fingerprint(Internet(net.built))


def _first_router(built):
    return next(iter(built.truth.routers.values()))


def _store_truth_router(built):
    router = _first_router(built)
    built.truth.routers[max(built.truth.routers) + 1] = router


#: name -> ``write(built)``: one kind of write into the built world.
BUILT_WRITES = {
    "router-slot": lambda built: setattr(_first_router(built), "rate", -1.0),
    "interfaces-append": lambda built: _first_router(built).interfaces.append(1),
    "truth-routers-store": _store_truth_router,
}


@pytest.mark.parametrize("kind", sorted(BUILT_WRITES))
def test_built_fingerprint_sees_the_write(kind, inputs):
    before = pickle.dumps(inputs.built)
    assert pickle.dumps(inputs.built) == before  # the pickle is deterministic
    BUILT_WRITES[kind](inputs.built)
    assert pickle.dumps(inputs.built) != before


def test_run_fingerprint_sees_a_dirty_instance(inputs):
    net = Internet(inputs.built)
    DRIVERS["yarrp6-walk"](net, inputs)
    assert run_fingerprint(net) != run_fingerprint(Internet(inputs.built))


def test_run_fingerprint_sees_a_field_the_rewind_misses(inputs):
    net = Internet(inputs.built)
    DRIVERS["yarrp6-walk"](net, inputs)
    net.campaign_marker = 1  # a field fresh_run_state() knows nothing of
    net.fresh_run_state()
    assert run_fingerprint(net) != run_fingerprint(Internet(inputs.built))
