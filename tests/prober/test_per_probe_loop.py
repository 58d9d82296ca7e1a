"""The per-probe campaign loop against the event scheduler it stands in for.

``run_campaign``'s per-probe loop (the sequential and Doubletree
baselines, Yarrp6's neighbourhood mode, ``batch=0``) holds its replies
itself: before each slot's emission it feeds the prober every reply that
has arrived by then, in (arrival, send order) order.
:func:`engine_campaign` is the same campaign as a discrete-event
simulation: every slot and every response is an :class:`Engine` event,
each response scheduled when its probe is sent, so before the next slot
— the order the held replies must replay.  Every case compares dumps,
records, summary, curve, duration and metric dump, and picks a world
where the order is visible: replies overtake each other, some land
exactly on a slot, and neighbourhood skipping fires.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import Internet
from repro.netsim.engine import Engine, pps_interval
from repro.obs.metrics import MetricsRegistry
from repro.prober.campaign import (
    PROBERS,
    CampaignResult,
    emissions_before,
    record_discovery,
    run_campaign,
)
from repro.prober.yarrp6 import Yarrp6Config
from tests.obs.test_campaign_telemetry import small_world
from tests.prober.test_batched_equivalence import assert_equivalent


def engine_campaign(
    internet, vantage, targets, prober, pps, config=None,
    pace_offset_us=0, pace_stride=1, metrics=None,
):
    """The reference: each slot an engine event that schedules its
    probe's response at the arrival time, then the next slot."""
    internet.reset_dynamics()
    engine = Engine()
    machine = PROBERS[prober](internet.vantage(vantage).address, targets, config)
    interval = pps_interval(pps) * pace_stride
    sent_series = None if metrics is None else metrics.series("campaign.sent")

    def tick():
        now = engine.now
        packet = machine.next_probe(now)
        if packet is not None:
            if sent_series is not None:
                sent_series.record(now)
            reply = internet.answer(packet, now)
            if reply is not None:
                arrival, data = reply
                engine.schedule_at(arrival, lambda: machine.receive(data, arrival))
        if not machine.exhausted:
            engine.schedule_at(now + interval, tick)

    if metrics is not None:
        internet.attach_observers(metrics)
    engine.schedule_at(pace_offset_us, tick)
    engine.run()
    internet.detach_observers()
    if metrics is not None:
        record_discovery(metrics, machine.processor.records)
    return CampaignResult.collect(
        machine, "%s/%s" % (vantage, prober), vantage, prober, pps, engine.now,
        None if metrics is None else metrics.to_dict(),
    )


def run_both(world, prober, pps, config=None, metered=True, **pacing):
    """``(reference, loop)``: the same campaign on the engine reference
    and on ``run_campaign``, each on a fresh ``Internet`` of ``world``."""
    world_config, targets = world
    return [
        run(
            Internet.from_config(world_config), "US-EDU-1", list(targets), prober, pps,
            config, metrics=MetricsRegistry() if metered else None, **pacing,
        )
        for run in (engine_campaign, run_campaign)
    ]


NEIGHBOURHOOD = Yarrp6Config(max_ttl=6, neighborhood_ttl=3, neighborhood_window_us=20_000)
FILL_NEIGHBOURHOOD = Yarrp6Config(
    max_ttl=4, fill=True, neighborhood_ttl=2, neighborhood_window_us=20_000
)


@pytest.mark.parametrize("pps", [2000.0, 20_000.0])
@pytest.mark.parametrize("prober", ["sequential", "doubletree"])
def test_the_baselines_replay_the_engine(prober, pps):
    reference, loop = run_both(small_world(11, decoupled=False), prober, pps)
    assert reference.sent > 1000
    assert_equivalent(reference, loop)


def test_neighbourhood_skipping_replays_the_engine():
    reference, loop = run_both(small_world(11, decoupled=False), "yarrp6", 2000.0, NEIGHBOURHOOD)
    assert reference.summary["skipped"] > 0
    assert_equivalent(reference, loop)


def test_fill_with_neighbourhood_replays_the_engine():
    reference, loop = run_both(
        small_world(11, decoupled=False), "yarrp6", 2000.0, FILL_NEIGHBOURHOOD
    )
    assert reference.summary["skipped"] > 0 and reference.summary["fills"] > 0
    assert_equivalent(reference, loop)


def test_a_bare_run_replays_the_engine():
    reference, loop = run_both(small_world(11, decoupled=False), "sequential", 20_000.0, metered=False)
    assert reference.metrics is loop.metrics is None
    assert_equivalent(reference, loop)


def test_a_paced_instance_replays_the_engine():
    reference, loop = run_both(
        small_world(11, decoupled=False), "doubletree", 2000.0,
        pace_offset_us=1234, pace_stride=3,
    )
    assert_equivalent(reference, loop)


@settings(max_examples=10, deadline=None)
@given(
    prober=st.sampled_from(["sequential", "doubletree", "yarrp6"]),
    pps=st.sampled_from([250.0, 1000.0, 3333.0, 20_000.0, 100_000.0]),
    offset=st.integers(min_value=0, max_value=5000),
    stride=st.integers(min_value=1, max_value=4),
    n_targets=st.integers(min_value=1, max_value=20),
)
def test_equivalence_property(prober, pps, offset, stride, n_targets):
    config, targets = small_world(7)
    yarrp = Yarrp6Config(max_ttl=5, fill=True, neighborhood_ttl=2, neighborhood_window_us=5000)
    reference, loop = run_both(
        (config, targets[:n_targets]), prober, pps, yarrp if prober == "yarrp6" else None,
        pace_offset_us=offset, pace_stride=stride,
    )
    assert_equivalent(reference, loop)


class TestEmissionsBefore:
    """``emissions_before``: the per-probe loop's count of emissions ahead
    of a reply, for an instance emitting at ``10 + 5k``, four in all."""

    @pytest.mark.parametrize(
        "when, rtt_us, count",
        [
            (9, 1, 0),  # before the first slot
            (10, 100, 0),  # on the first slot, a reply to no probe yet
            (10, 1, 1),  # on the first slot, its own probe's quick reply
            (17, 100, 2),  # between slots: the slots at 10 and 15
            (20, 100, 2),  # on a slot: handed on before the slot emits
            (20, 1, 3),  # unless the reply is to that slot's own probe
            (10_000, 100, 4),  # past the last slot: capped
        ],
    )
    def test_count(self, when, rtt_us, count):
        assert emissions_before(when, rtt_us, offset=10, stride=5, cap=4, tick_gap=5) == count
