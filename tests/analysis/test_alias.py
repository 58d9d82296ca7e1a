"""Tests for speedtrap sampling and fragment-ID alias resolution."""

import pytest

from repro.analysis.alias import (
    AliasParams,
    resolve_aliases,
    score_against_truth,
    sequence_compatible,
    truth_clusters_for,
    _unwrap,
)
from repro.netsim import Internet, InternetConfig, build_internet
from repro.packet import fragment, icmpv6, ipv6, udp
from repro.packet.ipv6 import IPv6Header, PROTO_ICMPV6, PROTO_UDP
from repro.prober.speedtrap import IdSample, Speedtrap, SpeedtrapConfig, run_speedtrap


def samples_from(address, points):
    return [IdSample(address, t, ident, 0) for t, ident in points]


class TestUnwrap:
    def test_plain(self):
        assert _unwrap([5, 6, 9]) == [5, 6, 9]

    def test_wraparound(self):
        values = [(1 << 32) - 2, (1 << 32) - 1, 1, 3]
        unwrapped = _unwrap(values)
        assert unwrapped == sorted(unwrapped)
        assert unwrapped[2] == (1 << 32) + 1


class TestSequenceCompatible:
    def test_shared_counter(self):
        a = samples_from(1, [(0, 100), (1_000_000, 103), (2_000_000, 106)])
        b = samples_from(2, [(500_000, 101), (1_500_000, 104), (2_500_000, 108)])
        assert sequence_compatible(a, b)

    def test_independent_counters(self):
        a = samples_from(1, [(0, 100), (1_000_000, 101)])
        b = samples_from(2, [(500_000, 5_000_000), (1_500_000, 5_000_001)])
        assert not sequence_compatible(a, b)

    def test_duplicate_id_rejected(self):
        a = samples_from(1, [(0, 100)])
        b = samples_from(2, [(10, 100)])
        assert not sequence_compatible(a, b)

    def test_reordered_arrivals_tolerated(self):
        """Replies from different interfaces invert in time by less than
        the jitter bound: still one counter."""
        a = samples_from(1, [(100_000, 101)])
        b = samples_from(2, [(90_000, 102)])  # later ID arrived earlier
        assert sequence_compatible(a, b)

    def test_big_time_inversion_rejected(self):
        a = samples_from(1, [(5_000_000, 101)])
        b = samples_from(2, [(0, 102)])
        assert not sequence_compatible(a, b)

    def test_velocity_bound(self):
        # A jump of 1000 IDs over one second exceeds max_velocity 50.
        a = samples_from(1, [(0, 100), (1_000_000, 1100)])
        b = samples_from(2, [(2_000_000, 1105)])
        assert not sequence_compatible(a, b)

    def test_wraparound_pair(self):
        a = samples_from(1, [(0, (1 << 32) - 2)])
        b = samples_from(2, [(100_000, 1)])
        assert sequence_compatible(a, b)


class TestResolve:
    def test_empty(self):
        assert resolve_aliases({}) == []

    def test_single_address_is_singleton(self):
        samples = {7: samples_from(7, [(0, 1), (1000, 2)])}
        clusters = resolve_aliases(samples)
        assert clusters == [{7}]

    def test_two_aliases_cluster(self):
        samples = {
            1: samples_from(1, [(0, 100), (1_000_000, 102), (2_000_000, 104)]),
            2: samples_from(2, [(500_000, 101), (1_500_000, 103), (2_500_000, 105)]),
            3: samples_from(3, [(0, 9_000_000), (1_000_000, 9_000_002), (2_000_000, 9_000_004)]),
        }
        clusters = {frozenset(c) for c in resolve_aliases(samples)}
        assert frozenset({1, 2}) in clusters
        assert frozenset({3}) in clusters

    def test_random_counter_stays_singleton(self):
        """A responder with random IDs fails self-consistency."""
        samples = {
            9: samples_from(9, [(0, 12345), (1_000_000, 3), (2_000_000, 999_999)]),
        }
        assert resolve_aliases(samples) == [{9}]

    def test_under_sampled_singleton(self):
        samples = {5: samples_from(5, [(0, 1)])}
        assert resolve_aliases(samples, AliasParams(min_samples=2)) == [{5}]


class TestScore:
    def test_perfect(self):
        clusters = [{1, 2}, {3}]
        truth = [{1, 2}, {3}]
        accuracy = score_against_truth(clusters, truth)
        assert accuracy.precision == 1.0
        assert accuracy.recall == 1.0

    def test_false_merge(self):
        accuracy = score_against_truth([{1, 2, 3}], [{1, 2}, {3}])
        assert accuracy.precision == pytest.approx(1 / 3)
        assert accuracy.recall == 1.0

    def test_missed_pair(self):
        accuracy = score_against_truth([{1}, {2}], [{1, 2}])
        assert accuracy.inferred_pairs == 0
        assert accuracy.recall == 0.0
        assert accuracy.precision == 1.0

    def test_truth_restricted_to_probed(self):
        # Address 4 was never probed: its pairs don't count against recall.
        accuracy = score_against_truth([{1, 2}], [{1, 2, 4}])
        assert accuracy.recall == 1.0


def test_truth_clusters_skip_addresses_no_router_owns():
    router_a, router_b = object(), object()
    owners = {1: router_a, 2: router_a, 3: router_b}
    clusters = truth_clusters_for([1, 2, 3, 4, 5], owners)
    assert sorted(map(sorted, clusters)) == [[1, 2], [3]]


SOURCE = 0x2001_0DB8 << 96 | 1
ROUTER = 0x2001_0DB8 << 96 | 0xA


def reply_from_router(next_header, segment):
    return ipv6.build_packet(IPv6Header(ROUTER, SOURCE, 0, next_header), segment)


ECHO_REPLY = icmpv6.echo_reply(1, 0, b"speedtrap").pack(ROUTER, SOURCE)


class TestSpeedtrapReceive:
    """Speedtrap samples only an Echo Reply that arrives as an atomic
    fragment: the Identification is what it came for."""

    def test_an_atomic_echo_reply_is_sampled(self):
        machine = Speedtrap(SOURCE, [ROUTER])
        packet = reply_from_router(
            fragment.PROTO_FRAGMENT, fragment.wrap_atomic(PROTO_ICMPV6, 0xBEEF, ECHO_REPLY)
        )
        sample = machine.receive(packet, 1234, 2)
        assert (sample.address, sample.time_us, sample.identification, sample.round_index) == (
            ROUTER, 1234, 0xBEEF, 2,
        )
        assert machine.samples == {ROUTER: [sample]}

    @pytest.mark.parametrize(
        "packet",
        [
            b"\x60\x00",
            reply_from_router(PROTO_ICMPV6, ECHO_REPLY),
            reply_from_router(fragment.PROTO_FRAGMENT, b"\x3a\x00"),
            reply_from_router(
                fragment.PROTO_FRAGMENT,
                fragment.wrap_atomic(PROTO_UDP, 7, udp.build_datagram(ROUTER, SOURCE, 1, 2, b"")),
            ),
            reply_from_router(
                fragment.PROTO_FRAGMENT, fragment.wrap_atomic(PROTO_ICMPV6, 7, b"\x81")
            ),
            reply_from_router(
                fragment.PROTO_FRAGMENT,
                fragment.wrap_atomic(
                    PROTO_ICMPV6, 7, icmpv6.time_exceeded(b"\x60" + bytes(47)).pack(ROUTER, SOURCE)
                ),
            ),
        ],
        ids=[
            "truncated-header",
            "unfragmented",
            "truncated-fragment-header",
            "fragment-of-udp",
            "fragment-of-truncated-icmpv6",
            "fragment-of-time-exceeded",
        ],
    )
    def test_anything_else_is_dropped(self, packet):
        machine = Speedtrap(SOURCE, [ROUTER])
        assert machine.receive(packet, 0, 0) is None
        assert not machine.samples


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def world(self):
        return build_internet(InternetConfig(n_edge=30, cpe_customers_per_isp=150, seed=9))

    def test_speedtrap_requires_candidates(self):
        with pytest.raises(ValueError):
            Speedtrap(1, [])

    def test_a_negative_round_gap_is_refused_when_configured(self):
        with pytest.raises(ValueError, match="negative round_gap_us: -1"):
            SpeedtrapConfig(round_gap_us=-1)
        assert SpeedtrapConfig(round_gap_us=0).round_gap_us == 0

    def test_resolution_accuracy(self, world):
        net = Internet(world)
        candidates = []
        for router in world.truth.routers.values():
            if len(router.interfaces) >= 2:
                candidates.extend(router.interfaces[:2])
            if len(candidates) >= 80:
                break
        machine = run_speedtrap(net, "US-EDU-1", candidates)
        clusters = resolve_aliases(machine.samples)
        truth = truth_clusters_for(candidates, world.truth.router_addresses)
        accuracy = score_against_truth(clusters, truth)
        assert accuracy.precision > 0.95
        assert accuracy.recall > 0.8

    def test_no_samples_without_lure(self, world):
        """Echo replies carry no fragment header unless a PTB planted the
        atomic state first — sampling without the lure yields nothing."""
        net = Internet(world)
        candidates = []
        for router in world.truth.routers.values():
            if len(router.interfaces) >= 2:
                candidates.extend(router.interfaces[:2])
                break
        machine = Speedtrap(net.vantage("US-EDU-1").address, candidates)
        for candidate in candidates:
            packet = machine.sample_packet(candidate, 0)
            response = net.probe(packet, 0)
            if response is not None:
                assert machine.receive(response.data, 0, 0) is None
        assert not machine.samples

    def test_hosts_never_fragment(self, world):
        """PTB toward an end host plants nothing (hosts aren't modeled as
        alias-resolvable responders)."""
        net = Internet(world)
        host = None
        for subnet in world.truth.subnets.values():
            if subnet.host_iids:
                host = subnet.host_addresses()[0]
                break
        machine = Speedtrap(net.vantage("US-EDU-1").address, [host])
        net.probe(machine.lure_packet(host), 0)
        response = net.probe(machine.sample_packet(host, 0), 10)
        if response is not None:
            assert machine.receive(response.data, 10, 0) is None
