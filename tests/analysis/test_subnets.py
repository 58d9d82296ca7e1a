"""Tests for path-divergence subnet inference and the IA hack."""

import pytest

from repro.addrs import parse
from repro.addrs.prefix import Prefix
from repro.addrs.trie import PrefixTrie
from repro.analysis.subnets import (
    AsnResolver,
    PathDivParams,
    discover_by_path_div,
    stratified_sample,
    validate_candidates,
)
from repro.analysis.traces import Trace
from repro.packet import icmpv6
from repro.prober.records import ProbeRecord

VANTAGE_ASN = 100
TARGET_ASN = 200

# A toy topology: shared premise hops, then divergence inside AS 200.
VP_HOP1 = parse("2001:100::1")
VP_HOP2 = parse("2001:100::2")
AS200_CORE = parse("2001:200::1")
AS200_DIST = parse("2001:200::2")
AS200_GW_A = parse("2001:200:0:a::1")
AS200_GW_B = parse("2001:200:0:b::1")

TARGET_A = parse("2001:200:0:a::1234")
TARGET_B = parse("2001:200:0:b::1234")


def registry():
    trie = PrefixTrie()
    trie.insert(Prefix.parse("2001:100::/32"), VANTAGE_ASN)
    trie.insert(Prefix.parse("2001:200::/32"), TARGET_ASN)
    return trie


def te(target, ttl, hop):
    return ProbeRecord(target, ttl, hop, icmpv6.TYPE_TIME_EXCEEDED, 0, "time exceeded", 100, 1)


def trace_of(target, hops):
    trace = Trace(target)
    for ttl, hop in enumerate(hops, start=1):
        if hop is not None:
            trace.add(te(target, ttl, hop))
    return trace


def diverging_pair():
    common = [VP_HOP1, VP_HOP2, AS200_CORE, AS200_DIST]
    trace_a = trace_of(TARGET_A, common + [AS200_GW_A])
    trace_b = trace_of(TARGET_B, common + [AS200_GW_B])
    return {TARGET_A: trace_a, TARGET_B: trace_b}


class TestPathDivergence:
    def test_divergence_yields_bound(self):
        resolver = AsnResolver(registry())
        candidates = discover_by_path_div(
            diverging_pair(), resolver, vantage_asn=VANTAGE_ASN
        )
        assert candidates.pairs_divergent == 1
        # Targets differ first within bits 48..64 (0:a vs 0:b) -> DPL 64
        # capped; both targets get the bound.
        assert candidates.bounds[TARGET_A] == 64
        assert candidates.bounds[TARGET_B] == 64
        assert len(candidates.candidate_prefixes) == 2

    def test_no_divergence_no_candidates(self):
        """Identical suffixes (same last-hop router) prove nothing."""
        common = [VP_HOP1, VP_HOP2, AS200_CORE, AS200_DIST, AS200_GW_A]
        traces = {
            TARGET_A: trace_of(TARGET_A, common),
            TARGET_B: trace_of(TARGET_B, common),
        }
        resolver = AsnResolver(registry())
        candidates = discover_by_path_div(traces, resolver, VANTAGE_ASN)
        assert not candidates.bounds

    def test_lcs_too_short_rejected(self):
        """Divergence at the very first hop carries no significance."""
        trace_a = trace_of(TARGET_A, [VP_HOP1, AS200_GW_A])
        trace_b = trace_of(TARGET_B, [VP_HOP2, AS200_GW_B])
        resolver = AsnResolver(registry())
        candidates = discover_by_path_div(
            {TARGET_A: trace_a, TARGET_B: trace_b}, resolver, VANTAGE_ASN
        )
        assert not candidates.bounds

    def test_missing_hop_in_lcs_rejected(self):
        common = [VP_HOP1, None, AS200_CORE, AS200_DIST]
        trace_a = trace_of(TARGET_A, common + [AS200_GW_A])
        trace_b = trace_of(TARGET_B, common + [AS200_GW_B])
        resolver = AsnResolver(registry())
        params = PathDivParams(c=4)  # would need the full common prefix
        candidates = discover_by_path_div(
            {TARGET_A: trace_a, TARGET_B: trace_b}, resolver, VANTAGE_ASN, params
        )
        assert not candidates.bounds

    def test_lcs_must_touch_target_asn(self):
        """Divergence before reaching the target's network (e.g. transit
        traffic engineering) is rejected by the C parameter."""
        # Common part entirely in the vantage AS.
        common = [VP_HOP1, VP_HOP2]
        trace_a = trace_of(TARGET_A, common + [AS200_CORE, AS200_GW_A])
        trace_b = trace_of(TARGET_B, common + [AS200_DIST, AS200_GW_B])
        resolver = AsnResolver(registry())
        candidates = discover_by_path_div(
            {TARGET_A: trace_a, TARGET_B: trace_b}, resolver, VANTAGE_ASN
        )
        assert not candidates.bounds

    def test_different_target_asn_rejected(self):
        other_target = parse("2001:300::1")
        traces = diverging_pair()
        trace_c = trace_of(other_target, [VP_HOP1, VP_HOP2, AS200_CORE, AS200_GW_B])
        traces[other_target] = trace_c
        resolver = AsnResolver(registry())
        candidates = discover_by_path_div(traces, resolver, VANTAGE_ASN)
        # Only the A/B pair can match (C has no registry entry / ASN).
        assert set(candidates.bounds) <= {TARGET_A, TARGET_B}

    def test_equivalent_asns_fold(self):
        """Router space registered to a sibling infrastructure ASN still
        counts as the target's network after folding."""
        trie = PrefixTrie()
        trie.insert(Prefix.parse("2001:100::/32"), VANTAGE_ASN)
        trie.insert(Prefix.parse("2001:200::/32"), TARGET_ASN)
        # The interior routers' space is registered to sibling ASN 201.
        trie.insert(Prefix.parse("2001:201::/32"), 201)
        sibling_core = parse("2001:201::1")
        sibling_dist = parse("2001:201::2")
        common = [VP_HOP1, VP_HOP2, sibling_core, sibling_dist]
        traces = {
            TARGET_A: trace_of(TARGET_A, common + [sibling_core + 0x10]),
            TARGET_B: trace_of(TARGET_B, common + [sibling_dist + 0x10]),
        }
        resolver_plain = AsnResolver(trie)
        resolver_folded = AsnResolver(trie, {201: TARGET_ASN})
        rejected = discover_by_path_div(traces, resolver_plain, VANTAGE_ASN)
        accepted = discover_by_path_div(traces, resolver_folded, VANTAGE_ASN)
        assert not rejected.bounds
        assert accepted.bounds

    def test_a_last_hop_inside_the_vantage_network_is_rejected(self):
        """A trace whose deepest answer came from the vantage's own AS has
        not left home (the A parameter); with A off the pair counts."""
        common = [VP_HOP1, VP_HOP2, AS200_CORE, AS200_DIST]
        traces = {
            TARGET_A: trace_of(TARGET_A, common + [AS200_GW_A, parse("2001:100::3")]),
            TARGET_B: trace_of(TARGET_B, common + [AS200_GW_B]),
        }
        resolver = AsnResolver(registry())
        assert not discover_by_path_div(traces, resolver, VANTAGE_ASN).bounds
        lenient = discover_by_path_div(traces, resolver, VANTAGE_ASN, PathDivParams(A=0))
        assert lenient.bounds == {TARGET_A: 64, TARGET_B: 64}

    def test_without_a_vantage_asn_the_last_hop_is_not_checked(self):
        common = [VP_HOP1, VP_HOP2, AS200_CORE, AS200_DIST]
        traces = {
            TARGET_A: trace_of(TARGET_A, common + [AS200_GW_A, parse("2001:100::3")]),
            TARGET_B: trace_of(TARGET_B, common + [AS200_GW_B]),
        }
        candidates = discover_by_path_div(traces, AsnResolver(registry()), None)
        assert candidates.bounds == {TARGET_A: 64, TARGET_B: 64}

    def test_unrouted_target_skipped(self):
        traces = diverging_pair()
        resolver = AsnResolver(PrefixTrie())  # empty registry
        candidates = discover_by_path_div(traces, resolver, VANTAGE_ASN)
        assert not candidates.bounds


class TestIAHack:
    def test_gateway_in_target_64(self):
        gateway = (TARGET_A & ~((1 << 64) - 1)) | 1
        trace = trace_of(TARGET_A, [VP_HOP1, VP_HOP2, gateway])
        resolver = AsnResolver(registry())
        candidates = discover_by_path_div({TARGET_A: trace}, resolver, VANTAGE_ASN)
        assert candidates.same64_last_hop == 1
        assert Prefix(TARGET_A & ~((1 << 64) - 1), 64) in candidates.ia_subnets

    def test_non_lowbyte_same64_counts_loosely(self):
        """EUI-64 CPE in the target /64 counts for the 64-dots but not the
        strict IA set."""
        cpe = (TARGET_A & ~((1 << 64) - 1)) | 0x0211_22FF_FE33_4455
        trace = trace_of(TARGET_A, [VP_HOP1, VP_HOP2, cpe])
        resolver = AsnResolver(registry())
        candidates = discover_by_path_div({TARGET_A: trace}, resolver, VANTAGE_ASN)
        assert candidates.same64_last_hop == 1
        assert not candidates.ia_subnets


class TestHistogramCdf:
    def test_histogram_and_cdf(self):
        resolver = AsnResolver(registry())
        candidates = discover_by_path_div(diverging_pair(), resolver, VANTAGE_ASN)
        histogram = candidates.length_histogram()
        assert histogram == {64: 2}
        cdf = dict(candidates.length_cdf([48, 64]))
        assert cdf[48] == 0.0
        assert cdf[64] == 1.0

    def test_cdf_empty(self):
        from repro.analysis.subnets import SubnetCandidates

        assert SubnetCandidates().length_cdf([64]) == [(64, 0.0)]


class TestValidation:
    def test_exact_and_more_specific(self):
        from repro.analysis.subnets import SubnetCandidates

        truth = [Prefix.parse("2001:200:0:a::/64"), Prefix.parse("2001:200::/40")]
        candidates = SubnetCandidates()
        candidates.record_bound(TARGET_A, 64)  # exact /64 match
        candidates.record_bound(parse("2001:200:1::1"), 44)  # more-specific in /40
        report = validate_candidates(
            candidates, truth, [TARGET_A, parse("2001:200:1::1")]
        )
        assert report.truth_probed == 2
        assert report.exact_matches == 1
        assert report.more_specific == 1

    def test_one_bit_short(self):
        from repro.analysis.subnets import SubnetCandidates

        truth = [Prefix.parse("2001:200::/40")]
        candidates = SubnetCandidates()
        candidates.record_bound(parse("2001:200:1::1"), 39)
        report = validate_candidates(candidates, truth, [parse("2001:200:1::1")])
        assert report.one_bit_short == 1

    def test_stratified_sample_one_per_truth(self):
        truth = [Prefix.parse("2001:200:0:a::/64"), Prefix.parse("2001:200:0:b::/64")]
        traces = diverging_pair()
        extra = TARGET_A + 5
        traces[extra] = trace_of(extra, [VP_HOP1])
        sample = stratified_sample(traces, truth)
        assert len(sample) == 2
        covered = {target >> 64 for target in sample}
        assert covered == {TARGET_A >> 64, TARGET_B >> 64}
