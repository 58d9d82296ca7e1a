"""Tests for target-set feature characterization (Table 5 machinery)."""

from repro.addrs import address
from repro.addrs.prefix import Prefix
from repro.addrs.sets import (
    SIXTOFOUR,
    characterize_sets,
)
from repro.addrs.trie import PrefixTrie


def make_bgp():
    bgp = PrefixTrie()
    bgp.insert(Prefix.parse("2001:db8::/32"), 64500)
    bgp.insert(Prefix.parse("2001:dead::/32"), 64501)
    bgp.insert(Prefix.parse("2002::/16"), 64502)
    return bgp


class TestCharacterize:
    def test_unique_and_routed(self):
        bgp = make_bgp()
        sets = {
            "a": [address.parse("2001:db8::1"), address.parse("fd00::1")],
        }
        features = characterize_sets(sets, bgp)["a"]
        assert features.unique_targets == 2
        assert features.routed_targets == 1
        assert features.bgp_prefixes == {Prefix.parse("2001:db8::/32")}
        assert features.asns == {64500}

    def test_exclusivity(self):
        bgp = make_bgp()
        shared_addr = address.parse("2001:db8::1")
        sets = {
            "a": [shared_addr, address.parse("2001:db8::2")],
            "b": [shared_addr, address.parse("2001:dead::1")],
        }
        features = characterize_sets(sets, bgp)
        assert features["a"].exclusive_targets == 1
        assert features["b"].exclusive_targets == 1
        # Prefix 2001:db8::/32 is seen by both sets -> not exclusive to a.
        assert features["a"].exclusive_prefixes == set()
        assert features["b"].exclusive_prefixes == {Prefix.parse("2001:dead::/32")}
        assert features["b"].exclusive_asns == {64501}

    def test_exclusive_among_excludes_collections(self):
        # The "combined" set contains everything; excluding it from the
        # exclusivity computation preserves constituents' contributions.
        bgp = make_bgp()
        a = [address.parse("2001:db8::1")]
        b = [address.parse("2001:dead::1")]
        sets = {"a": a, "b": b, "combined": a + b}
        features = characterize_sets(sets, bgp, exclusive_among=["a", "b"])
        assert features["a"].exclusive_targets == 1
        assert features["b"].exclusive_targets == 1
        assert features["combined"].exclusive_targets == 0

    def test_sixtofour_counted(self):
        bgp = make_bgp()
        sets = {"a": [address.parse("2002::1"), address.parse("2001:db8::1")]}
        features = characterize_sets(sets, bgp)["a"]
        assert features.sixtofour == 1

    def test_duplicates_collapse(self):
        bgp = make_bgp()
        value = address.parse("2001:db8::1")
        features = characterize_sets({"a": [value, value]}, bgp)["a"]
        assert features.unique_targets == 1

    def test_as_dict_keys(self):
        bgp = make_bgp()
        summary = characterize_sets({"a": [1]}, bgp)["a"].as_dict()
        assert summary["unique_targets"] == 1
        assert "exclusive_asns" in summary


def test_sixtofour_prefix_value():
    assert SIXTOFOUR.contains(address.parse("2002:abcd::1"))
    assert not SIXTOFOUR.contains(address.parse("2001::1"))
