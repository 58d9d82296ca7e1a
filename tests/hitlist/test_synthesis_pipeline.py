"""Tests for target synthesis and the three-step pipeline."""

import pytest

from repro.addrs import FIXED_IID, parse
from repro.addrs.prefix import Prefix
from repro.hitlist.pipeline import TargetSet, build_suite, combine, make_targets
from repro.hitlist.synthesis import (
    fixediid,
    known,
    lowbyte1,
    random_iid,
    synthesize,
)

PREFIXES = [Prefix.parse("2001:db8::/64"), Prefix.parse("2001:db8:0:1::/64")]


class TestSynthesis:
    def test_lowbyte1(self):
        assert lowbyte1(PREFIXES) == [
            parse("2001:db8::1"),
            parse("2001:db8:0:1::1"),
        ]

    def test_fixediid(self):
        result = fixediid(PREFIXES)
        assert result[0] == parse("2001:db8::1234:5678:1234:5678")
        assert all(addr & ((1 << 64) - 1) == FIXED_IID for addr in result)

    def test_random_iid_deterministic_and_inside(self):
        a = random_iid(PREFIXES, seed=1)
        b = random_iid(PREFIXES, seed=1)
        assert a == b
        for prefix, addr in zip(PREFIXES, a):
            assert prefix.contains(addr)

    def test_known_prefers_seed_address(self):
        seed_addr = parse("2001:db8::dead")
        result = known(PREFIXES, [seed_addr])
        assert result[0] == seed_addr
        assert result[1] == parse("2001:db8:0:1::1")  # fallback

    def test_duplicates_removed(self):
        twice = PREFIXES + PREFIXES
        assert len(lowbyte1(twice)) == len(PREFIXES)

    def test_dispatch(self):
        assert synthesize(PREFIXES, "lowbyte1") == lowbyte1(PREFIXES)
        assert synthesize(PREFIXES, "fixediid") == fixediid(PREFIXES)
        assert synthesize(PREFIXES, "random")
        assert synthesize(PREFIXES, "known", [parse("2001:db8::5")])

    def test_dispatch_unknown(self):
        with pytest.raises(ValueError):
            synthesize(PREFIXES, "nope")


class TestTargetSet:
    def test_sorted_unique(self):
        target_set = TargetSet("x", [3, 1, 3, 2])
        assert target_set.addresses == [1, 2, 3]
        assert len(target_set) == 3

    def test_contains(self):
        target_set = TargetSet("x", [10, 20])
        assert 10 in target_set
        assert 15 not in target_set

    def test_iteration(self):
        assert list(TargetSet("x", [2, 1])) == [1, 2]


class TestPipeline:
    def test_make_targets_naming(self):
        seeds = [parse("2001:db8::1"), parse("2001:db8::2")]
        target_set = make_targets("caida", seeds, level=64, method="fixediid")
        assert target_set.name == "caida-z64"
        assert target_set.transformation == "z64"
        assert target_set.synthesis == "fixediid"
        assert len(target_set) == 1  # both seeds share a /64

    def test_make_targets_prefix_seeds(self):
        seeds = [Prefix.parse("2001:db8::/32")]
        target_set = make_targets("cdn-k32", seeds, level=48, method="lowbyte1")
        assert target_set.addresses == [parse("2001:db8::1")]

    def test_combine(self):
        a = make_targets("a", [parse("2001:db8::1")], 64)
        b = make_targets("b", [parse("2001:dead::1")], 64)
        union = combine("combined", [a, b])
        assert len(union) == 2

    def test_build_suite_grid(self):
        seeds = {
            "caida": [Prefix.parse("2001:db8::/32")],
            "fiebig": [parse("2001:dead::1"), parse("2001:dead::2")],
        }
        suite = build_suite(seeds, levels=(48, 64))
        assert set(suite) == {"caida-z48", "caida-z64", "fiebig-z48", "fiebig-z64"}
        # z64 has at least as many targets as z48.
        assert len(suite["fiebig-z64"]) >= len(suite["fiebig-z48"])
