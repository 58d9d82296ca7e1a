"""Unit and property tests for repro.addrs.prefix."""

import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.addrs import address
from repro.addrs.address import MAX_ADDRESS, AddressError
from repro.addrs.prefix import (
    Prefix,
    aggregate,
    host_mask_for,
    mask_for,
    merge_adjacent,
    spanning_prefix,
)

prefixes = st.builds(
    Prefix,
    st.integers(min_value=0, max_value=MAX_ADDRESS),
    st.integers(min_value=0, max_value=128),
)


class TestConstruction:
    def test_base_masked(self):
        prefix = Prefix(address.parse("2001:db8::1"), 32)
        assert prefix.base == address.parse("2001:db8::")

    def test_parse_with_length(self):
        assert Prefix.parse("2001:db8::/32") == Prefix(address.parse("2001:db8::"), 32)

    def test_parse_bare_address(self):
        assert Prefix.parse("2001:db8::1").length == 128

    def test_parse_bad_length(self):
        with pytest.raises(AddressError):
            Prefix.parse("::/xx")
        with pytest.raises(AddressError):
            Prefix.parse("::/129")

    def test_immutable(self):
        prefix = Prefix.parse("2001:db8::/32")
        with pytest.raises(AttributeError):
            prefix.length = 48

    def test_str_round_trip(self):
        prefix = Prefix.parse("2001:db8::/32")
        assert Prefix.parse(str(prefix)) == prefix

    @given(prefixes)
    def test_equality_hash(self, prefix):
        clone = Prefix(prefix.base, prefix.length)
        assert clone == prefix
        # Prefix hashes (base, length) ints — PYTHONHASHSEED-free.
        assert hash(clone) == hash(prefix)  # repro-lint: disable=DET001


class TestPickle:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    @given(prefix=prefixes)
    def test_round_trip(self, protocol, prefix):
        copy = pickle.loads(pickle.dumps(prefix, protocol))
        assert type(copy) is Prefix
        assert (copy.base, copy.length) == (prefix.base, prefix.length)
        with pytest.raises(AttributeError, match="immutable"):
            copy.length = 48


class TestContainment:
    def test_contains_base_and_last(self):
        prefix = Prefix.parse("2001:db8::/32")
        assert prefix.contains(prefix.base)
        assert prefix.contains(prefix.last)
        assert not prefix.contains(prefix.last + 1)
        assert not prefix.contains(prefix.base - 1)

    def test_default_route_contains_everything(self):
        default = Prefix(0, 0)
        assert default.contains(0)
        assert default.contains(MAX_ADDRESS)

    def test_covers(self):
        wide = Prefix.parse("2001:db8::/32")
        narrow = Prefix.parse("2001:db8:1::/48")
        assert wide.covers(narrow)
        assert not narrow.covers(wide)
        assert wide.covers(wide)

    def test_size(self):
        assert Prefix.parse("::/128").size == 1
        assert Prefix.parse("::/64").size == 1 << 64

    @given(prefixes, st.integers(min_value=0, max_value=MAX_ADDRESS))
    def test_contains_consistent_with_range(self, prefix, value):
        assert prefix.contains(value) == (prefix.base <= value <= prefix.last)


class TestTransformations:
    def test_extend(self):
        prefix = Prefix.parse("2001:db8::/32")
        assert prefix.extend(48) == Prefix.parse("2001:db8::/48")

    def test_extend_shorter_raises(self):
        with pytest.raises(AddressError):
            Prefix.parse("2001:db8::/48").extend(32)

    def test_truncate(self):
        prefix = Prefix.parse("2001:db8:abcd::/48")
        assert prefix.truncate(32) == Prefix.parse("2001:db8::/32")

    def test_truncate_longer_raises(self):
        with pytest.raises(AddressError):
            Prefix.parse("2001:db8::/32").truncate(48)

    def test_subnets(self):
        subs = list(Prefix.parse("2001:db8::/32").subnets(34))
        assert len(subs) == 4
        assert subs[0] == Prefix.parse("2001:db8::/34")
        assert subs[-1] == Prefix.parse("2001:db8:c000::/34")

    def test_nth_subnet_matches_iteration(self):
        prefix = Prefix.parse("2001:db8::/32")
        subs = list(prefix.subnets(36))
        for index in (0, 7, 15):
            assert prefix.nth_subnet(36, index) == subs[index]

    def test_nth_subnet_out_of_range(self):
        with pytest.raises(IndexError):
            Prefix.parse("2001:db8::/32").nth_subnet(33, 2)

    def test_random_address_inside(self):
        rng = random.Random(1)
        prefix = Prefix.parse("2001:db8::/32")
        for _ in range(50):
            assert prefix.contains(prefix.random_address(rng))

    def test_random_address_host_prefix(self):
        rng = random.Random(1)
        prefix = Prefix.parse("2001:db8::1/128")
        assert prefix.random_address(rng) == prefix.base

    def test_random_subnet_inside(self):
        rng = random.Random(2)
        prefix = Prefix.parse("2001:db8::/32")
        for _ in range(20):
            subnet = prefix.random_subnet(64, rng)
            assert subnet.length == 64
            assert prefix.covers(subnet)


@st.composite
def subdivisions(draw):
    """``(prefix, new_length, index)`` with the index in range."""
    prefix = draw(prefixes)
    new_length = draw(st.integers(prefix.length, 128))
    index = draw(st.integers(0, (1 << (new_length - prefix.length)) - 1))
    return prefix, new_length, index


class TestDerivedPrefixes:
    """``nth_subnet`` / ``subnets`` / ``random_subnet`` build their result
    without re-checking a base that is aligned and in range by
    construction; the checked constructor is the oracle, and every
    argument check keeps its message."""

    @given(subdivisions())
    def test_nth_subnet_is_the_checked_constructor(self, drawn):
        prefix, new_length, index = drawn
        derived = prefix.nth_subnet(new_length, index)
        checked = Prefix(prefix.base + index * (1 << (128 - new_length)), new_length)
        assert type(derived) is Prefix
        assert (derived.base, derived.length) == (checked.base, checked.length)
        assert derived == checked and hash(derived) == hash(checked)  # repro-lint: disable=DET001
        with pytest.raises(AttributeError, match="Prefix is immutable"):
            derived.base = 0

    @given(subdivisions(), st.integers(0, 2**32))
    def test_random_subnet_and_subnets_agree_with_nth_subnet(self, drawn, seed):
        prefix, new_length, index = drawn
        bits = new_length - prefix.length
        drawn_index = random.Random(seed).getrandbits(bits) if bits else 0
        subnet = prefix.random_subnet(new_length, random.Random(seed))
        assert subnet == Prefix(prefix.base + drawn_index * (1 << (128 - new_length)), new_length)
        for at, listed in zip(range(3), prefix.subnets(new_length)):
            assert listed == prefix.nth_subnet(new_length, at)

    def test_messages_are_the_checked_ones(self):
        with pytest.raises(AddressError, match=r"^prefix length out of range: 129$"):
            Prefix(0, 129)
        with pytest.raises(AddressError, match=r"^prefix base out of range: -1$"):
            Prefix(-1, 64)
        with pytest.raises(AddressError, match=r"^prefix base out of range: %d$" % (1 << 128)):
            Prefix(1 << 128, 64)
        slash32 = Prefix.parse("2001:db8::/32")
        for index in (-1, 16):
            with pytest.raises(IndexError, match=r"^subnet index %d out of range$" % index):
                slash32.nth_subnet(36, index)
        for derive in (
            lambda: slash32.nth_subnet(24, 0),
            lambda: list(slash32.subnets(24)),
            lambda: slash32.random_subnet(24, random.Random(1)),
        ):
            with pytest.raises(AddressError, match=r"^subnet length /24 shorter than /32$"):
                derive()


class TestMasks:
    def test_mask_for_extremes(self):
        assert mask_for(0) == 0
        assert mask_for(128) == MAX_ADDRESS

    def test_host_mask_complement(self):
        for length in (0, 1, 32, 64, 127, 128):
            assert mask_for(length) ^ host_mask_for(length) == MAX_ADDRESS


class TestAggregation:
    def test_aggregate_drops_covered(self):
        wide = Prefix.parse("2001:db8::/32")
        narrow = Prefix.parse("2001:db8:1::/48")
        other = Prefix.parse("2001:dead::/32")
        assert aggregate([narrow, wide, other]) == [wide, other]

    def test_aggregate_keeps_duplicates_once(self):
        prefix = Prefix.parse("2001:db8::/32")
        assert aggregate([prefix, prefix]) == [prefix]

    def test_merge_adjacent_siblings(self):
        left = Prefix.parse("2001:db8::/33")
        right = Prefix.parse("2001:db8:8000::/33")
        assert merge_adjacent([left, right]) == [Prefix.parse("2001:db8::/32")]

    def test_merge_adjacent_cascades(self):
        quarters = list(Prefix.parse("2001:db8::/32").subnets(34))
        assert merge_adjacent(quarters) == [Prefix.parse("2001:db8::/32")]

    def test_merge_non_siblings_unchanged(self):
        # Adjacent but not siblings: cannot merge without over-covering.
        a = Prefix.parse("2001:db8:8000::/33")
        b = Prefix.parse("2001:db9::/33")
        assert merge_adjacent([a, b]) == sorted([a, b])

    @given(st.lists(prefixes, max_size=30))
    def test_aggregate_preserves_coverage(self, items):
        result = aggregate(items)
        # Every input prefix is covered by some output prefix.
        for item in items:
            assert any(out.covers(item) for out in result)
        # No output covers another output.
        for i, a in enumerate(result):
            for j, b in enumerate(result):
                if i != j:
                    assert not a.covers(b)


class TestSpanningPrefix:
    def test_empty(self):
        assert spanning_prefix([]) is None

    def test_single(self):
        value = address.parse("2001:db8::1")
        assert spanning_prefix([value]) == Prefix(value, 128)

    def test_pair(self):
        a = address.parse("2001:db8::1")
        b = address.parse("2001:db8::2")
        span = spanning_prefix([a, b])
        assert span.contains(a) and span.contains(b)
        assert span.length == 126

    @given(st.lists(st.integers(min_value=0, max_value=MAX_ADDRESS), min_size=1, max_size=20))
    def test_spans_all(self, values):
        span = spanning_prefix(values)
        assert all(span.contains(value) for value in values)
