"""Tests for the radix trie, including a linear-scan LPM oracle property."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addrs import address
from repro.addrs.address import MAX_ADDRESS
from repro.addrs.prefix import Prefix
from repro.addrs.trie import PrefixTrie

prefix_strategy = st.builds(
    Prefix,
    st.integers(min_value=0, max_value=MAX_ADDRESS),
    st.integers(min_value=0, max_value=128),
)


def build(*specs):
    trie = PrefixTrie()
    for text, value in specs:
        trie.insert(Prefix.parse(text), value)
    return trie


class TestInsertLookup:
    def test_empty(self):
        trie = PrefixTrie()
        assert len(trie) == 0
        assert not trie
        assert trie.longest_match(0) is None
        assert trie.lookup(0) is None

    def test_single_prefix(self):
        trie = build(("2001:db8::/32", "A"))
        assert len(trie) == 1
        assert trie.lookup(address.parse("2001:db8::1")) == "A"
        assert trie.lookup(address.parse("2001:db9::1")) is None

    def test_longest_match_wins(self):
        trie = build(("2001:db8::/32", "wide"), ("2001:db8:1::/48", "narrow"))
        assert trie.lookup(address.parse("2001:db8:1::5")) == "narrow"
        assert trie.lookup(address.parse("2001:db8:2::5")) == "wide"

    def test_default_route(self):
        trie = build(("::/0", "default"), ("2001:db8::/32", "specific"))
        assert trie.lookup(address.parse("9999::1")) == "default"
        assert trie.lookup(address.parse("2001:db8::1")) == "specific"

    def test_replace_value(self):
        trie = build(("2001:db8::/32", "old"))
        trie.insert(Prefix.parse("2001:db8::/32"), "new")
        assert len(trie) == 1
        assert trie.get(Prefix.parse("2001:db8::/32")) == "new"

    def test_exact_get_vs_lpm(self):
        trie = build(("2001:db8::/32", "A"))
        assert trie.get(Prefix.parse("2001:db8::/48")) is None
        assert trie.get(Prefix.parse("2001:db8::/32")) == "A"

    def test_exact_get_above_every_stored_prefix(self):
        trie = build(("2001:db8::/32", "A"))
        assert trie.get(Prefix.parse("2001::/16")) is None
        assert Prefix.parse("2001::/16") not in trie

    def test_exact_get_off_the_stored_branch(self):
        trie = build(("2001:db8::/32", "A"), ("2001:db8:1::/48", "B"))
        assert trie.get(Prefix.parse("2001:db9::/48")) is None
        assert Prefix.parse("2001:db9:1::/48") not in trie
        assert trie.get(Prefix.parse("2001:db8:1::/48")) == "B"

    def test_contains(self):
        trie = build(("2001:db8::/32", "A"))
        assert Prefix.parse("2001:db8::/32") in trie
        assert Prefix.parse("2001:db8::/33") not in trie

    def test_host_route(self):
        trie = build(("2001:db8::1/128", "host"))
        assert trie.lookup(address.parse("2001:db8::1")) == "host"
        assert trie.lookup(address.parse("2001:db8::2")) is None

    def test_sibling_split(self):
        # Inserting two prefixes that diverge mid-edge forces a fork node.
        trie = build(("2001:db8:aaaa::/48", "A"), ("2001:db8:aaab::/48", "B"))
        assert trie.lookup(address.parse("2001:db8:aaaa::1")) == "A"
        assert trie.lookup(address.parse("2001:db8:aaab::1")) == "B"
        assert trie.lookup(address.parse("2001:db8:aaac::1")) is None

    def test_fork_on_existing_edge_then_value(self):
        trie = build(("2001:db8:aaaa::/48", "A"), ("2001:db8::/32", "B"))
        assert trie.lookup(address.parse("2001:db8:aaaa::1")) == "A"
        assert trie.lookup(address.parse("2001:db8:ffff::1")) == "B"

    def test_none_value_counts_as_stored(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("2001:db8::/32"), None)
        assert Prefix.parse("2001:db8::/32") in trie
        assert trie.covers(address.parse("2001:db8::1"))


class TestEnumeration:
    def test_items_sorted(self):
        trie = build(
            ("2001:db9::/32", 2),
            ("2001:db8::/32", 1),
            ("2001:db8::/48", 0),
        )
        listed = trie.prefixes()
        assert listed == sorted(listed)
        assert len(listed) == 3


class TestOracle:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(prefix_strategy, min_size=1, max_size=40),
        st.lists(st.integers(min_value=0, max_value=MAX_ADDRESS), min_size=1, max_size=20),
    )
    def test_matches_linear_scan(self, stored, queries):
        trie = PrefixTrie()
        table = {}
        for index, prefix in enumerate(stored):
            trie.insert(prefix, index)
            table[prefix] = index  # later insert replaces, same as trie
        for query in queries:
            expected = None
            best_length = -1
            for prefix, value in table.items():
                if prefix.contains(query) and prefix.length > best_length:
                    best_length = prefix.length
                    expected = (prefix, value)
            assert trie.longest_match(query) == expected

    @settings(max_examples=50, deadline=None)
    @given(st.lists(prefix_strategy, min_size=1, max_size=40))
    def test_count_and_enumeration(self, stored):
        trie = PrefixTrie()
        for prefix in stored:
            trie.insert(prefix, str(prefix))
        unique = set(stored)
        assert len(trie) == len(unique)
        assert set(trie.prefixes()) == unique

    @settings(max_examples=30, deadline=None)
    @given(st.lists(prefix_strategy, min_size=1, max_size=30))
    def test_every_stored_prefix_matches_own_base(self, stored):
        trie = PrefixTrie()
        for prefix in stored:
            trie.insert(prefix, prefix)
        for prefix in set(stored):
            match = trie.longest_match(prefix.base)
            assert match is not None
            matched_prefix, _ = match
            assert matched_prefix.contains(prefix.base)
            assert matched_prefix.length >= prefix.length or matched_prefix.covers(prefix)
