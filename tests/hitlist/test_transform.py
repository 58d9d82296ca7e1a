"""Tests for the zn prefix transformation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.addrs import parse
from repro.addrs.address import MAX_ADDRESS
from repro.addrs.prefix import Prefix
from repro.hitlist.transform import as_prefix, zn

addresses = st.integers(min_value=0, max_value=MAX_ADDRESS)


class TestAsPrefix:
    def test_address_becomes_host_prefix(self):
        assert as_prefix(parse("2001:db8::1")) == Prefix.parse("2001:db8::1/128")

    def test_prefix_passthrough(self):
        prefix = Prefix.parse("2001:db8::/32")
        assert as_prefix(prefix) is prefix


class TestZn:
    def test_addresses_aggregate_to_64(self):
        a = parse("2001:db8::1")
        b = parse("2001:db8::2")
        assert zn([a, b], 64) == [Prefix.parse("2001:db8::/64")]

    def test_short_prefix_extends(self):
        result = zn([Prefix.parse("2001:db8::/32")], 48)
        assert result == [Prefix.parse("2001:db8::/48")]

    def test_mixed_input(self):
        result = zn([Prefix.parse("2001:db8::/32"), parse("2001:dead:beef::1")], 48)
        assert Prefix.parse("2001:db8::/48") in result
        assert Prefix.parse("2001:dead:beef::/48") in result

    def test_sorted_output(self):
        result = zn([parse("ffff::1"), parse("::1"), parse("8000::1")], 64)
        assert result == sorted(result)

    def test_duplicate_collapse_z40_vs_z64(self):
        """A denser level yields at least as many prefixes (Table 3's
        probe-count growth with n)."""
        addrs = [
            parse("2001:db8:0:%x::%d" % (subnet, host))
            for subnet in range(4)
            for host in range(1, 4)
        ]
        assert len(zn(addrs, 40)) <= len(zn(addrs, 48)) <= len(zn(addrs, 64))
        assert len(zn(addrs, 64)) == 4
        assert len(zn(addrs, 40)) == 1

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            zn([], -1)
        with pytest.raises(ValueError):
            zn([], 129)

    @given(st.lists(addresses, max_size=50), st.sampled_from([40, 48, 56, 64]))
    def test_output_covers_input(self, addrs, level):
        result = zn(addrs, level)
        for addr in addrs:
            assert any(prefix.contains(addr) for prefix in result)
        for prefix in result:
            assert prefix.length == level

    @given(st.lists(addresses, max_size=50))
    def test_monotone_in_level(self, addrs):
        sizes = [len(zn(addrs, level)) for level in (40, 48, 56, 64)]
        assert sizes == sorted(sizes)
