"""Unit and property tests for repro.addrs.address."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.addrs import address
from repro.addrs.address import (
    ADDRESS_BITS,
    MAX_ADDRESS,
    AddressError,
    common_prefix_length,
    format_address,
    from_bytes,
    interface_identifier,
    parse,
    subnet_prefix,
    to_bytes,
    with_iid,
)

addresses = st.integers(min_value=0, max_value=MAX_ADDRESS)


class TestParse:
    def test_full_form(self):
        assert parse("2001:0db8:0000:0000:0000:0000:0000:0001") == 0x20010DB8000000000000000000000001

    def test_compressed(self):
        assert parse("2001:db8::1") == 0x20010DB8000000000000000000000001

    def test_all_zero(self):
        assert parse("::") == 0

    def test_loopback(self):
        assert parse("::1") == 1

    def test_leading_compression(self):
        assert parse("::ffff:1") == 0xFFFF0001

    def test_trailing_compression(self):
        assert parse("2001:db8::") == 0x20010DB8 << 96

    def test_embedded_ipv4(self):
        assert parse("::ffff:192.168.0.1") == (0xFFFF << 32) | 0xC0A80001

    def test_embedded_ipv4_no_compression(self):
        assert parse("0:0:0:0:0:ffff:10.0.0.1") == (0xFFFF << 32) | 0x0A000001

    def test_whitespace_tolerated(self):
        assert parse("  ::1  ") == 1

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            ":::",
            "1:2:3:4:5:6:7",
            "1:2:3:4:5:6:7:8:9",
            "2001:db8::1::2",
            "12345::",
            "gggg::",
            "::256.1.1.1",
            "::1.2.3",
            "::01.2.3.4",
            "1.2.3.4::",
            "::" + "0:" * 8,
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            parse(bad)

    def test_double_colon_must_compress_something(self):
        with pytest.raises(AddressError):
            parse("1:2:3:4::5:6:7:8")


class TestFormat:
    def test_canonical_compression(self):
        assert format_address(0x20010DB8000000000000000000000001) == "2001:db8::1"

    def test_zero(self):
        assert format_address(0) == "::"

    def test_no_single_group_compression(self):
        # RFC 5952: a lone zero group is not compressed.
        value = parse("2001:db8:0:1:1:1:1:1")
        assert format_address(value) == "2001:db8:0:1:1:1:1:1"

    def test_leftmost_longest_run_wins(self):
        value = parse("2001:0:0:1:0:0:0:1")
        assert format_address(value) == "2001:0:0:1::1"

    def test_all_ones(self):
        assert format_address(MAX_ADDRESS) == "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"

    def test_out_of_range(self):
        with pytest.raises(AddressError):
            format_address(-1)
        with pytest.raises(AddressError):
            format_address(MAX_ADDRESS + 1)

    @given(addresses)
    def test_round_trip(self, value):
        assert parse(format_address(value)) == value


class TestBytes:
    def test_to_bytes_length(self):
        assert len(to_bytes(1)) == 16

    def test_network_order(self):
        assert to_bytes(parse("2001:db8::"))[:4] == bytes([0x20, 0x01, 0x0D, 0xB8])

    def test_from_bytes_rejects_short(self):
        with pytest.raises(AddressError):
            from_bytes(b"\x00" * 15)

    @given(addresses)
    def test_round_trip(self, value):
        assert from_bytes(to_bytes(value)) == value


class TestBitHelpers:
    def test_subnet_prefix_zeroes_iid(self):
        value = parse("2001:db8::dead:beef")
        assert subnet_prefix(value) == parse("2001:db8::")

    def test_interface_identifier(self):
        assert interface_identifier(parse("2001:db8::dead:beef")) == 0xDEADBEEF

    def test_with_iid(self):
        combined = with_iid(parse("2001:db8::ffff"), 1)
        assert combined == parse("2001:db8::1")

    @given(addresses, st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_with_iid_splits(self, value, iid):
        combined = with_iid(value, iid)
        assert subnet_prefix(combined) == subnet_prefix(value)
        assert interface_identifier(combined) == iid

    def test_common_prefix_identical(self):
        assert common_prefix_length(5, 5) == ADDRESS_BITS

    def test_common_prefix_first_bit(self):
        assert common_prefix_length(0, 1 << 127) == 0

    def test_common_prefix_mid(self):
        a = parse("2001:db8::")
        b = parse("2001:db9::")
        assert common_prefix_length(a, b) == 31

    @given(addresses, addresses)
    def test_common_prefix_symmetric(self, a, b):
        assert common_prefix_length(a, b) == common_prefix_length(b, a)

    @given(addresses, addresses)
    def test_common_prefix_bound(self, a, b):
        shared = common_prefix_length(a, b)
        assert 0 <= shared <= ADDRESS_BITS
        if a != b:
            # Bits above the shared length must agree; the next must differ.
            shift = ADDRESS_BITS - shared
            assert (a >> shift) == (b >> shift)
