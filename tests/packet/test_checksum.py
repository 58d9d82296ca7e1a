"""Tests for Internet checksum machinery, including the fudge algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.addrs import address
from repro.addrs.address import MAX_ADDRESS
from repro.packet.checksum import (
    address_checksum,
    checksum_fudge,
    fold_sum,
    internet_checksum,
    ones_complement_sum,
    pseudo_header,
    pseudo_header_sum,
    transport_checksum,
    verify_transport_checksum,
)

payloads = st.binary(max_size=128)
addresses = st.integers(min_value=0, max_value=MAX_ADDRESS)


def word_loop_sum(data: bytes, initial: int = 0) -> int:
    """The RFC 1071 word loop ``ones_complement_sum`` used to be: the
    oracle the integer form is checked against."""
    total = initial
    length = len(data)
    for index in range(0, length - 1, 2):
        total += (data[index] << 8) | data[index + 1]
    if length % 2:
        total += data[-1] << 8
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


class TestOnesComplementSum:
    def test_empty(self):
        assert ones_complement_sum(b"") == 0

    def test_known_rfc1071_example(self):
        # RFC 1071 example bytes: 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2 (with carry folded).
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert ones_complement_sum(data) == 0xDDF2

    def test_odd_length_pads_right(self):
        assert ones_complement_sum(b"\xab") == 0xAB00

    def test_carry_folding(self):
        # 0xffff + 0x0001 = 0x10000 -> folds to 0x0001.
        assert ones_complement_sum(b"\xff\xff\x00\x01") == 0x0001

    def test_zero_only_from_all_zero_input(self):
        """Folding never turns a nonzero total into 0: only all-zero data
        with a zero ``initial`` sums to 0, every other multiple of 0xFFFF
        reads 0xFFFF."""
        assert ones_complement_sum(b"\x00" * 7) == 0
        assert ones_complement_sum(b"\xff\xff") == 0xFFFF
        assert ones_complement_sum(b"\xff\xff" * 5) == 0xFFFF
        assert ones_complement_sum(b"\x7f\xff\x80\x00") == 0xFFFF
        assert ones_complement_sum(b"\xff\xfe\x00\x01") == 0xFFFF
        assert ones_complement_sum(b"", 0xFFFF) == 0xFFFF
        assert ones_complement_sum(b"", 3 * 0xFFFF) == 0xFFFF
        assert ones_complement_sum(b"\x00\x00", 0xFFFF0000) == 0xFFFF
        assert fold_sum(0) == 0
        assert fold_sum(0xFFFF << 112) == 0xFFFF

    def test_odd_tail_is_a_high_byte(self):
        assert ones_complement_sum(b"\x00\x01\xab") == 0xAB01
        assert ones_complement_sum(b"\xff\xff\xff") == 0xFF00
        assert ones_complement_sum(b"\xff", 0x00FF) == 0xFFFF
        assert ones_complement_sum(b"\x01", 0xFFFF) == 0x0100

    def test_wide_initial(self):
        assert ones_complement_sum(b"", 0x10000) == 0x0001
        assert ones_complement_sum(b"\x00\x02", 0x1FFFF) == 0x0003
        assert ones_complement_sum(b"\x12\x34", MAX_ADDRESS) == 0x1234

    @given(
        st.binary(max_size=1232),
        st.integers(min_value=0, max_value=0xFFFF)
        | st.integers(min_value=0, max_value=1 << 140),
    )
    def test_matches_word_loop(self, data, initial):
        assert ones_complement_sum(data, initial) == word_loop_sum(data, initial)

    @given(payloads, payloads)
    def test_initial_is_concatenation_for_even(self, a, b):
        if len(a) % 2 == 0:
            combined = ones_complement_sum(a + b)
            chained = ones_complement_sum(b, ones_complement_sum(a))
            assert combined == chained


class TestInternetChecksum:
    def test_complement(self):
        data = b"\x12\x34"
        assert internet_checksum(data) == (~0x1234) & 0xFFFF

    @given(payloads)
    def test_self_verifying(self, data):
        # Appending the checksum makes the total checksum zero.
        if len(data) % 2:
            data += b"\x00"
        value = internet_checksum(data)
        assert internet_checksum(data + value.to_bytes(2, "big")) == 0


class TestPseudoHeader:
    def test_layout(self):
        header = pseudo_header(1, 2, 0x1234, 58)
        assert len(header) == 40
        assert header[:16] == address.to_bytes(1)
        assert header[16:32] == address.to_bytes(2)
        assert header[32:36] == (0x1234).to_bytes(4, "big")
        assert header[36:39] == b"\x00\x00\x00"
        assert header[39] == 58

    @given(
        addresses,
        addresses,
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=0xFF),
    )
    def test_integer_sum_matches_bytes(self, src, dst, length, next_header):
        header = pseudo_header(src, dst, length, next_header)
        assert fold_sum(
            pseudo_header_sum(src, dst, length, next_header)
        ) == word_loop_sum(header)

    @given(addresses, addresses, payloads)
    def test_transport_checksum_round_trip(self, src, dst, payload):
        if len(payload) < 2:
            payload += b"\x00\x00"
        # Build segment with zeroed checksum at offset 0..2, then embed.
        segment = b"\x00\x00" + payload
        value = transport_checksum(src, dst, 17, segment)
        embedded = value.to_bytes(2, "big") + payload
        assert verify_transport_checksum(src, dst, 17, embedded)

    @given(addresses, addresses, payloads)
    def test_corruption_detected(self, src, dst, payload):
        segment = b"\x00\x00" + payload + b"\x01"
        value = transport_checksum(src, dst, 58, segment)
        embedded = bytearray(value.to_bytes(2, "big") + payload + b"\x01")
        embedded[-1] ^= 0x40
        # A single bit flip must break verification (barring the 0000/ffff
        # one's-complement aliasing, which a 0x40 flip cannot cause here).
        assert not verify_transport_checksum(src, dst, 58, bytes(embedded))


class TestFudge:
    @given(st.integers(min_value=0, max_value=0xFFFF), st.integers(min_value=0, max_value=0xFFFF))
    def test_fudge_hits_desired_sum(self, base_sum, desired):
        fudge = checksum_fudge(base_sum, desired)
        total = base_sum + fudge
        while total >> 16:
            total = (total & 0xFFFF) + (total >> 16)
        # In one's-complement arithmetic 0x0000 and 0xffff are both zero;
        # accept the alias when the target is zero.
        assert total == desired or (desired == 0 and total == 0xFFFF) or (
            desired == 0xFFFF and total == 0
        )

    @given(payloads, st.integers(min_value=0, max_value=0xFFFF))
    def test_constant_checksum_across_payloads(self, variable, desired):
        """The Yarrp6 property: place a fudge so different payloads keep
        the same transport checksum."""
        src, dst = 10, 20
        fixed_head = b"\xab\xcd"
        if len(variable) % 2:
            variable += b"\x00"
        base = ones_complement_sum(
            pseudo_header(src, dst, len(fixed_head) + len(variable) + 2, 17)
        )
        base = ones_complement_sum(fixed_head + variable, base)
        fudge = checksum_fudge(base, desired)
        segment = fixed_head + variable + fudge.to_bytes(2, "big")
        value = internet_checksum(
            segment, ones_complement_sum(pseudo_header(src, dst, len(segment), 17))
        )
        expected = ~desired & 0xFFFF
        assert value == expected or (expected == 0 and value == 0xFFFF) or (
            expected == 0xFFFF and value == 0
        )


class TestAddressChecksum:
    @given(addresses)
    def test_nonzero(self, value):
        assert 1 <= address_checksum(value) <= 0xFFFF

    @given(addresses)
    def test_deterministic(self, value):
        assert address_checksum(value) == address_checksum(value)

    @given(addresses)
    def test_matches_word_loop_over_bytes(self, value):
        checksum = ~word_loop_sum(address.to_bytes(value)) & 0xFFFF
        assert address_checksum(value) == (checksum or 0xFFFF)

    def test_zero_checksum_avoided(self):
        # Words summing to 0xFFFF complement to 0, which is remapped.
        assert address_checksum(0xFFFF) == 0xFFFF
        assert address_checksum(MAX_ADDRESS) == 0xFFFF
        assert address_checksum(0) == 0xFFFF

    @pytest.mark.parametrize("bad", [-1, MAX_ADDRESS + 1])
    def test_out_of_range_address_is_rejected(self, bad):
        """The integer forms keep the range check ``to_bytes`` applied."""
        with pytest.raises(OverflowError):
            address_checksum(bad)
        for src, dst in ((bad, 1), (1, bad)):
            with pytest.raises(OverflowError):
                pseudo_header_sum(src, dst, 8, 58)
            with pytest.raises(OverflowError):
                transport_checksum(src, dst, 58, b"\x80\x00\x00\x00")
            with pytest.raises(OverflowError):
                verify_transport_checksum(src, dst, 58, b"\x80\x00\x00\x00")

    def test_detects_rewrite(self):
        a = address.parse("2001:db8::1")
        b = address.parse("2001:db8::2")
        assert address_checksum(a) != address_checksum(b)
