"""Tests for IID classification (addr6-style)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.addrs import address
from repro.addrs.iid import (
    IIDClass,
    classify_address,
    classify_iid,
    classify_set,
    eui64_mac,
    eui64_oui,
    make_eui64_iid,
)

macs = st.tuples(*[st.integers(min_value=0, max_value=255) for _ in range(6)])


class TestClassify:
    def test_lowbyte_one(self):
        assert classify_address(address.parse("2001:db8::1")) is IIDClass.LOWBYTE

    def test_lowbyte_zero(self):
        assert classify_address(address.parse("2001:db8::")) is IIDClass.LOWBYTE

    def test_lowbyte_two_bytes(self):
        assert classify_iid(0xFFFF) is IIDClass.LOWBYTE

    def test_not_lowbyte_past_16_bits(self):
        assert classify_iid(0x1_0000) is not IIDClass.LOWBYTE

    def test_eui64(self):
        value = address.parse("2001:db8::0211:22ff:fe33:4455")
        assert classify_address(value) is IIDClass.EUI64

    def test_eui64_marker_position_matters(self):
        # ff:fe elsewhere is not EUI-64.
        assert classify_iid(0xFFFE_0000_0000_0000) is not IIDClass.EUI64

    def test_randomized(self):
        value = address.parse("2001:db8::3d2c:91ab:77e0:1f5a")
        assert classify_address(value) is IIDClass.RANDOMIZED

    def test_embedded_ipv4_hex(self):
        assert classify_iid(0xC0A80001) is IIDClass.EMBEDDED_IPV4

    def test_embedded_ipv4_bcd(self):
        value = address.parse("2001:db8::192:168:0:100")
        assert classify_address(value) is IIDClass.EMBEDDED_IPV4

    def test_fixed_iid_randomized(self):
        # The paper's fixed pseudo-random IID must classify as randomized.
        value = address.with_iid(address.parse("2001:db8::"), address.FIXED_IID)
        assert classify_address(value) is IIDClass.RANDOMIZED

    @given(macs)
    def test_forged_eui64_classifies(self, mac):
        assert classify_iid(make_eui64_iid(mac)) is IIDClass.EUI64


class TestEui64RoundTrip:
    @given(macs)
    def test_mac_round_trip(self, mac):
        assert eui64_mac(make_eui64_iid(mac)) == mac

    @given(macs)
    def test_oui(self, mac):
        expected = (mac[0] << 16) | (mac[1] << 8) | mac[2]
        assert eui64_oui(make_eui64_iid(mac)) == expected

    def test_mac_rejects_non_eui64(self):
        with pytest.raises(ValueError):
            eui64_mac(1)

    def test_make_rejects_bad_mac(self):
        with pytest.raises(ValueError):
            make_eui64_iid((1, 2, 3))
        with pytest.raises(ValueError):
            make_eui64_iid((256, 0, 0, 0, 0, 0))


class TestSetClassification:
    def test_counts(self):
        values = [
            address.parse("2001:db8::1"),
            address.parse("2001:db8::2"),
            address.parse("2001:db8::0211:22ff:fe33:4455"),
            address.parse("2001:db8::3d2c:91ab:77e0:1f5a"),
        ]
        counts = classify_set(values)
        assert counts[IIDClass.LOWBYTE] == 2
        assert counts[IIDClass.EUI64] == 1
        assert counts[IIDClass.RANDOMIZED] == 1
