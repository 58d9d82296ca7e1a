"""Tests for the .yrp6 campaign output format."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addrs.address import MAX_ADDRESS
from repro.packet import icmpv6
from repro.prober.campaign import CampaignResult
from repro.prober.output import (
    FORMAT_VERSION,
    OutputError,
    dumps,
    load_campaign,
    loads,
    read_records,
    save_campaign,
    write_records,
)
from repro.prober.records import ProbeRecord


def record(target=1, ttl=3, hop=2, icmp_type=icmpv6.TYPE_TIME_EXCEEDED, code=0, modified=False):
    return ProbeRecord(
        target=target,
        ttl=ttl,
        hop=hop,
        icmp_type=icmp_type,
        icmp_code=code,
        label="x",
        rtt_us=1500,
        received_at=42,
        target_modified=modified,
    )


def campaign(records):
    return CampaignResult(
        name="test",
        vantage="EU-NET",
        prober="yarrp6",
        pps=1000,
        targets=10,
        sent=160,
        records=records,
        interfaces={r.hop for r in records},
        curve=[],
        response_labels={},
        summary={},
        duration_us=999,
    )


class TestRoundTrip:
    def test_simple(self):
        text = dumps(campaign([record(), record(target=5, ttl=7, hop=9)]))
        loaded = loads(text)
        assert len(loaded.records) == 2
        assert loaded.metadata["vantage"] == "EU-NET"
        assert loaded.metadata["pps"] == "1000"
        assert loaded.skipped_rows == 0
        first = loaded.records[0]
        assert (first.target, first.ttl, first.hop) == (1, 3, 2)
        assert first.rtt_us == 1500
        assert first.received_at == 42

    def test_modified_flag(self):
        loaded = loads(dumps(campaign([record(modified=True), record()])))
        assert loaded.records[0].target_modified
        assert not loaded.records[1].target_modified

    def test_labels_reconstructed(self):
        records = [
            record(icmp_type=icmpv6.TYPE_TIME_EXCEEDED, code=0),
            record(icmp_type=icmpv6.TYPE_DEST_UNREACH, code=4),
            record(icmp_type=icmpv6.TYPE_ECHO_REPLY, code=0),
        ]
        loaded = loads(dumps(campaign(records)))
        assert loaded.records[0].label == "time exceeded"
        assert loaded.records[1].label == "port unreachable"
        assert loaded.records[2].label == "echo reply"

    def test_interfaces_property(self):
        records = [
            record(hop=10),
            record(hop=11, icmp_type=icmpv6.TYPE_ECHO_REPLY),
        ]
        loaded = loads(dumps(campaign(records)))
        assert loaded.interfaces == {10}

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=MAX_ADDRESS),
                st.integers(min_value=1, max_value=255),
                st.integers(min_value=0, max_value=MAX_ADDRESS),
                st.booleans(),
            ),
            max_size=20,
        )
    )
    def test_property_round_trip(self, rows):
        records = [
            record(target=target, ttl=ttl, hop=hop, modified=modified)
            for target, ttl, hop, modified in rows
        ]
        loaded = loads(dumps(campaign(records)))
        assert len(loaded.records) == len(records)
        for original, parsed in zip(records, loaded.records):
            assert parsed.target == original.target
            assert parsed.ttl == original.ttl
            assert parsed.hop == original.hop
            assert parsed.target_modified == original.target_modified

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                # Tiny pools: targets and hops repeat on most rows, so the
                # codec's per-call address memo answers nearly all of them.
                st.sampled_from([0, 1, 0x20010DB8 << 96, MAX_ADDRESS]),
                st.integers(min_value=1, max_value=255),
                st.sampled_from([0, 2, (0x20010DB8 << 96) | 0xFFFF, MAX_ADDRESS]),
                st.sampled_from(
                    [
                        (icmpv6.TYPE_TIME_EXCEEDED, 0),
                        (icmpv6.TYPE_DEST_UNREACH, 4),
                        (icmpv6.TYPE_ECHO_REPLY, 0),
                    ]
                ),
                st.booleans(),
            ),
            max_size=60,
        )
    )
    def test_property_round_trip_with_repeated_addresses(self, rows):
        records = [
            record(target=target, ttl=ttl, hop=hop, icmp_type=kind, code=code, modified=modified)
            for target, ttl, hop, (kind, code), modified in rows
        ]
        for one in records:
            one.label = icmpv6.classify_response(
                icmpv6.ICMPv6Message(one.icmp_type, one.icmp_code)
            )

        def fields(items):
            return [
                tuple(getattr(item, name) for name in ProbeRecord.__slots__)
                for item in items
            ]

        text = dumps(campaign(records))
        loaded = loads(text)
        assert fields(loaded.records) == fields(records)
        assert dumps(campaign(loaded.records)) == text


class TestRobustness:
    def test_rejects_non_yrp6(self):
        with pytest.raises(OutputError):
            loads("hello world\n")

    def test_skips_malformed_rows(self):
        text = dumps(campaign([record()]))
        text += "not\ta\tvalid\trow\n"
        text += "::1\tnot_an_int\t3\t0\t1\t::2\t5\t-\n"
        loaded = loads(text)
        assert len(loaded.records) == 1
        assert loaded.skipped_rows == 2

    def test_repeated_malformed_address_is_counted_on_every_row(self):
        """A text that fails validation is never remembered as parsed."""
        bad = "2001:db8::zz\t42\t3\t0\t3\t::2\t1500\t-\n"
        as_hop = "::1\t42\t3\t0\t3\t2001:db8::zz\t1500\t-\n"
        loaded = loads(dumps(campaign([record()])) + bad + as_hop + bad)
        assert len(loaded.records) == 1
        assert loaded.skipped_rows == 3

    def test_blank_lines_skipped(self):
        text = dumps(campaign([record()])) + "\n\n"
        assert len(loads(text).records) == 1

    def test_multiline_metadata_rejected(self):
        buffer = io.StringIO()
        with pytest.raises(OutputError):
            write_records(buffer, [], metadata={"bad": "a\nb"})

    def test_multiline_metadata_key_rejected(self):
        # A newline in the *key* would also break the line-oriented header
        # (regression: only values used to be validated).
        buffer = io.StringIO()
        with pytest.raises(OutputError):
            write_records(buffer, [], metadata={"a\nb": "fine"})
        assert buffer.getvalue().count("\n") <= 1  # nothing partial written

    def test_unknown_metadata_preserved(self):
        text = "# %s\n# custom-key: custom-value\n" % FORMAT_VERSION
        loaded = loads(text)
        assert loaded.metadata["custom-key"] == "custom-value"


class TestFileIO:
    def test_save_load(self, tmp_path):
        path = str(tmp_path / "campaign.yrp6")
        written = save_campaign(path, campaign([record(), record(target=2)]))
        assert written == 2
        loaded = load_campaign(path)
        assert len(loaded.records) == 2
        assert loaded.metadata["name"] == "test"
