"""Tests for trace reconstruction."""

from repro.addrs import parse
from repro.analysis.traces import Trace, build_traces, path_length_stats, reach_fraction
from repro.packet import icmpv6
from repro.prober.records import ProbeRecord


def te_record(target, ttl, hop):
    return ProbeRecord(
        target=target,
        ttl=ttl,
        hop=hop,
        icmp_type=icmpv6.TYPE_TIME_EXCEEDED,
        icmp_code=0,
        label="time exceeded",
        rtt_us=1000,
        received_at=ttl * 10,
    )


def echo_record(target, ttl):
    return ProbeRecord(
        target=target,
        ttl=ttl,
        hop=target,
        icmp_type=icmpv6.TYPE_ECHO_REPLY,
        icmp_code=0,
        label="echo reply",
        rtt_us=1000,
        received_at=ttl * 10,
    )


TARGET = parse("2001:db8:1:2::1")
HOP_A = parse("2001:db8::a")
HOP_B = parse("2001:db8::b")


class TestTrace:
    def test_hops_assembled_out_of_order(self):
        trace = Trace(TARGET)
        trace.add(te_record(TARGET, 3, HOP_B))
        trace.add(te_record(TARGET, 1, HOP_A))
        assert trace.path == [HOP_A, None, HOP_B]
        assert trace.path_length == 3
        assert not trace.complete

    def test_complete_path(self):
        trace = Trace(TARGET)
        trace.add(te_record(TARGET, 1, HOP_A))
        trace.add(te_record(TARGET, 2, HOP_B))
        assert trace.complete

    def test_duplicate_ttl_keeps_first(self):
        trace = Trace(TARGET)
        trace.add(te_record(TARGET, 1, HOP_A))
        trace.add(te_record(TARGET, 1, HOP_B))
        assert trace.hops[1] == HOP_A

    def test_terminal_recorded(self):
        trace = Trace(TARGET)
        trace.add(echo_record(TARGET, 9))
        assert trace.terminal_label == "echo reply"
        assert trace.terminal_hop == TARGET
        assert trace.reached

    def test_reached_via_ia_hack(self):
        trace = Trace(TARGET)
        gateway = (TARGET & ~((1 << 64) - 1)) | 1  # ::1 in the target /64
        trace.add(te_record(TARGET, 5, HOP_A))
        trace.add(te_record(TARGET, 6, gateway))
        assert trace.reached

    def test_not_reached(self):
        trace = Trace(TARGET)
        trace.add(te_record(TARGET, 5, HOP_A))
        assert not trace.reached

    def test_an_empty_trace_is_not_reached(self):
        assert not Trace(TARGET).reached

    def test_empty_trace(self):
        trace = Trace(TARGET)
        assert trace.path == []
        assert trace.last_hop is None
        assert trace.path_length == 0


class TestBuildTraces:
    def test_groups_by_target(self):
        other = parse("2001:db8:9::1")
        records = [
            te_record(TARGET, 1, HOP_A),
            te_record(other, 1, HOP_A),
            te_record(TARGET, 2, HOP_B),
        ]
        traces = build_traces(records)
        assert set(traces) == {TARGET, other}
        assert traces[TARGET].path_length == 2
        assert traces[other].path_length == 1


class TestStats:
    def test_path_length_stats(self):
        traces = []
        for length in (4, 8, 12):
            trace = Trace(TARGET + length)
            for ttl in range(1, length + 1):
                trace.add(te_record(TARGET + length, ttl, HOP_A + ttl))
            traces.append(trace)
        median, mean, p95 = path_length_stats(traces)
        assert median == 8
        assert mean == 8.0
        assert p95 == 12

    def test_stats_empty(self):
        assert path_length_stats([]) == (0, 0.0, 0)

    def test_reach_fraction(self):
        reached = Trace(TARGET)
        reached.add(echo_record(TARGET, 5))
        unreached = Trace(TARGET + 1)
        unreached.add(te_record(TARGET + 1, 3, HOP_A))
        assert reach_fraction([reached, unreached]) == 0.5

    def test_reach_fraction_empty(self):
        assert reach_fraction([]) == 0.0
