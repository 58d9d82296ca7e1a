"""Behavioural tests for Yarrp6 and the baseline probers (integration
with the simulated internet)."""

import pytest

from repro.netsim import Internet, InternetConfig, build_internet
from repro.prober import (
    PROBERS,
    CampaignSpec,
    DoubletreeConfig,
    SequentialConfig,
    Yarrp6,
    Yarrp6Config,
    run_campaign,
    run_doubletree,
    run_sequential,
    run_yarrp6,
    validate_campaign,
)


@pytest.fixture(scope="module")
def built():
    return build_internet(
        InternetConfig(n_edge=50, cpe_customers_per_isp=300, seed=21)
    )


@pytest.fixture()
def net(built):
    return Internet(built)


@pytest.fixture(scope="module")
def host_targets(built):
    targets = []
    for subnet in built.truth.subnets.values():
        if subnet.host_iids:
            targets.append(subnet.host_addresses()[0])
        if len(targets) >= 150:
            break
    return targets


@pytest.mark.parametrize("kind", list(PROBERS))
class TestProberContract:
    """What ``run_campaign`` relies on, for every row of ``PROBERS``."""

    def test_requires_targets(self, kind):
        with pytest.raises(ValueError, match="no targets"):
            PROBERS[kind](1, [])

    def test_default_config(self, kind):
        cls = PROBERS[kind]
        assert cls(1, [2]).config == cls.Config()

    def test_drain_counts_every_emission(self, kind, net, host_targets):
        prober = PROBERS[kind](net.vantage("US-EDU-1").address, host_targets[:10])
        emitted = 0
        while not prober.exhausted:
            if prober.next_probe(now=emitted) is not None:
                emitted += 1
        assert prober.next_probe(now=emitted) is None
        summary = prober.summary()
        assert emitted == prober.sent == summary["sent"] > 0
        # Every report opens with the emission count and carries the
        # base's response counters in the base's order.
        assert next(iter(summary)) == "sent"
        base = ("sent", "received", "interfaces")
        assert tuple(key for key in summary if key in base) == base
        assert summary["received"] == summary["interfaces"] == 0

    def test_rejects_another_kinds_config(self, kind, net, host_targets):
        net.stats.probes = 7  # reset_dynamics() would replace the stats
        for other in PROBERS:
            if other == kind:
                continue
            wrong = PROBERS[other].Config()
            with pytest.raises(ValueError, match="%s prober takes a" % kind):
                run_campaign(net, "US-EDU-1", host_targets[:5], kind, config=wrong)
        assert net.stats.probes == 7

    def test_a_row_is_all_a_kind_needs(
        self, kind, net, host_targets, monkeypatch, capsys
    ):
        """Adding a row to ``PROBERS`` makes the kind runnable and a
        ``probe --prober`` choice with no other edit."""
        from repro.cli.main import build_parser

        row = "mirror-" + kind
        monkeypatch.setitem(PROBERS, row, PROBERS[kind])
        result = run_campaign(net, "US-EDU-1", host_targets[:5], row, pps=500)
        assert result.prober == row and result.sent > 0
        with pytest.raises(SystemExit):
            build_parser().parse_args(["probe", "--help"])
        assert row in capsys.readouterr().out


class TestConfigCheckedAtConstruction:
    """A config the probe's one-byte fields cannot carry is refused when
    the prober is built — not by whichever byte write trips first, and
    not by a campaign that sends probes it can never match."""

    @pytest.mark.parametrize(
        "kind, config, field",
        [
            ("yarrp6", Yarrp6Config(instance=300), "instance"),
            ("sequential", SequentialConfig(instance=-1), "instance"),
            ("doubletree", DoubletreeConfig(instance=256), "instance"),
            ("sequential", SequentialConfig(max_ttl=0), "bad TTL range"),
            ("sequential", SequentialConfig(max_ttl=300), "bad TTL range"),
            ("doubletree", DoubletreeConfig(max_ttl=300), "bad TTL range"),
            ("doubletree", DoubletreeConfig(start_ttl=0, max_ttl=0), "bad TTL range"),
            ("sequential", SequentialConfig(window=0), "window"),
            ("doubletree", DoubletreeConfig(window=-5), "window"),
            ("yarrp6", Yarrp6Config(fill=True, fill_ceiling=300), "fill_ceiling"),
            ("yarrp6", Yarrp6Config(fill_ceiling=0), "fill_ceiling"),
            ("yarrp6", Yarrp6Config(max_ttl=300), "bad TTL range"),
            ("yarrp6", Yarrp6Config(protocol="sctp"), "protocol"),
            ("sequential", SequentialConfig(protocol="icmp"), "protocol"),
            ("doubletree", DoubletreeConfig(protocol="UDP"), "protocol"),
        ],
    )
    def test_refused_in_one_line_naming_the_field(self, kind, config, field):
        with pytest.raises(ValueError) as refusal:
            PROBERS[kind](1, [2], config)
        message = str(refusal.value)
        assert message.startswith(field) and "\n" not in message

    @pytest.mark.parametrize("max_ttl", [0, 256])
    @pytest.mark.parametrize("kind", ["yarrp6", "sequential", "doubletree"])
    def test_a_ttl_range_is_refused_in_the_campaigns_words(self, kind, max_ttl):
        """One condition, one message: a prober built on the range says
        what ``validate_campaign`` (and so ``probe``) says of it."""
        with pytest.raises(ValueError) as prober:
            PROBERS[kind](1, [2], PROBERS[kind].Config(max_ttl=max_ttl))
        spec = CampaignSpec(
            InternetConfig(), "US-EDU-1", (2,), 1000.0, Yarrp6Config(max_ttl=max_ttl)
        )
        with pytest.raises(ValueError) as campaign:
            validate_campaign(spec)
        assert str(prober.value) == str(campaign.value) == "bad TTL range [1, %d]" % max_ttl

    def test_no_probe_leaves_for_a_config_the_payload_cannot_carry(self, net, host_targets):
        """instance=300 used to send every probe with instance byte 44
        and then match none of the responses against 300."""
        with pytest.raises(ValueError, match="instance"):
            run_yarrp6(net, "US-EDU-1", host_targets[:5], instance=300)
        with pytest.raises(ValueError, match="bad TTL range"):
            run_sequential(net, "US-EDU-1", host_targets[:5], max_ttl=0)
        assert net.stats.probes == 0

    def test_the_edges_of_each_range_construct(self):
        Yarrp6(1, [2], Yarrp6Config(instance=0, max_ttl=255, fill=True, fill_ceiling=255))
        PROBERS["sequential"](1, [2], SequentialConfig(instance=255, max_ttl=1, window=1))
        PROBERS["doubletree"](1, [2], DoubletreeConfig(start_ttl=255, max_ttl=255))

    def test_a_fill_ceiling_below_max_ttl_never_fills(self, net, host_targets):
        result = run_yarrp6(
            net, "US-EDU-1", host_targets[:40], pps=500, max_ttl=8, fill=True, fill_ceiling=4
        )
        assert result.sent == 40 * 8
        assert result.summary["fills"] == result.summary["fills_unsent"] == 0


class TestYarrp6Unit:
    def test_emission_count(self, net, host_targets):
        vantage = net.vantage("US-EDU-1")
        prober = Yarrp6(vantage.address, host_targets[:10], Yarrp6Config(max_ttl=4))
        packets = []
        while True:
            packet = prober.next_probe(now=len(packets))
            if packet is None:
                break
            packets.append(packet)
        assert len(packets) == 10 * 4
        assert prober.sent == 40
        assert prober.exhausted

    def test_stateless_no_per_target_storage(self, net, host_targets):
        """The prober must not grow per-target state while emitting."""
        vantage = net.vantage("US-EDU-1")
        prober = Yarrp6(vantage.address, host_targets[:50], Yarrp6Config(max_ttl=8))
        for _ in range(200):
            prober.next_probe(0)
        assert not prober._fill_queue
        # Its only cursor state is the walk position.
        assert prober._cursor == 200


class TestYarrp6Campaign:
    def test_discovers_interfaces(self, net, host_targets):
        result = run_yarrp6(net, "US-EDU-1", host_targets, pps=500, max_ttl=16)
        assert result.sent == len(host_targets) * 16
        assert len(result.interfaces) > 20
        assert result.response_labels.get("time exceeded", 0) > 0

    def test_interfaces_are_real(self, net, built, host_targets):
        """Every discovered interface is a genuine router interface."""
        result = run_yarrp6(net, "US-EDU-1", host_targets, pps=500, max_ttl=16)
        for interface in result.interfaces:
            assert interface in built.truth.router_addresses

    def test_curve_monotone(self, net, host_targets):
        result = run_yarrp6(net, "US-EDU-1", host_targets, pps=500, max_ttl=16)
        sent_values = [sent for sent, _ in result.curve]
        unique_values = [unique for _, unique in result.curve]
        assert sent_values == sorted(sent_values)
        assert unique_values == list(range(1, len(unique_values) + 1))

    def test_rtt_reasonable(self, net, host_targets):
        result = run_yarrp6(net, "US-EDU-1", host_targets[:40], pps=200, max_ttl=8)
        for record in result.records:
            assert 0 < record.rtt_us < 1_000_000

    def test_deterministic_given_seed(self, built, host_targets):
        first = run_yarrp6(Internet(built), "US-EDU-1", host_targets[:50], pps=500)
        second = run_yarrp6(Internet(built), "US-EDU-1", host_targets[:50], pps=500)
        assert first.interfaces == second.interfaces
        assert first.sent == second.sent


class TestFillMode:
    def test_fill_extends_paths(self, net, host_targets):
        """With max TTL below path length, fill mode recovers the missing
        tail hops."""
        short = run_yarrp6(net, "US-EDU-1", host_targets, pps=500, max_ttl=8)
        net.reset_dynamics()
        filled = run_yarrp6(
            net, "US-EDU-1", host_targets, pps=500, max_ttl=8, fill=True
        )
        assert filled.summary["fills"] > 0
        assert len(filled.interfaces) > len(short.interfaces)
        deepest_short = max(record.ttl for record in short.records)
        deepest_filled = max(record.ttl for record in filled.records)
        assert deepest_short <= 8 < deepest_filled

    def test_fills_queued_after_the_last_slot_are_counted(
        self, built, host_targets, monkeypatch
    ):
        """The campaign ends at the first emission that leaves the prober
        exhausted; a Time Exceeded still in flight then asks for a fill
        nothing will send — queued by its delivery on the per-event
        path, kept in flight on the batched one.  ``fills_unsent`` says
        how many, the same on both."""
        made = []

        class Kept(Yarrp6):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setitem(PROBERS, "kept", Kept)
        config = Yarrp6Config(max_ttl=4, fill=True)
        per_event, batched = (
            run_campaign(
                Internet(built), "US-EDU-1", host_targets, "kept", 2000, config, batch=batch
            )
            for batch in (0, None)
        )
        queued, in_flight = made
        assert per_event.summary["fills_unsent"] == len(queued._fill_queue) > 0
        assert not queued._in_flight
        assert batched.summary["fills_unsent"] == len(in_flight._in_flight)
        assert not in_flight._fill_queue
        assert batched.summary == per_event.summary
        assert per_event.sent == len(host_targets) * 4 + per_event.summary["fills"]

    def test_a_pure_walk_leaves_no_fill_unsent(self, net, host_targets):
        result = run_yarrp6(net, "US-EDU-1", host_targets[:40], pps=500, max_ttl=8)
        assert result.summary["fills"] == result.summary["fills_unsent"] == 0

    def test_fill_ceiling_respected(self, net, host_targets):
        result = run_yarrp6(
            net,
            "US-EDU-1",
            host_targets[:60],
            pps=500,
            max_ttl=4,
            fill=True,
            fill_ceiling=6,
        )
        assert max(record.ttl for record in result.records) <= 6

    def test_fills_stop_at_silent_hop(self, net, built):
        """A non-responsive hop past max TTL ends the fill chain (the
        Table 6 effect: maxTTL=4 yields few fills when hop five is dark)."""
        # Use unrouted targets: the error terminal means no TE past the
        # transit hops, so fills cannot run away.
        targets = [0x3FFF << 112 | index for index in range(30)]
        result = run_yarrp6(
            net, "US-EDU-1", targets, pps=500, max_ttl=4, fill=True, fill_ceiling=32
        )
        assert result.summary["fills"] <= result.sent


class TestNeighborhood:
    def test_neighborhood_skips_probes(self, net, host_targets):
        plain = run_yarrp6(net, "US-EDU-1", host_targets, pps=2000, max_ttl=16)
        net.reset_dynamics()
        neighborly = run_yarrp6(
            net,
            "US-EDU-1",
            host_targets,
            pps=2000,
            max_ttl=16,
            neighborhood_ttl=3,
            neighborhood_window_us=200_000,
        )
        assert neighborly.summary["skipped"] > 0
        assert neighborly.sent < plain.sent
        # The savings barely cost discovery: near hops are few.
        assert len(neighborly.interfaces) >= len(plain.interfaces) * 0.9


class TestSequential:
    def test_gap_limit_stops_dead_traces(self, net):
        """Traces into silent space stop after the gap limit instead of
        burning the full TTL range."""
        # Admin-filtered or unrouted targets go quiet past the transit.
        targets = [0x3FFF << 112 | index for index in range(40)]
        result = run_sequential(
            net, "US-EDU-1", targets, pps=500,
            config=None,
        )
        assert result.sent < 40 * 16

    def test_terminal_response_stops_trace(self, net, host_targets):
        result = run_sequential(net, "US-EDU-1", host_targets[:50], pps=200)
        assert result.summary["completed_traces"] > 0


class TestRateLimitContrast:
    def test_yarrp_beats_sequential_at_speed(self, built):
        """Figure 5's core claim: at high rates, randomized probing keeps
        first-hop responsiveness where sequential probing collapses."""
        targets = []
        for subnet in built.truth.subnets.values():
            targets.append(subnet.prefix.base | 0x1234)
            if len(targets) >= 400:
                break

        def hop1_fraction(result):
            responded = {
                record.target for record in result.records if record.ttl == 1
            }
            return len(responded) / len(targets)

        fast_net = Internet(built)
        yarrp_fast = run_yarrp6(fast_net, "US-EDU-1", targets, pps=2000)
        seq_fast = run_sequential(fast_net, "US-EDU-1", targets, pps=2000)
        yarrp_slow = run_yarrp6(fast_net, "US-EDU-1", targets, pps=20)
        assert hop1_fraction(yarrp_fast) > 0.9
        assert hop1_fraction(seq_fast) < 0.6
        assert hop1_fraction(yarrp_slow) > 0.9


class TestDoubletree:
    def test_backward_and_forward(self, net, host_targets):
        result = run_doubletree(
            net, "US-EDU-1", host_targets[:80], pps=500,
            config=DoubletreeConfig(start_ttl=8, max_ttl=16),
        )
        ttls = {record.ttl for record in result.records}
        assert min(ttls) < 8 <= max(ttls)

    def test_fewer_probes_than_sequential(self, net, host_targets):
        """Doubletree's stop sets save probes relative to full sweeps."""
        doubletree = run_doubletree(net, "US-EDU-1", host_targets, pps=500)
        net.reset_dynamics()
        assert doubletree.sent < len(host_targets) * 16

    def test_start_ttl_validation(self):
        from repro.prober.doubletree import DoubletreeProber

        with pytest.raises(ValueError):
            DoubletreeProber(1, [2], DoubletreeConfig(start_ttl=20, max_ttl=16))

    def test_backward_probing_continues_through_silence(self, built):
        """The paper's pathology: rate-limited (silent) near hops never
        satisfy the backward stop rule, so Doubletree keeps probing them."""
        targets = []
        for subnet in built.truth.subnets.values():
            targets.append(subnet.prefix.base | 0x1234)
            if len(targets) >= 300:
                break
        net = Internet(built)
        result = run_doubletree(
            net, "US-EDU-1", targets, pps=2000,
            config=DoubletreeConfig(start_ttl=8, max_ttl=16, window=300),
        )
        # TTL=1 probes were sent for the vast majority of traces: the
        # stop set cannot trigger when the drained hop stays silent.
        ttl1_probes = result.summary["sent"]
        backward_records = [r for r in result.records if r.ttl < 8]
        assert ttl1_probes > len(targets) * 8  # backward walks ran long


class TestCampaignRunner:
    def test_unknown_prober(self, net, host_targets):
        with pytest.raises(ValueError):
            run_campaign(net, "US-EDU-1", host_targets[:5], prober="warts")

    def test_config_must_match_prober_kind(self, net, host_targets):
        with pytest.raises(ValueError) as refusal:
            run_campaign(
                net, "US-EDU-1", host_targets[:5], "sequential",
                config=Yarrp6Config(),
            )
        assert str(refusal.value) == (
            "sequential prober takes a SequentialConfig, got Yarrp6Config"
        )

    def test_result_metadata(self, net, host_targets):
        result = run_yarrp6(net, "EU-NET", host_targets[:20], pps=100, max_ttl=4)
        assert result.vantage == "EU-NET"
        assert result.prober == "yarrp6"
        assert result.pps == 100
        assert result.targets == 20
        assert result.duration_us > 0
        assert 0 <= result.yield_per_probe <= 1
