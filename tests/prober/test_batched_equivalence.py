"""The columnar fast path is bit-identical to the scalar reference.

Every layer of the batched campaign loop claims exact equivalence with
the per-event implementation it replaces:

* ``KeyedPermutation.images`` (numpy-vectorized Feistel) vs
  ``images_scalar`` (the pure-Python reference);
* ``ProbeTemplate.encode_into`` (preallocated buffer, incremental field
  patching) vs ``encode_probe`` (full per-probe assembly);
* ``Yarrp6.next_probes`` (batched pull) vs ``next_probe`` (one at a
  time);
* ``run_campaign(batch=N)`` (block emission, analytic sent-counter
  reconstruction, fills released from what ``answer`` returned) vs
  ``run_campaign(batch=0)`` (the per-probe loop, fills queued by
  ``receive``), for pure walks and fill mode alike.

This suite pins each claim differentially — same seeds, same worlds,
both implementations, byte equality — including the block-boundary and
final-partial-block edges where off-by-one bugs would live.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.prober.yarrp6 as yarrp6_module
from repro.netsim import Internet, InternetConfig, build_internet, decoupled_dynamics
from repro.obs import dump_to_json
from repro.packet import icmpv6
from repro.prober.campaign import DEFAULT_BATCH, run_campaign
from repro.prober.encoding import (
    PROTOCOLS,
    ProbeTemplate,
    decode_at,
    decode_quotation,
    encode_probe,
)
from repro.prober.output import dumps
from repro.prober.permutation import _VECTOR_MIN, KeyedPermutation
from repro.prober.yarrp6 import Yarrp6, Yarrp6Config
from repro.obs.metrics import MetricsRegistry

SRC = 0x20010DB8000000690000000000000001
TARGET = 0x20010DB8444400000000000000000042


_WORLDS = {}


def tiny_world(seed):
    """A small decoupled world plus its leaf-host targets, cached."""
    if seed not in _WORLDS:
        config = decoupled_dynamics(
            InternetConfig(
                seed=seed,
                n_edge=6,
                n_tier2=3,
                n_cpe_isps=1,
                cpe_customers_per_isp=12,
            )
        )
        built = build_internet(config)
        targets = tuple(
            subnet.prefix.base | 1 for subnet in built.truth.subnets.values()
        )
        _WORLDS[seed] = (config, targets)
    return _WORLDS[seed]


def record_key(record):
    return (
        record.target,
        record.ttl,
        record.hop,
        record.icmp_type,
        record.icmp_code,
        record.label,
        record.rtt_us,
        record.received_at,
        record.target_modified,
    )


class TestVectorizedPermutation:
    """numpy-columnar Feistel == pure-Python Feistel, value for value."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=20_000),
        key=st.integers(min_value=0, max_value=2**64),
        data=st.data(),
    )
    def test_vector_equals_scalar(self, n, key, data):
        perm = KeyedPermutation(n, key)
        start = data.draw(st.integers(min_value=0, max_value=n - 1))
        count = data.draw(st.integers(min_value=0, max_value=n - start))
        indices = range(start, start + count)
        assert perm.images(indices) == perm.images_scalar(indices)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=64, max_value=8192),
        key=st.integers(min_value=0, max_value=2**64),
        stride=st.integers(min_value=2, max_value=7),
    )
    def test_strided_ranges(self, n, key, stride):
        """Sharded walks feed strided ranges through the same path."""
        perm = KeyedPermutation(n, key)
        indices = range(1 % n, n, stride)
        assert perm.images(indices) == perm.images_scalar(indices)

    def test_vector_path_actually_engages(self):
        """Guard against silently always falling back: when numpy is
        present the range dispatch must reach the vector kernel."""
        numpy = pytest.importorskip("numpy")
        del numpy
        perm = KeyedPermutation(10_000, 7)
        calls = []
        original = perm._images_vector

        def spy(indices):
            calls.append(indices)
            return original(indices)

        perm._images_vector = spy
        perm.images(range(0, 4 * _VECTOR_MIN))
        assert calls

    def test_small_blocks_take_scalar_path(self):
        perm = KeyedPermutation(10_000, 7)
        perm._images_vector = None  # would raise if dispatched to
        short = range(0, _VECTOR_MIN - 1)
        assert perm.images(short) == perm.images_scalar(short)

    def test_non_range_iterables_take_scalar_path(self):
        perm = KeyedPermutation(1000, 3)
        indices = [5, 999, 0, 17, 17] * 20
        assert perm.images(indices) == perm.images_scalar(indices)

    def test_scalar_matches_getitem(self):
        perm = KeyedPermutation(777, 11)
        assert perm.images_scalar(range(777)) == [perm[i] for i in range(777)]


class TestTemplateEncoding:
    """Template patching produces the exact bytes of full assembly."""

    @settings(max_examples=60, deadline=None)
    @given(
        protocol=st.sampled_from(sorted(PROTOCOLS)),
        target=st.one_of(
            st.integers(min_value=0, max_value=2**128 - 1),
            st.sampled_from([0, 1, 2**128 - 1, 0xFFFF << 64, TARGET]),
        ),
        ttl=st.integers(min_value=1, max_value=255),
        elapsed=st.integers(min_value=0, max_value=2**32 - 1),
        instance=st.integers(min_value=0, max_value=255),
    )
    def test_encode_into_equals_encode_probe(
        self, protocol, target, ttl, elapsed, instance
    ):
        template = ProbeTemplate(SRC, instance=instance, protocol=protocol)
        buffer = template.new_buffer()
        template.encode_into(buffer, target, ttl, elapsed)
        reference = encode_probe(
            SRC, target, ttl, elapsed, instance=instance, protocol=protocol
        )
        assert bytes(buffer) == reference

    def test_buffer_reuse_leaves_no_residue(self):
        """Patching the same buffer for wildly different targets must not
        leak state from earlier probes."""
        template = ProbeTemplate(SRC)
        buffer = template.new_buffer()
        probes = [
            (2**128 - 1, 255, 2**32 - 1),
            (0, 1, 0),
            (TARGET, 16, 123456),
            (1, 200, 999),
        ]
        for target, ttl, elapsed in probes:
            template.encode_into(buffer, target, ttl, elapsed)
            assert bytes(buffer) == encode_probe(SRC, target, ttl, elapsed)

    @settings(max_examples=30, deadline=None)
    @given(
        protocol=st.sampled_from(sorted(PROTOCOLS)),
        target=st.integers(min_value=0, max_value=2**128 - 1),
        ttl=st.integers(min_value=1, max_value=255),
        elapsed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_round_trips_through_decoder(self, protocol, target, ttl, elapsed):
        """The patched probe must decode back to its own walk state when
        quoted in an ICMPv6 error, exactly like an assembled probe."""
        template = ProbeTemplate(SRC, protocol=protocol)
        buffer = template.new_buffer()
        template.encode_into(buffer, target, ttl, elapsed)
        state = decode_quotation(bytes(buffer), instance=1)
        assert state.target == target
        assert state.ttl == ttl
        assert state.elapsed == elapsed


def silent_hold(held):
    raise AssertionError("a silent network has no reply to hold: %r" % (held,))


def pull(prober, times):
    """``prober.next_probes(times, answer, hold)`` on a silent network:
    the ``(send_time, packet)`` pairs it handed to ``answer``, in order."""
    emitted = []

    def answer(packet, when):
        emitted.append((when, packet))

    count = prober.next_probes(times, answer, silent_hold)
    assert count == len(emitted)
    return emitted


class TestBatchedPullLoop:
    """next_probes == repeated next_probe at the same virtual times."""

    def walk_scalar(self, prober, times):
        out = []
        for when in times:
            packet = prober.next_probe(when)
            if packet is None:
                break
            out.append((when, packet))
        return out

    @settings(max_examples=25, deadline=None)
    @given(
        n_targets=st.integers(min_value=1, max_value=40),
        max_ttl=st.integers(min_value=1, max_value=12),
        key=st.integers(min_value=0, max_value=2**64),
        chunks=st.lists(
            st.integers(min_value=1, max_value=70), min_size=1, max_size=6
        ),
    )
    def test_chunked_pull_equals_scalar_pull(self, n_targets, max_ttl, key, chunks):
        """Pulling the walk in arbitrary chunk sizes — including chunks
        that straddle the schedule's internal 256-pair blocks and a final
        partial chunk past exhaustion — yields the scalar byte stream."""
        targets = [TARGET + 7919 * index for index in range(n_targets)]
        config = Yarrp6Config(max_ttl=max_ttl, key=key)
        batched = Yarrp6(SRC, targets, config)
        scalar = Yarrp6(SRC, targets, config)

        clock = 0
        collected = []
        for chunk in chunks:
            times = [clock + 1000 * step for step in range(chunk)]
            collected.extend(pull(batched, times))
            clock += 1000 * chunk
        reference = self.walk_scalar(
            scalar, [1000 * step for step in range(sum(chunks))]
        )
        assert collected == reference
        assert batched.sent == scalar.sent

    def test_exhaustion_returns_short_then_empty(self):
        targets = [TARGET, TARGET + 1]
        prober = Yarrp6(SRC, targets, Yarrp6Config(max_ttl=3))
        total = len(prober.schedule)
        emissions = pull(prober, list(range(0, 10 * (total + 5), 10)))
        assert len(emissions) == total
        assert pull(prober, [0, 1, 2]) == []
        assert prober.exhausted

    def test_mixing_scalar_and_batched_pulls(self):
        """A walk may be drained through both APIs interchangeably."""
        targets = [TARGET + index for index in range(9)]
        config = Yarrp6Config(max_ttl=5, key=99)
        mixed = Yarrp6(SRC, targets, config)
        scalar = Yarrp6(SRC, targets, config)
        times = list(range(0, 45 * 100, 100))
        stream = []
        cursor = 0
        for batch in (3, 0, 7, 1, 0, 50):
            if batch == 0:
                packet = mixed.next_probe(times[cursor])
                if packet is not None:
                    stream.append((times[cursor], packet))
                    cursor += 1
            else:
                got = pull(mixed, times[cursor : cursor + batch])
                stream.extend(got)
                cursor += len(got)
        assert stream == self.walk_scalar(scalar, times)

    def test_a_silent_network_leaves_fill_mode_a_walk(self):
        """With no response there is nothing to fill: a fill-mode pull
        is the walk, and nothing is left in flight."""
        targets = [TARGET + index for index in range(9)]
        filling = Yarrp6(SRC, targets, Yarrp6Config(max_ttl=5, fill=True))
        scalar = Yarrp6(SRC, targets, Yarrp6Config(max_ttl=5))
        assert not scalar.config.fill_ttls and filling.config.fill_ttls
        # A ceiling at or below max TTL leaves the fill range empty.
        assert not Yarrp6Config(max_ttl=5, fill=True, fill_ceiling=5).fill_ttls
        times = list(range(0, 50 * 100, 100))
        assert pull(filling, times) == self.walk_scalar(scalar, times)
        assert filling.summary()["fills"] == filling.summary()["fills_unsent"] == 0

    @pytest.mark.parametrize("fill", [False, True])
    def test_rejects_neighborhood_mode(self, fill):
        prober = Yarrp6(SRC, [TARGET], Yarrp6Config(neighborhood_ttl=4, fill=fill))
        assert prober.config.fill_ttls or prober.config.neighborhood_ttl is not None
        with pytest.raises(ValueError, match="neighborhood"):
            prober.next_probes([0], lambda packet, when: None, silent_hold)
        assert prober.sent == 0


def run_pair(
    seed, pps, batch, n_targets=None, key=0xF00D, max_ttl=8, offset=0, stride=1, **options
):
    """One campaign through the reference path and one through the
    columnar path, on identical worlds; ``options`` are further
    ``Yarrp6Config`` fields (``fill``, ``fill_ceiling``)."""
    config, targets = tiny_world(seed)
    targets = list(targets if n_targets is None else targets[:n_targets])
    results = []
    for batch_size in (0, batch):
        results.append(
            run_campaign(
                Internet.from_config(config),
                "US-EDU-1",
                targets,
                pps=pps,
                config=Yarrp6Config(max_ttl=max_ttl, key=key, **options),
                metrics=MetricsRegistry(),
                batch=batch_size,
                pace_offset_us=offset,
                pace_stride=stride,
            )
        )
    return results


def assert_equivalent(reference, batched):
    assert dumps(batched) == dumps(reference)
    assert [record_key(r) for r in batched.records] == [
        record_key(r) for r in reference.records
    ]
    assert batched.sent == reference.sent
    assert batched.interfaces == reference.interfaces
    assert batched.curve == reference.curve
    assert batched.summary == reference.summary
    assert batched.response_labels == reference.response_labels
    assert batched.duration_us == reference.duration_us
    assert dump_to_json(batched.metrics) == dump_to_json(reference.metrics)


class TestBatchedCampaignEquivalence:
    """The acceptance criterion: batched == scalar, bytes for bytes,
    telemetry included."""

    @pytest.mark.parametrize("batch", [1, 2, DEFAULT_BATCH, 10**6])
    def test_batch_sizes(self, batch):
        reference, batched = run_pair(seed=7, pps=1000.0, batch=batch)
        assert_equivalent(reference, batched)

    def test_block_boundary_exact_division(self):
        """Walk length an exact multiple of the batch: the final block is
        full and the loop must still terminate on the last emission."""
        config, targets = tiny_world(7)
        n_targets = 6
        max_ttl = 8  # 6 targets x 8 TTLs = 48 emissions
        total = n_targets * max_ttl
        for batch in (total, total // 2, total // 4):
            assert total % batch == 0
            reference, batched = run_pair(
                seed=7, pps=1000.0, batch=batch, n_targets=n_targets, max_ttl=max_ttl
            )
            assert_equivalent(reference, batched)

    def test_final_partial_block(self):
        """Walk length one past a block boundary: the last block carries
        a single emission."""
        reference, batched = run_pair(
            seed=7, pps=1000.0, batch=47, n_targets=6, max_ttl=8
        )
        assert_equivalent(reference, batched)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.sampled_from([7, 21]),
        pps=st.sampled_from([250.0, 1000.0, 3333.0, 100_000.0]),
        batch=st.integers(min_value=1, max_value=200),
        n_targets=st.integers(min_value=1, max_value=25),
        key=st.integers(min_value=0, max_value=2**64),
    )
    def test_equivalence_property(self, seed, pps, batch, n_targets, key):
        reference, batched = run_pair(
            seed=seed, pps=pps, batch=batch, n_targets=n_targets, key=key
        )
        assert_equivalent(reference, batched)

    def test_non_pure_walk_falls_back(self, monkeypatch):
        """Neighborhood mode must take the per-probe path even when a
        batch size is requested — never the batched pull, as at
        ``batch=0`` — and skip probes as usual."""

        def pulled(*args):
            raise AssertionError("neighborhood mode reached the batched pull")

        monkeypatch.setattr(Yarrp6, "next_probes", pulled)
        config, targets = tiny_world(7)
        results = []
        for batch in (0, DEFAULT_BATCH):
            results.append(
                run_campaign(
                    Internet.from_config(config),
                    "US-EDU-1",
                    list(targets),
                    pps=1000.0,
                    config=Yarrp6Config(
                        max_ttl=6, neighborhood_ttl=3, neighborhood_window_us=20_000
                    ),
                    metrics=MetricsRegistry(),
                    batch=batch,
                )
            )
        reference, fallback = results
        assert reference.summary["skipped"] > 0
        assert_equivalent(reference, fallback)

    def test_negative_batch_rejected(self):
        config, targets = tiny_world(7)
        with pytest.raises(ValueError):
            run_campaign(
                Internet.from_config(config),
                "US-EDU-1",
                list(targets[:2]),
                batch=-1,
            )


class TestFillModeEquivalence:
    """Fill mode on the columnar path: every fill predicted from what
    ``answer`` returned joins the queue at the slot the per-event loop's
    delivery would have queued it for, so the two paths emit the same
    stream — fills, ``fills_unsent`` and all."""

    @pytest.mark.parametrize("batch", [1, 2, 7, DEFAULT_BATCH, 10**6])
    def test_batch_sizes(self, batch):
        reference, batched = run_pair(
            seed=7, pps=1000.0, batch=batch, max_ttl=4, fill=True, fill_ceiling=12
        )
        assert reference.summary["fills"] > 100
        assert reference.summary["fills_unsent"] > 0
        assert_equivalent(reference, batched)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.sampled_from([7, 21, 5]),
        pps=st.sampled_from([100.0, 1000.0, 3333.0, 20_000.0, 100_000.0]),
        max_ttl=st.integers(min_value=1, max_value=10),
        fill_ceiling=st.integers(min_value=1, max_value=20),
        offset=st.integers(min_value=0, max_value=5000),
        stride=st.integers(min_value=1, max_value=4),
        batch=st.integers(min_value=1, max_value=300),
        n_targets=st.integers(min_value=1, max_value=60),
    )
    def test_equivalence_property(
        self, seed, pps, max_ttl, fill_ceiling, offset, stride, batch, n_targets
    ):
        reference, batched = run_pair(
            seed=seed, pps=pps, batch=batch, n_targets=n_targets, max_ttl=max_ttl,
            offset=offset, stride=stride, fill=True, fill_ceiling=fill_ceiling,
        )
        assert_equivalent(reference, batched)

    @pytest.mark.parametrize("seed, mangling", [(5, "rewrite"), (3, "truncate")])
    def test_a_mangled_quotation_is_decoded(self, seed, mangling, monkeypatch):
        """A Time Exceeded from a ``rewrite`` or ``truncate`` router does
        not quote the probe verbatim: the prediction decodes it in place,
        at the offset ``receive``'s processor reads, and a rewritten
        target's fill goes to the rewritten address."""
        decoded = []

        def spy(data, offset, instance):
            assert offset == 48
            try:
                state = decode_at(data, offset, instance)
            except Exception:
                decoded.append(None)
                raise
            decoded.append(state)
            return state

        monkeypatch.setattr(yarrp6_module, "decode_at", spy)
        reference, batched = run_pair(
            seed=seed, pps=1000.0, batch=DEFAULT_BATCH, max_ttl=4, fill=True, fill_ceiling=12
        )
        assert_equivalent(reference, batched)
        if mangling == "rewrite":
            # The last field is target_modified.
            assert any(state is not None and state[-1] for state in decoded)
        else:
            assert None in decoded


HOP = 0x20010DB8FFFF00000000000000000001


class TestFillReleaseAgainstDelivery:
    """``next_probes`` on a scripted network — each probe answered after
    a chosen round trip, verbatim, rewritten, truncated or not at all —
    emits what ``next_probe`` emits with ``receive`` fed every response
    in delivery order (arrival, then send order; a response arriving at a
    slot's time before that slot's probe).  Round trips of a few slots
    cut runs and put slots back, fills released into the queue included.
    """

    INTERVAL = 10

    @staticmethod
    def answer(packet, kind):
        if kind == "silent":
            return None
        quote = packet
        if kind == "rewrite":
            quote = bytearray(packet)
            quote[38] ^= 0x55
            quote = bytes(quote)
        elif kind == "truncate":
            quote = packet[:48]
        return icmpv6.error_packet(HOP, SRC, icmpv6.TYPE_TIME_EXCEEDED, 0, 0, quote)

    def per_event(self, prober, script):
        """The reference: a tick every interval, deliveries first.
        Returns what it emitted, ``(send time, packet)``, and what it
        delivered, ``(arrival, response)``, each in order."""
        emitted, pending, delivered, now = [], [], [], 0
        while True:
            while pending and pending[0][0] <= now:
                arrival, _, data = heapq.heappop(pending)
                delivered.append((arrival, data))
                prober.receive(data, arrival)
            packet = prober.next_probe(now)
            if packet is None:
                break
            rtt, kind = script(len(emitted))
            data = self.answer(packet, kind)
            if data is not None:
                heapq.heappush(pending, (now + rtt, len(emitted), data))
            emitted.append((now, packet))
            if prober.exhausted:
                break
            now += self.INTERVAL
        while pending:
            arrival, _, data = heapq.heappop(pending)
            delivered.append((arrival, data))
            prober.receive(data, arrival)
        return emitted, delivered

    def batched(self, prober, script, chunks):
        """``next_probes`` a chunk at a time: what it emitted, and the
        replies it held, sorted, as ``(arrival, response)``."""
        emitted = []

        def answer(packet, when):
            rtt, kind = script(len(emitted))
            emitted.append((when, packet))
            data = self.answer(packet, kind)
            return None if data is None else (when + rtt, data)

        def hold(entry):
            # Held as it comes back, numbered by the sent count that
            # includes its probe, with that probe's send time.
            assert (entry[1], entry[3]) == (len(emitted), emitted[-1][0])
            held.append(entry)

        held = []
        now = 0
        for round_ in range(10**6):
            chunk = chunks[round_ % len(chunks)]
            times = range(now, now + chunk * self.INTERVAL, self.INTERVAL)
            count = prober.next_probes(times, answer, hold)
            if prober.exhausted:
                return emitted, [(arrival, data) for arrival, _, data, _ in sorted(held)]
            assert count == chunk
            now += count * self.INTERVAL
        raise AssertionError("the stream never ended")

    @settings(max_examples=60, deadline=None)
    @given(
        n_targets=st.integers(min_value=1, max_value=12),
        max_ttl=st.integers(min_value=1, max_value=6),
        fill_ceiling=st.integers(min_value=1, max_value=12),
        rtts=st.lists(st.integers(min_value=1, max_value=90), min_size=1, max_size=17),
        kinds=st.lists(
            st.sampled_from(["verbatim"] * 6 + ["rewrite", "truncate", "silent"]),
            min_size=1,
            max_size=13,
        ),
        chunks=st.lists(st.integers(min_value=1, max_value=70), min_size=1, max_size=5),
        key=st.integers(min_value=0, max_value=2**64),
    )
    def test_same_stream_fills_and_unsent(
        self, n_targets, max_ttl, fill_ceiling, rtts, kinds, chunks, key
    ):
        def script(index):
            return rtts[index % len(rtts)], kinds[index % len(kinds)]

        targets = [TARGET + 7919 * index for index in range(n_targets)]
        config = Yarrp6Config(max_ttl=max_ttl, fill=True, fill_ceiling=fill_ceiling, key=key)
        reference, batched = Yarrp6(SRC, targets, config), Yarrp6(SRC, targets, config)
        expected, delivered = self.per_event(reference, script)
        assert self.batched(batched, script, chunks) == (expected, delivered)
        assert batched.summary()["fills"] == reference.summary()["fills"]
        assert batched.summary()["fills_unsent"] == reference.summary()["fills_unsent"]
        assert batched.sent == reference.sent == len(expected)

    def test_a_shorter_round_trip_cuts_a_run_holding_released_fills(self):
        """Round trips of 4.5 slots cut the first run and set the run
        length; probe 30's, of 1.1 slots, cuts a later run past a slot
        that had taken a fill released from flight, so that fill goes
        back into flight and is released again."""
        targets = [TARGET + 7919 * index for index in range(6)]
        config = Yarrp6Config(max_ttl=1, fill=True, fill_ceiling=9, key=5)

        def script(index):
            return (11 if index == 30 else 45), "verbatim"

        reference, batched = Yarrp6(SRC, targets, config), Yarrp6(SRC, targets, config)
        expected, delivered = self.per_event(reference, script)
        assert self.batched(batched, script, [64]) == (expected, delivered)
        assert reference.summary()["fills"] == batched.summary()["fills"] > 30
        assert batched._lead == 2

    def test_a_response_landing_on_a_slot_fills_that_slot(self):
        """A round trip of exactly three slots: each fill is delivered at a
        slot's own time, before that slot's probe, so it takes the slot."""
        targets = [TARGET + 7919 * index for index in range(4)]
        config = Yarrp6Config(max_ttl=1, fill=True, fill_ceiling=6, key=9)

        def script(index):
            return 3 * self.INTERVAL, "verbatim"

        reference, batched = Yarrp6(SRC, targets, config), Yarrp6(SRC, targets, config)
        expected, delivered = self.per_event(reference, script)
        assert self.batched(batched, script, [256]) == (expected, delivered)
        # Probe 0 (TTL 1) answers at slot 3, which sends its TTL-2 fill.
        assert decode_quotation(expected[3][1]).ttl == 2
