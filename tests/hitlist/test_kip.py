"""Tests for kIP aggregation — privacy and coverage invariants."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addrs import parse
from repro.hitlist.kip import KIPParams, coverage, kip_aggregate


def observe(addr_text, intervals):
    addr = parse(addr_text)
    return [(addr, interval) for interval in intervals]


def dense_block(base_text, count, intervals=range(4)):
    """count /64s under base, each active in all given intervals."""
    base = parse(base_text)
    observations = []
    for index in range(count):
        addr = base + (index << 64) | 1
        for interval in intervals:
            observations.append((addr, interval))
    return observations


class TestParams:
    def test_intervals(self):
        assert KIPParams(window_days=1, interval_hours=1).intervals == 24
        assert KIPParams(window_days=14, interval_hours=1).intervals == 336

    def test_validation(self):
        with pytest.raises(ValueError):
            KIPParams(k=0)
        with pytest.raises(ValueError):
            KIPParams(percentile=0)


class TestAggregation:
    def params(self, k):
        return KIPParams(k=k, window_days=1, interval_hours=6)  # 4 intervals

    def test_empty(self):
        assert kip_aggregate([], self.params(2)) == []

    def test_below_k_releases_nothing(self):
        observations = dense_block("2001:db8::", 3)
        assert kip_aggregate(observations, self.params(32)) == []

    def test_every_aggregate_covers_k(self):
        observations = dense_block("2001:db8::", 64)
        params = self.params(8)
        aggregates = kip_aggregate(observations, params)
        assert aggregates
        active = {addr >> 64 for addr, _ in observations}
        for prefix in aggregates:
            inside = sum(1 for base in active if prefix.contains(base << 64))
            assert inside >= params.k

    def test_all_actives_covered(self):
        observations = dense_block("2001:db8::", 64) + dense_block("2001:dead::", 40)
        aggregates = kip_aggregate(observations, self.params(8))
        addresses = [addr for addr, _ in observations]
        assert coverage(aggregates, addresses) == 1.0

    def test_dense_space_gets_fine_aggregates(self):
        observations = dense_block("2001:db8::", 256)
        aggregates = kip_aggregate(observations, self.params(16))
        lengths = [prefix.length for prefix in aggregates]
        # 256 consecutive /64s with k=16 should refine well past /56.
        assert max(lengths) >= 56

    def test_sparse_stragglers_coarse(self):
        """A dense region plus a distant sparse one: the sparse actives
        appear only under a coarse catch-all (the university effect)."""
        observations = dense_block("2001:db8::", 64) + dense_block("2a00:1::", 4)
        aggregates = kip_aggregate(observations, self.params(16))
        sparse_base = parse("2a00:1::")
        covering = [prefix for prefix in aggregates if prefix.contains(sparse_base)]
        assert covering
        assert min(prefix.length for prefix in covering) < 32

    def test_higher_k_coarser(self):
        observations = dense_block("2001:db8::", 256)
        fine = kip_aggregate(observations, self.params(8))
        coarse = kip_aggregate(observations, self.params(64))
        assert len(fine) > len(coarse)

    def test_percentile_excludes_flash_activity(self):
        """/64s active in only one of four intervals don't count as
        simultaneously assigned at the median."""
        # 20 /64s each active only in interval 0.
        flash = dense_block("2001:db8::", 20, intervals=[0])
        assert kip_aggregate(flash, self.params(10)) == []
        # The same /64s active in all intervals do.
        steady = dense_block("2001:db8::", 20)
        assert kip_aggregate(steady, self.params(10))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=10, max_value=120))
    def test_invariants_random_worlds(self, k_log, count):
        # The seed IS the hypothesis-drawn case: deliberately test-local.
        rng = random.Random(count * 31 + k_log)
        k = 1 << k_log
        observations = []
        base = parse("2001:db8::")
        for index in range(count):
            addr = base + (rng.randrange(0, 1 << 12) << 64)
            for interval in range(4):
                if rng.random() < 0.8:
                    observations.append((addr, interval))
        params = KIPParams(k=k, window_days=1, interval_hours=6)
        aggregates = kip_aggregate(observations, params)
        # Coverage: every active /64 is under some aggregate, or nothing
        # was released at all.
        if aggregates:
            assert coverage(aggregates, [a for a, _ in observations]) == 1.0
            # Privacy: every aggregate covers >= k active /64s at p50.
            per64 = {}
            for addr, interval in observations:
                per64.setdefault(addr >> 64, set()).add(interval)
            for prefix in aggregates:
                counts = [0, 0, 0, 0]
                for base64, active in per64.items():
                    if prefix.contains(base64 << 64):
                        for interval in active:
                            counts[interval] += 1
                assert np.percentile(counts, 50) >= k


class TestCoverage:
    def test_empty_addresses(self):
        assert coverage([], []) == 0.0

    def test_partial(self):
        from repro.addrs.prefix import Prefix

        aggregates = [Prefix.parse("2001:db8::/32")]
        addresses = [parse("2001:db8::1"), parse("2a00::1")]
        assert coverage(aggregates, addresses) == 0.5
