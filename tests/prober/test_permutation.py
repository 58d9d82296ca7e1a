"""Tests for the keyed permutation and probe schedule."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prober.permutation import KeyedPermutation, ProbeSchedule, check_ttl_range


class TestKeyedPermutation:
    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            KeyedPermutation(0, 1)

    def test_single_element(self):
        perm = KeyedPermutation(1, 42)
        assert perm[0] == 0

    def test_out_of_range_index(self):
        perm = KeyedPermutation(10, 1)
        with pytest.raises(IndexError):
            perm[10]
        with pytest.raises(IndexError):
            perm[-1]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=5000), st.integers(min_value=0, max_value=2**64))
    def test_bijection(self, n, key):
        perm = KeyedPermutation(n, key)
        values = [perm[index] for index in range(n)]
        assert sorted(values) == list(range(n))

    def test_different_keys_different_orders(self):
        a = list(KeyedPermutation(1000, 1))
        b = list(KeyedPermutation(1000, 2))
        assert a != b

    def test_deterministic(self):
        assert list(KeyedPermutation(500, 7)) == list(KeyedPermutation(500, 7))

    def test_actually_shuffles(self):
        """The walk must not be close to sequential: consecutive outputs
        should rarely be adjacent (burst avoidance)."""
        values = list(KeyedPermutation(4096, 99))
        adjacent = sum(
            1 for a, b in zip(values, values[1:]) if abs(a - b) == 1
        )
        assert adjacent < len(values) * 0.01


class TestBlockFastPath:
    """The batched fast path must be indistinguishable from repeated
    single-index evaluation — it exists purely to amortize loop overhead
    in Yarrp6's pull loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=3000),
        key=st.integers(min_value=0, max_value=2**64),
        data=st.data(),
    )
    def test_block_equals_indexing(self, n, key, data):
        """Satellite 2: block(start, count) == [perm[i] for i in the same
        range], over random domains including non-power-of-two sizes
        (cycle-walking) and blocks running up to the domain end."""
        perm = KeyedPermutation(n, key)
        start = data.draw(st.integers(min_value=0, max_value=n - 1))
        count = data.draw(st.integers(min_value=0, max_value=n - start))
        assert perm.block(start, count) == [
            perm[index] for index in range(start, start + count)
        ]

    def test_block_spans_entire_domain(self):
        for n in (1, 2, 7, 64, 100, 1023, 1024, 1025):
            perm = KeyedPermutation(n, 42)
            assert perm.block(0, n) == [perm[i] for i in range(n)]

    def test_block_bounds(self):
        perm = KeyedPermutation(10, 1)
        with pytest.raises(IndexError):
            perm.block(0, 11)
        with pytest.raises(IndexError):
            perm.block(9, 2)
        with pytest.raises(IndexError):
            perm.block(-1, 1)
        assert perm.block(10, 0) == []

    def test_iter_uses_chunks_consistently(self):
        """__iter__ now walks in chunks; order must be unchanged."""
        perm = KeyedPermutation(2500, 17)
        assert list(perm) == [perm[i] for i in range(2500)]

    @settings(max_examples=25, deadline=None)
    @given(
        n_targets=st.integers(min_value=1, max_value=60),
        shards=st.integers(min_value=1, max_value=5),
        key=st.integers(min_value=0, max_value=2**32),
        data=st.data(),
    )
    def test_schedule_block_equals_pair(self, n_targets, shards, key, data):
        shard = data.draw(st.integers(min_value=0, max_value=shards - 1))
        schedule = ProbeSchedule(
            n_targets, 1, 6, key=key, shard=shard, shards=shards
        )
        total = len(schedule)
        start = data.draw(st.integers(min_value=0, max_value=total))
        count = data.draw(st.integers(min_value=0, max_value=total - start))
        assert schedule.block(start, count) == [
            schedule.pair(index) for index in range(start, start + count)
        ]

    def test_schedule_block_bounds(self):
        schedule = ProbeSchedule(5, 1, 4, key=1, shard=1, shards=2)
        with pytest.raises(IndexError):
            schedule.block(0, len(schedule) + 1)
        assert schedule.block(0, len(schedule)) == list(schedule)


class TestProbeSchedule:
    def test_total(self):
        schedule = ProbeSchedule(10, 1, 16, key=1)
        assert len(schedule) == 160

    def test_covers_every_pair_once(self):
        schedule = ProbeSchedule(7, 1, 5, key=3)
        pairs = list(schedule)
        assert len(pairs) == len(set(pairs)) == 35
        assert {ttl for _, ttl in pairs} == set(range(1, 6))
        assert {index for index, _ in pairs} == set(range(7))

    def test_ttl_offset_range(self):
        schedule = ProbeSchedule(3, 4, 8, key=1)
        assert all(4 <= ttl <= 8 for _, ttl in schedule)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProbeSchedule(0, 1, 16, key=1)
        with pytest.raises(ValueError):
            ProbeSchedule(5, 8, 4, key=1)
        with pytest.raises(ValueError):
            ProbeSchedule(5, 0, 4, key=1)

    def test_spreads_ttl_one(self):
        """TTL=1 probes (the rate-limit-sensitive ones) are spread across
        the walk, not clustered at the front."""
        schedule = ProbeSchedule(256, 1, 16, key=11)
        positions = [
            position for position, (_, ttl) in enumerate(schedule) if ttl == 1
        ]
        total = len(schedule)
        # First TTL=1 probe well within the first 5% of the walk; last
        # within the final 5%; roughly uniform in between.
        assert positions[0] < total * 0.05
        assert positions[-1] > total * 0.95
        gaps = [b - a for a, b in zip(positions, positions[1:])]
        assert max(gaps) < total * 0.05


class TestTtlRange:
    @pytest.mark.parametrize("ttl_min, ttl_max", [(1, 1), (1, 16), (4, 255)])
    def test_a_range_the_hop_limit_byte_carries(self, ttl_min, ttl_max):
        check_ttl_range(ttl_min, ttl_max)

    @pytest.mark.parametrize("ttl_min, ttl_max", [(0, 16), (1, 256), (9, 3), (-1, -1)])
    def test_any_other_range_is_refused(self, ttl_min, ttl_max):
        with pytest.raises(ValueError) as refusal:
            check_ttl_range(ttl_min, ttl_max)
        assert str(refusal.value) == "bad TTL range [%d, %d]" % (ttl_min, ttl_max)
