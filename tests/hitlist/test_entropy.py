"""Tests for Entropy/IP-style structure analysis and generation."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.addrs import parse
from repro.addrs.address import MAX_ADDRESS
from repro.hitlist.entropy import (
    EntropyModel,
    WIDTH,
    nybble_entropy,
    segment,
)


def lowbyte_block(count):
    base = parse("2001:db8:0:1::")
    return [base | index for index in range(1, count + 1)]


class TestNybbleEntropy:
    def test_empty(self):
        assert nybble_entropy([]) == [0.0] * WIDTH

    def test_constant_set(self):
        profile = nybble_entropy([parse("2001:db8::1")] * 5)
        assert all(value == 0.0 for value in profile)

    def test_uniform_last_nybble(self):
        addresses = [parse("2001:db8::") | nybble for nybble in range(16)]
        profile = nybble_entropy(addresses)
        assert profile[-1] == pytest.approx(4.0)
        assert all(value == 0.0 for value in profile[:-1])

    def test_bounds(self):
        rng = random.Random(1)
        addresses = [rng.getrandbits(128) for _ in range(200)]
        for value in nybble_entropy(addresses):
            assert 0.0 <= value <= 4.0

    @given(st.lists(st.integers(min_value=0, max_value=MAX_ADDRESS), min_size=1, max_size=40))
    def test_profile_width(self, addresses):
        assert len(nybble_entropy(addresses)) == WIDTH


class TestSegmentation:
    def test_lowbyte_block_structure(self):
        segments = segment(lowbyte_block(200))
        kinds = [seg.kind for seg in segments]
        # Leading constant prefix, structured tail.
        assert segments[0].kind == "constant"
        assert segments[0].start == 0
        # The low-byte counter region is non-constant.
        assert kinds[-1] in ("low", "high")
        # Segments tile the whole address exactly.
        assert segments[0].start == 0 and segments[-1].end == WIDTH
        for a, b in zip(segments, segments[1:]):
            assert a.end == b.start

    def test_random_iids_high_entropy_tail(self):
        rng = random.Random(2)
        base = parse("2001:db8::")
        addresses = [base | rng.getrandbits(64) for _ in range(300)]
        segments = segment(addresses)
        assert segments[-1].kind == "high"


class TestModel:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EntropyModel([])

    def test_preserves_constant_region(self):
        model = EntropyModel(lowbyte_block(64))
        rng = random.Random(3)
        prefix = parse("2001:db8:0:1::")
        for _ in range(50):
            candidate = model.sample(rng)
            assert candidate >> 64 == prefix >> 64

    def test_respects_observed_alphabet(self):
        # Last nybble only ever 1 or 5.
        base = parse("2001:db8::")
        addresses = [base | 1, base | 5] * 10
        model = EntropyModel(addresses)
        rng = random.Random(4)
        for _ in range(50):
            assert model.sample(rng) & 0xF in (1, 5)

    def test_generate_excludes_seeds(self):
        seeds = lowbyte_block(32)
        model = EntropyModel(seeds)
        generated = model.generate(40, seed=5, exclude=seeds)
        assert not set(generated) & set(seeds)
        assert generated == sorted(set(generated))

    def test_generate_deterministic(self):
        model = EntropyModel(lowbyte_block(64))
        assert model.generate(20, seed=9) == model.generate(20, seed=9)

    def test_generation_finds_holes(self):
        """Modeling addresses ::1..::64 with gaps generates plausible
        in-range candidates (the Entropy/IP value proposition)."""
        seeds = [addr for addr in lowbyte_block(96) if addr % 3]  # punch holes
        model = EntropyModel(seeds)
        generated = model.generate(30, seed=7, exclude=seeds)
        holes = set(lowbyte_block(96)) - set(seeds)
        assert set(generated) & holes
