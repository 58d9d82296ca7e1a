"""Tests for 6Gen-style target generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.addrs import parse
from repro.hitlist.sixgen import (
    NybbleRange,
    SixGenConfig,
    cluster_densities,
    generate,
)
import random


class TestConfig:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            SixGenConfig(mode="medium")

    def test_cluster_bits_validation(self):
        with pytest.raises(ValueError):
            SixGenConfig(cluster_bits=47)
        with pytest.raises(ValueError):
            SixGenConfig(cluster_bits=0)

    @pytest.mark.parametrize("count", ["min_cluster_size", "budget", "per_cluster_cap"])
    def test_a_negative_count_is_refused(self, count):
        with pytest.raises(ValueError, match="%s must be >= 0, not -1" % count):
            SixGenConfig(**{count: -1})
        SixGenConfig(**{count: 0})


class TestNybbleRange:
    def test_loose_uses_observed_values(self):
        seeds = [parse("2001:db8::1"), parse("2001:db8::4")]
        span = NybbleRange(seeds, "loose")
        # Last nybble observed values are exactly {1, 4}.
        assert span.choices[-1] == (1, 4)

    def test_tight_uses_contiguous_span(self):
        seeds = [parse("2001:db8::1"), parse("2001:db8::4")]
        span = NybbleRange(seeds, "tight")
        assert span.choices[-1] == (1, 2, 3, 4)

    def test_size(self):
        seeds = [parse("2001:db8::1"), parse("2001:db8::24")]
        span = NybbleRange(seeds, "loose")
        # Two positions with two choices each.
        assert span.size == 4

    def test_enumerate_exhaustive_when_small(self):
        seeds = [parse("2001:db8::1"), parse("2001:db8::2")]
        span = NybbleRange(seeds, "loose")
        values = span.enumerate(100, random.Random(0))
        assert parse("2001:db8::1") in values
        assert parse("2001:db8::2") in values
        assert len(values) == span.size

    def test_enumerate_samples_when_large(self):
        seeds = [parse("2001:db8::%x" % value) for value in range(16)]
        seeds += [parse("2001:db8::%x0" % value) for value in range(1, 16)]
        span = NybbleRange(seeds, "loose")
        values = span.enumerate(50, random.Random(0))
        assert len(values) <= 50


class TestGenerate:
    def test_includes_seeds(self):
        seeds = [parse("2001:db8::1"), parse("2001:db8::2"), parse("2a00::1")]
        output = generate(seeds, SixGenConfig(budget=100))
        assert set(seeds) <= set(output)

    def test_respects_budget(self):
        seeds = [parse("2001:db8::%x" % value) for value in range(1, 11)]
        output = generate(seeds, SixGenConfig(budget=20))
        assert len(output) <= 20

    def test_generates_near_clusters(self):
        """Generated addresses share the cluster prefix (address locality).

        Seeds varying in two nybble positions make the loose-mode cross
        product strictly larger than the seed set.
        """
        seeds = [parse("2001:db8:0:1::%x" % value) for value in range(1, 9)]
        seeds.append(parse("2001:db8:0:1::11"))
        seeds.append(parse("2a00:dead::1"))  # singleton cluster: no growth
        output = generate(seeds, SixGenConfig(budget=1000, min_cluster_size=4))
        cluster = parse("2001:db8::") >> 80
        generated = [addr for addr in output if addr not in set(seeds)]
        assert generated
        assert all(addr >> 80 == cluster for addr in generated)

    def test_single_position_variation_generates_nothing_new(self):
        """A cluster varying in one nybble position is already exhausted
        by its seeds — loose mode adds nothing."""
        seeds = [parse("2001:db8:0:1::%x" % value) for value in range(1, 9)]
        output = generate(seeds, SixGenConfig(budget=1000, min_cluster_size=4))
        assert set(output) == set(seeds)

    def test_loose_only_observed_nybbles(self):
        seeds = [
            parse("2001:db8::1:1"),
            parse("2001:db8::2:1"),
            parse("2001:db8::1:2"),
        ]
        output = generate(seeds, SixGenConfig(budget=100, mode="loose"))
        # Loose mode can produce the cross product 2001:db8::2:2 ...
        assert parse("2001:db8::2:2") in output
        # ...but never an unobserved nybble value like 3.
        assert parse("2001:db8::3:1") not in output

    def test_tight_fills_span(self):
        seeds = [parse("2001:db8::1"), parse("2001:db8::8")]
        output = generate(seeds, SixGenConfig(budget=100, mode="tight"))
        assert parse("2001:db8::5") in output

    def test_deterministic(self):
        seeds = [parse("2001:db8::%x" % value) for value in range(1, 30)]
        config = SixGenConfig(budget=500)
        assert generate(seeds, config) == generate(seeds, config)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=(1 << 128) - 1), min_size=1, max_size=40))
    def test_sorted_unique_output(self, seeds):
        output = generate(seeds, SixGenConfig(budget=200))
        assert output == sorted(set(output))


def test_cluster_densities():
    seeds = [parse("2001:db8::1"), parse("2001:db8::2"), parse("2a00::1")]
    densities = cluster_densities(seeds, 48)
    assert densities[parse("2001:db8::") >> 80] == 2
    assert densities[parse("2a00::") >> 80] == 1
