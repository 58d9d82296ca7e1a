"""Tests for the token-bucket ICMPv6 rate limiter."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netsim.engine import US_PER_SECOND
from repro.netsim.ratelimit import TokenBucket


class TestTokenBucket:
    def test_starts_full(self):
        bucket = TokenBucket(rate=100, burst=10)
        assert bucket.peek(0) == 10

    def test_burst_consumed(self):
        bucket = TokenBucket(rate=100, burst=5)
        results = [bucket.consume(0) for _ in range(7)]
        assert results == [True] * 5 + [False] * 2
        assert bucket.allowed == 5
        assert bucket.denied == 2

    def test_refills_over_time(self):
        bucket = TokenBucket(rate=100, burst=5)
        for _ in range(5):
            bucket.consume(0)
        assert not bucket.consume(0)
        # After 10ms at 100/s one token has accrued.
        assert bucket.consume(US_PER_SECOND // 100)

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate=1000, burst=3)
        assert bucket.peek(10 * US_PER_SECOND) == 3

    def test_burst_of_probes_vs_paced_probes(self):
        """The Figure 5 mechanism: a burst loses most responses; the same
        probes paced under the refill rate all succeed."""
        burst_bucket = TokenBucket(rate=100, burst=10)
        burst_ok = sum(burst_bucket.consume(0) for _ in range(100))
        paced_bucket = TokenBucket(rate=100, burst=10)
        interval = US_PER_SECOND // 50  # 50 pps < 100/s refill
        paced_ok = sum(paced_bucket.consume(index * interval) for index in range(100))
        assert burst_ok == 10
        assert paced_ok == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=5)
        with pytest.raises(ValueError):
            TokenBucket(rate=10, burst=0)

    def test_total(self):
        bucket = TokenBucket(rate=10, burst=1)
        bucket.consume(0)
        bucket.consume(0)
        assert bucket.total == 2

    @given(
        st.floats(min_value=1, max_value=10_000),
        st.floats(min_value=1, max_value=1_000),
        st.lists(st.integers(min_value=0, max_value=10**7), min_size=1, max_size=100),
    )
    def test_tokens_bounded(self, rate, burst, times):
        bucket = TokenBucket(rate=rate, burst=burst)
        for now in sorted(times):
            bucket.consume(now)
            assert 0 <= bucket.peek(now) <= burst

    @given(st.integers(min_value=1, max_value=1000))
    def test_long_run_rate_bound(self, n):
        """Over a long window, grants can't exceed burst + rate * window."""
        bucket = TokenBucket(rate=50, burst=5)
        granted = sum(
            bucket.consume(index * 1000)  # 1000 pps attempts
            for index in range(n)
        )
        window_seconds = (n - 1) * 1000 / US_PER_SECOND
        assert granted <= 5 + 50 * window_seconds + 1

