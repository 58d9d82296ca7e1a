"""Tests for the token-bucket ICMPv6 rate limiter."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netsim.engine import US_PER_SECOND
from repro.netsim.ratelimit import TokenBucket, provisioning


class TestTokenBucket:
    def test_starts_full(self):
        bucket = TokenBucket(rate=100, burst=10)
        assert bucket.tokens == 10
        assert [bucket.consume(0) for _ in range(11)] == [True] * 10 + [False]

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
        later = 10 * US_PER_SECOND
        assert [bucket.consume(later) for _ in range(4)] == [True] * 3 + [False]

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
        assert (bucket.allowed, bucket.denied) == (1, 1)

    def test_refill_is_proportional_to_elapsed_time(self):
        bucket = TokenBucket(rate=100, burst=10)
        assert sum(bucket.consume(0) for _ in range(10)) == 10
        # 35 ms at 100/s: 3.5 tokens, so three grants and a refusal.
        later = 35 * US_PER_SECOND // 1000
        assert [bucket.consume(later) for _ in range(4)] == [True] * 3 + [False]
        assert bucket.tokens == pytest.approx(0.5)

    def test_a_refused_consume_keeps_the_partial_refill(self):
        bucket = TokenBucket(rate=100, burst=1)
        assert bucket.consume(0)
        assert not bucket.consume(US_PER_SECOND // 200)  # half a token
        assert bucket.consume(US_PER_SECOND // 100)  # the other half
        assert (bucket.allowed, bucket.denied) == (2, 1)

    def test_a_refusal_takes_no_tokens(self):
        bucket = TokenBucket(rate=100, burst=2)
        assert not bucket.consume(0, amount=3)
        assert bucket.tokens == 2
        assert [bucket.consume(0), bucket.consume(0)] == [True, True]

    def test_an_earlier_instant_neither_refills_nor_rewinds(self):
        bucket = TokenBucket(rate=100, burst=1)
        second = US_PER_SECOND
        assert bucket.consume(second)
        assert not bucket.consume(0)
        # The refill still counts from the later instant, not from 0.
        assert not bucket.consume(second + US_PER_SECOND // 200)
        assert bucket.consume(second + US_PER_SECOND // 100)

    def test_a_larger_amount_takes_that_many_tokens(self):
        bucket = TokenBucket(rate=100, burst=3)
        assert bucket.consume(0, amount=2.5)
        assert bucket.tokens == pytest.approx(0.5)
        assert not bucket.consume(0)
        assert (bucket.allowed, bucket.denied) == (1, 1)

    def test_repr_names_provisioning_and_tallies(self):
        bucket = TokenBucket(rate=50, burst=2)
        for _ in range(3):
            bucket.consume(0)
        assert repr(bucket) == "TokenBucket(rate=50/s, burst=2, allowed=2, denied=1)"

    @given(
        st.floats(min_value=1, max_value=10_000),
        st.floats(min_value=1, max_value=1_000),
        st.lists(st.integers(min_value=0, max_value=10**7), min_size=1, max_size=100),
    )
    def test_tokens_bounded(self, rate, burst, times):
        bucket = TokenBucket(rate=rate, burst=burst)
        for now in sorted(times):
            bucket.consume(now)
            assert 0 <= bucket.tokens <= burst

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



class TestProvisioning:
    def test_grantable_provisioning_is_returned_as_floats(self):
        rate, burst = provisioning(10, 1)
        assert (rate, burst) == (10.0, 1.0)
        assert type(rate) is float and type(burst) is float

    @pytest.mark.parametrize(
        "rate, burst, reason",
        [
            (0, 5, "rate must be positive: 0"),
            (-2.5, 5, "rate must be positive: -2.5"),
            (10, 0.5, "burst must be at least 1: 0.5"),
            (10, 0, "burst must be at least 1: 0"),
        ],
    )
    def test_a_limiter_that_never_grants_is_refused(self, rate, burst, reason):
        with pytest.raises(ValueError) as refusal:
            provisioning(rate, burst)
        assert str(refusal.value) == reason
