"""ICMPv6 error rate limiting: lazy token buckets over virtual time.

RFC 4443 Section 2.4(f) *requires* IPv6 nodes to bound the rate of ICMPv6
error messages they originate and recommends a token-bucket function.
This mandated limiting — far more aggressive in deployed IPv6 routers
than anything common in IPv4 — is the paper's motivating obstacle: bursts
of TTL-limited probes from a sequential tracer drain a hop's bucket and
the hop goes dark (Figure 5).

The bucket refills continuously at ``rate`` tokens per second up to
``burst`` tokens, computed lazily from the virtual-time delta since the
last update so that no periodic refill events are needed.
"""

from __future__ import annotations

from typing import Callable

from .engine import US_PER_SECOND
from .runstate import run_state

#: Telemetry hook ``Internet`` calls after every limiter decision with
#: ``(virtual_now, allowed, tokens_after)``.  Observers must be pure
#: recorders: they may never influence the decision or consume RNG.
BucketObserver = Callable[[int, bool, float], None]


@run_state("_tokens", "_updated", "allowed", "denied")
class TokenBucket:
    """A continuous-refill token bucket evaluated at virtual timestamps.

    Every field except the provisioning knobs (``rate``, ``burst``) is
    campaign-scoped: :meth:`reset`, reached from
    ``Internet.fresh_run_state``, refills and zeroes the counters.
    """

    __slots__ = ("rate", "burst", "_tokens", "_updated", "allowed", "denied")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive: %r" % rate)
        if burst < 1:
            raise ValueError("burst must be at least 1: %r" % burst)
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._updated = 0
        self.allowed = 0
        self.denied = 0

    def _refill(self, now: int) -> None:
        if now > self._updated:
            self._tokens = min(
                self.burst,
                self._tokens + self.rate * (now - self._updated) / US_PER_SECOND,
            )
            self._updated = now

    def consume(self, now: int, amount: float = 1.0) -> bool:
        """Take ``amount`` tokens at virtual time ``now``; False if empty."""
        self._refill(now)
        if self._tokens >= amount:
            self._tokens -= amount
            self.allowed += 1
            return True
        self.denied += 1
        return False

    def peek(self, now: int) -> float:
        """Token count at ``now`` without consuming."""
        self._refill(now)
        return self._tokens

    @property
    def total(self) -> int:
        """Total consume() attempts observed."""
        return self.allowed + self.denied

    def reset(self) -> None:
        """Refill to full and clear counters."""
        self._tokens = self.burst
        self._updated = 0
        self.allowed = 0
        self.denied = 0

    def __repr__(self) -> str:
        return "TokenBucket(rate=%g/s, burst=%g, allowed=%d, denied=%d)" % (
            self.rate,
            self.burst,
            self.allowed,
            self.denied,
        )


@run_state("allowed", "denied")
class UnlimitedBucket:
    """A degenerate limiter that always permits (for unlimited hops)."""

    __slots__ = ("allowed", "denied")

    rate = float("inf")
    burst = float("inf")

    def __init__(self) -> None:
        self.allowed = 0
        self.denied = 0

    def consume(self, now: int, amount: float = 1.0) -> bool:
        self.allowed += 1
        return True

    def peek(self, now: int) -> float:
        return float("inf")

    @property
    def total(self) -> int:
        return self.allowed

    def reset(self) -> None:
        self.allowed = 0
        self.denied = 0
