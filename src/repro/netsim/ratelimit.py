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

from typing import Callable, Tuple

from .engine import US_PER_SECOND

#: Telemetry hook ``Internet`` calls after every limiter decision with
#: ``(router_id, virtual_now, allowed, tokens_after)``.  Observers must be
#: pure recorders: they may never influence the decision or consume RNG.
BucketObserver = Callable[[int, int, bool, float], None]


def provisioning(rate: float, burst: float) -> Tuple[float, float]:
    """``(rate, burst)`` as floats; ``ValueError`` for a limiter that could
    never grant a token.  Shared by ``Router``, which only records its
    provisioning at build time, and the bucket a run makes from it."""
    if rate <= 0:
        raise ValueError("rate must be positive: %r" % rate)
    if burst < 1:
        raise ValueError("burst must be at least 1: %r" % burst)
    return float(rate), float(burst)


class TokenBucket:
    """A continuous-refill token bucket evaluated at virtual timestamps.

    A bucket starts full and lives for one run: ``Internet`` creates a
    router's bucket on its first limiter decision and drops every bucket
    on the rewind, so there is nothing to reset.
    """

    __slots__ = ("rate", "burst", "tokens", "_updated", "allowed", "denied")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate, self.burst = provisioning(rate, burst)
        #: Tokens left as of the last ``consume``, refilled to its instant.
        self.tokens = self.burst
        self._updated = 0
        self.allowed = 0
        self.denied = 0

    def consume(self, now: int, amount: float = 1.0) -> bool:
        """Refill to virtual time ``now``, then take ``amount`` tokens;
        False if there are not that many."""
        if now > self._updated:
            self.tokens = min(
                self.burst,
                self.tokens + self.rate * (now - self._updated) / US_PER_SECOND,
            )
            self._updated = now
        if self.tokens >= amount:
            self.tokens -= amount
            self.allowed += 1
            return True
        self.denied += 1
        return False

    def __repr__(self) -> str:
        return "TokenBucket(rate=%g/s, burst=%g, allowed=%d, denied=%d)" % (
            self.rate,
            self.burst,
            self.allowed,
            self.denied,
        )
