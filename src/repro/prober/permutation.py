"""Keyed random permutation of the probe space.

Yarrp's central idea is to walk the (target × TTL) space in a pseudo-
random order so that no router sees a burst of TTL-limited probes —
spreading the ICMPv6 rate-limiter load across the whole network while
keeping the prober stateless: the permutation is a *bijection*, so every
pair is probed exactly once, and the walk needs only a counter.

The original Yarrp uses an RC5-based cipher; we implement the same
construction generically: a balanced Feistel network over the smallest
even-bit-width domain covering ``n``, with cycle-walking to restrict the
bijection to ``[0, n)``.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, Iterator, List, Tuple

#: Feistel rounds; four suffice for statistical mixing (this is not a
#: security boundary, just burst-avoidance).
ROUNDS = 4

#: Below this block size the numpy dispatch overhead exceeds the win.
_VECTOR_MIN = 16


class KeyedPermutation:
    """A keyed bijection over ``[0, n)``.

    ``perm[i]`` maps index i to a unique value in [0, n); iteration in
    index order therefore visits every value exactly once in a key-
    dependent pseudorandom order.
    """

    def __init__(self, n: int, key: int) -> None:
        if n < 1:
            raise ValueError("domain must be positive: %r" % n)
        self.n = n
        self.key = key
        # Smallest even bit width whose 2^bits >= n.
        bits = max(2, (n - 1).bit_length())
        if bits % 2:
            bits += 1
        self._half = bits // 2
        self._mask = (1 << self._half) - 1
        self._round_keys = [
            int.from_bytes(
                hashlib.blake2b(
                    b"yarrp6-perm" + key.to_bytes(16, "big") + bytes([round_index]),
                    digest_size=8,
                ).digest(),
                "big",
            )
            for round_index in range(ROUNDS)
        ]
        # The vector backend, resolved once and only for a domain whose
        # blocks images() can ever hand to it: numpy loads when a
        # schedule is constructed (validate_spec, campaign.setup — before
        # campaign.run, and in the parent before any shard process
        # forks), never at ``import repro``.  Without numpy the scalar
        # path below is the full reference.
        self._np: Any = None
        if bits < 64 and n >= _VECTOR_MIN:
            try:
                import numpy
            except ImportError:
                pass
            else:
                self._np = numpy

    def _round(self, value: int, round_key: int) -> int:
        """Feistel round function: a cheap 64-bit mixer."""
        value = (value ^ round_key) & 0xFFFFFFFFFFFFFFFF
        value = (value * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        value ^= value >> 29
        value = (value * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        value ^= value >> 32
        return value & self._mask

    def _encrypt(self, value: int) -> int:
        left = value >> self._half
        right = value & self._mask
        for round_key in self._round_keys:
            left, right = right, left ^ self._round(right, round_key)
        return (left << self._half) | right

    def __getitem__(self, index: int) -> int:
        """Image of ``index``; cycle-walks until it lands inside [0, n)."""
        if not 0 <= index < self.n:
            raise IndexError("index %d out of range [0, %d)" % (index, self.n))
        value = self._encrypt(index)
        while value >= self.n:
            value = self._encrypt(value)
        return value

    def images(self, indices: Iterable[int]) -> List[int]:
        """Batched ``[self[i] for i in indices]``.

        Contiguous/strided index ranges over domains that fit 64 bits are
        encrypted as whole numpy ``uint64`` columns — every Feistel round
        runs once per *block* instead of once per index, with cycle-
        walking applied lane-wise to the stragglers.  Everything else
        (tiny blocks, arbitrary iterables, missing numpy, oversized
        domains) takes :meth:`images_scalar`.  Both paths are exact
        integer arithmetic and produce identical values; the equivalence
        suite (``tests/prober/test_batched_equivalence.py``) pins that.
        """
        if (
            self._np is not None  # implies a sub-64-bit domain, see __init__
            and isinstance(indices, range)
            and len(indices) >= _VECTOR_MIN
        ):
            first, last = indices[0], indices[-1]
            if 0 <= first < self.n and 0 <= last < self.n:
                return self._images_vector(indices)
        return self.images_scalar(indices)

    def _images_vector(self, indices: range) -> List[int]:
        """Columnar Feistel over a uint64 lane per index (bit-exact)."""
        _np = self._np
        domain = _np.uint64(self.n)
        half = _np.uint64(self._half)
        mask = _np.uint64(self._mask)
        round_keys = [_np.uint64(key) for key in self._round_keys]
        mult1 = _np.uint64(0x9E3779B97F4A7C15)
        mult2 = _np.uint64(0xBF58476D1CE4E5B9)
        shift29 = _np.uint64(29)
        shift32 = _np.uint64(32)

        def encrypt(block: Any) -> Any:
            left = block >> half
            right = block & mask
            for round_key in round_keys:
                mixed = (right ^ round_key) * mult1
                mixed ^= mixed >> shift29
                mixed *= mult2
                mixed ^= mixed >> shift32
                left, right = right, left ^ (mixed & mask)
            return (left << half) | right

        values = encrypt(
            _np.arange(indices.start, indices.stop, indices.step, dtype=_np.uint64)
        )
        # Cycle-walking, lane-wise: re-encrypt only the lanes still
        # outside [0, n) — the same walk the scalar loop performs.
        walking = values >= domain
        while walking.any():
            values[walking] = encrypt(values[walking])
            walking = values >= domain
        result: List[int] = values.tolist()
        return result

    def images_scalar(self, indices: Iterable[int]) -> List[int]:
        """The pure-Python reference for :meth:`images`.

        The Feistel network is inlined with round keys, shift amounts and
        masks hoisted into locals, so a block costs one attribute-lookup
        preamble instead of one per index — the hot-path amortization the
        pull loop and the parallel shard workers rely on.
        """
        n = self.n
        half = self._half
        mask = self._mask
        round_keys = self._round_keys
        out: List[int] = []
        append = out.append
        for index in indices:
            if not 0 <= index < n:
                raise IndexError("index %d out of range [0, %d)" % (index, n))
            value = index
            while True:
                left = value >> half
                right = value & mask
                for round_key in round_keys:
                    mixed = (right ^ round_key) & 0xFFFFFFFFFFFFFFFF
                    mixed = (mixed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
                    mixed ^= mixed >> 29
                    mixed = (mixed * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
                    mixed ^= mixed >> 32
                    left, right = right, left ^ (mixed & mask)
                value = (left << half) | right
                if value < n:
                    break
            append(value)
        return out

    def block(self, start: int, count: int) -> List[int]:
        """Images of the contiguous index range ``[start, start+count)``.

        Equivalent to ``[self[i] for i in range(start, start + count)]``
        but encrypted in one batched call.
        """
        if count < 0:
            raise ValueError("negative count: %r" % count)
        if not (0 <= start and start + count <= self.n):
            raise IndexError(
                "block [%d, %d) out of range [0, %d)" % (start, start + count, self.n)
            )
        return self.images(range(start, start + count))

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        for start in range(0, self.n, _ITER_BLOCK):
            for value in self.block(start, min(_ITER_BLOCK, self.n - start)):
                yield value


#: Chunk size used when iterating a whole permutation or schedule.
_ITER_BLOCK = 1024


def check_ttl_range(ttl_min: int, ttl_max: int) -> None:
    """Refuse a probing range the hop-limit byte cannot carry, in the one
    message every prober and ``validate_campaign`` give for it."""
    if not 1 <= ttl_min <= ttl_max <= 255:
        raise ValueError("bad TTL range [%d, %d]" % (ttl_min, ttl_max))


class ProbeSchedule:
    """The permuted (target, TTL) walk Yarrp6 emits.

    Indexes the flat target×TTL space through a :class:`KeyedPermutation`
    so consecutive emissions hit unrelated (destination, hop) pairs.

    **Sharding** (real Yarrp's multi-worker mode): worker ``shard`` of
    ``shards`` walks the permutation positions congruent to its id, so N
    cooperating instances cover every pair exactly once with no shared
    state and no coordination beyond agreeing on the key.
    """

    def __init__(
        self,
        n_targets: int,
        ttl_min: int,
        ttl_max: int,
        key: int,
        shard: int = 0,
        shards: int = 1,
    ) -> None:
        check_ttl_range(ttl_min, ttl_max)
        if n_targets < 1:
            raise ValueError("no targets")
        if shards < 1 or not 0 <= shard < shards:
            raise ValueError("bad shard %d of %d" % (shard, shards))
        self.n_targets = n_targets
        self.ttl_min = ttl_min
        self.ttl_max = ttl_max
        self.n_ttls = ttl_max - ttl_min + 1
        self.shard = shard
        self.shards = shards
        space = n_targets * self.n_ttls
        #: Emissions this shard owns.
        self.total = (space - shard + shards - 1) // shards
        self._space = space
        self._perm = KeyedPermutation(space, key)

    def __len__(self) -> int:
        return self.total

    def position(self, index: int) -> int:
        """Global permutation position of this shard's emission ``index``:
        cooperating shards interleave, so shard ``s`` owns the positions
        congruent to ``s`` modulo ``shards``."""
        if not 0 <= index < self.total:
            raise IndexError("emission %d out of range" % index)
        return self.shard + index * self.shards

    def pair(self, index: int) -> Tuple[int, int]:
        """(target index, TTL) for this shard's emission number ``index``."""
        value = self._perm[self.position(index)]
        return value // self.n_ttls, self.ttl_min + (value % self.n_ttls)

    def block(self, index: int, count: int) -> List[Tuple[int, int]]:
        """(target index, TTL) pairs for emissions ``[index, index+count)``
        in one batched permutation call — the fast path of the pull loop."""
        if count < 0:
            raise ValueError("negative count: %r" % count)
        if not (0 <= index and index + count <= self.total):
            raise IndexError(
                "block [%d, %d) out of range [0, %d)"
                % (index, index + count, self.total)
            )
        positions = range(
            self.shard + index * self.shards,
            self.shard + (index + count) * self.shards,
            self.shards,
        )
        n_ttls = self.n_ttls
        ttl_min = self.ttl_min
        return [
            (value // n_ttls, ttl_min + value % n_ttls)
            for value in self._perm.images(positions)
        ]

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for start in range(0, self.total, _ITER_BLOCK):
            for pair in self.block(start, min(_ITER_BLOCK, self.total - start)):
                yield pair
