"""IPv6 prefixes (base address + length) and prefix arithmetic.

A :class:`Prefix` is a hashable, totally ordered value object.  Ordering is
by (base, length), which groups covering prefixes immediately before their
more-specifics — the property both the radix trie construction and the
aggregation routines rely on.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, List

from . import address
from .address import ADDRESS_BITS, MAX_ADDRESS, AddressError


class Prefix:
    """An IPv6 prefix: a base address and a length in bits (0..128).

    The base is always stored masked to the prefix length, so two
    prefixes constructed from different host addresses within the same
    block compare equal.
    """

    __slots__ = ("base", "length")

    def __init__(self, base: int, length: int):
        if not 0 <= length <= ADDRESS_BITS:
            raise AddressError("prefix length out of range: %r" % length)
        if not 0 <= base <= MAX_ADDRESS:
            raise AddressError("prefix base out of range: %r" % base)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "base", base & mask_for(length))

    def __setattr__(self, name, value):
        raise AttributeError("Prefix is immutable")

    def __reduce__(self):
        # Pickle rebuilds through the trusted constructor: the default
        # protocol-2+ path would restore the slots with ``setattr``.
        return (Prefix._aligned, (self.base, self.length))

    @classmethod
    def _aligned(cls, base: int, length: int) -> "Prefix":
        """``Prefix(base, length)`` for a base that is in range and has no
        bit past ``length`` *by construction* — derived inside this module
        from a prefix that was checked once."""
        self = object.__new__(cls)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "base", base)
        return self

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``addr/len`` text; a bare address implies /128."""
        text = text.strip()
        if "/" in text:
            addr_text, _, len_text = text.partition("/")
            try:
                length = int(len_text)
            except ValueError:
                raise AddressError("invalid prefix length %r" % len_text) from None
            return cls(address.parse(addr_text), length)
        return cls(address.parse(text), ADDRESS_BITS)

    def __str__(self) -> str:
        return "%s/%d" % (address.format_address(self.base), self.length)

    def __repr__(self) -> str:
        return "Prefix(%s)" % self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Prefix)
            and self.base == other.base
            and self.length == other.length
        )

    def __lt__(self, other: "Prefix") -> bool:
        return (self.base, self.length) < (other.base, other.length)

    def __le__(self, other: "Prefix") -> bool:
        return (self.base, self.length) <= (other.base, other.length)

    def __hash__(self) -> int:
        # Ints hash to themselves: PYTHONHASHSEED-independent, and the
        # value never escapes the process anyway.
        return hash((self.base, self.length))  # repro-lint: disable=DET001

    @property
    def last(self) -> int:
        """Highest address covered by this prefix."""
        return self.base | host_mask_for(self.length)

    @property
    def size(self) -> int:
        """Number of addresses covered (2**(128-length))."""
        return 1 << (ADDRESS_BITS - self.length)

    def contains(self, value: int) -> bool:
        """True if the address integer falls inside this prefix."""
        return (value & mask_for(self.length)) == self.base

    def covers(self, other: "Prefix") -> bool:
        """True if ``other`` is equal to or more specific than this prefix."""
        return other.length >= self.length and self.contains(other.base)

    def extend(self, length: int) -> "Prefix":
        """Lengthen to ``length`` keeping the same base (zero-extension).

        This is the ``zn`` transformation for a too-short prefix: the base
        address is unchanged (bits past the original length are already
        zero).  Raises if ``length`` is shorter than the current length.
        """
        if length < self.length:
            raise AddressError(
                "cannot extend /%d to shorter /%d" % (self.length, length)
            )
        return Prefix(self.base, length)

    def truncate(self, length: int) -> "Prefix":
        """Shorten (aggregate) to ``length``.

        This is the ``zn`` transformation for a too-long prefix.  Raises if
        ``length`` is longer than the current length.
        """
        if length > self.length:
            raise AddressError(
                "cannot truncate /%d to longer /%d" % (self.length, length)
            )
        return Prefix(self.base, length)

    def subnets(self, new_length: int) -> Iterator["Prefix"]:
        """Iterate the subdivisions of this prefix at ``new_length``.

        Careful with large expansions: a /32 has 2**32 /64 subnets.
        """
        if new_length < self.length:
            raise AddressError(
                "subnet length /%d shorter than /%d" % (new_length, self.length)
            )
        shift = ADDRESS_BITS - new_length
        for index in range(1 << (new_length - self.length)):
            yield Prefix._aligned(self.base | (index << shift), new_length)

    def nth_subnet(self, new_length: int, index: int) -> "Prefix":
        """The ``index``-th subdivision at ``new_length`` without iterating."""
        if new_length < self.length:
            raise AddressError(
                "subnet length /%d shorter than /%d" % (new_length, self.length)
            )
        count = 1 << (new_length - self.length)
        if not 0 <= index < count:
            raise IndexError("subnet index %d out of range" % index)
        return Prefix._aligned(self.base | (index << (ADDRESS_BITS - new_length)), new_length)

    def random_address(self, rng: random.Random) -> int:
        """A uniformly random address within this prefix."""
        return self.base | rng.getrandbits(ADDRESS_BITS - self.length) \
            if self.length < ADDRESS_BITS else self.base

    def random_subnet(self, new_length: int, rng: random.Random) -> "Prefix":
        """A uniformly random subdivision of this prefix at ``new_length``."""
        if new_length < self.length:
            raise AddressError(
                "subnet length /%d shorter than /%d" % (new_length, self.length)
            )
        index = rng.getrandbits(new_length - self.length) if new_length > self.length else 0
        return Prefix._aligned(self.base | (index << (ADDRESS_BITS - new_length)), new_length)


def mask_for(length: int) -> int:
    """Network mask integer for a prefix length."""
    if length == 0:
        return 0
    return MAX_ADDRESS ^ ((1 << (ADDRESS_BITS - length)) - 1)


def host_mask_for(length: int) -> int:
    """Host (inverse) mask integer for a prefix length."""
    return (1 << (ADDRESS_BITS - length)) - 1


def aggregate(prefixes: Iterable[Prefix]) -> List[Prefix]:
    """Minimal covering set: drop prefixes covered by another in the input.

    Does not merge adjacent siblings; it only removes redundancy, which is
    what hitlist de-duplication needs.
    """
    result: List[Prefix] = []
    for prefix in sorted(set(prefixes)):
        if result and result[-1].covers(prefix):
            continue
        result.append(prefix)
    return result
