"""Binary radix (Patricia-style) trie over IPv6 prefixes.

Used as the routing/lookup substrate everywhere a "does this address fall
in an advertised prefix, and which one?" question arises: BGP tables,
routed-target classification (Table 5), target-to-ASN attribution, and the
per-router forwarding tables of the network simulator.

The implementation is a path-compressed binary trie keyed on prefix bits.
Each stored prefix may carry an arbitrary value (e.g. an origin ASN or a
next-hop).  Lookup returns the longest matching stored prefix.
"""

from __future__ import annotations

from typing import Any, Generic, Iterator, List, Optional, Tuple, TypeVar

from .address import ADDRESS_BITS
from .prefix import Prefix, mask_for

V = TypeVar("V")


class _Node:
    __slots__ = ("prefix", "value", "has_value", "children")

    def __init__(self, prefix: Prefix):
        self.prefix = prefix
        self.value: Any = None
        self.has_value = False
        self.children: List[Optional["_Node"]] = [None, None]


def _branch_bit(value: int, depth: int) -> int:
    """Bit of ``value`` at ``depth`` from the MSB (depth 0 = bit 127)."""
    return (value >> (ADDRESS_BITS - 1 - depth)) & 1


class PrefixTrie(Generic[V]):
    """Longest-prefix-match trie mapping :class:`Prefix` to values.

    Supports insertion, exact lookup, longest-prefix match on addresses,
    covered-prefix enumeration, and iteration in sorted prefix order.
    """

    def __init__(self):
        self._root = _Node(Prefix(0, 0))
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def insert(self, prefix: Prefix, value: V = None) -> None:
        """Insert (or replace) ``prefix`` with an associated ``value``."""
        node = self._root
        while True:
            if node.prefix == prefix:
                if not node.has_value:
                    self._count += 1
                node.value = value
                node.has_value = True
                return
            bit = _branch_bit(prefix.base, node.prefix.length)
            child = node.children[bit]
            if child is None:
                leaf = _Node(prefix)
                leaf.value = value
                leaf.has_value = True
                node.children[bit] = leaf
                self._count += 1
                return
            shared = _common_length(prefix, child.prefix)
            if shared >= child.prefix.length:
                node = child
                continue
            # Split: the new prefix diverges inside the compressed edge.
            fork = _Node(Prefix(prefix.base, shared))
            node.children[bit] = fork
            fork.children[_branch_bit(child.prefix.base, shared)] = child
            if shared == prefix.length:
                fork.value = value
                fork.has_value = True
                self._count += 1
            else:
                leaf = _Node(prefix)
                leaf.value = value
                leaf.has_value = True
                fork.children[_branch_bit(prefix.base, shared)] = leaf
                self._count += 1
            return

    def get(self, prefix: Prefix) -> Optional[V]:
        """Exact-match lookup; None when the prefix is not stored."""
        node = self._find_exact(prefix)
        return node.value if node is not None and node.has_value else None

    def __contains__(self, prefix: Prefix) -> bool:
        node = self._find_exact(prefix)
        return node is not None and node.has_value

    def _find_exact(self, prefix: Prefix) -> Optional[_Node]:
        node = self._root
        while node is not None:
            if node.prefix.length > prefix.length:
                return None
            if not node.prefix.contains(prefix.base) and node.prefix.length > 0:
                return None
            if node.prefix.length == prefix.length:
                return node if node.prefix == prefix else None
            node = node.children[_branch_bit(prefix.base, node.prefix.length)]
        return None

    def longest_match(self, value: int) -> Optional[Tuple[Prefix, V]]:
        """Longest stored prefix covering address ``value``, with its value."""
        best: Optional[_Node] = None
        node: Optional[_Node] = self._root
        while node is not None:
            if not node.prefix.contains(value):
                break
            if node.has_value:
                best = node
            if node.prefix.length >= ADDRESS_BITS:
                break
            node = node.children[_branch_bit(value, node.prefix.length)]
        if best is None:
            return None
        return best.prefix, best.value

    def lookup(self, value: int) -> Optional[V]:
        """Value of the longest matching prefix, or None."""
        match = self.longest_match(value)
        return match[1] if match is not None else None

    def covers(self, value: int) -> bool:
        """True if any stored prefix covers the address."""
        return self.longest_match(value) is not None

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """All stored (prefix, value) pairs in sorted prefix order."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.has_value:
                yield node.prefix, node.value
            for child in (node.children[1], node.children[0]):
                if child is not None:
                    stack.append(child)

    def prefixes(self) -> List[Prefix]:
        """All stored prefixes in sorted order."""
        return [prefix for prefix, _ in self.items()]


def _common_length(a: Prefix, b: Prefix) -> int:
    """Length of the longest common prefix of two prefixes."""
    limit = min(a.length, b.length)
    diff = (a.base ^ b.base) & mask_for(limit)
    if diff == 0:
        return limit
    return ADDRESS_BITS - diff.bit_length()
