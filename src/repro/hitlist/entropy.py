"""Entropy/IP-style address structure analysis and generation.

Foremski, Plonka and Berger's Entropy/IP (IMC 2016, cited in §2) exposes
the *structure* of an address set: per-nybble Shannon entropy locates
the constant, enumerated, and random regions of the 32-nybble address,
and a generative model over those regions proposes new candidate
addresses.  This module implements the lite version:

* :func:`nybble_entropy` — the entropy profile (bits, 0..4 per nybble);
* :func:`segment` — contiguous runs classified constant / low / high
  entropy (Entropy/IP's segments);
* :class:`EntropyModel` — a segment-chain generative model: whole
  observed segment values are the atoms, adjacent segments are chained
  only where the dependency is strong (a pruned-Bayes-net lite of the
  paper's model), and independent segments recombine freely to propose
  fresh candidates.

Together with 6Gen this gives the library two published target
generators to race (the paper only evaluates 6Gen).
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Nybbles per address.
WIDTH = 32


def _columns(addresses: Sequence[int]) -> List[Counter]:
    counts = [Counter() for _ in range(WIDTH)]
    for value in addresses:
        for position in range(WIDTH):
            shift = 4 * (WIDTH - 1 - position)
            counts[position][(value >> shift) & 0xF] += 1
    return counts


def nybble_entropy(addresses: Sequence[int]) -> List[float]:
    """Shannon entropy (bits) of each nybble position, MSB first.

    0.0 = constant; 4.0 = uniformly random.  Empty input yields zeros.
    """
    if not addresses:
        return [0.0] * WIDTH
    total = len(addresses)
    profile = []
    for counter in _columns(addresses):
        entropy = 0.0
        for count in counter.values():
            p = count / total
            entropy -= p * math.log2(p)
        profile.append(entropy)
    return profile


@dataclass(frozen=True)
class Segment:
    """A contiguous nybble run with homogeneous entropy class."""

    start: int
    end: int  # exclusive
    kind: str  # "constant" | "low" | "high"
    mean_entropy: float

    @property
    def width(self) -> int:
        return self.end - self.start


def segment(
    addresses: Sequence[int], low_threshold: float = 0.5, high_threshold: float = 3.0
) -> List[Segment]:
    """Classify the address layout into constant / enumerated ("low") /
    random ("high") segments, Entropy/IP-fashion."""
    profile = nybble_entropy(addresses)

    def classify(value: float) -> str:
        if value < 1e-9:
            return "constant"
        if value < low_threshold:
            return "low"
        if value >= high_threshold:
            return "high"
        return "low"

    segments: List[Segment] = []
    start = 0
    current = classify(profile[0])
    for position in range(1, WIDTH):
        kind = classify(profile[position])
        if kind != current:
            run = profile[start:position]
            segments.append(
                Segment(start, position, current, sum(run) / len(run))
            )
            start, current = position, kind
    run = profile[start:]
    segments.append(Segment(start, WIDTH, current, sum(run) / len(run)))
    return segments


class EntropyModel:
    """Segment-chain model of an address set (Entropy/IP-lite).

    Entropy/IP proper fits a Bayesian network whose variables are the
    entropy *segments* of the address; the lite version keeps the same
    granularity — whole observed segment values are the atoms, never
    individual nybbles — and chains adjacent segments first-order.
    Sampling therefore recombines real prefixes with IID patterns seen
    elsewhere (the generator's value proposition) without ever splicing
    frankenprefixes out of unrelated networks' nybbles.
    """

    def __init__(self, addresses: Sequence[int]):
        if not addresses:
            raise ValueError("cannot model an empty address set")
        self.size = len(addresses)
        self.segments = segment(addresses)
        self.entropy = nybble_entropy(addresses)

        def segment_value(value: int, seg: Segment) -> int:
            shift = 4 * (WIDTH - seg.end)
            mask = (1 << (4 * seg.width)) - 1
            return (value >> shift) & mask

        first: Counter = Counter()
        chains: List[Dict[int, Counter]] = [
            {} for _ in range(len(self.segments) - 1)
        ]
        marginals: List[Counter] = [Counter() for _ in self.segments]
        for value in addresses:
            pieces = [segment_value(value, seg) for seg in self.segments]
            first[pieces[0]] += 1
            for index, piece in enumerate(pieces):
                marginals[index][piece] += 1
            for index in range(1, len(pieces)):
                table = chains[index - 1].setdefault(pieces[index - 1], Counter())
                table[pieces[index]] += 1
        self._first = (sorted(first), [first[v] for v in sorted(first)])

        # Dependency pruning (the Bayes-net spirit): keep the chain edge
        # only where conditioning on the previous segment meaningfully
        # reduces the next segment's entropy; otherwise the segments are
        # independent and sampling recombines their values freely.
        def shannon(counter: Counter) -> float:
            total = sum(counter.values())
            return -sum(
                (count / total) * math.log2(count / total)
                for count in counter.values()
            )

        self._chains: List[Optional[Dict[int, Counter]]] = []
        self._marginals: List[Tuple[List[int], List[int]]] = [
            (sorted(counter), [counter[v] for v in sorted(counter)])
            for counter in marginals
        ]
        for index in range(1, len(self.segments)):
            unconditional = shannon(marginals[index])
            total = sum(marginals[index - 1].values())
            conditional = sum(
                (sum(table.values()) / total) * shannon(table)
                for table in chains[index - 1].values()
            )
            strong = unconditional > 0 and conditional <= 0.7 * unconditional
            self._chains.append(chains[index - 1] if strong else None)

    def sample(self, rng: random.Random) -> int:
        values, weights = self._first
        piece = rng.choices(values, weights=weights, k=1)[0]
        value = piece
        for index in range(1, len(self.segments)):
            table = self._chains[index - 1]
            if table is not None:
                conditioned = table[piece]
                choices = sorted(conditioned)
                piece = rng.choices(
                    choices, weights=[conditioned[c] for c in choices], k=1
                )[0]
            else:
                choices, marginal_weights = self._marginals[index]
                piece = rng.choices(choices, weights=marginal_weights, k=1)[0]
            value = (value << (4 * self.segments[index].width)) | piece
        return value

    def generate(self, count: int, seed: int = 0, exclude: Iterable[int] = ()) -> List[int]:
        """Up to ``count`` fresh candidate addresses (deduplicated, not in
        ``exclude``)."""
        rng = random.Random(seed)
        seen = set(exclude)
        out: List[int] = []
        attempts = 0
        limit = count * 20
        while len(out) < count and attempts < limit:
            candidate = self.sample(rng)
            attempts += 1
            if candidate in seen:
                continue
            seen.add(candidate)
            out.append(candidate)
        return sorted(out)
