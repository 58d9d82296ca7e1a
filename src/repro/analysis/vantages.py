"""Multi-vantage analysis: how much does each extra vantage buy?

The paper runs three vantages and plans "a large number" (Section 7.2).
These helpers quantify that plan: the greedy order that adds the most
new interfaces first (the diminishing-returns curve a deployment planner
would consult) and pairwise overlap between vantages' discoveries.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List, Mapping, Set, Tuple

from ..prober.campaign import CampaignResult


def best_order(results: Mapping[str, Set[int]]) -> List[Tuple[str, int, int]]:
    """Greedy max-coverage ordering: the most useful vantage first, then
    whichever adds the most, and so on (the planner's view)."""
    remaining = {name: set(interfaces) for name, interfaces in results.items()}
    seen: Set[int] = set()
    rows: List[Tuple[str, int, int]] = []
    while remaining:
        name = max(remaining, key=lambda key: len(remaining[key] - seen))
        fresh = len(remaining[name] - seen)
        seen |= remaining.pop(name)
        rows.append((name, fresh, len(seen)))
    return rows


def overlap_matrix(
    results: Mapping[str, Set[int]]
) -> Dict[Tuple[str, str], float]:
    """Pairwise Jaccard similarity of vantages' interface sets."""
    matrix: Dict[Tuple[str, str], float] = {}
    for a, b in combinations(sorted(results), 2):
        union = results[a] | results[b]
        matrix[(a, b)] = (
            len(results[a] & results[b]) / len(union) if union else 1.0
        )
    return matrix


def interfaces_by_vantage(
    campaigns: Iterable[CampaignResult],
) -> Dict[str, Set[int]]:
    """Group campaign results by vantage, unioning their interfaces."""
    grouped: Dict[str, Set[int]] = {}
    for result in campaigns:
        grouped.setdefault(result.vantage, set()).update(result.interfaces)
    return grouped
