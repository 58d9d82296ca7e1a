"""Subnet discovery from trace results (Section 6 of the paper).

Two techniques:

* **Path-divergence** (``discover_by_path_div``, after Lee et al.'s
  Hobbit adapted to IPv6): when traces to two targets share a significant
  common subpath and then significantly diverge, the targets lie in
  different subnets, and their Discriminating Prefix Length lower-bounds
  both subnets' prefix lengths.  The classifier takes the paper's
  conservative parameters (c, C, A, s, S, z, T) and applies the BGP/RIR
  "registry" augmentation plus equivalent-ASN folding the paper needs for
  networks like Comcast.
* **The IA ("Identity Association") hack**: a last hop sourced from the
  target's own /64 with the ::1 IID is taken to be the gateway of the
  target's LAN — pinpointing a /64 subnet exactly and establishing that
  the trace completed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..addrs.address import IID_MASK, PREFIX_MASK
from ..addrs.dpl import capped_dpl, pairwise_dpl
from ..addrs.prefix import Prefix
from ..addrs.trie import PrefixTrie
from .traces import Trace


@dataclass(frozen=True)
class PathDivParams:
    """The discoverByPathDiv knobs, defaulted to the paper's values."""

    #: Minimum length of the last common subpath (LCS).
    c: int = 2
    #: LCS hops whose ASN must match the target's ASN.
    C: int = 1
    #: The last hop's ASN must not match the vantage's (A = 1 enables).
    A: int = 1
    #: Minimum length of each divergent suffix (DS).
    s: int = 1
    #: DS hops whose ASN must match the target's.
    S: int = 1
    #: Disallow zero-length divergent suffixes.
    z: int = 0
    #: Require the pair's target ASNs to match.
    T: int = 1
    #: How many sorted neighbours each target is compared against; nearest
    #: neighbours carry the highest-DPL (most informative) comparisons.
    neighbor_window: int = 3


class SubnetCandidates:
    """Output of subnet inference: per-target prefix-length lower bounds
    plus exact /64s from the IA hack."""

    def __init__(self):
        #: target -> best (highest) minimum prefix length inferred.
        self.bounds: Dict[int, int] = {}
        #: /64 prefixes confirmed by the strict (::1) IA hack.
        self.ia_subnets: Set[Prefix] = set()
        #: Traces whose last hop shared the target's /64 (the dots plotted
        #: at 64 in Figure 8b, IID-agnostic).
        self.same64_last_hop = 0
        self.pairs_compared = 0
        self.pairs_divergent = 0

    def record_bound(self, target: int, length: int) -> None:
        previous = self.bounds.get(target, 0)
        if length > previous:
            self.bounds[target] = length

    @property
    def candidate_prefixes(self) -> Set[Prefix]:
        """Candidate subnets: each bounded target's covering prefix at its
        inferred minimum length."""
        return {
            Prefix(target, length) for target, length in self.bounds.items()
        }

    def length_histogram(self) -> Dict[int, int]:
        """Counts of candidate subnets per inferred minimum length."""
        histogram: Dict[int, int] = {}
        # Sorted so the histogram's key order is stable run to run.
        for prefix in sorted(self.candidate_prefixes):
            histogram[prefix.length] = histogram.get(prefix.length, 0) + 1
        return histogram

    def length_cdf(self, bins: Sequence[int]) -> List[Tuple[int, float]]:
        """Figure 8a: cumulative fraction of candidates by length."""
        lengths = sorted(prefix.length for prefix in self.candidate_prefixes)
        if not lengths:
            return [(edge, 0.0) for edge in bins]
        from bisect import bisect_right

        return [
            (edge, bisect_right(lengths, edge) / len(lengths)) for edge in bins
        ]


class AsnResolver:
    """Hop/target → canonical ASN, with registry augmentation.

    Router addresses frequently fall outside the public BGP; the paper
    augments with RIR registrations and folds operationally equivalent
    ASNs together.  ``registry`` should be the BGP+RIR trie.
    """

    def __init__(
        self,
        registry: PrefixTrie,
        equivalents: Optional[Mapping[int, int]] = None,
    ):
        self.registry = registry
        self.equivalents = dict(equivalents or {})
        self._cache: Dict[int, Optional[int]] = {}

    def asn_of(self, addr: int) -> Optional[int]:
        if addr in self._cache:
            return self._cache[addr]
        value = self.registry.lookup(addr)
        if value is not None:
            value = self.equivalents.get(value, value)
        self._cache[addr] = value
        return value


def _divergence_bound(
    trace_a: Trace,
    trace_b: Trace,
    resolver: AsnResolver,
    vantage_asn: Optional[int],
    params: PathDivParams,
) -> Optional[int]:
    """Apply the significance tests; return the capped DPL bound or None."""
    target_asn = resolver.asn_of(trace_a.target)
    if target_asn is None:
        return None
    if params.T and resolver.asn_of(trace_b.target) != target_asn:
        return None

    path_a, path_b = trace_a.path, trace_b.path
    if not path_a or not path_b:
        return None

    # Locate the divergence point: first index where the hops differ.
    shared = 0
    limit = min(len(path_a), len(path_b))
    while shared < limit and path_a[shared] == path_b[shared] and path_a[shared] is not None:
        shared += 1
    if shared == 0:
        return None

    # Divergent suffixes must exist and be significant.
    suffix_a = path_a[shared:]
    suffix_b = path_b[shared:]
    if len(suffix_a) < max(params.s, 1) or len(suffix_b) < max(params.s, 1):
        return None
    for suffix in (suffix_a, suffix_b):
        matching = sum(
            1
            for hop in suffix
            if hop is not None and resolver.asn_of(hop) == target_asn
        )
        if matching < params.S:
            return None
    # The suffixes must actually differ in content, not just in length
    # (missing-hop padding is not divergence evidence).
    responded_a = [hop for hop in suffix_a if hop is not None]
    responded_b = [hop for hop in suffix_b if hop is not None]
    if not responded_a or not responded_b:
        return None
    if responded_a == responded_b:
        return None

    # The LCS: the run of identical, present hops ending at the
    # divergence point.
    lcs: List[int] = []
    index = shared - 1
    while index >= 0 and path_a[index] is not None and path_a[index] == path_b[index]:
        lcs.append(path_a[index])
        index -= 1
    if len(lcs) < params.c:
        return None
    lcs_matching = sum(1 for hop in lcs if resolver.asn_of(hop) == target_asn)
    if lcs_matching < params.C:
        return None

    # Last hop must have escaped the vantage network.
    if params.A and vantage_asn is not None:
        for trace in (trace_a, trace_b):
            last = trace.last_hop
            if last is not None and resolver.asn_of(last) == vantage_asn:
                return None

    return capped_dpl(pairwise_dpl(trace_a.target, trace_b.target))


def discover_by_path_div(
    traces: Mapping[int, Trace],
    resolver: AsnResolver,
    vantage_asn: Optional[int] = None,
    params: PathDivParams = PathDivParams(),
) -> SubnetCandidates:
    """Infer candidate subnets from path divergence plus the IA hack."""
    candidates = SubnetCandidates()
    targets = sorted(
        target for target, trace in traces.items() if trace.hops
    )
    for position, target in enumerate(targets):
        trace = traces[target]
        for offset in range(1, params.neighbor_window + 1):
            if position + offset >= len(targets):
                break
            other = traces[targets[position + offset]]
            candidates.pairs_compared += 1
            bound = _divergence_bound(trace, other, resolver, vantage_asn, params)
            if bound is None:
                continue
            candidates.pairs_divergent += 1
            candidates.record_bound(trace.target, bound)
            candidates.record_bound(other.target, bound)

    # The IA hack pass.
    for target, trace in traces.items():
        last = trace.last_hop
        if last is None:
            continue
        if last & PREFIX_MASK == target & PREFIX_MASK:
            candidates.same64_last_hop += 1
            if last & IID_MASK == 1:
                candidates.ia_subnets.add(Prefix(target & PREFIX_MASK, 64))
    return candidates


# ---------------------------------------------------------------------------
# Validation against ground truth (Section 6, "Subnet Validation")
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    """Comparison of inferred candidates against ground-truth subnets."""

    truth_subnets: int
    truth_probed: int
    candidates: int
    exact_matches: int
    more_specific: int
    one_bit_short: int
    two_bits_short: int

    @property
    def exact_fraction(self) -> float:
        """Exact matches per *candidate* — the paper's stratified-rerun
        metric (395 of 914 candidates, 43%)."""
        return self.exact_matches / self.candidates if self.candidates else 0.0


def validate_candidates(
    candidates: SubnetCandidates,
    truth: Sequence[Prefix],
    probed_targets: Iterable[int],
) -> ValidationReport:
    """Score candidates against ground-truth subnet prefixes.

    ``truth`` is the operator's real subnet plan (e.g. the netsim
    distribution/allocation prefixes); a truth subnet counts as *probed*
    when some target fell inside it.
    """
    truth_trie: PrefixTrie = PrefixTrie()
    for prefix in truth:
        truth_trie.insert(prefix, prefix)
    probed: Set[Prefix] = set()
    for target in probed_targets:
        match = truth_trie.longest_match(target)
        if match is not None:
            probed.add(match[0])

    candidate_set = candidates.candidate_prefixes
    exact = 0
    more_specific = 0
    one_bit = 0
    two_bits = 0
    matched_truth: Set[Prefix] = set()
    for candidate in candidate_set:
        covering = truth_trie.longest_match(candidate.base)
        if covering is None:
            continue
        truth_prefix = covering[0]
        if truth_prefix not in probed:
            continue
        if candidate == truth_prefix:
            exact += 1
            matched_truth.add(truth_prefix)
        elif candidate.length > truth_prefix.length:
            more_specific += 1
            matched_truth.add(truth_prefix)
        elif truth_prefix.length - candidate.length == 1:
            one_bit += 1
        elif truth_prefix.length - candidate.length == 2:
            two_bits += 1
    return ValidationReport(
        truth_subnets=len(set(truth)),
        truth_probed=len(probed),
        candidates=len(candidate_set),
        exact_matches=exact,
        more_specific=more_specific,
        one_bit_short=one_bit,
        two_bits_short=two_bits,
    )


def stratified_sample(
    traces: Mapping[int, Trace], truth: Sequence[Prefix]
) -> Dict[int, Trace]:
    """One trace per ground-truth subnet (the paper's fidelity-reduction
    rerun): keeps discovery from exceeding truth granularity."""
    truth_trie: PrefixTrie = PrefixTrie()
    for prefix in truth:
        truth_trie.insert(prefix, prefix)
    chosen: Dict[Prefix, int] = {}
    for target in sorted(traces):
        match = truth_trie.longest_match(target)
        if match is None:
            continue
        chosen.setdefault(match[0], target)
    return {target: traces[target] for target in chosen.values()}
