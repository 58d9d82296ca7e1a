"""Analysis: trace reconstruction, discovery metrics, response mixes,
target-set characterization, and subnet inference."""

from .alias import (
    AliasAccuracy,
    AliasParams,
    resolve_aliases,
    score_against_truth,
    sequence_compatible,
    truth_clusters_for,
)
from .discovery import (
    discovery_curve,
    eui64_interfaces,
    eui64_path_offsets,
    eui64_share,
    exclusive_interfaces,
    offset_summary,
    oui_concentration,
    percentile,
)
from .graph import (
    edge_accuracy,
    graph_summary,
    interface_graph,
    router_graph,
)
from .limiter import LimiterEstimate, LimiterProbeConfig, infer_limiter
from .report import (
    format_count,
    render_cdf,
    render_series,
    render_table,
)
from .responses import (
    TABLE4_ROWS,
    other_icmp_count,
    other_icmp_rate,
    per_hop_responsiveness,
    protocol_comparison,
    response_mix,
    transformation_table,
)
from .subnets import (
    AsnResolver,
    PathDivParams,
    SubnetCandidates,
    ValidationReport,
    discover_by_path_div,
    stratified_sample,
    validate_candidates,
)
from .targetsets import (
    CampaignFeatures,
    characterize_results,
    characterize_target_sets,
)
from .traces import Trace, build_traces, path_length_stats, reach_fraction
from .vantages import (
    best_order,
    interfaces_by_vantage,
    overlap_matrix,
)

__all__ = [
    "AliasAccuracy",
    "AliasParams",
    "AsnResolver",
    "CampaignFeatures",
    "PathDivParams",
    "SubnetCandidates",
    "TABLE4_ROWS",
    "Trace",
    "ValidationReport",
    "best_order",
    "build_traces",
    "characterize_results",
    "characterize_target_sets",
    "discover_by_path_div",
    "discovery_curve",
    "edge_accuracy",
    "eui64_interfaces",
    "eui64_path_offsets",
    "eui64_share",
    "exclusive_interfaces",
    "format_count",
    "infer_limiter",
    "graph_summary",
    "interfaces_by_vantage",
    "interface_graph",
    "offset_summary",
    "other_icmp_count",
    "other_icmp_rate",
    "oui_concentration",
    "overlap_matrix",
    "path_length_stats",
    "per_hop_responsiveness",
    "percentile",
    "protocol_comparison",
    "reach_fraction",
    "render_cdf",
    "resolve_aliases",
    "router_graph",
    "render_series",
    "render_table",
    "response_mix",
    "score_against_truth",
    "sequence_compatible",
    "stratified_sample",
    "transformation_table",
    "truth_clusters_for",
    "validate_candidates",
]
