"""Target generation: seeds → prefix transformation → synthesis (Fig. 1)."""

from .entropy import EntropyModel, Segment, nybble_entropy, segment, structure_summary
from .kip import KIPParams, coverage, kip_aggregate, kn_transform
from .pipeline import TargetSet, build_suite, combine, make_targets
from .sixgen import SixGenConfig, cluster_densities, generate
from .synthesis import fixediid, known, lowbyte1, random_iid, synthesize, with_iid
from .transform import as_prefix, expand_short_prefixes, zn

__all__ = [
    "EntropyModel",
    "KIPParams",
    "Segment",
    "SixGenConfig",
    "TargetSet",
    "as_prefix",
    "build_suite",
    "cluster_densities",
    "combine",
    "coverage",
    "expand_short_prefixes",
    "fixediid",
    "generate",
    "kip_aggregate",
    "kn_transform",
    "known",
    "lowbyte1",
    "make_targets",
    "nybble_entropy",
    "random_iid",
    "segment",
    "structure_summary",
    "synthesize",
    "with_iid",
    "zn",
]
