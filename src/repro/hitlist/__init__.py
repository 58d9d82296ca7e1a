"""Target generation: seeds → prefix transformation → synthesis (Fig. 1)."""

from .entropy import EntropyModel, Segment, nybble_entropy, segment
from .kip import KIPParams, coverage, kip_aggregate
from .pipeline import TargetSet, build_suite, combine, make_targets
from .sixgen import SixGenConfig, generate
from .synthesis import fixediid, known, lowbyte1, random_iid, synthesize
from .transform import as_prefix, zn

__all__ = [
    "EntropyModel",
    "KIPParams",
    "Segment",
    "SixGenConfig",
    "TargetSet",
    "as_prefix",
    "build_suite",
    "combine",
    "coverage",
    "fixediid",
    "generate",
    "kip_aggregate",
    "known",
    "lowbyte1",
    "make_targets",
    "nybble_entropy",
    "random_iid",
    "segment",
    "synthesize",
    "zn",
]
