"""Synthetic seed sources mirroring the paper's hitlists (Section 3.2)."""

from .base import SeedList, join
from .sources import (
    SOURCES,
    build_all_seeds,
    caida_seed,
    cdn_observations,
    cdn_seed,
    dnsdb_seed,
    fdns_seed,
    fiebig_seed,
    random_seed,
    sixgen_seed,
    tum_seed,
    tum_subsets,
)

__all__ = [
    "SOURCES",
    "SeedList",
    "build_all_seeds",
    "caida_seed",
    "cdn_observations",
    "cdn_seed",
    "dnsdb_seed",
    "fdns_seed",
    "fiebig_seed",
    "join",
    "random_seed",
    "sixgen_seed",
    "tum_seed",
    "tum_subsets",
]
