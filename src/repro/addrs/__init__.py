"""IPv6 address machinery: parsing, prefixes, tries, DPL, IID analysis."""

from .address import (
    ADDRESS_BITS,
    FIXED_IID,
    IID_BITS,
    LOWBYTE1_IID,
    MAX_ADDRESS,
    AddressError,
    common_prefix_length,
    format_address,
    from_bytes,
    interface_identifier,
    parse,
    subnet_prefix,
    to_bytes,
    with_iid,
)
from .dpl import dpl_against, dpl_cdf, dpl_list, dpl_map, pairwise_dpl
from .iid import (
    IIDClass,
    classify_address,
    classify_iid,
    classify_set,
    eui64_mac,
    eui64_oui,
    make_eui64_iid,
)
from .prefix import Prefix, aggregate
from .sets import SetFeatures, characterize_sets
from .trie import PrefixTrie

__all__ = [
    "ADDRESS_BITS",
    "FIXED_IID",
    "IID_BITS",
    "LOWBYTE1_IID",
    "MAX_ADDRESS",
    "AddressError",
    "IIDClass",
    "Prefix",
    "PrefixTrie",
    "SetFeatures",
    "aggregate",
    "characterize_sets",
    "classify_address",
    "classify_iid",
    "classify_set",
    "common_prefix_length",
    "dpl_against",
    "dpl_cdf",
    "dpl_list",
    "dpl_map",
    "eui64_mac",
    "eui64_oui",
    "format_address",
    "from_bytes",
    "interface_identifier",
    "make_eui64_iid",
    "pairwise_dpl",
    "parse",
    "subnet_prefix",
    "to_bytes",
    "with_iid",
]
