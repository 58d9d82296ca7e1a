"""Probers: Yarrp6 (the paper's contribution) and the sequential /
Doubletree baselines, plus campaign orchestration."""

from .adaptive import AdaptiveConfig, RateController, run_adaptive_yarrp6
from .base import Prober, WaveProber
from .campaign import (
    PROBERS,
    CampaignResult,
    run_campaign,
    run_doubletree,
    run_sequential,
    run_yarrp6,
)
from .doubletree import DoubletreeConfig, DoubletreeProber
from .encoding import (
    DEST_PORT,
    MAGIC,
    PAYLOAD_LENGTH,
    DecodeError,
    DecodedProbe,
    decode_quotation,
    encode_probe,
    rtt_from,
)
from .parallel import (
    CampaignSpec,
    merge_results,
    run_parallel,
    run_shard,
    run_single,
    validate_campaign,
    validate_spec,
)
from .supervise import ShardFailure
from .permutation import KeyedPermutation, ProbeSchedule
from .output import (
    LoadedCampaign,
    dumps,
    load_campaign,
    loads,
    save_campaign,
    write_campaign,
)
from .records import ProbeRecord, ResponseProcessor
from .speedtrap import IdSample, Speedtrap, SpeedtrapConfig, run_speedtrap
from .traceroute import SequentialConfig, SequentialProber
from .yarrp6 import Yarrp6, Yarrp6Config

__all__ = [
    "AdaptiveConfig",
    "CampaignResult",
    "CampaignSpec",
    "DEST_PORT",
    "DecodeError",
    "DecodedProbe",
    "DoubletreeConfig",
    "DoubletreeProber",
    "IdSample",
    "KeyedPermutation",
    "LoadedCampaign",
    "MAGIC",
    "PAYLOAD_LENGTH",
    "PROBERS",
    "ProbeRecord",
    "ProbeSchedule",
    "Prober",
    "RateController",
    "ResponseProcessor",
    "SequentialConfig",
    "SequentialProber",
    "ShardFailure",
    "Speedtrap",
    "SpeedtrapConfig",
    "WaveProber",
    "Yarrp6",
    "Yarrp6Config",
    "decode_quotation",
    "dumps",
    "encode_probe",
    "load_campaign",
    "loads",
    "merge_results",
    "rtt_from",
    "save_campaign",
    "run_adaptive_yarrp6",
    "run_campaign",
    "run_doubletree",
    "run_parallel",
    "run_sequential",
    "run_shard",
    "run_single",
    "run_speedtrap",
    "validate_campaign",
    "validate_spec",
    "write_campaign",
    "run_yarrp6",
]
