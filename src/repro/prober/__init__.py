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
    contract,
    merge_results,
    run_parallel,
    run_shard,
    run_single,
    validate_spec,
)
from .supervise import (
    DEFAULT_SUPERVISE,
    ShardFailure,
    SuperviseConfig,
    validate_supervise,
)
from .permutation import KeyedPermutation, ProbeSchedule
from .mda import MDAConfig, MDAResult, run_mda
from .output import (
    LoadedCampaign,
    dumps,
    load_campaign,
    loads,
    save_campaign,
    write_campaign,
)
from .pmtud import PMTUDConfig, PMTUDResult, discover_pmtu, mtu_census
from .records import ProbeRecord, ResponseProcessor
from .speedtrap import IdSample, Speedtrap, SpeedtrapConfig, run_speedtrap
from .traceroute import SequentialConfig, SequentialProber
from .yarrp6 import Yarrp6, Yarrp6Config

__all__ = [
    "AdaptiveConfig",
    "CampaignResult",
    "CampaignSpec",
    "DEFAULT_SUPERVISE",
    "DEST_PORT",
    "DecodeError",
    "DecodedProbe",
    "DoubletreeConfig",
    "DoubletreeProber",
    "IdSample",
    "KeyedPermutation",
    "LoadedCampaign",
    "MDAConfig",
    "MDAResult",
    "MAGIC",
    "PAYLOAD_LENGTH",
    "PMTUDConfig",
    "PMTUDResult",
    "PROBERS",
    "ProbeRecord",
    "ProbeSchedule",
    "Prober",
    "RateController",
    "ResponseProcessor",
    "SequentialConfig",
    "SequentialProber",
    "ShardFailure",
    "SuperviseConfig",
    "Speedtrap",
    "SpeedtrapConfig",
    "WaveProber",
    "Yarrp6",
    "Yarrp6Config",
    "decode_quotation",
    "discover_pmtu",
    "dumps",
    "encode_probe",
    "load_campaign",
    "loads",
    "merge_results",
    "rtt_from",
    "mtu_census",
    "run_mda",
    "save_campaign",
    "run_adaptive_yarrp6",
    "run_campaign",
    "run_doubletree",
    "run_parallel",
    "run_sequential",
    "run_shard",
    "run_single",
    "run_speedtrap",
    "validate_spec",
    "validate_supervise",
    "write_campaign",
    "run_yarrp6",
]
