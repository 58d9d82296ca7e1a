"""Simulated IPv6 internet: topology generation, virtual time,
rate limiting, ECMP, and byte-level packet handling."""

from .build import (
    BuiltInternet,
    InternetConfig,
    Vantage,
    VantageConfig,
    build_internet,
    collector_paused,
    decoupled_dynamics,
    validate_config,
)
from .ecmp import VARIANTS, flow_variant
from .engine import Engine, US_PER_SECOND, pps_interval, seconds
from .internet import CompiledPath, Internet, Response, RouterState, TerminalKind
from .ratelimit import TokenBucket
from .topology import (
    AddressPlan,
    AutonomousSystem,
    GroundTruth,
    Router,
    RouterRole,
    Subnet,
    SubnetPlan,
)

__all__ = [
    "AddressPlan",
    "AutonomousSystem",
    "BuiltInternet",
    "CompiledPath",
    "Engine",
    "GroundTruth",
    "Internet",
    "InternetConfig",
    "Response",
    "Router",
    "RouterRole",
    "RouterState",
    "Subnet",
    "SubnetPlan",
    "TerminalKind",
    "TokenBucket",
    "US_PER_SECOND",
    "VARIANTS",
    "Vantage",
    "VantageConfig",
    "build_internet",
    "collector_paused",
    "decoupled_dynamics",
    "flow_variant",
    "pps_interval",
    "seconds",
    "validate_config",
]
