"""The Figure 2 design flow driver and the canonical example platforms."""

from .design_flow import DesignFlow, FlowReport, FlowStage
from .platforms import (
    BUS_FAMILIES,
    PciPlatformConfig,
    PlatformBundle,
    build_platform,
    standard_flow_builders,
)

__all__ = [
    "BUS_FAMILIES",
    "DesignFlow",
    "FlowReport",
    "FlowStage",
    "PciPlatformConfig",
    "PlatformBundle",
    "build_platform",
    "standard_flow_builders",
]
