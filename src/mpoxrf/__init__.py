"""Full-field XRF imaging through a square-channel micro pore optic:
Monte Carlo simulation, detector event handling, and image analysis."""

from .optics import (
    IRIDIUM,
    ChannelTraceResult,
    Material,
    MpoGeometry,
    PathClass,
    critical_angle_deg,
    trace_channel,
)
from .sim import (
    DetectorSpec,
    Scene,
    Source,
    SpectralImage,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "IRIDIUM",
    "ChannelTraceResult",
    "Material",
    "MpoGeometry",
    "PathClass",
    "critical_angle_deg",
    "trace_channel",
    "DetectorSpec",
    "Scene",
    "Source",
    "SpectralImage",
    "simulate",
]
