"""Full-field XRF imaging through a square-channel micro pore optic:
Monte Carlo simulation, detector event handling, and image analysis."""

from .optics import (
    IRIDIUM,
    Material,
    MpoGeometry,
    PathClass,
    critical_angle_deg,
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
    "Material",
    "MpoGeometry",
    "PathClass",
    "critical_angle_deg",
    "DetectorSpec",
    "Scene",
    "Source",
    "SpectralImage",
    "simulate",
]
