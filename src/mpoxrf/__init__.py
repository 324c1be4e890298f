"""Full-field XRF imaging through a square-channel micro pore optic:
Monte Carlo simulation, detector event handling, and image analysis."""

import os

# The package calls no BLAS routine, yet numpy's bundled OpenBLAS starts a
# worker thread per extra CPU when numpy loads, and each one spins for
# 0.05-0.15 s of CPU. One thread, unless the user chose a count; this holds
# only if numpy is not loaded yet, and pool workers inherit or re-import it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
