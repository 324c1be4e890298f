"""Single-pore physics of a square-channel micro pore optic.

A micro pore optic (MPO) is a plate of microscopic square glass channels
whose walls act as grazing-incidence X-ray mirrors.  Because the channel
cross section is square, motion in the two transverse planes decouples
exactly: a ray bounces between the two x-walls and, independently, between
the two z-walls.  That makes the full in-channel trajectory solvable in
closed form by "unfolding" the reflections into a straight line through a
stack of mirror tiles.

The plate is stated here once: its pitch-cell lattice (:func:`_pore_cells`,
:func:`_opening_edges`, :func:`_open_length`) and its exit slopes
(:func:`critical_slope`, :func:`straight_through_slope`).  The transport
kernels work on arrays, one per physics step: unfolding
(:func:`_unfold_vec`), wall survival (:func:`_survives`) and parity
classification (:func:`_class_codes`).  They are the only transport
interface: :mod:`mpoxrf.sim` runs them over photon batches, and the tests
hold an independent wall-marching oracle.

Conventions used throughout:

* the optic axis is the lab y axis; the plate face lies in the x-z plane,
* transverse slopes are dimensionless (dx/dy, dz/dy),
* grazing angles are measured from the mirror surface, in degrees,
* pore-local coordinates u, v run across the channel opening in micrometres,
  u, v in [0, w].
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

EQ_CRITICAL_ANGLE_COEFF = 1.651  # deg keV sqrt(mol cm^3 / g^2)


@dataclass(frozen=True)
class Material:
    """Coating material entering the critical-angle formula.

    Attributes
    ----------
    name : str
        Text label ("Ir", "Au", ...).
    Z : int
        Atomic number.
    A : float
        Atomic mass, g/mol.
    rho : float
        Density, g/cm^3.
    """

    name: str
    Z: int
    A: float
    rho: float

    def __post_init__(self):
        if self.Z < 1:
            raise ValueError(f"atomic number must be >= 1, got {self.Z}")
        for name, value in (("atomic mass", self.A), ("density", self.rho)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0.0 < self.Z / self.A <= 1.0:
            raise ValueError(
                f"Z/A = {self.Z / self.A:.3f} outside (0, 1]; not a real element"
            )


#: Iridium, the usual heavy reflective channel coating (bulk density).
IRIDIUM = Material(name="Ir", Z=77, A=192.217, rho=22.56)


@dataclass(frozen=True)
class MpoGeometry:
    """Square-pore plate geometry and coating.

    Attributes
    ----------
    plate_side : float
        Side of the square plate, mm.
    thickness_t : float
        Plate (channel) thickness, mm.
    pore_width_w : float
        Square channel opening, micrometres.
    pitch_p : float
        Channel pitch, micrometres.  Pores are centered in each pitch cell;
        the web between openings absorbs totally.
    coating : Material
        Reflective wall coating.
    reflectivity : float
        Survival probability of one wall bounce below the critical angle,
        in (0, 1].  1 is a lossless wall; below 1 each bounce survives
        with this probability.
    """

    plate_side: float = 20.0
    thickness_t: float = 1.2
    pore_width_w: float = 20.0
    pitch_p: float = 25.0
    coating: Material = IRIDIUM
    reflectivity: float = 1.0

    def __post_init__(self):
        if not 0 < self.pore_width_w < self.pitch_p < math.inf:
            raise ValueError(
                f"need 0 < pore width ({self.pore_width_w}) < pitch "
                f"({self.pitch_p}) < inf"
            )
        for name, value in (
            ("plate thickness", self.thickness_t), ("plate side", self.plate_side)
        ):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0.0 < self.reflectivity <= 1.0:
            raise ValueError("per-bounce reflectivity must be in (0, 1]")


class PathClass(enum.Enum):
    """Reflection-parity taxonomy of a detected ray.

    Odd reflection counts in a plane reverse the transverse direction in
    that plane (focusing); even counts preserve it (de-focusing).  Odd in
    both planes builds the central spot, mixed parity builds the cross
    arms, zero bounces is direct transmission, and the remaining
    even/even rays form the diffuse quadrants.
    """

    CENTRAL_FOCUS = "central_focus"
    ARM_ALONG_X = "arm_along_x"
    ARM_ALONG_Z = "arm_along_z"
    DIFFUSE = "diffuse"
    DIRECT = "direct"


def critical_angle_deg(energy: float, material: Material) -> float:
    """Critical grazing angle for total external reflection, in degrees.

    theta_c = 1.651 * sqrt((Z/A) * rho[g/cm^3]) / E[keV]

    Bit for bit theta_c(1 keV) / E: doubling the energy halves the angle.

    Parameters
    ----------
    energy : float
        Photon energy, keV.  Must be positive and finite.
    material : Material
        Reflecting surface material.
    """
    if not 0 < energy < math.inf:
        raise ValueError(f"energy must be positive and finite, got {energy}")
    root = math.sqrt(material.Z / material.A * material.rho)
    return EQ_CRITICAL_ANGLE_COEFF * root / energy


def critical_slope(energy: float, coating: Material) -> float:
    """tan(theta_c) at ``energy`` (keV): the steepest transverse slope that
    a wall reflects, and so the steepest a reflected ray leaves with.
    Raises ValueError where theta_c reaches 90 degrees (on iridium, below
    about 0.055 keV): the formula has left its grazing-angle regime, and
    the tangent would wrap to a negative or huge slope."""
    angle = critical_angle_deg(energy, coating)
    if angle >= 90.0:
        raise ValueError(
            f"critical angle {angle:.4g} deg of {coating.name} at {energy} keV "
            "is not below 90 deg"
        )
    return math.tan(math.radians(angle))


def straight_through_slope(geometry: MpoGeometry) -> float:
    """w / t: the steepest transverse slope that crosses a channel without
    touching a wall."""
    return geometry.pore_width_w / (geometry.thickness_t * 1e3)


def _pore_cells(x, z, geometry: MpoGeometry):
    """Pitch-cell decomposition of plate-face positions (arrays, mm).

    Pitch cells tile the plate from a cell centered on the plate center;
    each holds a centered w x w opening whose boundary counts as inside.
    Returns the lower corner (x0, z0) of each position's opening in plate
    mm, pore-local (u, v) in micrometres, so that the position is
    ``x0 + u * 1e-3``, and the mask of positions inside an opening.
    """
    p_mm = geometry.pitch_p * 1e-3
    half_w = geometry.pore_width_w / 2.0
    h_mm = geometry.pore_width_w * 1e-3 / 2.0
    i = np.floor(x / p_mm + 0.5)
    j = np.floor(z / p_mm + 0.5)
    # offsets from the cell center, micrometres
    du = (x - i * p_mm) * 1e3
    dv = (z - j * p_mm) * 1e3
    in_pore = (np.abs(du) <= half_w) & (np.abs(dv) <= half_w)
    return i * p_mm - h_mm, j * p_mm - h_mm, du + half_w, dv + half_w, in_pore


def _opening_edges(geometry: MpoGeometry):
    """Edges (mm) of the pore openings along one plate axis that lie on
    the plate, on the pitch-cell grid of :func:`_pore_cells`."""
    half = geometry.plate_side / 2.0
    p_mm = geometry.pitch_p * 1e-3
    half_w_mm = geometry.pore_width_w * 1e-3 / 2.0
    cells = np.arange(math.floor(-half / p_mm) - 1, math.ceil(half / p_mm) + 2) * p_mm
    edges = np.concatenate((cells - half_w_mm, cells + half_w_mm))
    return edges[np.abs(edges) <= half]


def _open_length(lo, hi, geometry: MpoGeometry):
    """Length (mm) of the interval [lo, hi] covered by pore openings along
    one plate axis, on the pitch-cell grid of :func:`_pore_cells`.

    The openings of the plate are the product of the two axes' open sets,
    so an axis-aligned rectangle's open area is the product of two such
    lengths.  An interval with ``hi <= lo`` has length 0.
    """
    p_mm = geometry.pitch_p * 1e-3
    w_mm = geometry.pore_width_w * 1e-3

    def covered_below(x):  # open length in [origin, x] up to a constant
        i = np.floor(x / p_mm + 0.5)
        return i * w_mm + np.clip(x - (i * p_mm - w_mm / 2.0), 0.0, w_mm)

    return covered_below(np.maximum(hi, lo)) - covered_below(lo)


def _unfold_vec(u, s, width, thickness_um):
    """Closed-form transit of one transverse plane of a square channel.

    Unfolds the zig-zag path into a straight line through mirror tiles of
    period ``width``: the unfolded displacement is U = u0 + t * slope, the
    reflection count is the number of tile walls crossed, the exit
    position is the triangle-wave fold of U back into [0, w], and the
    exit slope flips sign once per reflection.

    Arrays in, arrays out; lengths in micrometres, slopes dimensionless.

    Returns
    -------
    (exit_u, exit_slope, n_reflections)
    """
    u_unf = u + thickness_um * s
    k = np.floor(u_unf / width)
    folded = u_unf - k * width
    # endpoint exactly on a wall belongs to the lower tile (no crossing)
    on_boundary = (folded == 0.0) & (k > 0)
    k = np.where(on_boundary, k - 1, k)
    folded = np.where(on_boundary, width, folded)
    n = np.abs(k).astype(np.int64)
    odd = (k.astype(np.int64) % 2) != 0
    exit_u = np.where(odd, width - folded, folded)
    exit_s = np.where(odd, -s, s)
    return exit_u, exit_s, n


def _survives(
    slope_x, slope_z, n_x, n_z, energy, geometry: MpoGeometry, roulette=None
):
    """Wall-survival mask of rays with per-plane bounce counts ``n_x, n_z``.

    A plane with at least one bounce absorbs the ray when its grazing angle
    atan(|slope|) exceeds the critical angle of the coating at the ray's
    energy.  The tie angle == theta_c reflects (inclusive threshold, a
    measure-zero tie-break fixed for reproducibility).  A reflectivity r
    below 1 then plays Russian roulette: ``roulette`` holds one uniform per
    ray, absorbed or not, which must fall below r^(n_x + n_z); this keeps
    integer counting downstream unbiased.  At r = 1 no uniform is read.
    """
    # theta_c(E) = theta_c(1 keV) / E, exact 1/E scaling
    theta_c = critical_angle_deg(1.0, geometry.coating) / energy
    angle_x = np.degrees(np.arctan(np.abs(slope_x)))
    angle_z = np.degrees(np.arctan(np.abs(slope_z)))
    survive = ((n_x == 0) | (angle_x <= theta_c)) & ((n_z == 0) | (angle_z <= theta_c))
    if geometry.reflectivity < 1.0:
        if roulette is None:
            raise ValueError("a wall reflectivity below 1 needs roulette uniforms")
        survive &= roulette < geometry.reflectivity ** (n_x + n_z)
    return survive


#: Path-class code by 2 * (n_x odd) + (n_z odd): DIFFUSE, ARM_ALONG_X,
#: ARM_ALONG_Z, CENTRAL_FOCUS as indices into ``tuple(PathClass)``.
_PARITY_CODES = np.array([3, 1, 2, 0], dtype=np.int8)


def _class_codes(n_x, n_z):
    """Reflection-parity class of each ray, as an index into ``tuple(PathClass)``.

    (odd, odd) -> CENTRAL_FOCUS, (odd, even) -> ARM_ALONG_Z (focused in x,
    spread along z), (even, odd) -> ARM_ALONG_X, (0, 0) -> DIRECT, and any
    other (even, even) -> DIFFUSE.
    """
    code = _PARITY_CODES[2 * (n_x % 2) + n_z % 2]
    code[(n_x == 0) & (n_z == 0)] = 4  # DIRECT
    return code
