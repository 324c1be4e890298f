"""Image-plane analysis: flat field, energy windows, PSF metrics, FFT pipeline.

Everything here operates on plain 2-D images (:class:`Image2D`), whether
they came from the simulator's spectral cubes or from calibrated event
data; nothing here holds a cube.  Images are indexed ``[row, col]`` =
``[z, x]``; "horizontal" means along x (a row), "vertical" along z (a
column).  An energy window sums the bins whose centers lie in [lo, hi),
found by bisection without an array of the centers (:func:`window_bins`);
:func:`mpoxrf.sic.read_window`, the one way from a cube to an image, sums
them from a cube file.

The FFT pipeline follows the background-suppression recipe: multiply each
PSF by a Gaussian window about its center, take the 2-D transform
magnitude (the amplitude transfer function; discarding phase removes the
impulse position so transfer functions from different sample fragments can
be averaged), average, and invert with zero phase to get an idealized PSF
whose diffuse background collapses into the central peak.

The settings of these steps are an :class:`AnalysisParams`, which checks
their ranges once; the functions take them as given.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .optics import Material, MpoGeometry, critical_slope, straight_through_slope

log = logging.getLogger(__name__)

FLAT_EPSILON = 1e-3


class AnalysisError(ValueError):
    """An analysis operation could not produce a result (no peak, empty
    region, one-sided profile, ...)."""


@dataclass
class AnalysisParams:
    """The settings of the PSF and clean-up steps, the ``[analysis]``
    section of a run configuration; the one place their ranges are
    checked, so the functions they feed take them as given.  Its class
    attributes are those functions' keyword defaults."""

    window_sigma_mm: float = 1.5
    background_exclusion_mm: float = 0.5
    arm_half_width_mm: float = 0.3
    resolution_threshold: float = 0.1
    rows_averaged: int = 3

    def __post_init__(self):
        for name in ("window_sigma_mm", "arm_half_width_mm"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0 <= self.background_exclusion_mm < math.inf:
            raise ValueError(
                "background_exclusion_mm must be >= 0 and finite, "
                f"got {self.background_exclusion_mm}"
            )
        if not 0 < self.resolution_threshold < 1:
            raise ValueError(
                f"resolution_threshold must be in (0, 1), got {self.resolution_threshold}"
            )
        if self.rows_averaged < 1:
            raise ValueError(f"rows_averaged must be >= 1, got {self.rows_averaged}")
        if self.rows_averaged % 2 == 0:
            raise ValueError(f"rows_averaged must be odd, got {self.rows_averaged}")


@dataclass
class Image2D:
    """A detector-plane image with physical pixel pitch."""

    values: np.ndarray  # (n_y, n_x), float
    pitch_um: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or min(self.values.shape) < 1:
            raise ValueError("image must be a 2-D array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("image values must be finite")
        if self.pitch_um <= 0:
            raise ValueError("pixel pitch must be positive")

    @property
    def n_y(self) -> int:
        return self.values.shape[0]

    @property
    def n_x(self) -> int:
        return self.values.shape[1]

    @property
    def pitch_mm(self) -> float:
        return self.pitch_um * 1e-3


@dataclass
class PsfProfile:
    """1-D cut through a PSF, averaged over rows or columns."""

    positions: np.ndarray  # mm, centered on the PSF
    intensities: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.positions) <= 0):
            raise ValueError("profile positions must be strictly increasing")


@dataclass
class Atf:
    """Amplitude transfer function: |2-D DFT| of a PSF image.

    Stored unshifted, DC term at index (0, 0); the frequency axes (lp/mm)
    follow the usual DFT layout (non-negative frequencies first, then the
    negative ones).
    """

    amplitude: np.ndarray  # (n_y, n_x), real, non-negative
    freq_x: np.ndarray  # lp/mm
    freq_y: np.ndarray

    def __post_init__(self):
        if np.any(self.amplitude < 0):
            raise ValueError("amplitude spectrum must be non-negative")

    @property
    def dc(self) -> float:
        return float(self.amplitude[0, 0])


def check_window(e_lo: float, e_hi: float) -> None:
    """Raise ValueError unless ``e_lo < e_hi`` (so a NaN edge is refused)."""
    if not e_lo < e_hi:
        raise ValueError(f"need e_lo < e_hi, got [{e_lo}, {e_hi})")


def window_bins(
    e_min: float, e_bin_width: float, n_bins: int, e_lo: float, e_hi: float
) -> slice:
    """The energy bins a window sums: those whose centers, ``e_min + (k +
    0.5) * e_bin_width`` keV for bin ``k``, lie in [e_lo, e_hi).  Centers
    never decrease, so these are one run of bins, found by bisection
    without an array of the centers.  The window is one that
    :func:`check_window` passes; one that covers no bin center is logged as
    a warning."""

    def center(k):
        return e_min + (k + 0.5) * e_bin_width

    bins = slice(*(bisect_left(range(n_bins), e, key=center) for e in (e_lo, e_hi)))
    if bins.start == bins.stop:
        log.warning(
            "energy window [%g, %g) keV covers no bin centers of the cube", e_lo, e_hi
        )
    return bins


def flat_field_correct(
    image: Image2D, flat: Image2D
) -> tuple[Image2D, np.ndarray]:
    """Divide out pixel-to-pixel sensitivity using a flat exposure; returns
    the corrected image and the boolean mask of the pixels divided.

    The flat is normalized to unit mean first.  Pixels whose flat value
    falls below FLAT_EPSILON times the flat mean are zeroed instead of
    divided, and are False in the mask.
    """
    if image.values.shape != flat.values.shape:
        raise ValueError(
            f"image {image.values.shape} and flat {flat.values.shape} differ"
        )
    mean = float(flat.values.mean())
    if mean <= 0:
        raise AnalysisError("flat image has non-positive mean")
    norm = flat.values / mean
    good = norm >= FLAT_EPSILON
    out = np.zeros_like(image.values)
    np.divide(image.values, norm, out=out, where=good)
    return Image2D(values=out, pitch_um=image.pitch_um), good


def find_psf_center(image: Image2D) -> tuple[float, float]:
    """Sub-pixel PSF center: 3x3 box smooth, global max, local centroid.

    The global maximum is found on the smoothed image (ties broken toward
    the lowest row, then column); the returned center is the intensity
    centroid of the original image over the 3x3 neighborhood of that
    maximum.  Returns (x, y) in pixel coordinates.
    """
    vals = image.values
    if not np.any(vals > 0):
        raise AnalysisError("image has no peak (all values <= 0)")
    kernel = np.ones((3, 3)) / 9.0
    padded = np.pad(vals, 1, mode="constant")
    smooth = sum(
        padded[dy : dy + vals.shape[0], dx : dx + vals.shape[1]] * kernel[dy, dx]
        for dy in range(3)
        for dx in range(3)
    )
    peak_y, peak_x = np.unravel_index(int(np.argmax(smooth)), smooth.shape)
    y0, y1 = max(peak_y - 1, 0), min(peak_y + 2, vals.shape[0])
    x0, x1 = max(peak_x - 1, 0), min(peak_x + 2, vals.shape[1])
    patch = vals[y0:y1, x0:x1]
    total = patch.sum()
    if total <= 0:
        return float(peak_x), float(peak_y)
    ys, xs = np.mgrid[y0:y1, x0:x1]
    return float((xs * patch).sum() / total), float((ys * patch).sum() / total)


def extract_arm_profiles(
    image: Image2D,
    center: tuple[float, float],
    rows_averaged: int = AnalysisParams.rows_averaged,
) -> tuple[PsfProfile, PsfProfile]:
    """Cut horizontal and vertical profiles through the PSF center.

    Each profile averages the ``rows_averaged`` rows (or columns) nearest
    the center, an odd count (see :class:`AnalysisParams`) centred on the
    center's row (column); positions are in mm relative to the center.
    """
    cx, cy = center
    half = rows_averaged // 2
    r0 = int(round(cy))
    c0 = int(round(cx))
    if (
        r0 - half < 0
        or r0 + half >= image.n_y
        or c0 - half < 0
        or c0 + half >= image.n_x
    ):
        raise AnalysisError(
            f"center ({cx:.1f}, {cy:.1f}) too close to the image edge for "
            f"{rows_averaged}-row averaging"
        )
    pitch = image.pitch_mm
    horiz = PsfProfile(
        positions=(np.arange(image.n_x) - cx) * pitch,
        intensities=image.values[r0 - half : r0 + half + 1, :].mean(axis=0),
    )
    vert = PsfProfile(
        positions=(np.arange(image.n_y) - cy) * pitch,
        intensities=image.values[:, c0 - half : c0 + half + 1].mean(axis=1),
    )
    return horiz, vert


def _outer_background(intensities: np.ndarray) -> float:
    """Median of the outer 20% of samples (10% from each end)."""
    n = intensities.size
    k = max(1, n // 10)
    return _median(np.concatenate([intensities[:k], intensities[-k:]]))


def _median(values: np.ndarray) -> float:
    """``np.median`` of a NaN-free 1-D float array, from one partition:
    numpy's mean of the middle order statistic, or of the two middle ones,
    which sums from +0.0.  The first ``np.median`` of a process imports
    ``numpy.ma`` (9 ms or more)."""
    n = values.size
    middle = [(n - 1) // 2, n // 2]
    a, b = np.partition(values, middle)[middle]
    return float((0.0 + a + b) / 2 if n % 2 == 0 else 0.0 + a)


def fwhm(profile: PsfProfile) -> float:
    """Full width at half maximum of a profile, in mm.

    The background is the median of the outer 20% of samples; the width is
    measured between the linearly interpolated half-level crossings
    nearest the peak.
    """
    y = profile.intensities
    x = profile.positions
    bg = _outer_background(y)
    i_peak = int(np.argmax(y))
    peak = float(y[i_peak])
    if peak <= bg:
        raise AnalysisError("profile has no peak above its background")
    half = bg + (peak - bg) / 2.0

    def cross(side: int) -> float:
        i = i_peak
        while 0 <= i + side < y.size:
            j = i + side
            if y[j] < half:
                # linear interpolation between samples i and j
                frac = (y[i] - half) / (y[i] - y[j])
                return float(x[i] + frac * (x[j] - x[i]))
            i = j
        raise AnalysisError(
            f"no half-maximum crossing on the "
            f"{'right' if side > 0 else 'left'} side"
        )

    return cross(+1) - cross(-1)


def expected_arm_half_length(
    energy: float, coating: Material, L_s: float, L_i: float
) -> float:
    """Kinematic bound on the cross-arm half-length, mm.

    Direction-preserving (even-parity) rays survive only below the
    critical angle, so from a point source they land within
    tan(theta_c) * (L_s + L_i) of the image point.
    """
    return critical_slope(energy, coating) * (L_s + L_i)


def expected_direct_half_width(geometry: MpoGeometry, L_s: float, L_i: float) -> float:
    """Kinematic bound on the direct-transmission patch half-width, mm.

    Unreflected rays fit through a channel only within the acceptance
    slope w/t, independent of energy; the landing offset from the image
    point is bounded by (w/t) * (L_s + L_i).
    """
    return straight_through_slope(geometry) * (L_s + L_i)


def gaussian_window(
    image: Image2D, sigma_mm: float, center: tuple[float, float]
) -> Image2D:
    """Multiply by a radial Gaussian exp(-r^2 / 2 sigma^2) about center;
    ``sigma_mm`` is positive and finite (see :class:`AnalysisParams`)."""
    cx, cy = center
    pitch = image.pitch_mm
    ys, xs = np.mgrid[0 : image.n_y, 0 : image.n_x]
    r_sq = ((xs - cx) * pitch) ** 2 + ((ys - cy) * pitch) ** 2
    return Image2D(
        values=image.values * np.exp(-r_sq / (2.0 * sigma_mm**2)),
        pitch_um=image.pitch_um,
    )


def atf(image: Image2D) -> Atf:
    """Amplitude transfer function: magnitude of the 2-D DFT.

    Discarding the phase removes the impulse position (a pure translation
    only changes the phase), which is what makes transfer functions from
    differently placed sources comparable and averageable.

    The DFT of a real image is Hermitian, so its magnitude is the same at
    (ky, kx) and (-ky, -kx): the half ``rfft2`` returns is computed, and
    the other half is its mirror.  The kx = 0 column, and for an even n_x
    the Nyquist column, pair within the half; each of their bins takes the
    value of its pair member with the smaller row index.  The amplitude is
    therefore exactly mirror-symmetric, not only up to rounding.
    """
    n_y, n_x = image.values.shape
    half = np.abs(np.fft.rfft2(image.values))
    flip = -np.arange(n_y) % n_y  # the row of -ky
    own = [0, n_x // 2] if n_x % 2 == 0 else [0]
    half[n_y // 2 + 1 :, own] = half[flip[n_y // 2 + 1 :, None], own]
    # columns n_x // 2 + 1 .. n_x - 1 mirror columns (n_x - 1) // 2 .. 1
    rest = half[flip, (n_x - 1) // 2 : 0 : -1]
    return Atf(
        amplitude=np.concatenate((half, rest), axis=1),
        freq_x=np.fft.fftfreq(n_x, d=image.pitch_mm),
        freq_y=np.fft.fftfreq(n_y, d=image.pitch_mm),
    )


def average_atf(atfs: list[Atf]) -> Atf:
    """Element-wise mean of amplitude spectra; a mean of mirror-symmetric
    spectra is mirror-symmetric again, bit for bit."""
    if not atfs:
        raise ValueError("need at least one transfer function")
    shape = atfs[0].amplitude.shape
    for a in atfs[1:]:
        if a.amplitude.shape != shape:
            raise ValueError("transfer function dimensions differ")
        if not (
            np.allclose(a.freq_x, atfs[0].freq_x)
            and np.allclose(a.freq_y, atfs[0].freq_y)
        ):
            raise ValueError("transfer function frequency axes differ")
    mean = np.mean([a.amplitude for a in atfs], axis=0)
    return Atf(
        amplitude=mean,
        freq_x=atfs[0].freq_x.copy(),
        freq_y=atfs[0].freq_y.copy(),
    )


def idealized_psf(transfer: Atf, pitch_um: float) -> Image2D:
    """Zero-phase inverse transform of an amplitude spectrum.

    The real part of ifft2(amplitude) is made exactly even, v(i, j) and
    v(-i, -j) both becoming their mean (the inverse of a real, even
    spectrum is even, up to rounding), then recentered at the image
    midpoint and scaled to a peak of 1.  The result is exactly symmetric
    about the center pixel.
    """
    inverse = np.real(np.fft.ifft2(transfer.amplitude))
    n_y, n_x = inverse.shape
    mirror = inverse[-np.arange(n_y) % n_y][:, -np.arange(n_x) % n_x]
    centered = np.fft.fftshift((inverse + mirror) / 2)
    peak = float(centered.max())
    if peak <= 0:
        raise AnalysisError("inverse transform has no positive peak")
    return Image2D(values=centered / peak, pitch_um=pitch_um)


def radial_profile(transfer: Atf) -> tuple[np.ndarray, np.ndarray]:
    """Radially averaged amplitude vs spatial frequency (lp/mm).

    Annulus width equals the coarser of the two frequency steps.
    """
    fx, fy = np.meshgrid(transfer.freq_x, transfer.freq_y)
    f_r = np.hypot(fx, fy)
    df = max(
        abs(transfer.freq_x[1] - transfer.freq_x[0]) if transfer.freq_x.size > 1 else 1,
        abs(transfer.freq_y[1] - transfer.freq_y[0]) if transfer.freq_y.size > 1 else 1,
    )
    k = np.round(f_r / df).astype(int)
    n_bins = k.max() + 1
    sums = np.bincount(k.ravel(), weights=transfer.amplitude.ravel(), minlength=n_bins)
    counts = np.bincount(k.ravel(), minlength=n_bins)
    return np.arange(n_bins) * df, sums / np.maximum(counts, 1)


def resolution_lp_per_mm(
    transfer: Atf, threshold: float = AnalysisParams.resolution_threshold
) -> float | None:
    """Lowest radial frequency where the amplitude stays below
    ``threshold`` times DC for a full radial bin; ``threshold`` is in
    (0, 1) (see :class:`AnalysisParams`).

    Returns None when the spectrum never stays below the threshold inside
    the sampled band ("beyond Nyquist").  Raises :class:`AnalysisError`
    when the DC is not positive: an image with no counts has no level to
    fall below.
    """
    if not transfer.dc > 0:
        raise AnalysisError(f"image has no counts (ATF DC {transfer.dc})")
    freqs, amps = radial_profile(transfer)
    level = threshold * transfer.dc
    below = amps < level
    for i in range(1, below.size - 1):
        if below[i] and below[i + 1]:
            return float(freqs[i])
    return None


def background_level(
    image: Image2D,
    exclusion_radius_mm: float,
    center: tuple[float, float],
    arm_half_width_mm: float = AnalysisParams.arm_half_width_mm,
) -> float:
    """Mean intensity outside the PSF core and its cross arms.

    Excludes a disc of ``exclusion_radius_mm`` about the center plus a
    horizontal and a vertical band of ``arm_half_width_mm`` half-width
    through it.  Where no pixel is left, because the disc reaches half the
    image or the bands cover the rest, that is an :class:`AnalysisError`.
    """
    half_extent = min(image.n_x, image.n_y) * image.pitch_mm / 2.0
    if exclusion_radius_mm >= half_extent:
        raise AnalysisError("exclusion radius must be smaller than half the image")
    cx, cy = center
    pitch = image.pitch_mm
    ys, xs = np.mgrid[0 : image.n_y, 0 : image.n_x]
    dx = (xs - cx) * pitch
    dy = (ys - cy) * pitch
    keep = (
        (np.hypot(dx, dy) > exclusion_radius_mm)
        & (np.abs(dx) > arm_half_width_mm)
        & (np.abs(dy) > arm_half_width_mm)
    )
    if not np.any(keep):
        raise AnalysisError("background region is empty")
    return float(image.values[keep].mean())
