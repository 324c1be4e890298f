"""Scene description and Monte Carlo transport through the pore plate.

The chain for every photon is: sample an emission point and a direction
aimed at the plate, find the pore it enters (or the web that swallows it),
unfold its in-channel trajectory, propagate the survivors to the detector
plane, smear the energy with the detector response, and bin the hit into a
pixel x energy x path-class cube, which is held as its non-zero bins: a
hit's :class:`~mpoxrf.optics.PathClass` is the last axis of its bin, so
every per-class image is a sum over the bins.  Only photons
aimed inside the acceptance window about their own emission point can
survive the channels; the others are drawn as web and wall tallies without
being transported.  The windows are computed once per run.  The transport
steps are the array kernels of :mod:`mpoxrf.optics`; this module owns
emission, batching and the detector stage, which
:func:`mpoxrf.events.apply_calibration` shares.

Photons are counted in fixed batches of ``BATCH_SIZE``.  Batch ``b`` of a
run with seed ``s`` uses its own Philox stream keyed by a SplitMix64 mix of
(s, b), in a fixed order: when the batch starts, its source, in-window and
web counts and five uniforms per in-window photon (:func:`_start_batch`);
after the transport, one roulette uniform per in-pore ray (only at a wall
reflectivity below 1), then one energy-smear normal per wall survivor
(only at a positive FWHM).  Everything else runs once over a group of
consecutive batches that hold at most ``BATCH_SIZE`` in-window photons
together (a batch with more is a group alone), so no transport temporary
outgrows that of the largest single batch, and a group's result is that
of its batches one by one (:func:`_run_batch`).  A run is cut into chunks
of contiguous batches, at most ``CHUNK_BATCHES`` each, which are the tasks
of :func:`run_tasks`; chunk results merge by integer addition in chunk
order, so a run is bit-identical for any number of workers.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .optics import (
    MpoGeometry,
    PathClass,
    _class_codes,
    _open_length,
    _opening_edges,
    _pore_cells,
    _survives,
    _unfold_vec,
    critical_slope,
    straight_through_slope,
)

BATCH_SIZE = 65536

#: Most batches in one ``simulate`` task.  A run of at most this many
#: batches is one task and runs in this process.  On two CPUs (a 2-vCPU VM,
#: ``reference.ini``, medians of 11 runs, in-process against a pool of two)
#: a pool loses by 12-24 ms below this size (100 batches: 12 vs 33 ms; 160:
#: 16 vs 40 ms; 250: 25 vs 49 ms), is within 6 ms of it from here to about
#: 1,000 batches (320: 46 vs 52 ms; 640: 78 vs 79 ms; 1,000: 105 vs 104 ms)
#: and wins above (1,280: 168 vs 136 ms).  A chunk's hit arrays hold at
#: most 16 bytes per photon (320 MiB, twice that while its groups' arrays
#: are joined); at the shipped configs' detected share, at most 2.3e-3,
#: they hold under 800 KiB.  Its transport holds one group (at most
#: ``BATCH_SIZE`` in-window photons) and the next batch's start draws.
CHUNK_BATCHES = 320

#: FWHM of a Gaussian in units of its standard deviation.
FWHM_PER_SIGMA = 2.3548200450309493

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15

#: Largest ``n_x``, ``n_y`` or ``n_bins``: a u32 field of the SIC header.
MAX_SIDE = (1 << 32) - 1
#: Most bins in a detector's grid.  A cube bin's index times its class
#: planes (five, below eight) then stays below 2**62, and so does the SIC
#: file length, 8 bytes a bin: both fit an int64.
MAX_GRID_BINS = 1 << 59


@dataclass(frozen=True)
class Source:
    """A fluorescing sample feature.

    A point source has ``width == height == 0``; a rectangular emitter is
    uniform over ``width`` (x) by ``height`` (z) around ``position``.
    ``lines`` are (energy keV, relative intensity) pairs; emission picks a
    line proportionally to intensity.
    """

    label: str
    lines: tuple[tuple[float, float], ...]
    position: tuple[float, float, float]  # mm, y is the along-axis offset
    width: float = 0.0
    height: float = 0.0

    def __post_init__(self):
        if not self.lines:
            raise ValueError(f"source {self.label!r} has no emission lines")
        for energy, intensity in self.lines:
            if not (0 < energy < math.inf and 0 < intensity < math.inf):
                raise ValueError(
                    f"source {self.label!r}: line ({energy}, {intensity}) "
                    "needs positive, finite energy and intensity"
                )
        if not all(-math.inf < c < math.inf for c in self.position):
            raise ValueError(
                f"source {self.label!r}: position {self.position} mm is not finite"
            )
        if (self.width > 0) != (self.height > 0):
            raise ValueError("rect sources need both width and height positive")
        if not (0 <= self.width < math.inf and 0 <= self.height < math.inf):
            raise ValueError("rect dimensions must be >= 0 and finite")

    @property
    def total_intensity(self) -> float:
        return sum(w for _, w in self.lines)


@dataclass(frozen=True)
class Scene:
    """Sources plus the two working distances of the bench."""

    sources: tuple[Source, ...]
    L_s: float = 25.0  # sample -> plate entrance face, mm
    L_i: float = 25.0  # plate exit face -> detector, mm

    def __post_init__(self):
        for name, value in (("distance L_s", self.L_s), ("distance L_i", self.L_i)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not self.sources:
            raise ValueError("scene has no sources")


@dataclass(frozen=True)
class DetectorSpec:
    """Pixel matrix and constant-FWHM energy response."""

    n_x: int = 256
    n_y: int = 256
    pitch: float = 55.0  # micrometres
    energy_fwhm: float = 1.12  # keV
    threshold: float = 2.0  # keV, measured energies below are dropped
    e_min: float = 0.0  # keV, lower edge of bin 0
    e_bin_width: float = 0.25  # keV
    n_bins: int = 100

    def __post_init__(self):
        if self.n_x <= 0 or self.n_y <= 0 or self.n_bins <= 0:
            raise ValueError("pixel and energy bin counts must be positive")
        if max(self.n_x, self.n_y, self.n_bins) > MAX_SIDE or (
            self.n_x * self.n_y * self.n_bins > MAX_GRID_BINS
        ):
            raise ValueError(
                f"a {self.n_x}x{self.n_y}x{self.n_bins} grid is too large: a side "
                f"is at most {MAX_SIDE} (a u32 of the SIC header), a grid 2**59 bins"
            )
        for name, value in (
            ("pixel pitch", self.pitch), ("energy bin width", self.e_bin_width)
        ):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0 <= self.energy_fwhm < math.inf:
            raise ValueError(
                f"energy FWHM must be >= 0 and finite, got {self.energy_fwhm}"
            )
        for name, value in (("threshold", self.threshold), ("e_min", self.e_min)):
            if not -math.inf < value < math.inf:
                raise ValueError(f"{name} must be finite, got {value}")


@dataclass
class SimStats:
    """Bookkeeping tallies of one :func:`simulate` run, or of one
    :func:`mpoxrf.events.apply_calibration` of an event source."""

    n_photons: int = 0
    web_absorbed: int = 0
    wall_absorbed: int = 0
    off_detector: int = 0
    below_threshold: int = 0
    out_of_band: int = 0
    detected: int = 0
    dead_pixel_drops: int = 0  # used by the event-calibration path only
    class_counts: dict = field(default_factory=dict)
    processes: int = 1  # processes that ran simulate()'s transport; not added

    def add(self, other: "SimStats") -> None:
        self.n_photons += other.n_photons
        self.web_absorbed += other.web_absorbed
        self.wall_absorbed += other.wall_absorbed
        self.off_detector += other.off_detector
        self.below_threshold += other.below_threshold
        self.out_of_band += other.out_of_band
        self.detected += other.detected
        self.dead_pixel_drops += other.dead_pixel_drops


@dataclass
class SpectralImage:
    """Per-pixel, per-energy-bin count cube binned on ``detector``, held as
    its non-zero bins, each split into ``planes`` class planes.

    ``detector`` is the one record of the cube's (n_y, n_x, n_bins) grid,
    its energy axis and its pixel pitch.  ``bins`` holds the flat indices
    ``sic_index * planes + plane`` of the non-zero bins, where
    ``sic_index`` is the SIC index ``((y*n_x) + x)*n_bins + bin``:
    ascending and unique (int64), with ``bin_counts`` their counts (uint64,
    each above 0); both default to empty, an all-zero cube.  ``planes`` is
    ``len(PathClass)`` for a :func:`simulate` cube, whose ``plane`` is
    each hit's path class in ``PathClass`` order, and 1 for a cube with no
    classes (:meth:`from_counts`, ``apply-cal``).  A point-source cube has
    at most one non-zero bin per detected photon, so it stays small
    whatever the detector.  It has no dense view:
    :func:`mpoxrf.sic.write_sic` writes its plane sum from its bins, and
    :func:`mpoxrf.sic.read_window` sums an energy window of the written
    file.  ``stats`` is in-memory bookkeeping only; it is not part of the
    on-disk cube format.
    """

    detector: DetectorSpec
    bins: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    bin_counts: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint64))
    planes: int = 1
    seed: int = 0
    photons: int = 0
    scene_digest: str = ""
    stats: SimStats | None = None

    @classmethod
    def from_counts(
        cls, counts: np.ndarray, detector: DetectorSpec, **meta
    ) -> "SpectralImage":
        """The cube of a dense count array of ``detector``'s (n_y, n_x,
        n_bins) shape; ``meta`` sets the remaining fields.  Raises
        ValueError where the array has another shape."""
        shape = (detector.n_y, detector.n_x, detector.n_bins)
        if counts.shape != shape:
            raise ValueError(f"counts of shape {counts.shape} are not the "
                             f"detector's {shape}")
        flat = counts.reshape(-1)
        bins = np.flatnonzero(flat != 0)  # through a bool mask: 3x faster on u64
        return cls(detector, bins, flat[bins].astype(np.uint64, copy=False), **meta)


def _add_hits(bins, bin_counts, flat):
    """The non-zero bins ``(bins, bin_counts)`` of a cube (see
    :class:`SpectralImage`) plus one count at each flat cube index of
    ``flat``, in the same form.

    The indices are sorted together and each run of equal ones becomes one
    bin (:func:`_merge_runs`): a sort and a neighbour compare, since the
    first ``np.unique`` of a process imports ``numpy.ma`` (9 ms or more).
    Counts add as integers, so the result does not depend on how the hits
    are split between calls.
    """
    index = np.concatenate((bins, flat))
    order = np.argsort(index)
    weight = np.concatenate((bin_counts, np.ones(flat.size, np.uint64)))[order]
    return _merge_runs(index[order], weight)


def _merge_runs(index, weight):
    """The distinct values of the ascending ``index`` and, for each, the
    sum of the ``weight`` of its run of equal entries."""
    first = np.ones(index.size, bool)
    first[1:] = index[1:] != index[:-1]
    starts = np.flatnonzero(first)
    return index[starts], np.add.reduceat(weight, starts)


def scene_digest(scene: Scene, geometry: MpoGeometry, detector: DetectorSpec) -> str:
    """Short stable digest of the full run configuration."""
    text = repr((scene, geometry, detector))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def batch_seed(seed: int, batch_index: int) -> int:
    """64-bit mix of (run seed, batch index): SplitMix64 finalizer over
    seed + (batch_index + 1) * golden gamma."""
    x = (seed + (batch_index + 1) * _GOLDEN64) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=batch_seed(seed, batch_index)))


#: Relative widening of the acceptance reach.  Any superset of the
#: surviving plate targets keeps the sampler exact; the margin covers
#: rounding at the inclusive ``angle <= theta_c`` tie and the ``n == 0``
#: edge of the unfolding.
_REACH_MARGIN = 1e-6


@dataclass(frozen=True)
class _AcceptanceWindows:
    """Per-source acceptance windows on the plate entrance face (arrays
    indexed like ``scene.sources``).

    A photon emitted at ``(ex, ez)`` can leave a channel only if its plate
    target lies in its window, ``[max(e - reach, -half), min(e + reach,
    half)]`` on each axis (:func:`_window`).  ``in_frac`` is the chance
    that a uniform plate target lands in its photon's window, averaged over
    the source's emission extent; ``open_frac`` is the open-area share of
    the targets outside it.  ``knots[k]`` holds source k's
    ``((x, x_len), (z, z_len))``: the breakpoints of the window length over
    the emission extent and the length there, at most four per axis.
    """

    half: float
    reach: np.ndarray
    in_frac: np.ndarray
    open_frac: np.ndarray
    knots: tuple


def _window(e, reach, half):
    """Lower edge and length (mm) of the acceptance window about emission
    coordinate ``e`` on one plate axis; the length is 0 when the window
    misses the plate."""
    lo = np.maximum(e - reach, -half)
    return lo, np.maximum(np.minimum(e + reach, half) - lo, 0.0)


def _trapezoid(y, x):
    """Integral of the piecewise-linear function through ``(x, y)``."""
    return float(((y[1:] + y[:-1]) * np.diff(x)).sum() / 2.0)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a NaN-free float array, as
    ``np.unique`` gives them; a sort and one neighbour compare, since the
    first ``np.unique`` of a process imports ``numpy.ma`` (9 ms or more)."""
    values = np.sort(values, axis=None)
    keep = np.ones(values.size, bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _axis_window(center, extent, reach, half, geometry: MpoGeometry):
    """One axis of a source's acceptance window over its uniform emission
    extent ``center -+ extent / 2``.

    Returns the knots and window lengths of the in-window emission density
    (:func:`_sample_by_length`), the mean window length and the mean open
    length of the window.  Both lengths are piecewise linear in the
    emission coordinate: the window length bends where a window edge meets
    a plate edge (``+-half +- reach``), the open length also where one
    meets a pore edge (``pore edge +- reach``), so the trapezoid rule over
    those breakpoints is exact.  A point source (``extent == 0``) has one
    knot, and its means are the lengths at it.
    """
    if extent == 0:
        knots = np.array([center])
        lo, length = _window(knots, reach, half)
        return knots, length, length[0], _open_length(lo, lo + length, geometry)[0]
    # the window is empty beyond +-(half + reach)
    first = max(center - extent / 2.0, -half - reach)
    last = min(center + extent / 2.0, half + reach)
    if last <= first:
        return np.array([center]), np.zeros(1), 0.0, 0.0
    knots = _sorted_unique(
        np.clip([first, last, -half + reach, half - reach], first, last)
    )
    _, length = _window(knots, reach, half)
    edges = _opening_edges(geometry)
    bends = _sorted_unique(
        np.clip(np.concatenate((knots, edges - reach, edges + reach)), first, last)
    )
    lo, bend_length = _window(bends, reach, half)
    opened = _open_length(lo, lo + bend_length, geometry)
    return (
        knots,
        length,
        _trapezoid(length, knots) / extent,
        _trapezoid(opened, bends) / extent,
    )


def _acceptance_windows(scene: Scene, geometry: MpoGeometry) -> _AcceptanceWindows:
    """Acceptance windows of every source, computed once per run.

    A ray leaves a channel only if, in each plane, it either crosses
    without touching a wall (|slope| <= w/t) or reflects below the critical
    angle (|slope| <= tan theta_c, largest at the source's lowest line
    energy).  So a plate target farther than the reach (-y) * s_max from
    its own emission point, s_max the larger of the two, is absorbed for
    certain: on the web if it misses the openings, else at the walls.
    Emission point and target are independent and uniform, and the window
    is a product of two axes, so the in-window chance and the open area
    outside the window are products of the per-axis means of
    :func:`_axis_window`.
    """
    half = geometry.plate_side / 2.0
    w_over_t = straight_through_slope(geometry)
    reach, knots, rows = [], [], []
    for src in scene.sources:
        px, py, pz = src.position
        if py >= 0:
            raise ValueError("sources must sit on the sample side of the plate (y < 0)")
        e_min = min(e for e, _ in src.lines)
        s_max = max(critical_slope(e_min, geometry.coating), w_over_t)
        r = -py * s_max * (1.0 + _REACH_MARGIN)
        kx, lx, mean_x, open_x = _axis_window(px, src.width, r, half, geometry)
        kz, lz, mean_z, open_z = _axis_window(pz, src.height, r, half, geometry)
        reach.append(r)
        knots.append(((kx, lx), (kz, lz)))
        rows.append((mean_x, mean_z, open_x, open_z))
    mean_x, mean_z, open_x, open_z = (np.array(col) for col in zip(*rows))

    plate_area = geometry.plate_side**2
    in_area = mean_x * mean_z
    plate_open = _open_length(-half, half, geometry) ** 2
    outside = plate_area - in_area  # 0 when every window covers the plate
    open_frac = (plate_open - open_x * open_z) / np.where(outside > 0, outside, 1.0)
    return _AcceptanceWindows(
        half=half,
        reach=np.array(reach),
        in_frac=np.clip(in_area / plate_area, 0.0, 1.0),
        open_frac=np.clip(open_frac, 0.0, 1.0),
        knots=tuple(knots),
    )


def _sample_by_length(knots, length, u):
    """Emission coordinates with density proportional to the window length,
    linear between ``knots``, by the inverse CDF of the uniforms ``u``.  A
    single knot is a point source."""
    if knots.size == 1:
        return np.full(u.shape, knots[0])
    dx = np.diff(knots)
    mass = np.concatenate(([0.0], np.cumsum((length[1:] + length[:-1]) * dx / 2.0)))
    q = u * mass[-1]
    j = np.minimum(np.searchsorted(mass, q, side="right") - 1, dx.size - 1)
    q -= mass[j]
    l0 = length[j]
    slope = (length[j + 1] - l0) / dx[j]
    # the root of l0 x + slope x^2 / 2 = q, in a form stable for either sign
    den = l0 + np.sqrt(np.maximum(l0 * l0 + 2.0 * slope * q, 0.0))
    x = 2.0 * q / np.where(den > 0, den, 1.0)
    return knots[j] + np.minimum(x, dx[j])


def _start_batch(scene: Scene, windows: _AcceptanceWindows, n: int, rng):
    """The draws a batch of ``n`` photons aimed uniformly at the plate makes
    before its transport, from its own stream ``rng``.

    Only photons whose plate target falls in their own acceptance window
    (``windows``, from :func:`_acceptance_windows`) are transported; the
    rest are certain losses and are drawn as tallies.  Per source, the
    photon count is multinomial in the intensities, the in-window count
    binomial in ``in_frac``, and the out-of-window web count binomial in
    the closed-area share outside the windows, so every tally keeps the
    distribution of full-plate sampling.  Then each in-window photon gets
    five uniforms, one row each: emission x, emission z, line pick, target
    x, target z.

    Returns the in-window count of each source, the ``(5, m)`` uniforms of
    the ``m`` in-window photons (in source order) and the out-of-window
    ``(web_absorbed, wall_absorbed)`` tallies.
    """
    src_weights = np.array([s.total_intensity for s in scene.sources], dtype=float)
    n_src = rng.multinomial(n, src_weights / src_weights.sum())
    n_in = rng.binomial(n_src, windows.in_frac)
    n_web = rng.binomial(n_src - n_in, 1.0 - windows.open_frac)
    web_absorbed = int(n_web.sum())
    wall_absorbed = int(n - n_in.sum()) - web_absorbed
    return n_in, rng.random((5, int(n_in.sum()))), (web_absorbed, wall_absorbed)


def _sample_emission_arrays(scene: Scene, windows: _AcceptanceWindows, n_in, u):
    """Emission points, plate targets, slopes and energies of in-window
    photons, from their uniforms.

    ``n_in`` holds each source's in-window count, one row per batch, and
    ``u`` the photons' uniforms as :func:`_start_batch` draws them, with
    the columns of the batches one after another.  An in-window photon's
    emission coordinate has density proportional to its window length on
    each axis (uniform for a window that does not meet a plate edge), and
    its target is uniform in its window: together the full-plate photons
    conditioned on landing in their windows.  Each value depends only on
    its photon's source and uniforms, so batches map together as they map
    alone.
    """
    sources = scene.sources
    n_in = np.reshape(n_in, (-1, len(sources)))
    u_emit_x, u_emit_z, u_line, u_target_x, u_target_z = u
    m = u.shape[1]
    # each source's photons, in order, as one run of by_source
    source_of = np.repeat(np.tile(np.arange(len(sources)), len(n_in)), n_in.ravel())
    by_source = np.argsort(source_of, kind="stable")
    count = n_in.sum(axis=0)
    stop = np.cumsum(count)

    ex = np.empty(m)
    ey = np.empty(m)
    ez = np.empty(m)
    target_x = np.empty(m)
    target_z = np.empty(m)
    energy = np.empty(m)
    for k, src in enumerate(sources):
        sel = by_source[stop[k] - count[k] : stop[k]]
        (kx, lx), (kz, lz) = windows.knots[k]
        ex[sel] = _sample_by_length(kx, lx, u_emit_x[sel])
        ez[sel] = _sample_by_length(kz, lz, u_emit_z[sel])
        ey[sel] = src.position[1]
        lo_x, len_x = _window(ex[sel], windows.reach[k], windows.half)
        lo_z, len_z = _window(ez[sel], windows.reach[k], windows.half)
        target_x[sel] = lo_x + u_target_x[sel] * len_x
        target_z[sel] = lo_z + u_target_z[sel] * len_z
        line_e = np.array([e for e, _ in src.lines])
        line_w = np.array([w for _, w in src.lines], dtype=float)
        line_cdf = np.cumsum(line_w) / line_w.sum()
        li = np.searchsorted(line_cdf, u_line[sel], side="right")
        energy[sel] = line_e[np.minimum(li, len(src.lines) - 1)]

    dy = -ey  # plate entrance face sits at y = 0
    slope_x = (target_x - ex) / dy
    slope_z = (target_z - ez) / dy
    return ex, ey, ez, target_x, target_z, slope_x, slope_z, energy


def _cube_index(pix, energy, detector: DetectorSpec, stats: SimStats):
    """Threshold, energy band and cube index for hits on the pixel matrix.

    ``pix`` is each hit's pixel ``y*n_x + x``, in an integer type that can
    address the cube.  Fills the ``below_threshold``, ``out_of_band`` and
    ``detected`` tallies of ``stats``; returns the counted-hit mask and the
    counted hits' flat cube indices in SIC order ``pix*n_bins + bin``.
    """
    above = energy >= detector.threshold
    e_bin = np.floor((energy - detector.e_min) / detector.e_bin_width).astype(np.int64)
    hit = above & (e_bin >= 0) & (e_bin < detector.n_bins)
    stats.below_threshold = int(above.size - np.count_nonzero(above))
    stats.detected = int(np.count_nonzero(hit))
    stats.out_of_band = int(above.size) - stats.below_threshold - stats.detected
    return hit, pix[hit] * detector.n_bins + e_bin[hit]


def _per_batch(rngs, batch_of, draw):
    """``draw(rng, k)`` for each batch's stream in ``rngs``, ``k`` the
    number of rays of that batch in ``batch_of`` (each ray's batch index,
    ascending), joined in batch order: ray i gets the draw its own batch
    makes for it."""
    counts = np.bincount(batch_of, minlength=len(rngs)).tolist()
    return np.concatenate([draw(rng, k) for rng, k in zip(rngs, counts)])


def _run_batch(args):
    """Transport a group of consecutive batches in one array pass.

    ``args`` is ``(scene, geometry, windows, detector, group)``, where
    ``group`` lists each batch as ``(rng, n, start)``: its stream, its
    photon count and its :func:`_start_batch` draws.  Emission mapping,
    pore entry, unfolding, wall survival, detector binning and class codes
    run once over the group's in-window photons, in batch order.  Two draws
    stay with each batch's own stream, in this order after its start
    draws: one roulette uniform per in-pore ray (only at a reflectivity
    below 1), then one energy-smear normal per wall survivor (only at a
    positive FWHM).  So the group's result is that of its batches
    transported one by one, bit for bit.

    Returns ``(flat, stats)``: the counted hits' flat indices into a cube
    of ``len(PathClass)`` class planes, ``sic_index * len(PathClass) +
    class`` (see :class:`SpectralImage`; ``sic_index`` from
    :func:`_cube_index`, ``class`` from :func:`_class_codes`), unsorted
    with repeats kept, and the tallies.
    """
    scene, geometry, windows, detector, group = args
    rngs, sizes, starts = zip(*group)
    n_in, uniforms, lost = zip(*starts)
    # each in-window photon's batch, as an index into the group
    batch_of = np.repeat(np.arange(len(group)), [a.shape[1] for a in uniforms])
    web_out, wall_out = map(sum, zip(*lost))
    stats = SimStats(n_photons=sum(sizes))

    _, _, _, tx, tz, slope_x, slope_z, energy = _sample_emission_arrays(
        scene, windows, n_in, np.concatenate(uniforms, axis=1)
    )

    # in-window plate targets lie on the plate, so each meets a pore or the web
    corner_x, corner_z, u, v, in_pore = _pore_cells(tx, tz, geometry)
    idx = np.nonzero(in_pore)[0]
    stats.web_absorbed = web_out + int(tx.size - idx.size)
    u = u[idx]
    v = v[idx]
    sx = slope_x[idx]
    sz = slope_z[idx]
    e_true = energy[idx]

    w = geometry.pore_width_w
    t_um = geometry.thickness_t * 1e3
    exit_u, exit_sx, n_x = _unfold_vec(u, sx, w, t_um)
    exit_v, exit_sz, n_z = _unfold_vec(v, sz, w, t_um)

    roulette = None
    if geometry.reflectivity < 1.0:
        roulette = _per_batch(rngs, batch_of[idx], np.random.Generator.random)
    survive = _survives(sx, sz, n_x, n_z, e_true, geometry, roulette)
    stats.wall_absorbed = wall_out + int(idx.size - np.count_nonzero(survive))

    keep = np.nonzero(survive)[0]
    cell = idx[keep]
    x_det = corner_x[cell] + exit_u[keep] * 1e-3 + exit_sx[keep] * scene.L_i
    z_det = corner_z[cell] + exit_v[keep] * 1e-3 + exit_sz[keep] * scene.L_i

    sigma = detector.energy_fwhm / FWHM_PER_SIGMA
    e_meas = e_true[keep]
    if sigma > 0:
        normal = _per_batch(rngs, batch_of[cell], np.random.Generator.standard_normal)
        e_meas = e_meas + sigma * normal

    pitch_mm = detector.pitch * 1e-3
    x0 = -detector.n_x * pitch_mm / 2.0
    z0 = -detector.n_y * pitch_mm / 2.0
    ix = np.floor((x_det - x0) / pitch_mm).astype(np.int64)
    iy = np.floor((z_det - z0) / pitch_mm).astype(np.int64)
    on_det = (ix >= 0) & (ix < detector.n_x) & (iy >= 0) & (iy < detector.n_y)
    stats.off_detector = int(keep.size - np.count_nonzero(on_det))
    pix = (iy * detector.n_x + ix)[on_det]

    hit, flat = _cube_index(pix, e_meas[on_det], detector, stats)
    keep = keep[on_det][hit]
    return flat * len(PathClass) + _class_codes(n_x[keep], n_z[keep]), stats


def _batch_groups(scene, windows, seed, first, stop, n_photons, cap):
    """The batches ``first <= b < stop`` of a run of ``n_photons`` photons
    as ``(rng, n, start)`` (see :func:`_run_batch`), in groups of
    consecutive batches that hold at most ``cap`` in-window photons
    together; a batch with more is a group alone."""
    group, held = [], 0
    for b in range(first, stop):
        rng = _batch_rng(seed, b)
        n = min(BATCH_SIZE, n_photons - b * BATCH_SIZE)
        start = _start_batch(scene, windows, n, rng)
        m = start[1].shape[1]
        if group and held + m > cap:
            yield group
            group, held = [], 0
        group.append((rng, n, start))
        held += m
    if group:
        yield group


def _run_chunk(args, group_photons=BATCH_SIZE):
    """Transport the contiguous batches ``first <= b < stop`` of a run of
    ``n_photons`` photons, in order.

    Each batch makes its start draws from its own stream
    (:func:`_start_batch`); consecutive batches then form groups of at
    most ``group_photons`` in-window photons (:func:`_batch_groups`), one
    :func:`_run_batch` each.  So no transport pass holds more photons than
    the largest single batch, and the draws and the result do not depend
    on the grouping.

    Returns ``(flat, stats)`` as :func:`_run_batch` does, for the batches
    together: their class-plane hit indices concatenated in batch order and
    their tallies summed.
    """
    scene, geometry, windows, detector, seed, first, stop, n_photons = args
    flats, total = [], SimStats()
    for group in _batch_groups(
        scene, windows, seed, first, stop, n_photons, group_photons
    ):
        flat, stats = _run_batch((scene, geometry, windows, detector, group))
        flats.append(flat)
        total.add(stats)
    return np.concatenate(flats), total


def simulate(
    scene: Scene,
    mpo: MpoGeometry,
    detector: DetectorSpec,
    n_photons: int,
    seed: int = 0,
    n_workers: int = 1,
) -> SpectralImage:
    """Run the full transport chain for ``n_photons`` photons.

    Deterministic for fixed (scene, mpo, detector, n_photons, seed): the
    photon stream is partitioned into BATCH_SIZE batches, each seeded by
    :func:`batch_seed`, and batch hits merge by integer addition, so
    results are bit-identical for any ``n_workers``.

    ``n_workers`` is a ceiling.  The batches are cut into equal chunks of
    contiguous batches, at most ``CHUNK_BATCHES`` each, and each chunk is
    one task of :func:`run_tasks`, which transports its batches in groups
    (:func:`_run_chunk`); chunk results are merged in chunk order.
    A run of one chunk runs in this process.  A longer one runs in a pool
    of ``min(n_workers, chunks, CPUs available)`` processes, and its chunk
    count is rounded up to a multiple of the pool size, so that every
    process gets as many chunks.  The number of processes used is
    ``stats.processes``.

    The cube is held as its non-zero bins (:class:`SpectralImage`), with
    one class plane per :class:`~mpoxrf.optics.PathClass`: each chunk's
    hits are merged into them as the chunk arrives (:func:`_add_hits`), so
    nothing of the detector's size is allocated and the bins held are at
    most the distinct ones plus one chunk's hits.  The returned stats
    carry the class counts, the per-plane sums of the bins' counts.
    """
    if n_photons < 0:
        raise ValueError("n_photons must be >= 0")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")

    total = SimStats()
    image = SpectralImage(
        detector,
        planes=len(PathClass),
        seed=seed,
        photons=n_photons,
        scene_digest=scene_digest(scene, mpo, detector),
        stats=total,
    )

    windows = _acceptance_windows(scene, mpo)
    n_batches = (n_photons + BATCH_SIZE - 1) // BATCH_SIZE
    n_chunks = (n_batches + CHUNK_BATCHES - 1) // CHUNK_BATCHES
    processes = max(1, min(n_workers, n_chunks, _available_cpus()))
    # as many chunks for each process, none empty
    n_chunks = min((n_chunks + processes - 1) // processes * processes, n_batches)
    tasks = [
        (
            scene,
            mpo,
            windows,
            detector,
            seed,
            n_batches * k // n_chunks,
            n_batches * (k + 1) // n_chunks,
            n_photons,
        )
        for k in range(n_chunks)
    ]
    for flat, stats in run_tasks(_run_chunk, tasks, processes):
        image.bins, image.bin_counts = _add_hits(image.bins, image.bin_counts, flat)
        total.add(stats)

    plane = image.bins % image.planes
    total.class_counts = {
        cls: int(image.bin_counts[plane == k].sum()) for k, cls in enumerate(PathClass)
    }
    total.processes = processes
    return image


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_tasks(fn, tasks: list, n_workers: int):
    """Yield ``fn(task)`` for each of ``tasks``, in order.

    With one worker or at most one task, ``fn`` runs in this process;
    otherwise in a pool of ``min(n_workers, len(tasks))`` processes, which
    needs ``fn`` to be a module-level function and the tasks and results to
    pickle.  A task's exception is raised where its result would have been
    yielded, after the tasks not yet started are cancelled and the running
    ones have ended.
    """
    if n_workers == 1 or len(tasks) <= 1:
        yield from map(fn, tasks)
        return
    # imported only for a pool: it loads multiprocessing and socket (15-25 ms)
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(n_workers, len(tasks))) as pool:
        yield from pool.map(fn, tasks)
