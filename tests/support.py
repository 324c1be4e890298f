"""Test helpers that no command runs: an independent oracle of the channel
transit, an arm-extent measurement, TPXE fixture writers, dense, windowed
and per-class oracles of a cube held as its non-zero bins, and decoders of
the TPXE and SIC byte layouts that README states.

Test files import them as ``from support import ...``; pytest's default
import mode puts this directory on ``sys.path``.
"""

from __future__ import annotations

import math
import struct
from typing import NamedTuple

import numpy as np

from mpoxrf import sic
from mpoxrf.analysis import AnalysisError, PsfProfile, _outer_background
from mpoxrf.events import HEADER, MAGIC, RECORD_DTYPE, VERSION, EventList, open_events
from mpoxrf.optics import PathClass
from mpoxrf.sim import FWHM_PER_SIGMA, DetectorSpec


def march_plane(entry_u: float, slope: float, width: float, thickness_um: float):
    """Brute-force wall-by-wall ray march through one channel plane.

    Independent oracle for :func:`mpoxrf.optics._unfold_vec`: advances the
    ray to each explicit wall intersection, flips the slope, and repeats
    until the ray clears the channel length.  Intentionally does no tiling
    arithmetic.

    Returns
    -------
    (exit_u, exit_slope, n_reflections)
    """
    u = entry_u
    s = slope
    y = 0.0
    n = 0
    if s == 0.0:
        return u, s, 0
    while True:
        wall = width if s > 0 else 0.0
        dy = (wall - u) / s
        if y + dy >= thickness_um:
            return u + s * (thickness_um - y), s, n
        y += dy
        u = wall
        s = -s
        n += 1


def arm_extent(
    profile: PsfProfile, core_exclude_mm: float = 0.25, frac: float = 0.1
) -> float:
    """Half-length of a cross arm: farthest |position| at which the
    profile still reaches ``frac`` of the arm peak.

    The arm peak is the background-subtracted maximum outside the central
    core (|position| > core_exclude_mm); both signs of the axis are
    scanned and the larger extent returned.
    """
    y = profile.intensities
    x = profile.positions
    bg = _outer_background(y)
    arm_region = np.abs(x) > core_exclude_mm
    if not np.any(arm_region):
        raise AnalysisError("core exclusion swallows the whole profile")
    arm_peak = float((y[arm_region] - bg).max())
    if arm_peak <= 0:
        raise AnalysisError("no arm signal above background")
    level = bg + frac * arm_peak
    above = np.nonzero(arm_region & (y >= level))[0]
    if above.size == 0:
        raise AnalysisError("arm never reaches the threshold level")
    return float(np.abs(x[above]).max())


def detector_of(counts, **axes) -> DetectorSpec:
    """The detector whose (n_y, n_x, n_bins) grid is the shape of the count
    array ``counts``; ``axes`` sets its other fields (``e_min``,
    ``e_bin_width``, ``pitch``, ...)."""
    n_y, n_x, n_bins = counts.shape
    return DetectorSpec(n_x=n_x, n_y=n_y, n_bins=n_bins, **axes)


def dense(cube) -> np.ndarray:
    """The dense (n_y, n_x, n_bins) uint64 counts of ``cube`` on its
    detector's grid, its class planes summed (the counts that its SIC file
    holds), built from its non-zero bins ``bins`` / ``bin_counts``."""
    det = cube.detector
    counts = np.zeros((det.n_y, det.n_x, det.n_bins), np.uint64)
    np.add.at(counts.reshape(-1), cube.bins // cube.planes, cube.bin_counts)
    return counts


def class_image(cube, cls, lo: float, hi: float) -> np.ndarray:
    """The (n_y, n_x) float image of the hits of path class ``cls`` in a
    ``simulate`` cube over the energy window [lo, hi): plane
    ``list(PathClass).index(cls)`` of the bins whose centers lie in the
    window."""
    plane = list(PathClass).index(cls)
    return window_image(cube, lo, hi, plane=plane)


def same_bins(a, b) -> bool:
    """Whether the cubes ``a`` and ``b`` hold the same non-zero bins with the
    same counts."""
    return np.array_equal(a.bins, b.bins) and np.array_equal(a.bin_counts, b.bin_counts)


def window_image(cube, lo: float, hi: float, plane=None) -> np.ndarray:
    """The (n_y, n_x) float image of ``cube`` over the energy window [lo,
    hi): each pixel's counts in the bins whose centers, computed here as an
    array from the cube's detector, lie in the window, over all class
    planes or over ``plane`` alone.  Over all planes, the oracle of
    ``sic.read_window``."""
    det = cube.detector
    centers = det.e_min + (np.arange(det.n_bins) + 0.5) * det.e_bin_width
    inside = (centers >= lo) & (centers < hi)
    index, p = np.divmod(cube.bins, cube.planes)
    pixel, k = np.divmod(index, det.n_bins)
    keep = inside[k] & ((p == plane) if plane is not None else True)
    sums = np.zeros(det.n_y * det.n_x, np.uint64)
    np.add.at(sums, pixel[keep], cube.bin_counts[keep])
    return sums.reshape(det.n_y, det.n_x).astype(float)


def window_of(cube, path, lo: float, hi: float):
    """The image of ``cube`` over [lo, hi) as the ``window`` command gets
    it: the cube written to the SIC file ``path``, then summed by
    ``sic.read_window``."""
    sic.write_sic(path, cube)
    return sic.read_window(path, lo, hi)


def write_events(events: EventList) -> bytes:
    """Serialize events to TPXE bytes (round-trip exact)."""
    header = HEADER.pack(MAGIC, VERSION, events.n_x, events.n_y, len(events))
    records = np.zeros(len(events), dtype=RECORD_DTYPE)
    records["x"] = events.x
    records["y"] = events.y
    records["tot"] = events.tot
    records["toa"] = events.toa
    return header + records.tobytes()


def write_events_file(path, events: EventList) -> None:
    """Write ``events`` to a TPXE file."""
    with open(path, "wb") as fh:
        fh.write(write_events(events))


def synthesize_line_events(
    line_kev: float,
    gain: np.ndarray,
    offset: np.ndarray,
    n_per_pixel: int,
    rng,
    energy_fwhm: float = 1.12,
) -> EventList:
    """Generate fixture events for one fluorescence line.

    Each pixel of the (n_y, n_x) gain/offset maps receives
    ``n_per_pixel`` hits; measured energies are smeared with the detector
    FWHM and inverted through the true calibration,
    ToT = round((E_meas - offset) / gain), clipped to the u16 range.
    ToA values are a simple running counter.
    """
    if np.any(gain <= 0):
        raise ValueError("all gains must be positive")
    n_y, n_x = gain.shape
    n_total = n_y * n_x * n_per_pixel
    # one row of hits per pixel, so each pixel's gain and offset broadcast
    # over its row and no per-hit copy of the maps is made
    e_meas = rng.standard_normal((n_y * n_x, n_per_pixel))
    e_meas *= energy_fwhm / FWHM_PER_SIGMA
    e_meas += line_kev
    e_meas -= offset.reshape(-1, 1)
    e_meas /= gain.reshape(-1, 1)
    np.round(e_meas, out=e_meas)
    np.clip(e_meas, 0, np.iinfo(np.uint16).max, out=e_meas)
    x = np.repeat(np.tile(np.arange(n_x, dtype=np.uint16), n_y), n_per_pixel)
    y = np.repeat(np.arange(n_y, dtype=np.uint16), n_x * n_per_pixel)
    tot = e_meas.astype(np.uint16).reshape(-1)
    toa = np.arange(n_total, dtype=np.uint64)
    return EventList(n_x=n_x, n_y=n_y, x=x, y=y, tot=tot, toa=toa)


def read_events(path) -> EventList:
    """All the events of a TPXE file, read through ``open_events``."""
    with open_events(path) as source:
        events = EventList(source.n_x, source.n_y, *(
            np.empty(len(source), dtype)
            for dtype in (np.uint16, np.uint16, np.uint16, np.uint64)
        ))
        first = 0
        for part in source.slices():
            for name in ("x", "y", "tot", "toa"):
                getattr(events, name)[first : first + len(part)] = getattr(part, name)
            first += len(part)
    return events


# The decoders below read README's byte layouts with their own struct
# formats and nothing from mpoxrf: they are the oracles of the readers.


class Tpxe(NamedTuple):
    n_x: int
    n_y: int
    x: np.ndarray
    y: np.ndarray
    tot: np.ndarray
    toa: np.ndarray


def decode_tpxe(data: bytes) -> Tpxe | None:
    """The header and records of a TPXE byte string, or None where it
    breaks a rule of the layout: magic "TPXE", version 1, sides 1..65536,
    at least the declared records (more bytes may follow), and every
    record's pixel inside the matrix."""
    if len(data) < 24:
        return None
    magic, version, n_x, n_y, count = struct.unpack_from("<4sIIIQ", data)
    if (magic, version) != (b"TPXE", 1) or not (
        1 <= n_x <= 65536 and 1 <= n_y <= 65536
    ):
        return None
    if len(data) < 24 + 16 * count:
        return None
    words = np.frombuffer(data, "<u2", count=8 * count, offset=24).reshape(count, 8)
    x, y, tot = (words[:, k].copy() for k in range(3))
    toa = np.frombuffer(data, "<u8", count=2 * count, offset=24)[1::2].copy()
    if np.any(x >= n_x) or np.any(y >= n_y):
        return None
    return Tpxe(n_x, n_y, x, y, tot, toa)


class Sic(NamedTuple):
    e_min: float
    e_bin_width: float
    pixel_pitch_um: float
    seed: int
    photons: int
    counts: np.ndarray  # (n_y, n_x, n_bins) uint64


def decode_sic(data: bytes) -> Sic | None:
    """The header and counts of a SIC byte string, or None where it breaks
    a rule of the layout: magic "SIC1", no zero dimension, a finite e_min,
    a positive and finite bin width and pitch, and exactly the length that
    the header declares."""
    if len(data) < 56:
        return None
    magic, n_x, n_y, n_bins, e_min, width, pitch, seed, photons = struct.unpack_from(
        "<4sIIIdddQQ", data
    )
    if magic != b"SIC1" or 0 in (n_x, n_y, n_bins):
        return None
    if not (math.isfinite(e_min) and 0 < width < math.inf and 0 < pitch < math.inf):
        return None
    if len(data) != 56 + 8 * n_x * n_y * n_bins:
        return None
    counts = np.frombuffer(data, "<u8", offset=56).reshape(n_y, n_x, n_bins)
    return Sic(e_min, width, pitch, seed, photons, counts.copy())


def scan_data_ranges(body: np.ndarray, skip: int, block: int) -> list:
    """``(start, stop)`` byte ranges of a dense SIC body ``body`` (uint8)
    that a hole-aware writer writes, found by scanning it: the first
    ``skip`` bytes, which share a block with the header, then every
    block-sized row that holds a non-zero byte, runs of them merged across
    gaps shorter than ``sic.MIN_HOLE_BLOCKS``.  The oracle of
    ``sic._data_runs``, which finds the same ranges from the non-zero bins.
    """
    rows = max(body.size - skip, 0) // block
    tail = body[skip + rows * block:]
    # block flags: the header's block, the rows, the tail; a zero each side
    data = np.zeros(rows + 4, np.int8)
    data[1] = 1
    data[2:-2] = body[skip:skip + rows * block].reshape(rows, block).max(axis=1) != 0
    data[-2] = tail.size > 0 and tail.max() != 0
    edges = np.flatnonzero(np.diff(data))  # block numbers: run starts, stops
    starts, stops = edges[::2], edges[1::2]
    hole = starts[1:] - stops[:-1] >= sic.MIN_HOLE_BLOCKS  # shorter gaps are written
    starts, stops = starts[np.r_[True, hole]], stops[np.r_[hole, True]]
    bounds = np.clip(skip + (np.c_[starts, stops] - 1) * block, 0, body.size)
    return bounds.tolist()
