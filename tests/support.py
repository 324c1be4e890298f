"""Test helpers that no command runs: an independent oracle of the channel
transit, an arm-extent measurement, and TPXE fixture writers.

Test files import them as ``from support import ...``; pytest's default
import mode puts this directory on ``sys.path``.
"""

from __future__ import annotations

import numpy as np

from mpoxrf.analysis import AnalysisError, PsfProfile, _outer_background
from mpoxrf.events import HEADER, MAGIC, RECORD_DTYPE, VERSION, EventList
from mpoxrf.sim import FWHM_PER_SIGMA


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
