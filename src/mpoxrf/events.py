"""Pixel event records, binary event files, and per-pixel energy calibration.

Readout chips of the Timepix3 family report a time-over-threshold (ToT)
value per pixel per hit; ToT maps to deposited energy through a per-pixel
linear calibration fitted against fluorescence lines of known elements.
This module defines a compact stand-in wire format for event dumps (TPXE),
fixture generators for calibration data, the peak-find + least-squares fit
chain, and the event-to-spectral-cube histogrammer.

TPXE format, little-endian:

    magic  "TPXE"          4 bytes
    u32    version = 1
    u32    n_x
    u32    n_y
    u64    record count
    records, 16 bytes each: u16 x, u16 y, u16 tot, u16 reserved=0, u64 toa
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .fileio import FileFormatError
from .sim import FWHM_PER_SIGMA, DetectorSpec, SimStats, SpectralImage, _bin_hits

MAGIC = b"TPXE"
VERSION = 1
HEADER = struct.Struct("<4sIIIQ")
RECORD_DTYPE = np.dtype(
    [("x", "<u2"), ("y", "<u2"), ("tot", "<u2"), ("reserved", "<u2"), ("toa", "<u8")]
)

#: K-alpha energies (keV) of the five standard calibration elements.
KALPHA_KEV = {
    "Ti": 4.51,
    "Fe": 6.40,
    "Cu": 8.05,
    "Zr": 15.78,
    "Ag": 22.16,
}


class EventFormatError(ValueError):
    """A TPXE stream failed to parse; ``offset`` is the failing byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.message = message
        self.offset = offset


@dataclass
class EventList:
    """Event arrays plus the pixel-matrix dimensions they belong to."""

    n_x: int
    n_y: int
    x: np.ndarray  # uint16
    y: np.ndarray
    tot: np.ndarray  # uint16
    toa: np.ndarray  # uint64

    def __len__(self) -> int:
        return self.x.size

    @classmethod
    def empty(cls, n_x: int, n_y: int) -> "EventList":
        return cls(
            n_x,
            n_y,
            np.empty(0, np.uint16),
            np.empty(0, np.uint16),
            np.empty(0, np.uint16),
            np.empty(0, np.uint64),
        )


@dataclass(frozen=True)
class LineSet:
    """Calibration lines: (element label, K-alpha energy keV) pairs,
    strictly increasing in energy; a linear fit needs at least two."""

    lines: tuple[tuple[str, float], ...]

    def __post_init__(self):
        if len(self.lines) < 2:
            raise ValueError("a linear calibration needs at least two lines")
        energies = [e for _, e in self.lines]
        if any(b <= a for a, b in zip(energies, energies[1:])):
            raise ValueError(f"line energies must be strictly increasing: {energies}")

    @property
    def energies(self) -> np.ndarray:
        return np.array([e for _, e in self.lines])

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.lines)


def default_line_set() -> LineSet:
    return LineSet(tuple(sorted(KALPHA_KEV.items(), key=lambda kv: kv[1])))


@dataclass
class CalibrationMap:
    """Per-pixel linear ToT -> energy calibration: E = gain * ToT + offset.

    Dead pixels (fewer than two usable peaks, or a singular fit) carry
    NaN gain/offset and dead=True; they are flagged, never zero-filled.
    """

    gain: np.ndarray  # (n_y, n_x) keV per ToT unit
    offset: np.ndarray  # keV
    residual: np.ndarray  # keV RMS of the fit
    dead: np.ndarray  # bool

    @property
    def n_y(self) -> int:
        return self.gain.shape[0]

    @property
    def n_x(self) -> int:
        return self.gain.shape[1]

    @property
    def n_dead(self) -> int:
        return int(np.count_nonzero(self.dead))


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
    with open(path, "wb") as fh:
        fh.write(write_events(events))


def parse_events(data: bytes) -> EventList:
    """Parse a TPXE byte stream.

    Raises
    ------
    EventFormatError
        On bad magic (offset 0), version mismatch (offset 4), a stream
        shorter than its declared record count (offset of the first
        incomplete byte), or a record whose pixel indices fall outside
        the declared matrix (offset of that record).
    """
    if len(data) < HEADER.size:
        raise EventFormatError("truncated header", len(data))
    magic, version, n_x, n_y, count = HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise EventFormatError(f"bad magic {magic!r}", 0)
    if version != VERSION:
        raise EventFormatError(f"unsupported version {version}", 4)
    expected = HEADER.size + count * RECORD_DTYPE.itemsize
    if len(data) < expected:
        n_complete = (len(data) - HEADER.size) // RECORD_DTYPE.itemsize
        raise EventFormatError(
            f"stream ends after {n_complete} of {count} records",
            HEADER.size + n_complete * RECORD_DTYPE.itemsize,
        )
    records = np.frombuffer(data, dtype=RECORD_DTYPE, count=count, offset=HEADER.size)
    bad = np.nonzero((records["x"] >= n_x) | (records["y"] >= n_y))[0]
    if bad.size:
        first = int(bad[0])
        raise EventFormatError(
            f"record {first} pixel ({records['x'][first]}, {records['y'][first]}) "
            f"outside {n_x}x{n_y} matrix",
            HEADER.size + first * RECORD_DTYPE.itemsize,
        )
    return EventList(
        n_x=n_x,
        n_y=n_y,
        x=records["x"].copy(),
        y=records["y"].copy(),
        tot=records["tot"].copy(),
        toa=records["toa"].copy(),
    )


def parse_events_file(path) -> EventList:
    """Parse a TPXE file; a format error names the file in front of its
    message and keeps its byte offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse_events(data)
    except EventFormatError as exc:
        raise EventFormatError(f"{path}: {exc.message}", exc.offset) from None


def synthesize_line_events(
    line_kev: float,
    gain: np.ndarray,
    offset: np.ndarray,
    n_per_pixel: int,
    rng,
    energy_fwhm: float = 1.12,
    toa_start: int = 0,
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
    pix = np.repeat(np.arange(n_y * n_x), n_per_pixel)
    x = (pix % n_x).astype(np.uint16)
    y = (pix // n_x).astype(np.uint16)
    sigma = energy_fwhm / FWHM_PER_SIGMA
    e_meas = line_kev + sigma * rng.standard_normal(n_total)
    tot = np.round((e_meas - offset.reshape(-1)[pix]) / gain.reshape(-1)[pix])
    tot = np.clip(tot, 0, np.iinfo(np.uint16).max).astype(np.uint16)
    toa = (toa_start + np.arange(n_total)).astype(np.uint64)
    return EventList(n_x=n_x, n_y=n_y, x=x, y=y, tot=tot, toa=toa)


def tot_histograms(
    events: EventList,
    max_tot: int | None = None,
    out: np.ndarray | None = None,
    row_offset: int = 0,
) -> np.ndarray:
    """Per-pixel ToT histograms, shape (n_y * n_x, max_tot + 1).

    Without ``max_tot`` the width covers the largest ToT present; a given
    width (``max_tot``, or the width of ``out``) clips larger ToT values
    into the last bin.  With ``out`` the counts accumulate into an existing
    histogram block (enables streaming large fixture sets in chunks);
    ``row_offset`` shifts the pixel rows when ``events`` covers a slab of a
    larger matrix that ``out`` describes.
    """
    if out is None:
        row_offset = 0
        n_rows = events.n_y * events.n_x
        n_tot = (int(events.tot.max(initial=0)) if max_tot is None else max_tot) + 1
    else:
        n_rows, n_tot = out.shape
    tot = events.tot
    if max_tot is not None or out is not None:
        tot = np.minimum(tot, min(n_tot - 1, np.iinfo(tot.dtype).max))
    # flat index ((y + row_offset) * n_x + x) * n_tot + tot, built in place
    flat = events.y.astype(np.intp)
    flat += row_offset
    flat *= events.n_x
    flat += events.x
    flat *= n_tot
    flat += tot
    hist = np.bincount(flat, minlength=n_rows * n_tot).reshape(n_rows, n_tot)
    if out is None:
        return hist
    out += hist
    return out


#: Rows per vectorized peak pass; bounds the float temporaries of
#: :func:`find_line_peaks` to a few (_PEAK_ROWS, n_tot) blocks.
_PEAK_ROWS = 1024


def _peak_centroids(hists: np.ndarray) -> np.ndarray:
    """Half-max run centroid of each row of a 2-D block (NaN for an all-zero row)."""
    h = np.asarray(hists, dtype=float)
    peak = np.argmax(h, axis=1)[:, None]
    top = np.take_along_axis(h, peak, axis=1)
    above = h >= top / 2.0
    # bins of one connected run above half-max share a count of the
    # below-half bins to their left; the run holding the argmax is the one
    # whose count matches the argmax's
    run_id = np.cumsum(~above, axis=1)
    in_run = above & (run_id == np.take_along_axis(run_id, peak, axis=1))
    weights = np.where(in_run, h, 0.0)
    with np.errstate(invalid="ignore"):  # an all-zero row is 0 / 0 = NaN
        return (weights @ np.arange(h.shape[1], dtype=float)) / weights.sum(axis=1)


def find_line_peaks(histogram: np.ndarray) -> float | None | np.ndarray:
    """Locate the dominant peak of ToT histograms along the last axis.

    A histogram's peak is the intensity centroid of the connected run of
    bins at or above half its maximum that contains the maximum itself
    (the first maximum on ties, so a bimodal histogram yields the taller
    mode).  A 1-D histogram gives a float, or None when it is empty or all
    zero.  A 2-D block gives one centroid per row, NaN for an all-zero row.
    On integer counts every sum is exact, so the result does not depend
    on how rows are grouped.
    """
    histogram = np.asarray(histogram)
    if histogram.ndim == 1:
        if histogram.size == 0:
            return None
        loc = float(_peak_centroids(histogram[None, :])[0])
        return None if np.isnan(loc) else loc
    n_rows, n_bins = histogram.shape
    out = np.full(n_rows, np.nan)
    if n_bins:
        for r0 in range(0, n_rows, _PEAK_ROWS):
            rows = slice(r0, r0 + _PEAK_ROWS)
            out[rows] = _peak_centroids(histogram[rows])
    return out


def line_peaks(events: EventList) -> np.ndarray:
    """Peak ToT of one line's events per pixel, shape (n_y, n_x); NaN marks
    a pixel without hits."""
    peaks = find_line_peaks(tot_histograms(events))
    return peaks.reshape(events.n_y, events.n_x)


def stack_line_peaks(
    peak_maps: dict[str, np.ndarray], line_set: LineSet
) -> np.ndarray:
    """The (n_lines, n_y, n_x) block of ``line_peaks`` maps in line-set order,
    as :func:`fit_calibration` takes it; every map must cover one matrix."""
    shape = peak_maps[line_set.labels[0]].shape
    for label in line_set.labels:
        if peak_maps[label].shape != shape:
            raise ValueError(f"event matrix mismatch for line {label!r}")
    return np.stack([peak_maps[label] for label in line_set.labels])


def fit_calibration(
    peak_tot: np.ndarray, line_set: LineSet
) -> CalibrationMap:
    """Per-pixel ordinary least squares of energy against located peaks.

    Parameters
    ----------
    peak_tot : ndarray, shape (n_lines, n_y, n_x)
        Peak ToT per calibration line per pixel; NaN marks a line that
        could not be located on that pixel.
    line_set : LineSet
        The energies the peaks correspond to, in matching order.

    Pixels with fewer than two located peaks, or with degenerate ToT
    values (no slope information), are flagged dead.
    """
    energies = line_set.energies
    if peak_tot.shape[0] != energies.size:
        raise ValueError(
            f"peak array has {peak_tot.shape[0]} lines, line set has {energies.size}"
        )
    n_lines, n_y, n_x = peak_tot.shape
    pts = peak_tot.reshape(n_lines, -1)
    ok = np.isfinite(pts)
    n_ok = ok.sum(axis=0)

    e_col = energies[:, None]
    w = ok.astype(float)
    sw = np.maximum(n_ok, 1)
    mean_t = np.sum(np.where(ok, pts, 0.0), axis=0) / sw
    mean_e = np.sum(w * e_col, axis=0) / sw
    dt = np.where(ok, pts - mean_t, 0.0)
    de = np.where(ok, e_col - mean_e, 0.0)
    s_tt = np.sum(dt * dt, axis=0)
    s_te = np.sum(dt * de, axis=0)

    with np.errstate(divide="ignore", invalid="ignore"):
        gain = s_te / s_tt
        offset = mean_e - gain * mean_t
        resid_sq = np.where(ok, e_col - (gain * pts + offset), 0.0) ** 2
        residual = np.sqrt(np.sum(resid_sq, axis=0) / sw)

    dead = (n_ok < 2) | ~np.isfinite(gain) | (gain <= 0)
    gain = np.where(dead, np.nan, gain)
    offset = np.where(dead, np.nan, offset)
    residual = np.where(dead, np.nan, residual)
    return CalibrationMap(
        gain=gain.reshape(n_y, n_x),
        offset=offset.reshape(n_y, n_x),
        residual=residual.reshape(n_y, n_x),
        dead=dead.reshape(n_y, n_x),
    )


def calibrate_from_events(
    per_line_events: dict[str, EventList], line_set: LineSet
) -> CalibrationMap:
    """Full chain: per-pixel histograms, peak location, linear fit.

    ``per_line_events`` maps element labels to their fixture/measurement
    events; every label of ``line_set`` must be present.
    """
    missing = [lbl for lbl in line_set.labels if lbl not in per_line_events]
    if missing:
        raise ValueError(f"missing event data for calibration lines: {missing}")
    peaks = {lbl: line_peaks(per_line_events[lbl]) for lbl in line_set.labels}
    return fit_calibration(stack_line_peaks(peaks, line_set), line_set)


def apply_calibration(
    events: EventList, cal: CalibrationMap, detector: DetectorSpec
) -> SpectralImage:
    """Histogram calibrated events into a spectral cube.

    Events on dead pixels are dropped and counted in the cube's stats; the
    rest pass the detector stage of :func:`mpoxrf.sim.simulate`.
    ``detector`` must describe the events' pixel matrix.
    """
    if (cal.n_x, cal.n_y) != (events.n_x, events.n_y):
        raise ValueError("calibration map does not match the event matrix")
    if (detector.n_x, detector.n_y) != (events.n_x, events.n_y):
        raise ValueError("detector does not match the event matrix")
    stats = SimStats(n_photons=len(events))
    pix_y = events.y.astype(np.int64)
    pix_x = events.x.astype(np.int64)
    alive = np.nonzero(~cal.dead[pix_y, pix_x])[0]
    stats.dead_pixel_drops = len(events) - alive.size

    pix_y = pix_y[alive]
    pix_x = pix_x[alive]
    energy = (
        cal.gain[pix_y, pix_x] * events.tot[alive].astype(float)
        + cal.offset[pix_y, pix_x]
    )
    _, (idx, cnt) = _bin_hits(pix_x, pix_y, energy, detector, stats)
    cube = SpectralImage.empty(detector, photons=len(events), stats=stats)
    cube.counts.reshape(-1)[idx] += cnt.astype(np.uint64)
    return cube


_CAL_COLUMNS = ("x", "y", "gain", "offset", "residual", "dead")


def write_calibration_csv(path, cal: CalibrationMap) -> None:
    """CSV columns: x,y,gain,offset,residual,dead; one row per pixel, dead
    pixels included (with NaN fit values)."""
    with open(path, "w") as fh:
        fh.write(",".join(_CAL_COLUMNS) + "\n")
        for yy in range(cal.n_y):
            for xx in range(cal.n_x):
                if cal.dead[yy, xx]:
                    fh.write(f"{xx},{yy},nan,nan,nan,1\n")
                else:
                    fh.write(
                        f"{xx},{yy},{float(cal.gain[yy, xx])!r},"
                        f"{float(cal.offset[yy, xx])!r},"
                        f"{float(cal.residual[yy, xx])!r},0\n"
                    )


def read_calibration_csv(path) -> CalibrationMap:
    """Read a calibration map written by :func:`write_calibration_csv`.

    The matrix is (max y + 1) x (max x + 1); a pixel without a row is dead.
    A file with fewer data rows than matrix pixels is rejected before the
    maps are allocated, so a stray huge index cannot demand a huge map.
    """
    with warnings.catch_warnings():
        # numpy warns about a file without a header line, then fails on it;
        # the warning becomes the error, so nothing but the error is printed
        warnings.filterwarnings("error", "genfromtxt: Empty input file", UserWarning)
        try:
            data = np.genfromtxt(path, delimiter=",", names=True)
        except (UserWarning, IndexError):
            raise FileFormatError(f"{path}: empty calibration CSV") from None
        except ValueError as exc:
            raise FileFormatError(f"{path}: {' '.join(str(exc).split())}") from None
    missing = [c for c in _CAL_COLUMNS if c not in (data.dtype.names or ())]
    if missing:
        raise FileFormatError(
            f"{path}: calibration CSV lacks column(s) {', '.join(missing)}"
        )
    if data.size == 0:
        raise FileFormatError(f"{path}: calibration CSV has no data rows")
    for name in ("x", "y"):
        col = data[name]
        if not np.all(np.isfinite(col) & (col >= 0) & (col == np.floor(col))):
            raise FileFormatError(
                f"{path}: column {name} must hold non-negative integer pixel indices"
            )
    n_x = int(data["x"].max()) + 1
    n_y = int(data["y"].max()) + 1
    if n_x * n_y > data.size:
        raise FileFormatError(
            f"{path}: pixel indices span a {n_x}x{n_y} matrix but the "
            f"calibration CSV has {data.size} data rows"
        )
    live = data["dead"] == 0
    if not np.all(np.isfinite(data["gain"][live]) & np.isfinite(data["offset"][live])):
        raise FileFormatError(f"{path}: a live pixel has a non-finite gain or offset")
    xs = data["x"].astype(int)
    ys = data["y"].astype(int)
    gain = np.full((n_y, n_x), np.nan)
    offset = np.full((n_y, n_x), np.nan)
    residual = np.full((n_y, n_x), np.nan)
    dead = np.ones((n_y, n_x), dtype=bool)
    gain[ys, xs] = data["gain"]
    offset[ys, xs] = data["offset"]
    residual[ys, xs] = data["residual"]
    dead[ys, xs] = data["dead"] != 0
    return CalibrationMap(gain=gain, offset=offset, residual=residual, dead=dead)
