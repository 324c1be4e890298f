"""Pixel event records, binary event files, and per-pixel energy calibration.

Readout chips of the Timepix3 family report a time-over-threshold (ToT)
value per pixel per hit; ToT maps to deposited energy through a per-pixel
linear calibration fitted against fluorescence lines of known elements.
This module defines a compact stand-in wire format for event dumps (TPXE),
its one reader (:func:`open_events`), the calibration chain and the
event-to-spectral-cube histogrammer.  Nothing here writes TPXE; the test
fixtures do.

The calibration chain has one route: :func:`line_peaks` histograms each
line's events per pixel (:func:`tot_histograms`) and reduces them to a
peak map (:func:`find_line_peaks`); the maps, stacked in line-set order,
go to :func:`fit_calibration`, and :func:`apply_calibration` bins a run.
Each step takes an event source, an :class:`EventList` or a TPXE file
opened with :func:`open_events`, and works through its ``slices()``, so a
file's records pass through one reused 512 KiB buffer, never all at once.
:func:`tot_histograms` reads its source once, widening its block as
larger ToTs arrive, and counts in 16-bit bins; only a source with a bin
of 65,536 hits is read a second time, in counts wide enough for its
record count.  The flat indices of both kernels take the narrowest
unsigned type that addresses their block, so every temporary scales with
the slice.  The peak finder takes that 2-D integer block as it is: it
walks each pixel's half-maximum run out from its argmax, sums the run's
counts in int64 and reads only the bins of that run, so it makes no copy
of the block.

TPXE format, little-endian:

    magic  "TPXE"          4 bytes
    u32    version = 1
    u32    n_x             1..65536
    u32    n_y             1..65536
    u64    record count
    records, 16 bytes each: u16 x, u16 y, u16 tot, u16 reserved=0, u64 toa
"""

from __future__ import annotations

import struct
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .fileio import FileFormatError, open_binary
from .sim import DetectorSpec, SimStats, SpectralImage, _cube_index

MAGIC = b"TPXE"
VERSION = 1
HEADER = struct.Struct("<4sIIIQ")
RECORD_DTYPE = np.dtype(
    [("x", "<u2"), ("y", "<u2"), ("tot", "<u2"), ("reserved", "<u2"), ("toa", "<u8")]
)
#: Largest matrix side a u16 pixel coordinate can address.
MAX_SIDE = 1 << 16

#: K-alpha energies (keV) of the five standard calibration elements.
KALPHA_KEV = {
    "Ti": 4.51,
    "Fe": 6.40,
    "Cu": 8.05,
    "Zr": 15.78,
    "Ag": 22.16,
}


class EventFormatError(FileFormatError):
    """A TPXE stream failed to parse; ``offset`` is the failing byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.message = message
        self.offset = offset

    def __reduce__(self):
        # rebuilt from both arguments, so the error pickles across a
        # process pool with its message and offset
        return type(self), (self.message, self.offset)


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

    def slices(self):
        """Yield views of consecutive runs of at most :data:`_READ_RECORDS`
        events, in order."""
        for first in range(0, len(self), _READ_RECORDS):
            part = slice(first, first + _READ_RECORDS)
            yield EventList(
                self.n_x, self.n_y,
                self.x[part], self.y[part], self.tot[part], self.toa[part],
            )


@dataclass(frozen=True)
class LineSet:
    """Calibration lines: (element label, K-alpha energy keV) pairs with
    distinct labels and finite, positive energies, strictly increasing; a
    linear fit needs at least two."""

    lines: tuple[tuple[str, float], ...]

    def __post_init__(self):
        if len(self.lines) < 2:
            raise ValueError("a linear calibration needs at least two lines")
        energies = [e for _, e in self.lines]
        # NaN fails no ordering test, so it is refused by name here
        if not all(np.isfinite(e) and e > 0 for e in energies):
            raise ValueError(f"line energies must be finite and > 0 keV: {energies}")
        if any(b <= a for a, b in zip(energies, energies[1:])):
            raise ValueError(f"line energies must be strictly increasing: {energies}")
        labels = [lbl for lbl, _ in self.lines]
        if len(set(labels)) < len(labels):
            raise ValueError(f"line labels must be distinct: {labels}")

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


def _check_header(head: bytes, size: int) -> tuple[int, int, int]:
    """(n_x, n_y, record count) of a TPXE stream of ``size`` bytes that
    starts with ``head``; raises :class:`EventFormatError` on a truncated
    header, bad magic or version, a matrix side outside 1..65536 (the u16
    pixel coordinates address no more), or fewer bytes than the declared
    records need.  Bytes after the declared records are allowed."""
    if len(head) < HEADER.size:
        raise EventFormatError("truncated header", len(head))
    magic, version, n_x, n_y, count = HEADER.unpack_from(head, 0)
    if magic != MAGIC:
        raise EventFormatError(f"bad magic {magic!r}", 0)
    if version != VERSION:
        raise EventFormatError(f"unsupported version {version}", 4)
    for name, side, offset in (("n_x", n_x, 8), ("n_y", n_y, 12)):
        if not 1 <= side <= MAX_SIDE:
            raise EventFormatError(f"{name} {side} outside 1..{MAX_SIDE}", offset)
    if size < HEADER.size + count * RECORD_DTYPE.itemsize:
        raise _short_stream((size - HEADER.size) // RECORD_DTYPE.itemsize, count)
    return n_x, n_y, count


def _short_stream(n_complete: int, count: int) -> EventFormatError:
    return EventFormatError(
        f"stream ends after {n_complete} of {count} records",
        HEADER.size + n_complete * RECORD_DTYPE.itemsize,
    )


def _check_pixels(records: np.ndarray, n_x: int, n_y: int, first: int) -> None:
    """Raise :class:`EventFormatError` at the first record outside the
    n_x x n_y matrix; ``first`` is the stream index of ``records[0]``."""
    x, y = records["x"], records["y"]
    if records.size == 0 or (x.max() < n_x and y.max() < n_y):
        return
    i = int(np.flatnonzero((x >= n_x) | (y >= n_y))[0])
    raise EventFormatError(
        f"record {first + i} pixel ({x[i]}, {y[i]}) outside {n_x}x{n_y} matrix",
        HEADER.size + (first + i) * RECORD_DTYPE.itemsize,
    )


#: Events per slice of an event source: a file's slice is one 512 KiB
#: buffer, and every temporary of the histogram and binning kernels scales
#: with it.  Buffer and temporaries then stay in a core's L2 cache (2 MiB
#: on the 2-vCPU Xeon VM it was measured on) through the passes a slice
#: makes; of 2^13 to 2^18 records, 2^15 took the least time over the
#: histogram and binning kernels.
_READ_RECORDS = 1 << 15


class EventFile:
    """The events of an open TPXE file, read as they are needed; made by
    :func:`open_events`.  Every record read has its pixel checked against
    the matrix: a record outside it is an :class:`EventFormatError` at that
    record's offset, as is a file that ends before its declared records."""

    def __init__(self, fh, n_x: int, n_y: int, count: int):
        self._fh = fh
        self.n_x = n_x
        self.n_y = n_y
        self._count = count

    def __len__(self) -> int:
        return self._count

    def _fill(self, out: np.ndarray, first: int) -> None:
        """Fill ``out`` with the records of stream index ``first`` onward
        and check their pixels; a file that ends early is a short stream."""
        self._fh.seek(HEADER.size + first * RECORD_DTYPE.itemsize)
        got = self._fh.readinto(out.view(np.uint8))
        if got < out.nbytes:
            raise _short_stream(first + got // RECORD_DTYPE.itemsize, self._count)
        _check_pixels(out, self.n_x, self.n_y, first)

    def slices(self):
        """Yield the file's events from the first record on, as
        :class:`EventList` views of one reused buffer of at most
        :data:`_READ_RECORDS` records; a view holds its events until the
        next one is yielded."""
        buf = np.empty(min(self._count, _READ_RECORDS), dtype=RECORD_DTYPE)
        for first in range(0, self._count, _READ_RECORDS):
            records = buf[: self._count - first]
            self._fill(records, first)
            yield EventList(self.n_x, self.n_y, records["x"], records["y"],
                            records["tot"], records["toa"])


@contextmanager
def open_events(path):
    """Open a TPXE file (a regular file, see :func:`open_binary`) as an
    event source, and check its header against the file length before any
    record is read; yields an :class:`EventFile`.  A format error raised in
    the block names the file in front of its message and keeps its byte
    offset."""
    try:
        with open_binary(path) as (fh, size):
            yield EventFile(fh, *_check_header(fh.read(HEADER.size), size))
    except EventFormatError as exc:
        raise EventFormatError(f"{path}: {exc.message}", exc.offset) from None


def _pixel_index(x, y, n_x: int, size: int) -> np.ndarray:
    """Flat pixel index ``y * n_x + x`` of hits, built in place in the
    narrowest unsigned type that holds ``size``, the size of the block the
    caller indexes with it; no step of that indexing can then wrap."""
    flat = y.astype(np.min_scalar_type(size))
    flat *= n_x
    flat += x
    return flat


#: Columns of the widest ToT histogram block: a u16 ToT is at most 65535.
_TOT_RANGE = 1 << 16


def tot_histograms(events: EventList | EventFile) -> np.ndarray:
    """Per-pixel ToT histograms, shape (n_y * n_x, max ToT + 1).

    Row ``y * n_x + x`` counts the hits of pixel (x, y), column ``t`` the
    hits with ToT ``t``; the width covers the largest ToT present, so no
    value is clipped.  An empty source gives one all-zero column.

    One pass over the slices of the event source adds each slice into a
    zeroed block, widened with 25% headroom (up to the 65,536 ToTs a u16
    holds) whenever a slice's largest ToT reaches the block's width, and
    trimmed to the largest ToT at the end.  The block counts in uint16,
    or in the narrowest unsigned type that holds the record count where
    that is narrower.  Every record adds one to one bin, so the block sums
    to the record count exactly when no bin wrapped past 65,535; if one
    did, the source is counted again in ``np.min_scalar_type(len(events))``
    (uint32 from 65,536 to about 4.3e9 records), which no count can pass.
    The block takes ``n_y * n_x * (max ToT + 1)`` times its type's size in
    bytes, and, while it is widened, the block it replaces sits beside it;
    it is trimmed in place.  A block that cannot be allocated is an
    :class:`EventFormatError` at the first record with the largest ToT
    read so far.
    """
    wide = np.min_scalar_type(len(events))
    hists = _count_tots(events, np.min_scalar_type(min(len(events), 0xFFFF)))
    # no partial sum passes the record count, so ``wide`` holds the sum
    if hists.dtype != wide and hists.sum(dtype=wide) != len(events):
        del hists  # the 16-bit block goes before the wide one is built
        hists = _count_tots(events, wide)
    return hists


def _count_tots(events: EventList | EventFile, dtype: np.dtype) -> np.ndarray:
    """The ToT histogram block of one pass over ``events``, counted in
    ``dtype``, which wraps past its largest value."""
    hists = np.zeros((events.n_y * events.n_x, 0), dtype)
    # the largest ToT so far, and the stream index of its first record
    top = at = first = 0
    # a Python 1 would make np.add.at cast each add and leave its fast loop
    one = dtype.type(1)
    for part in events.slices():
        peak = int(part.tot.max())
        if peak > top:
            top, at = peak, first + int(np.argmax(part.tot == peak))
        if top >= hists.shape[1]:
            n_tot = top + 1
            widths = sorted({min(n_tot + n_tot // 4, _TOT_RANGE), n_tot}, reverse=True)
            hists = _widened(hists, widths, top, at)
        flat = _pixel_index(part.x, part.y, events.n_x, hists.size)
        flat *= hists.shape[1]
        flat += part.tot
        np.add.at(hists.reshape(-1), flat, one)
        first += len(part)
    if not hists.shape[1]:  # an empty source: one all-zero column
        hists = _widened(hists, (1,), 0, 0)
    elif hists.shape[1] > top + 1:
        hists = _trimmed(hists, top + 1)
    return hists


def _widened(hists: np.ndarray, widths, top: int, at: int) -> np.ndarray:
    """``hists`` copied into the first columns of a zeroed block as wide
    as the first of ``widths`` that can be allocated.  If none can, that
    is an :class:`EventFormatError` naming the ``top + 1`` columns that
    ToT ``top`` needs, at the offset of record ``at``."""
    n_pix, n_cols = hists.shape
    for width in widths:
        try:
            block = np.zeros((n_pix, width), hists.dtype)
        except MemoryError:
            continue
        block[:, :n_cols] = hists
        return block
    n_tot = top + 1
    raise EventFormatError(
        f"largest ToT {top} needs a {n_pix}x{n_tot} {hists.dtype} histogram "
        f"block ({n_pix * n_tot * hists.dtype.itemsize / 2**30:.2f} GiB), which "
        "could not be allocated", HEADER.size + at * RECORD_DTYPE.itemsize,
    )


def _trimmed(hists: np.ndarray, n_tot: int) -> np.ndarray:
    """The first ``n_tot`` columns of ``hists``, moved to the front of its
    own buffer, so trimming allocates no second block.  Row ``r`` moves
    down from ``r * width`` to ``r * n_tot``: rows moved in order never
    overwrite one still to move, and numpy buffers the overlap within a
    step, which moves about 2^20 counts."""
    n_pix = hists.shape[0]
    out = hists.reshape(-1)[: n_pix * n_tot].reshape(n_pix, n_tot)
    step = max(1, (1 << 20) // n_tot)
    for first in range(0, n_pix, step):
        rows = slice(first, first + step)
        out[rows] = hists[rows, :n_tot]
    return out


#: Bins one step of the half-max walk reads over all the rows still
#: walking.  A row's window doubles each step until the windows together
#: reach this size; while more rows than this walk, each reads one bin a
#: step.  So a step's temporaries never outgrow the larger of this and
#: the row count.  2^12 to 2^16 took the same time on the bench's line
#: files.
_WALK_BINS = 1 << 14


def find_line_peaks(hists: np.ndarray) -> np.ndarray:
    """The dominant peak of each row of a 2-D integer block of ToT
    histograms, such as :func:`tot_histograms` returns: one centroid per
    row, NaN for a row without a positive count.

    A row's peak is the intensity centroid of the connected run of bins at
    or above half its maximum that contains the maximum itself (the first
    maximum on ties, so a bimodal histogram yields the taller mode).  Each
    row is walked out from its argmax, to the left and then to the right,
    while the next bin holds at least half the row's maximum.  A step
    reads the next 1, 2, 4, ... bins of each row still walking, capped so
    that the windows of all those rows hold about ``_WALK_BINS`` bins: a
    run of n bins in one of a few rows takes about log2(n) steps, and no
    walk takes more steps than a bin at a time.  The run's counts and
    ToT x counts are summed in int64, exactly, then divided once, so a
    row's centroid does not depend on the rest of the block; only the bins
    of the runs and of one window past their ends are read, so nothing
    scales with the block but its argmax.
    """
    n_rows, n_bins = hists.shape
    counts = hists.reshape(-1)
    peak = np.argmax(hists, axis=1)
    top = counts[np.arange(n_rows) * n_bins + peak]
    half = top.astype(float) / 2.0
    weight = top.astype(np.int64)
    moment = weight * peak
    live = np.flatnonzero(top > 0)
    for step in (-1, 1):
        rows, edge, width = live, peak[live], 1
        while rows.size:
            # one line of the window per offset, so each pass runs along rows
            cols = edge + step * np.arange(1, width + 1)[:, None]
            inside = cols >= 0 if step < 0 else cols < n_bins
            h = counts[rows * n_bins + np.where(inside, cols, edge)]
            run = inside & (h >= half[rows])
            if width > 1:  # a run ends at its window's first failing bin
                np.logical_and.accumulate(run, axis=0, out=run)
            h = np.multiply(h, run, dtype=np.int64)
            weight[rows] += h.sum(axis=0)
            moment[rows] += (h * cols).sum(axis=0)
            more = run[-1]
            rows, edge = rows[more], edge[more] + step * width
            width = min(2 * width, max(1, _WALK_BINS // max(rows.size, 1)))
    out = np.full(n_rows, np.nan)
    out[live] = moment[live] / weight[live]
    return out


def line_peaks(events: EventList | EventFile) -> np.ndarray:
    """Peak ToT of one line's events per pixel, shape (n_y, n_x); NaN marks
    a pixel without hits."""
    peaks = find_line_peaks(tot_histograms(events))
    return peaks.reshape(events.n_y, events.n_x)


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


def apply_calibration(
    events: EventList | EventFile, cal: CalibrationMap, detector: DetectorSpec
) -> SpectralImage:
    """Histogram calibrated events into a spectral cube.

    Events on dead pixels are dropped and counted in the cube's stats; the
    rest pass the detector stage of :func:`mpoxrf.sim.simulate`.
    ``detector`` must describe the events' pixel matrix.  The event source
    is binned slice by slice, so the temporaries stay bounded.  A run file
    fills a good share of its cube's bins (23.5% on the bench), so the hits
    are added into a dense cube, which becomes the cube's non-zero bins
    once, at the end; a dense cube that cannot be allocated is a
    ValueError naming its shape and size.
    """
    if (cal.n_x, cal.n_y) != (events.n_x, events.n_y):
        raise ValueError("calibration map does not match the event matrix")
    if (detector.n_x, detector.n_y) != (events.n_x, events.n_y):
        raise ValueError("detector does not match the event matrix")
    stats = SimStats()
    n_y, n_x, n_bins = shape = (detector.n_y, detector.n_x, detector.n_bins)
    try:
        counts = np.zeros(shape, np.uint64)
    except MemoryError:  # DetectorSpec keeps the size within numpy's reach
        raise ValueError(
            f"cannot allocate the {n_y}x{n_x}x{n_bins} cube "
            f"({8 * n_y * n_x * n_bins / 2**30:.2f} GiB)"
        ) from None
    flat = counts.reshape(-1)
    for part in events.slices():
        stats.add(_bin_calibrated(part.x, part.y, part.tot, cal, detector, flat))
    return SpectralImage.from_counts(
        counts, detector, photons=len(events), stats=stats
    )


def _bin_calibrated(x, y, tot, cal, detector, counts) -> SimStats:
    """Add the calibrated hits of one slice of events into the flat cube
    ``counts``; returns the slice's tallies."""
    stats = SimStats(n_photons=x.size)
    pix = _pixel_index(x, y, cal.n_x, counts.size)
    alive = ~cal.dead.reshape(-1)[pix]
    pix = pix[alive]
    stats.dead_pixel_drops = x.size - pix.size

    energy = cal.gain.reshape(-1)[pix] * tot[alive] + cal.offset.reshape(-1)[pix]
    _, flat = _cube_index(pix, energy, detector, stats)
    np.add.at(counts, flat, np.uint64(1))
    return stats


_CAL_COLUMNS = ("x", "y", "gain", "offset", "residual", "dead")


def write_calibration_csv(path, cal: CalibrationMap) -> None:
    """CSV columns: x,y,gain,offset,residual,dead; one row per pixel, dead
    pixels included (with NaN fit values).  Values are written as ``repr``
    of Python floats, so they read back exactly."""
    n_y, n_x = cal.gain.shape
    y, x = np.divmod(np.arange(n_y * n_x), n_x)
    gain, offset, residual = (
        np.asarray(a, dtype=float).ravel().tolist()
        for a in (cal.gain, cal.offset, cal.residual)
    )
    rows = "".join(
        f"{xx},{yy},nan,nan,nan,1\n" if dead else f"{xx},{yy},{g!r},{o!r},{r!r},0\n"
        for xx, yy, g, o, r, dead in zip(
            x.tolist(), y.tolist(), gain, offset, residual, cal.dead.ravel().tolist()
        )
    )
    with open(path, "w") as fh:
        fh.write(",".join(_CAL_COLUMNS) + "\n")
        fh.write(rows)


def read_calibration_csv(path) -> CalibrationMap:
    """Read a calibration map written by :func:`write_calibration_csv`.

    The header is the first line with text outside a ``#`` comment; it
    names the columns, in any order.  Blank and comment lines are skipped.
    The matrix is (max y + 1) x (max x + 1); a pixel without a row is dead.
    A file with fewer data rows than matrix pixels is rejected before the
    maps are allocated, so a stray huge index cannot demand a huge map, and
    so is a file that gives a pixel more than one row.
    """
    # latin-1 decodes any byte, so a stray byte fails as a non-numeric value
    with open(path, encoding="latin-1") as fh:
        names = None
        for line in fh:
            text = line.split("#", 1)[0]
            if text.strip():
                names = [name.strip() for name in text.split(",")]
                break
        if names is None:
            raise FileFormatError(f"{path}: empty calibration CSV")
        missing = [c for c in _CAL_COLUMNS if c not in names]
        if missing:
            raise FileFormatError(
                f"{path}: calibration CSV lacks column(s) {', '.join(missing)}"
            )
        with warnings.catch_warnings():
            # numpy warns about a file without data rows; the check below
            # turns that into the error, so only the error is printed
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                table = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise FileFormatError(f"{path}: {' '.join(str(exc).split())}") from None
    if table.size == 0:
        raise FileFormatError(f"{path}: calibration CSV has no data rows")
    if table.shape[1] != len(names):
        raise FileFormatError(
            f"{path}: calibration CSV rows have {table.shape[1]} values, "
            f"the header names {len(names)} columns"
        )
    data = {c: table[:, names.index(c)] for c in _CAL_COLUMNS}
    n_rows = table.shape[0]
    for name in ("x", "y"):
        col = data[name]
        if not np.all(np.isfinite(col) & (col >= 0) & (col == np.floor(col))):
            raise FileFormatError(
                f"{path}: column {name} must hold non-negative integer pixel indices"
            )
    n_x = int(data["x"].max()) + 1
    n_y = int(data["y"].max()) + 1
    if n_x * n_y > n_rows:
        raise FileFormatError(
            f"{path}: pixel indices span a {n_x}x{n_y} matrix but the "
            f"calibration CSV has {n_rows} data rows"
        )
    xs = data["x"].astype(int)
    ys = data["y"].astype(int)
    pixel = ys * n_x + xs
    repeated = np.flatnonzero(np.bincount(pixel) > 1)
    if repeated.size:
        i, j = np.flatnonzero(pixel == repeated[0])[:2]
        raise FileFormatError(
            f"{path}: pixel ({xs[i]}, {ys[i]}) has more than one row: "
            f"data rows {i + 1} and {j + 1}"
        )
    live = data["dead"] == 0
    if not np.all(np.isfinite(data["gain"][live]) & np.isfinite(data["offset"][live])):
        raise FileFormatError(f"{path}: a live pixel has a non-finite gain or offset")
    gain = np.full((n_y, n_x), np.nan)
    offset = np.full((n_y, n_x), np.nan)
    residual = np.full((n_y, n_x), np.nan)
    dead = np.ones((n_y, n_x), dtype=bool)
    gain[ys, xs] = data["gain"]
    offset[ys, xs] = data["offset"]
    residual[ys, xs] = data["residual"]
    dead[ys, xs] = data["dead"] != 0
    return CalibrationMap(gain=gain, offset=offset, residual=residual, dead=dead)
