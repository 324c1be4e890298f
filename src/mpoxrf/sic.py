"""SIC: the binary spectral-image-cube file format.

Little-endian layout:

    magic "SIC1"        4 bytes
    u32   n_x, n_y, n_bins
    f64   e_min, e_bin_width        keV
    f64   pixel_pitch_um
    u64   seed
    u64   photons
    u64   counts[n_x * n_y * n_bins], index = ((y*n_x) + x)*n_bins + bin

Header is 56 bytes; total file length 56 + 8*n_x*n_y*n_bins.  A header
is read as the cube's :class:`mpoxrf.sim.DetectorSpec`, so it is checked
by the rules of a ``[detector]`` section, and a header that breaks one is
a format error.  The file holds no energy response.  A written file is
exactly this layout of the cube.  Only a regular file is read: its length
is checked against the header before any count is read.

A cube is held as the detector it was binned on and its non-zero bins
(:class:`mpoxrf.sim.SpectralImage`), never as a dense array.  A
point-source cube is almost all zeros, so a regular output file gets its
all-zero blocks as holes: its apparent size and bytes are those above, but
it allocates about 1/60 of them on disk.
:func:`write_sic` writes from the cube's bins in one loop over runs of the
body: for a regular file, the data blocks found from their byte offsets;
for any other output, such as a pipe, the whole body as one run.  Each run
is filled through one reused 512 KiB buffer, so it never allocates, touches
or scans a dense cube.  The one reader, :func:`read_window`, is the one way
from a cube to an image: it sums an energy window of the cube.  It asks the
file system for the data extents, rounds each out to whole pixels and reads
those pixels once, a fixed number at a time, through one reused buffer,
whose window bins it adds into its image.  It never allocates the cube,
nor an array of the bins: it holds one n_y x n_x image (u64 sums and their
float copy) and one buffer of 512 KiB (or one pixel's spectrum, if that is
larger), whatever the cube's size, and an image or buffer that cannot be
allocated is a format error.  A file without holes reads the same, in one
extent.
"""

from __future__ import annotations

import errno
import os
import stat
import struct
from contextlib import contextmanager

import numpy as np

from .analysis import Image2D, check_window, window_bins
from .fileio import FileFormatError, open_binary
from .sim import DetectorSpec, SpectralImage, _merge_runs

MAGIC = b"SIC1"
HEADER = struct.Struct("<4sIIIdddQQ")
# A run of fewer zero blocks between two data blocks is written as zeros:
# a seek and a write cost about as much as 16 KiB of zeros.  On a half-full
# flat-field cube this turns 3,208 data runs into 415.
MIN_HOLE_BLOCKS = 4
# A read buffer holds as many whole pixels as fit in this many bytes, one at
# least: 655 pixels of a 100-bin spectrum; a write buffer holds this many
# bytes of counts.  On a 2-vCPU VM a window of a dense 256x256x100 cube took
# 6-9 ms with buffers of 256 KiB to 1 MiB; smaller ones cost more calls,
# larger ones fall out of the cache.
BUFFER_BYTES = 1 << 19


def write_sic(path, cube: SpectralImage) -> None:
    """Write ``cube`` from its detector and its non-zero bins: the header,
    whose grid, energy axis and pitch are ``cube.detector``'s, then one
    loop over runs of the body, which holds the sum of the cube's class
    planes.  A regular file gets the :func:`_data_runs`,
    each at its offset, and then its full length, so the blocks between
    runs are holes; any other output, such as a pipe, gets the whole body
    as one run.  A run is written in pieces of at most ``BUFFER_BYTES``
    through one reused buffer, zeroed and then given the counts that fall
    in it.  The counts of every piece are found in one search: a
    point-source cube is hundreds of short runs."""
    det = cube.detector
    header = HEADER.pack(
        MAGIC,
        det.n_x,
        det.n_y,
        det.n_bins,
        det.e_min,
        det.e_bin_width,
        det.pitch,
        cube.seed,
        cube.photons,
    )
    size = 8 * det.n_x * det.n_y * det.n_bins
    bins, counts = cube.bins, cube.bin_counts
    if cube.planes > 1:  # ascending bins keep their SIC indices ascending
        bins, counts = _merge_runs(bins // cube.planes, counts)
    buffer = np.empty(max(1, BUFFER_BYTES // 8), "<u8")
    with open(path, "wb") as fh:
        info = os.fstat(fh.fileno())
        regular = stat.S_ISREG(info.st_mode)
        runs = _data_runs(bins, size, info.st_blksize) if regular else [(0, size)]
        pieces = [
            (first, min(first + buffer.size, stop // 8))
            for start, stop in runs
            for first in range(start // 8, stop // 8, buffer.size)
        ]
        fh.write(header)
        for (first, end), (lo, hi) in zip(pieces, bins.searchsorted(pieces).tolist()):
            piece = buffer[: end - first]
            piece.fill(0)
            piece[bins[lo:hi] - first] = counts[lo:hi]
            if regular:
                fh.seek(HEADER.size + 8 * first)
            fh.write(piece)
        if regular:
            fh.truncate(HEADER.size + size)


def _data_runs(bins: np.ndarray, size: int, block: int) -> list:
    """``(start, stop)`` byte ranges of a ``size``-byte cube body whose
    non-zero counts sit at the ascending flat indices ``bins``: the body
    bytes in the header's last file block, then every ``block``-sized file
    block that holds a count, runs of them merged across gaps of fewer than
    ``MIN_HOLE_BLOCKS`` blocks.  The rest of the body is zeros.

    A scan of the dense body for non-zero bytes finds the same blocks: a
    count is 8 bytes at an 8-aligned offset, so it lies in one block of any
    size that is a multiple of 8.  Neighbouring counts at most
    ``MIN_HOLE_BLOCKS`` blocks' worth of counts apart have no hole between
    them, so only the counts either side of a wider gap are placed in
    blocks: each cluster between such gaps is one span of written blocks.
    """
    after_gap = np.ones(bins.size, bool)
    after_gap[1:] = np.diff(bins) > MIN_HOLE_BLOCKS * block // 8
    before_gap = np.roll(after_gap, -1)  # the last count ends a cluster, too
    head = (HEADER.size - 1) // block
    first = np.r_[head, (HEADER.size + 8 * bins[after_gap]) // block]
    last = np.r_[head, (HEADER.size + 8 * bins[before_gap]) // block]
    cut = np.flatnonzero(first[1:] - last[:-1] > MIN_HOLE_BLOCKS) + 1
    starts = first[np.r_[0, cut]]
    stops = last[np.r_[cut - 1, last.size - 1]] + 1
    bounds = np.clip(np.c_[starts, stops] * block - HEADER.size, 0, size)
    return bounds.tolist()


def _data_extents(fd: int, start: int, stop: int):
    """``(start, stop)`` file ranges within ``[start, stop)`` that may hold
    data; the rest are holes.  Without ``SEEK_DATA`` the whole range."""
    if not hasattr(os, "SEEK_DATA"):
        yield start, stop
        return
    while start < stop:
        try:
            start = os.lseek(fd, start, os.SEEK_DATA)
        except OSError as exc:
            if exc.errno != errno.ENXIO:
                raise
            return  # holes, or the end of the file, from here on
        if start >= stop:
            return
        end = min(os.lseek(fd, start, os.SEEK_HOLE), stop)
        yield start, end
        start = end


@contextmanager
def _open_sic(path):
    """Open a SIC file; yields its descriptor and the cube's
    :class:`~mpoxrf.sim.DetectorSpec`, built from the header's grid, energy
    axis and pitch, so a header is checked by the rules of a ``[detector]``
    section.  The header holds no energy response: the detector keeps the
    default ``energy_fwhm`` and ``threshold``, and nothing reads them.
    Raises :class:`FileFormatError` on a malformed header, a length that
    does not match it, or a path that is not a regular file."""
    with open_binary(path) as (fh, size):
        head = fh.read(HEADER.size)
        if len(head) < HEADER.size:
            raise FileFormatError(
                f"{path}: too short for a SIC header ({len(head)} bytes)"
            )
        magic, n_x, n_y, n_bins, e_min, width, pitch = HEADER.unpack(head)[:7]
        if magic != MAGIC:
            raise FileFormatError(f"{path}: bad magic {magic!r}")
        try:
            det = DetectorSpec(
                n_x=n_x,
                n_y=n_y,
                pitch=pitch,
                e_min=e_min,
                e_bin_width=width,
                n_bins=n_bins,
            )
        except ValueError as exc:
            raise FileFormatError(f"{path}: {exc}") from None
        expected = HEADER.size + 8 * n_x * n_y * n_bins
        if size != expected:
            raise FileFormatError(
                f"{path}: file length {size} != expected {expected} "
                f"for a {n_x}x{n_y}x{n_bins} cube"
            )
        # positional reads only: the buffered reader has read ahead past
        # the header, so its position is not the descriptor's
        yield fh.fileno(), det


def _pixel_blocks(path, fd: int, det: DetectorSpec):
    """``(first, block)`` for every pixel that a data extent of the file
    touches: ``block`` holds the (k, n_bins) counts of pixels ``first`` to
    ``first + k - 1``.  Extents are rounded out to whole pixels, and a pixel
    shared by two extents is read once.  Every block is the same reused
    buffer, valid until the next one is asked for.  Raises
    :class:`FileFormatError` where the file ends early, or where the buffer
    (one pixel's spectrum at least) cannot be allocated."""
    pixel = 8 * det.n_bins
    expected = HEADER.size + pixel * det.n_x * det.n_y
    n_pixels = max(1, BUFFER_BYTES // pixel)
    try:
        buffer = np.empty((n_pixels, det.n_bins), "<u8")
    except MemoryError:
        raise FileFormatError(
            f"{path}: a {det.n_x}x{det.n_y}x{det.n_bins} cube needs a "
            f"{n_pixels * pixel / 2**30:.2f} GiB read buffer, which could not "
            "be allocated"
        ) from None
    done = 0  # pixels before this one are read
    for start, stop in _data_extents(fd, HEADER.size, expected):
        first = max((start - HEADER.size) // pixel, done)
        done = -(-(stop - HEADER.size) // pixel)
        while first < done:
            block = buffer[: done - first]
            offset = HEADER.size + first * pixel
            view = memoryview(block.reshape(-1).view(np.uint8))
            while view.nbytes:
                got = os.preadv(fd, [view], offset)
                if got == 0:
                    raise FileFormatError(
                        f"{path}: file ends after {offset} of {expected} bytes"
                    )
                view = view[got:]
                offset += got
            yield first, block
            first += len(block)
    end = os.lseek(fd, 0, os.SEEK_END)
    if end < expected:  # a hole at the end of the file is its end
        raise FileFormatError(f"{path}: file ends after {end} of {expected} bytes")


def read_window(path, e_lo: float, e_hi: float) -> Image2D:
    """The image of the cube in a SIC file over the energy window [e_lo,
    e_hi): each pixel's sum over the :func:`mpoxrf.analysis.window_bins`,
    read from the file's data extents without allocating the cube.

    Additive over adjacent windows by construction; a window that covers
    no bin center yields an all-zero image.  The window is checked before
    the file is opened, and the file as :func:`_open_sic` checks it.  Each
    pixel's window bins are summed into a uint64 image, which is cast to
    float once.  Both images are allocated before any count is read; where
    they cannot be, that is a format error.
    """
    check_window(e_lo, e_hi)
    with _open_sic(path) as (fd, det):
        bins = window_bins(det.e_min, det.e_bin_width, det.n_bins, e_lo, e_hi)
        try:
            sums = np.zeros(det.n_y * det.n_x, np.uint64)
            values = np.empty((det.n_y, det.n_x))
        except MemoryError:  # DetectorSpec keeps the size within numpy's reach
            raise FileFormatError(
                f"{path}: a {det.n_x}x{det.n_y}x{det.n_bins} cube needs a "
                f"{16 * det.n_y * det.n_x / 2**30:.2f} GiB window image, which "
                "could not be allocated"
            ) from None
        for first, block in _pixel_blocks(path, fd, det):
            block[:, bins].sum(axis=1, out=sums[first : first + len(block)])
    values[:] = sums.reshape(det.n_y, det.n_x)
    return Image2D(values=values, pitch_um=det.pitch)
