"""SIC: the binary spectral-image-cube file format.

Little-endian layout:

    magic "SIC1"        4 bytes
    u32   n_x, n_y, n_bins
    f64   e_min, e_bin_width        keV
    f64   pixel_pitch_um
    u64   seed
    u64   photons
    u64   counts[n_x * n_y * n_bins], index = ((y*n_x) + x)*n_bins + bin

Header is 56 bytes; total file length 56 + 8*n_x*n_y*n_bins.  A readable
cube has n_x, n_y, n_bins >= 1, a finite e_min and a positive, finite bin
width and pitch.  A written file is exactly this layout of the cube.  Only
a regular file is read: its length is checked against the header before
any count is read.

A point-source cube is almost all zeros, so a regular output file gets its
all-zero blocks as holes: its apparent size and bytes are those above, but
it allocates about 1/60 of them on disk.  The one reader,
:func:`read_window`, sums an energy window of the cube: it asks the file
system for the data extents, rounds each out to whole pixels and reads
those pixels once, a fixed number at a time, through one reused buffer,
whose window bins it adds into its image.  It never allocates the cube,
nor an array of the bins: it holds one n_y x n_x image and one buffer of
512 KiB (or one pixel's spectrum, if that is larger), whatever the cube's
size, and a buffer that cannot be allocated is a format error.  A file
without holes reads the same, in one extent; an output that cannot seek,
such as a pipe, gets the dense byte stream.
"""

from __future__ import annotations

import errno
import math
import os
import stat
import struct
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from .analysis import Image2D, check_window, window_bins
from .fileio import FileFormatError, open_binary
from .sim import SpectralImage

MAGIC = b"SIC1"
HEADER = struct.Struct("<4sIIIdddQQ")
# A run of fewer zero blocks between two data blocks is written as zeros:
# a pwrite costs about as much as 16 KiB of zeros.  On a half-full
# flat-field cube this turns 3,208 data runs into 415.
MIN_HOLE_BLOCKS = 4
# A read buffer holds as many whole pixels as fit in this many bytes, one at
# least: 655 pixels of a 100-bin spectrum.  On a 2-vCPU VM a window of a
# dense 256x256x100 cube took 6-9 ms with buffers of 256 KiB to 1 MiB;
# smaller ones cost more calls, larger ones fall out of the cache.
BUFFER_BYTES = 1 << 19


def write_sic(path, cube: SpectralImage) -> None:
    header = HEADER.pack(
        MAGIC,
        cube.n_x,
        cube.n_y,
        cube.n_bins,
        cube.e_min,
        cube.e_bin_width,
        cube.pixel_pitch_um,
        cube.seed,
        cube.photons,
    )
    counts = np.ascontiguousarray(cube.counts, dtype="<u8")
    with open(path, "wb") as fh:
        fd = fh.fileno()
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode):
            fh.write(header)
            fh.write(counts)
            return
        _pwrite_all(fd, header, 0)
        body = counts.reshape(-1).view(np.uint8)
        for start, stop in _data_ranges(body, -HEADER.size % info.st_blksize,
                                        info.st_blksize):
            _pwrite_all(fd, body[start:stop], HEADER.size + start)
        os.ftruncate(fd, HEADER.size + body.size)


def _data_ranges(body: np.ndarray, skip: int, block: int):
    """``(start, stop)`` byte ranges of ``body`` that must be written: the
    first ``skip`` bytes, which share a block with the header, then every
    block-sized row that holds a non-zero byte, runs of them merged across
    gaps shorter than ``MIN_HOLE_BLOCKS``.  One ``max`` pass over views of
    ``body``; nothing is copied."""
    rows = max(body.size - skip, 0) // block
    tail = body[skip + rows * block:]
    # block flags: the header's block, the rows, the tail; a zero each side
    data = np.zeros(rows + 4, np.int8)
    data[1] = 1
    data[2:-2] = body[skip:skip + rows * block].reshape(rows, block).max(axis=1) != 0
    data[-2] = tail.size > 0 and tail.max() != 0
    edges = np.flatnonzero(np.diff(data))  # block numbers: run starts, stops
    starts, stops = edges[::2], edges[1::2]
    hole = starts[1:] - stops[:-1] >= MIN_HOLE_BLOCKS  # shorter gaps are written
    starts, stops = starts[np.r_[True, hole]], stops[np.r_[hole, True]]
    bounds = np.clip(skip + (np.c_[starts, stops] - 1) * block, 0, body.size)
    return bounds.tolist()


def _pwrite_all(fd: int, data, offset: int) -> None:
    view = memoryview(data)
    while view.nbytes:
        done = os.pwrite(fd, view, offset)
        view = view[done:]
        offset += done


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


class _Header(NamedTuple):
    n_x: int
    n_y: int
    n_bins: int
    e_min: float
    e_bin_width: float
    pixel_pitch_um: float
    seed: int
    photons: int


@contextmanager
def _open_sic(path):
    """Open a SIC file; yields its descriptor and header.  Raises
    :class:`FileFormatError` on a malformed header, a length that does not
    match it, or a path that is not a regular file."""
    with open_binary(path) as (fh, size):
        head = fh.read(HEADER.size)
        if len(head) < HEADER.size:
            raise FileFormatError(
                f"{path}: too short for a SIC header ({len(head)} bytes)"
            )
        magic, *fields = HEADER.unpack(head)
        n_x, n_y, n_bins, e_min, width, pitch = fields[:6]
        if magic != MAGIC:
            raise FileFormatError(f"{path}: bad magic {magic!r}")
        if min(n_x, n_y, n_bins) == 0:
            raise FileFormatError(f"{path}: empty {n_x}x{n_y}x{n_bins} cube")
        if not (
            math.isfinite(e_min) and 0 < width < math.inf and 0 < pitch < math.inf
        ):
            raise FileFormatError(
                f"{path}: invalid energy axis (e_min {e_min}, bin width {width}) or "
                f"pixel pitch {pitch}"
            )
        expected = HEADER.size + 8 * n_x * n_y * n_bins
        if size != expected:
            raise FileFormatError(
                f"{path}: file length {size} != expected {expected} "
                f"for a {n_x}x{n_y}x{n_bins} cube"
            )
        # positional reads only: the buffered reader has read ahead past
        # the header, so its position is not the descriptor's
        yield fh.fileno(), _Header(*fields)


def _pixel_blocks(path, fd: int, head: _Header):
    """``(first, block)`` for every pixel that a data extent of the file
    touches: ``block`` holds the (k, n_bins) counts of pixels ``first`` to
    ``first + k - 1``.  Extents are rounded out to whole pixels, and a pixel
    shared by two extents is read once.  Every block is the same reused
    buffer, valid until the next one is asked for.  Raises
    :class:`FileFormatError` where the file ends early, or where the buffer
    (one pixel's spectrum at least) cannot be allocated."""
    pixel = 8 * head.n_bins
    expected = HEADER.size + pixel * head.n_x * head.n_y
    n_pixels = max(1, BUFFER_BYTES // pixel)
    try:
        buffer = np.empty((n_pixels, head.n_bins), "<u8")
    except MemoryError:
        raise FileFormatError(
            f"{path}: a {head.n_x}x{head.n_y}x{head.n_bins} cube needs a "
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
    """:func:`mpoxrf.analysis.energy_window` of the cube in a SIC file,
    summed from its data extents without allocating the cube.

    The window is checked before the file is opened, and the file as
    :func:`_open_sic` checks it.  Each pixel's window bins are summed into
    a uint64 image, which is cast to float once: the same integers as the
    in-memory window, pixel for pixel.
    """
    check_window(e_lo, e_hi)
    with _open_sic(path) as (fd, head):
        bins = window_bins(head.e_min, head.e_bin_width, head.n_bins, e_lo, e_hi)
        sums = np.zeros(head.n_y * head.n_x, np.uint64)
        for first, block in _pixel_blocks(path, fd, head):
            block[:, bins].sum(axis=1, out=sums[first : first + len(block)])
    return Image2D(
        values=sums.reshape(head.n_y, head.n_x).astype(float),
        pitch_um=head.pixel_pitch_um,
    )
