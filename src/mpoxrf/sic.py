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
width and pitch.  Write/read round-trips are byte-exact.  Only a regular
file is read: its length is checked against the header before the counts
are allocated.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .fileio import FileFormatError, open_binary
from .sim import SpectralImage

MAGIC = b"SIC1"
HEADER = struct.Struct("<4sIIIdddQQ")


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
        fh.write(header)
        fh.write(counts)


def read_sic(path) -> SpectralImage:
    """Read a SIC file; raises :class:`FileFormatError` on a malformed
    header, a length that does not match it, or a path that is not a
    regular file.  The counts are read once, straight into the cube."""
    with open_binary(path) as (fh, size):
        head = fh.read(HEADER.size)
        if len(head) < HEADER.size:
            raise FileFormatError(
                f"{path}: too short for a SIC header ({len(head)} bytes)"
            )
        magic, n_x, n_y, n_bins, e_min, width, pitch, seed, photons = (
            HEADER.unpack(head)
        )
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
        counts = np.empty((n_y, n_x, n_bins), dtype="<u8")
        got = fh.readinto(counts)
        if got < counts.nbytes:
            raise FileFormatError(
                f"{path}: file ends after {HEADER.size + got} of {expected} bytes"
            )
    return SpectralImage(
        counts=counts,
        e_min=e_min,
        e_bin_width=width,
        pixel_pitch_um=pitch,
        seed=seed,
        photons=photons,
    )
