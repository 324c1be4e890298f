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
width and pitch.  Write/read round-trips are byte-exact.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .sim import SpectralImage

MAGIC = b"SIC1"
HEADER = struct.Struct("<4sIIIdddQQ")


class SicFormatError(ValueError):
    pass


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
        fh.write(counts.tobytes())


def read_sic(path) -> SpectralImage:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < HEADER.size:
        raise SicFormatError(f"{path}: too short for a SIC header ({len(data)} bytes)")
    magic, n_x, n_y, n_bins, e_min, width, pitch, seed, photons = HEADER.unpack_from(
        data, 0
    )
    if magic != MAGIC:
        raise SicFormatError(f"{path}: bad magic {magic!r}")
    if min(n_x, n_y, n_bins) == 0:
        raise SicFormatError(f"{path}: empty {n_x}x{n_y}x{n_bins} cube")
    if not (math.isfinite(e_min) and 0 < width < math.inf and 0 < pitch < math.inf):
        raise SicFormatError(
            f"{path}: invalid energy axis (e_min {e_min}, bin width {width}) or "
            f"pixel pitch {pitch}"
        )
    expected = HEADER.size + 8 * n_x * n_y * n_bins
    if len(data) != expected:
        raise SicFormatError(
            f"{path}: file length {len(data)} != expected {expected} "
            f"for a {n_x}x{n_y}x{n_bins} cube"
        )
    counts = np.frombuffer(data, dtype="<u8", offset=HEADER.size).reshape(
        n_y, n_x, n_bins
    )
    return SpectralImage(
        counts=counts.copy(),
        e_min=e_min,
        e_bin_width=width,
        pixel_pitch_um=pitch,
        seed=seed,
        photons=photons,
    )
