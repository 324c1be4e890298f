"""Text export/import: PGM previews, image CSV, profile CSV, ATF CSV; the
one opener of the binary inputs."""

from __future__ import annotations

import math
import os
import stat
from contextlib import contextmanager

import numpy as np

from .analysis import Atf, Image2D, PsfProfile


class FileFormatError(ValueError):
    """An input file is malformed or of the wrong kind."""


@contextmanager
def open_binary(path):
    """Open a binary input for reading; yields ``(file, length)``.

    A reader checks the header's declared size against ``length`` before it
    allocates or reads the body.  A pipe or device has no length to check,
    so anything but a regular file is refused with :class:`FileFormatError`.
    """
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise FileFormatError(f"{path}: not a regular file")
        yield fh, info.st_size


def write_pgm(path, image: Image2D) -> None:
    """ASCII PGM (P2) preview scaled to 16-bit over the 1st to 99th
    percentile window.  Lossy by design; use the CSV export for exact
    values."""
    vals = image.values
    lo = np.percentile(vals, 1.0)
    hi = np.percentile(vals, 99.0)
    if hi <= lo:
        hi = lo + 1.0
    scaled = np.clip((vals - lo) / (hi - lo), 0.0, 1.0)
    pixels = np.round(scaled * 65535).astype(int).tolist()
    with open(path, "w") as fh:
        fh.write("P2\n")
        fh.write(f"# pitch_um={image.pitch_um!r}\n")
        fh.write(f"{image.n_x} {image.n_y}\n65535\n")
        for row in pixels:
            fh.write(" ".join(map(str, row)))
            fh.write("\n")


def _write_rows(fh, rows) -> None:
    """One comma-separated line per row of a 2-D array; each value is the
    ``repr`` of its Python float, so the text reads back exactly."""
    for row in np.asarray(rows, dtype=float).tolist():
        fh.write(",".join(map(repr, row)))
        fh.write("\n")


def write_image_csv(path, image: Image2D) -> None:
    """Exact pixel values, one row per line, with a pitch header comment."""
    with open(path, "w") as fh:
        fh.write(f"# n_x={image.n_x} n_y={image.n_y} pitch_um={image.pitch_um!r}\n")
        _write_rows(fh, image.values)


def read_image_csv(path) -> Image2D:
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise FileFormatError(f"{path}: image CSV is not UTF-8 text") from None
    if not header.startswith("#"):
        raise FileFormatError(f"{path}: missing image CSV header line")
    fields = dict(item.split("=", 1) for item in header[1:].split() if "=" in item)
    if "pitch_um" not in fields:
        raise FileFormatError(f"{path}: image CSV header lacks pitch_um")
    try:
        pitch = float(fields["pitch_um"])
    except ValueError:
        pitch = math.nan
    if not 0 < pitch < math.inf:
        raise FileFormatError(
            f"{path}: pitch_um={fields['pitch_um']} is not a positive number"
        )
    if not any(line.split("#", 1)[0].strip() for line in lines):
        raise FileFormatError(f"{path}: image CSV has no data rows")
    try:
        values = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError:
        raise FileFormatError(_first_bad_row(path, lines)) from None
    if not np.all(np.isfinite(values)):
        raise FileFormatError(f"{path}: image CSV holds a NaN or infinite value")
    return Image2D(values=values, pitch_um=pitch)


def _first_bad_row(path, lines) -> str:
    """Name the first ragged or non-numeric data line of an image CSV."""
    width = None
    for lineno, line in enumerate(lines, start=2):  # line 1 is the header
        data = line.split("#", 1)[0]
        if not data.strip():
            continue
        items = data.split(",")
        width = width or len(items)
        if len(items) != width:
            return f"{path}:{lineno}: {len(items)} values, expected {width}"
        try:
            [float(item) for item in items]
        except ValueError:
            return f"{path}:{lineno}: non-numeric value in {data.strip()!r}"
    return f"{path}: unreadable image CSV"


def write_profile_csv(path, profile: PsfProfile) -> None:
    with open(path, "w") as fh:
        fh.write("position_mm,intensity\n")
        _write_rows(fh, np.column_stack((profile.positions, profile.intensities)))


def write_atf_csv(path, transfer: Atf) -> None:
    """ATF grid with the x-frequency axis as the header row and the
    y frequency as the first column, lp/mm."""
    with open(path, "w") as fh:
        fh.write("freq_y_lp_mm\\freq_x_lp_mm,")
        _write_rows(fh, [transfer.freq_x])
        _write_rows(fh, np.column_stack((transfer.freq_y, transfer.amplitude)))
