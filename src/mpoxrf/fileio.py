"""Text export/import: PGM previews, image CSV, profile CSV, ATF CSV; the
one opener of the binary inputs.

Every CSV value is the ``repr`` of its float, so it reads back exactly.
Whole-number rows (window counts, zero rows of a flat-field image) and
PGM pixels are integers, whose text numpy builds in one pass per digit
(:func:`_int_text`); the rest are joined from ``repr`` value by value.
"""

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
    values.  Every pixel of a finite image is in 0..65535."""
    vals = image.values
    # halved values scale the same, and their differences cannot overflow
    if np.max(np.abs(vals), initial=0.0) > np.finfo(float).max / 2.0:
        vals = vals / 2.0
    lo = np.percentile(vals, 1.0)
    hi = np.percentile(vals, 99.0)
    if hi <= lo:  # a nonzero span even where lo + 1 rounds to lo
        hi = max(lo + 1.0, np.nextafter(lo, np.inf))
    with np.errstate(over="ignore"):  # far outside [lo, hi] is +-inf, clipped
        scaled = np.clip((vals - lo) / (hi - lo), 0.0, 1.0)
    pixels = np.round(scaled * 65535).astype(int)
    with open(path, "wb") as fh:
        fh.write(b"P2\n")
        fh.write(f"# pitch_um={image.pitch_um!r}\n".encode())
        fh.write(f"{image.n_x} {image.n_y}\n65535\n".encode())
        fh.write(_int_text(pixels, b"", b" "))


def _int_text(values, tail: bytes, sep: bytes) -> bytes:
    """The bytes of ``sep.join(str(v) + tail for v in row)`` plus a newline,
    for each row of a 2-D integer array, without a Python object per value.

    Every value gets one fixed-width field, ``[sign] digits tail sep``, in a
    value-major byte matrix: the digits come from ``divmod`` by 10 in the
    narrowest unsigned type that holds the largest magnitude, comparisons
    with powers of ten mask the leading zeros, and one boolean compress
    drops them.  ``sep`` is one byte; a row's last field ends in a newline.
    """
    values = np.asarray(values)
    n_rows, n_cols = values.shape
    if values.size == 0:
        return b"\n" * n_rows
    flat = values.reshape(-1)
    neg = flat < 0
    sign = int(neg.any())
    # as uint64, the magnitude of the int64 minimum wraps to 2**63 exactly
    mag = np.abs(flat).astype(np.uint64) if sign else flat
    top = int(mag.max())
    kind = np.min_scalar_type(top)
    n_dig = len(str(top))
    chars = np.empty((flat.size, sign + n_dig + len(tail) + 1), np.uint8)
    keep = np.ones(chars.shape, bool)
    if sign:
        chars[:, 0] = ord("-")
        keep[:, 0] = neg
    mag = mag.astype(kind)
    rest = mag
    for k in range(sign + n_dig - 1, sign - 1, -1):
        rest, digit = np.divmod(rest, kind.type(10))
        np.add(digit, ord("0"), out=chars[:, k], casting="unsafe")
    for k in range(n_dig - 1):
        np.greater_equal(mag, kind.type(10 ** (n_dig - 1 - k)), out=keep[:, sign + k])
    chars[:, sign + n_dig : -1] = np.frombuffer(tail, np.uint8)
    fields = chars.reshape(n_rows, n_cols, -1)
    fields[:, :, -1] = sep[0]
    fields[:, -1, -1] = ord("\n")
    return chars[keep].tobytes()


def _write_rows(fh, rows) -> None:
    """One comma-separated line per row of a 2-D array; each value is the
    ``repr`` of its Python float, so the text reads back exactly.

    A row of whole numbers in [0, 2**53), none of them -0.0, is built by
    :func:`_int_text`: there ``repr`` is the integer's digits plus ".0".
    Any other row joins ``repr`` value by value.  Rows keep their order.
    """
    rows = np.asarray(rows, dtype=float)
    with np.errstate(invalid="ignore"):  # NaN compares False, quietly
        whole = (np.floor(rows) == rows) & (rows < 2.0**53) & ~np.signbit(rows)
    by_row = whole.all(axis=1)
    if not by_row.size:
        return
    cuts = [0, *(np.flatnonzero(by_row[1:] != by_row[:-1]) + 1).tolist(), len(rows)]
    for start, stop in zip(cuts[:-1], cuts[1:]):
        block = rows[start:stop]
        if by_row[start]:
            fh.write(_int_text(block.astype(np.uint64), b".0", b","))
        else:
            fh.write("".join(
                ",".join(map(repr, row)) + "\n" for row in block.tolist()
            ).encode())


def write_image_csv(path, image: Image2D) -> None:
    """Exact pixel values, one row per line, with a pitch header comment."""
    with open(path, "wb") as fh:
        header = f"# n_x={image.n_x} n_y={image.n_y} pitch_um={image.pitch_um!r}\n"
        fh.write(header.encode())
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
    with open(path, "wb") as fh:
        fh.write(b"position_mm,intensity\n")
        _write_rows(fh, np.column_stack((profile.positions, profile.intensities)))


def write_atf_csv(path, transfer: Atf) -> None:
    """ATF grid with the x-frequency axis as the header row and the
    y frequency as the first column, lp/mm."""
    with open(path, "wb") as fh:
        fh.write(b"freq_y_lp_mm\\freq_x_lp_mm,")
        _write_rows(fh, [transfer.freq_x])
        _write_rows(fh, np.column_stack((transfer.freq_y, transfer.amplitude)))
