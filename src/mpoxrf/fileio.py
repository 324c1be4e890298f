"""Text export/import: PGM previews, image CSV, profile CSV, ATF CSV, and
the row writer that the calibration CSV shares (:func:`write_rows`); the
one opener of the binary inputs.

Every CSV float is written as its ``repr``, so it reads back exactly, and
all text is built by numpy array arithmetic a block of rows at a time,
with no Python string per value.  Integers (PGM pixels, calibration pixel
indices and flags, and blocks of whole numbers such as window counts) go
through :func:`_int_fields`, any other float through
:func:`_float_fields`, whose shortest digits come from Schubfach in exact
uint64 arithmetic (:func:`_decimal`).
"""

from __future__ import annotations

import functools
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
    lo, hi = _percentile(vals, 1.0), _percentile(vals, 99.0)
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


def _percentile(values: np.ndarray, q: float) -> float:
    """``np.percentile(values, q)`` of a NaN-free float array, from one
    partition; the first ``np.percentile`` of a process imports
    ``numpy.ma`` (9 ms or more).

    numpy's default ("linear") rule: the virtual index (n - 1) * q / 100
    falls between two order statistics a and b at weight t, and the value
    is a + (b - a) * t for t < 0.5, else b - (b - a) * (1 - t).  At or past
    the last index both are the largest value, and t is the index plus 1.
    """
    last = values.size - 1
    virtual = last * (q / 100)
    if virtual >= last:
        below, above, t = last, last, virtual + 1
    else:
        below = math.floor(virtual)
        above, t = below + 1, virtual - below
    ordered = np.partition(values, [below, above], axis=None)
    a, b = ordered[below], ordered[above]
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


#: Float values per block of a CSV write: every temporary of the float
#: kernel scales with the block, not with the array; the largest, 11 table
#: words a value, takes 352 KiB.  A block holds whole rows, so a row
#: longer than this is a block of its own.  On a 256x256 grid (2-vCPU VM),
#: 2^11 paid more in per-call overhead, and from 2^13 up the allocator
#: handed each block's temporaries back to the system and faulted them in
#: again (740-3,950 page faults per grid at 2^13, 0-500 at 2^12).
_BLOCK = 1 << 12

_U0, _U1, _U2, _U4 = (np.uint64(v) for v in (0, 1, 2, 4))
_LOW32 = np.uint64(0xFFFFFFFF)
_LOW63 = np.uint64((1 << 63) - 1)
_INF_BITS = np.uint64(0x7FF0000000000000)
_ONE_BITS = np.uint64(0x3FF0000000000000)
#: 10**0 .. 10**17
_POW10 = np.array([10**e for e in range(18)], np.uint64)
#: Where each of the four digit groups of a float's text starts in the
#: table of last digits.
_GROUP_BASE = np.arange(0, 40000, 10000)


def _int_fields(values, tail: bytes = b"", sep: bytes = b",") -> np.ndarray:
    """The text ``str(v) + tail + sep`` of each value of an array of
    non-negative integers, as one fixed-width field of bytes: an array of
    shape ``values.shape + (width,)``.  The digits are right-aligned, a
    zero byte stands in front of the shorter values, and ``sep`` (one
    byte) is the last byte.

    Each digit comes from a scalar floor division by 10 and a
    multiply-subtract, in the narrowest unsigned type that holds the
    largest value; comparisons with powers of ten blank the leading zeros.
    """
    values = np.asarray(values)
    top = int(values.max(initial=0))
    kind = np.min_scalar_type(top)
    ten = kind.type(10)
    n_dig = len(str(top))
    fields = np.empty(values.shape + (n_dig + len(tail) + 1,), np.uint8)
    whole = rest = values.astype(kind)
    for k in range(n_dig - 1, -1, -1):
        quot = np.floor_divide(rest, ten)
        np.add(rest - quot * ten, ord("0"), out=fields[..., k], casting="unsafe")
        rest = quot
    for k in range(n_dig - 1):
        np.multiply(fields[..., k], whole >= kind.type(10 ** (n_dig - 1 - k)),
                    out=fields[..., k])
    fields[..., n_dig:-1] = np.frombuffer(tail, np.uint8)
    fields[..., -1] = sep[0]
    return fields


def _lines(fields) -> bytes:
    """The text of a (rows, values, width) array of byte fields, such as
    :func:`_int_fields` and :func:`_float_fields` make: each row's last
    separator becomes a newline, and the zero bytes drop out."""
    fields[:, -1, -1] = ord("\n")
    return fields.tobytes().translate(None, b"\0")


def _int_text(values, tail: bytes, sep: bytes) -> bytes:
    """The bytes of ``sep.join(str(v) + tail for v in row)`` plus a newline,
    for each row of a 2-D array of non-negative integers, without a Python
    object per value (see :func:`_int_fields`)."""
    values = np.asarray(values)
    if not values.shape[1]:
        return b"\n" * values.shape[0]
    return _lines(_int_fields(values, tail, sep))


@functools.cache
def _decimal_table():
    """The constants of :func:`_decimal` for each gap of float64s, built
    from Python ints once per process, on the first float written: ``k``,
    an int16 array, and a uint64 table of rows (g1_hi, g1_lo, g0_hi, g0_lo,
    up carry, up low, up high, down borrow, down low, down high, h + 2).
    Both are indexed by the biased exponent, plus 2048 for a zero
    fraction: a subnormal takes the row of exponent 1, and a power of two
    above that a row for its lower gap, half its upper one.

    With 2**q the gap: ``k`` is floor(log10(2**q)), or floor(log10(3/4 *
    2**q)) at a half gap; g, in [2**125, 2**126), is floor(10**-k *
    2**(125 - b)) + 1 for b = floor(log2(10**-k)), split as g1 * 2**63 +
    g0 and each half into two 32-bit limbs; h = q + b shifts 4c onto g's
    scale.  ``up`` and ``down`` hold, as (carry test, low word, high word),
    what the upper and lower ends of the rounding interval add to
    :func:`_decimal`'s T = floor(g1 * cp / 2) + floor(g0 * cp / 2**64):
    2 and -2 (-1 at a half gap) times 2**h added to cp.
    """
    exponent = np.tile(np.arange(2048), 2)
    exponent[[0, 2048]] = 1  # a subnormal has the smallest normal's gap
    q = exponent - 1075
    half = (exponent > 1) & (np.arange(4096) >= 2048)
    k = np.where(half, (q * 661_971_961_083 - 274_743_187_321) >> 41,
                 (q * 661_971_961_083) >> 41)
    b = (-k * 913_124_641_741) >> 38
    h = q + b + 2
    # g of each k, from Python ints
    low = int(k.min())
    g1, g0 = [], []
    for kk in range(low, int(k.max()) + 1):
        bb = (-kk * 913_124_641_741) >> 38
        if kk <= 0:
            g = (10**-kk << (125 - bb) if bb <= 125 else 10**-kk >> (bb - 125)) + 1
        else:
            g = (1 << (125 - bb)) // 10**kk + 1
        g1.append(g >> 63)
        g0.append(g & (1 << 63) - 1)
    g1 = np.array(g1, np.uint64)[k - low]
    g0 = np.array(g0, np.uint64)[k - low]
    columns = [g1 >> np.uint64(32), g1 & _LOW32, g0 >> np.uint64(32), g0 & _LOW32]
    # an end of the interval moves cp by d * 2**h, d = 2 (up) or -2, -1 (down,
    # at a half gap): T gains f = g1 * d * 2**(h-1) + floor(g0 * d * 2**h / 2**64),
    # and a carry (borrow) of P's low word where P = g0 * cp
    for shift in (h + 1, h + 1 - half):  # d * 2**h = 2**shift
        shift = shift.astype(np.uint64)
        step = g0 << shift  # the low word of g0 * d * 2**h
        lifted = g1 << (shift - _U1)  # the low word of g1 * d * 2**(h-1)
        f_low = lifted + (g0 >> (np.uint64(64) - shift))
        f_high = (g1 >> (np.uint64(65) - shift)) + (f_low < lifted)
        f_high = (f_high << _U1) | (f_low >> np.uint64(63))  # f >> 63
        f_low &= _LOW63
        if len(columns) == 4:  # the upper end: T + f + carry
            columns += [~step, f_low, f_high]
        else:  # the lower end: T - f - borrow, as (hi - (fh + 1)) * 2**63 + z + 2**63 - fz
            columns += [step, np.uint64(1 << 63) - f_low, f_high + _U1]
    columns.append((h + 2).astype(np.uint64))
    return k.astype(np.int16), np.column_stack(columns)


def _mul(a_hi, a_lo, b_hi, b_lo):
    """The high and low 64-bit words of the products of two uint64 arrays
    given as 32-bit limbs, from four 32x32-bit products; a_hi < 2**31 and
    b_hi < 2**28, so the two cross products add without overflow."""
    low = a_lo * b_lo
    cross = a_lo * b_hi
    cross += a_hi * b_lo
    high = a_hi * b_hi
    high += cross >> np.uint64(32)
    cross <<= np.uint64(32)
    cross += low
    high += cross < low  # the carry out of the low word
    return high, cross


def _round_odd(high, low):
    """Schubfach's r_o' of T = high * 2**63 + low (low < 2**64): T / 2**63
    rounded to odd."""
    return (high + (low >> np.uint64(63))) | ((low & _LOW63) != _U0)


def _decimal(mag):
    """``(m, k)``: the decimal m * 10**k that ``repr`` gives each finite,
    non-zero float64 of bit pattern ``mag`` (sign bit clear), as uint64
    and int16 arrays.

    This is Schubfach (R. Giulietti, 2020) on uint64 arrays.  With c the
    significand, 2**q the gap and k from :func:`_decimal_table`, s =
    floor(v / 10**k); a value takes the one multiple of 10 * 10**k within
    its rounding interval if there is one (no shorter text reads back),
    else the nearer of s and s + 1 that lies within it, ties to even.  An
    odd c leaves out the interval's ends, as round-half-even reading does.
    The interval's ends and v, times 4 / 10**k, are exact integer products
    rounded to odd, as the JDK computes them; the products of the ends
    are v's plus table constants.  No float operation decides a digit.
    """
    k_of, table = _decimal_table()
    exponent = mag >> np.uint64(52)
    frac = mag & np.uint64((1 << 52) - 1)
    c = frac | (np.minimum(exponent, _U1) << np.uint64(52))
    at = ((frac == _U0).astype(np.intp) << 11) + exponent.astype(np.intp)
    (g1_hi, g1_lo, g0_hi, g0_lo, carry, up_low, up_high,
     borrow, down_low, down_high, shift) = np.take(table, at, axis=0).T
    cp = c << shift  # 4c * 2**h
    c_hi, c_lo = cp >> np.uint64(32), cp & _LOW32
    # T = floor(g1 * cp / 2) + floor(g0 * cp / 2**64) = high * 2**63 + low
    y1, y0 = _mul(g1_hi, g1_lo, c_hi, c_lo)
    x1, x0 = _mul(g0_hi, g0_lo, c_hi, c_lo)
    low = (y0 >> _U1) + x1
    high = y1 + (low >> np.uint64(63))
    low &= _LOW63
    vb = high | (low != _U0)
    vbr = _round_odd(high + up_high, low + up_low + (x0 > carry))
    vbl = _round_odd(high - down_high, low + down_low - (x0 < borrow))
    odd = c & _U1
    s = vb >> _U2
    s4 = s << _U2
    sp40 = np.floor_divide(s, np.uint64(10)) * np.uint64(40)
    lower = vbl + odd
    upper = vbr - odd
    # s * 10**k and (s + 1) * 10**k within the interval, and s + 1 nearer
    # v: vb - 4s is 3, or 2 (a tie) with s odd
    s_in = lower <= s4
    t_in = s4 + _U4 <= upper
    t_nearer = (vb & np.uint64(3)) + (s & _U1) > _U2
    m = s + (~s_in | (t_in & t_nearer))
    # the multiples of 10 * 10**k below and above v within the interval
    sp_in = lower <= sp40
    tp_in = sp40 + np.uint64(40) <= upper
    m10 = (sp40 >> _U2) + np.uint64(10) * tp_in
    m10 -= m  # wraps, and wraps back below
    m += m10 * (sp_in != tp_in)
    return m, k_of[at]


#: nan, inf and -inf as whole float fields.
_SPECIAL = np.frombuffer(b"".join(
    text.ljust(47, b"\0") + b"," for text in (b"nan", b"inf", b"-inf")
), np.uint64).reshape(3, 6)


@functools.cache
def _field_tables():
    """The words of :func:`_float_fields`, built once per process on the
    first float written: ``(groups, last, keep, heads, tails)``.

    - ``groups``: the four digits of each of 0..9999 at the even bytes of
      a word, a point at each odd byte;
    - ``last``: for each of the four digit groups d2..d5, ..., d14..d17 and
      each group value (index 10000 * group + value), the place of the
      group's last non-zero digit among d1..d17, or 1 for a zero group;
    - ``keep``: the kept bytes (0xFF) of the four digit words, by 18 *
      (the last digit kept) + (the digit the point follows, 0 for none
      after d2..d17);
    - ``heads``: word 0 by 10 * (4 * prefix + 2 * sign + point after d1) +
      d1, where the prefix is 0, or 1 plus the zeros after "0." of a
      fixed-point text below 1;
    - ``tails``: word 5, by 0 for a fixed-point text, else the exponent
      plus 325: "e+dd" or "e+ddd" and the comma.
    """
    value = np.arange(10000, dtype=np.uint64)
    groups = np.uint64(int.from_bytes(b"0.0.0.0.", "little"))
    sig = np.zeros(value.size, np.int8)
    for place in range(4):  # d_place of the group, from the left
        digit = value // np.uint64(10 ** (3 - place)) % np.uint64(10)
        groups = groups + (digit << np.uint64(16 * place))
        sig[digit != 0] = place + 1
    last = np.concatenate([np.where(sig > 0, 4 * group + 1 + sig, 1)
                           for group in range(4)]).astype(np.int8)
    # d2..d17 as (word, byte pair), against each last digit and point
    digit = np.arange(2, 18, dtype=np.uint64).reshape(1, 1, 4, 4)
    rank = np.arange(18, dtype=np.uint64)
    pairs = ((digit <= rank[:, None, None, None]) * np.uint64(0xFF)
             | (digit == rank[None, :, None, None]) * np.uint64(0xFF00))
    keep = (pairs << np.arange(0, 64, 16, dtype=np.uint64)).sum(axis=-1, dtype=np.uint64)
    heads = []
    for pre in range(5):
        for sign in (0, 1):
            for point in (0, 1):
                for d1 in range(10):
                    head = bytearray(8)
                    head[0] = ord("-") * sign
                    if pre:
                        head[1:2 + pre] = b"0." + b"0" * (pre - 1)
                    head[6] = ord("0") + d1
                    head[7] = ord(".") * point
                    heads.append(int.from_bytes(head, "little"))
    tails = [b"\0" * 7 + b","] + [
        (b"e%+03d" % e).ljust(7, b"\0") + b"," for e in range(-324, 309)
    ]
    return (groups, last, keep.reshape(-1, 4), np.array(heads, np.uint64),
            np.frombuffer(b"".join(tails), np.uint64))


def _float_fields(values) -> np.ndarray:
    """The ``repr`` of each float64 of an array, then a comma, as one
    48-byte field with a zero byte wherever the text has no character: an
    array of shape ``values.shape + (48,)``.

    :func:`_decimal` gives the shortest decimal, which becomes 17 digits
    d1..d17 (d1 non-zero, zeros after the last significant digit) and the
    place of the point.  ``repr`` writes fixed-point from 1e-4 up to 1e16
    ("0.000d1d2...", "d1d2.d3...", "d1...d16.0") and otherwise
    "d1.d2...e+dd".  The field is six little-endian words: word 0 a sign,
    the "0.000" of a text below 1, d1 and a point; words 1-4 the digits
    d2..d17 in groups of four, each digit followed by a point; word 5 the
    exponent and, in the last byte, the comma.  Each word is looked up in
    a table (:func:`_field_tables`), and a mask blanks the digits past
    the last one kept and every point but the text's own.  ``nan``,
    ``inf`` and ``-inf`` are whole fields of their own.
    """
    groups_of, last_of, keep, heads, tails = _field_tables()
    values = np.asarray(values, dtype=np.float64)
    flat = values.reshape(-1)
    size = flat.size
    mag = flat.view(np.uint64) & _LOW63
    nonzero = mag != _U0
    finite = mag < _INF_BITS
    plain = bool(nonzero.all() and finite.all())
    m, k = _decimal(mag if plain else np.where(nonzero & finite, mag, _ONE_BITS))
    # a normal float's m has 16 or 17 digits; a subnormal's may have fewer
    short = m < _POW10[16]
    digits = m * (np.uint64(9) * short + _U1)
    point = k + 17 - short  # the text is 0.d1d2... times 10**point
    subnormal = np.flatnonzero(mag < np.uint64(1 << 52))
    if subnormal.size:
        n_dig = np.searchsorted(_POW10, m[subnormal], side="right")
        digits[subnormal] = m[subnormal] * _POW10[17 - n_dig]
        point[subnormal] = k[subnormal] + n_dig
    if not plain:  # zero is "0.0": d1 = 0 with the point after it
        digits[~nonzero] = 0
        point[~nonzero] = 1

    first = np.floor_divide(digits, _POW10[16])
    rest = digits - first * _POW10[16]
    # the groups d2..d5, d6..d9, d10..d13, d14..d17, as the 32-bit halves
    # of (d2..d9, d10..d17) split into (first four | last four << 32)
    eights = np.empty((size, 2), np.uint64)
    np.floor_divide(rest, _POW10[8], out=eights[:, 0])
    np.subtract(rest, eights[:, 0] * _POW10[8], out=eights[:, 1])
    fours = np.floor_divide(eights, _POW10[4])
    fours |= (eights - fours * _POW10[4]) << np.uint64(32)
    group = fours.view(np.uint32).astype(np.intp)
    place = np.take(last_of, group + _GROUP_BASE)
    n_sig = np.maximum(np.maximum(place[:, 0], place[:, 1]),
                       np.maximum(place[:, 2], place[:, 3]))

    fixed = (point >= -3) & (point <= 16)
    below_one = fixed & (point <= 0)
    above_one = fixed ^ below_one
    last = np.maximum(n_sig, (point + 1) * above_one)  # "d1...d16.0" keeps zeros
    dot = point * above_one + (~fixed & (n_sig > 1))  # the point follows d_dot

    fields = np.empty((size, 6), np.uint64)
    head_at = (below_one * (1 - point)) * 4 + np.signbit(flat) * 2 + (dot == 1)
    fields[:, 0] = heads[head_at * 10 + first.astype(np.intp)]
    fields[:, 1:5] = np.take(groups_of, group) & np.take(keep, last * 18 + dot, axis=0)
    fields[:, 5] = tails[~fixed * (point + 324)]
    if not plain:
        special = np.flatnonzero(~finite)
        fields[special] = _SPECIAL[(mag[special] == _INF_BITS)
                                   * (1 + np.signbit(flat[special]))]
    return fields.view(np.uint8).reshape(values.shape + (48,))


def write_rows(fh, *columns) -> None:
    """One comma-separated line per row of the 2-D arrays ``columns``, set
    side by side (each has a line's worth of rows).  An integer or boolean
    array holds non-negative integers, written as such; a float array's
    values are written as the ``repr`` of each Python float, so the text
    reads back exactly.

    A float array's row of whole numbers in [0, 2**53), none of them -0.0,
    is written by :func:`_int_fields` (there ``repr`` is the integer's
    digits plus ".0"), any other by :func:`_float_fields`.  The rows go in
    runs that take the same kernels, and each run in blocks of about
    :data:`_BLOCK` float values (values, if there are no floats), or one
    row if it is longer.
    """
    columns = [np.asarray(col) for col in columns]
    n_rows = len(columns[0])
    width = sum(col.shape[1] for col in columns)
    if not width:
        fh.write(b"\n" * n_rows)
        return
    floats = sum(col.shape[1] for col in columns if col.dtype.kind == "f")
    step = max(1, _BLOCK // (floats or width))
    whole = np.ones((n_rows, len(columns)), bool)  # integers are whole
    for at, col in enumerate(columns):
        if col.dtype.kind == "f":
            with np.errstate(invalid="ignore"):  # NaN compares False, quietly
                is_whole = (np.floor(col) == col) & (col < 2.0**53) & ~np.signbit(col)
            whole[:, at] = is_whole.all(axis=1)
    cuts = np.flatnonzero((whole[1:] != whole[:-1]).any(axis=1)) + 1
    for start, stop in zip([0, *cuts.tolist()], [*cuts.tolist(), n_rows]):
        for first in range(start, stop, step):
            rows = slice(first, min(first + step, stop))
            parts = [_fields(col[rows], whole[first, at]) for at, col in enumerate(columns)]
            line = parts[0] if len(parts) == 1 else np.concatenate(
                [part.reshape(len(part), 1, -1) for part in parts], axis=2)
            fh.write(_lines(line))


def _fields(block, whole: bool) -> np.ndarray:
    """The text fields of a block of :func:`write_rows`' column: whole
    numbers, float or not, by :func:`_int_fields`, other floats by
    :func:`_float_fields`."""
    if block.dtype.kind != "f":
        return _int_fields(block)
    return _int_fields(block.astype(np.uint64), b".0") if whole else _float_fields(block)


def write_image_csv(path, image: Image2D) -> None:
    """Exact pixel values, one row per line, with a pitch header comment."""
    with open(path, "wb") as fh:
        header = f"# n_x={image.n_x} n_y={image.n_y} pitch_um={image.pitch_um!r}\n"
        fh.write(header.encode())
        write_rows(fh, image.values)


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
    _check_header_shape(path, fields, values.shape)
    return Image2D(values=values, pitch_um=pitch)


def _check_header_shape(path, fields, shape) -> None:
    """The data's (rows, columns) against the ``n_y``/``n_x`` the header
    names; a header may name either, both or neither."""
    n_y, n_x = shape
    for key, size in (("n_x", n_x), ("n_y", n_y)):
        value = fields.get(key)
        if value is None:
            continue
        if not (value.isascii() and value.isdigit()):
            raise FileFormatError(f"{path}: {key}={value} is not an integer")
        if int(value) != size:
            named = " ".join(f"{k}={fields[k]}" for k in ("n_x", "n_y") if k in fields)
            raise FileFormatError(
                f"{path}: header names {named}, but the data is n_x={n_x} n_y={n_y}"
            )


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
        rows = np.column_stack((profile.positions, profile.intensities))
        write_rows(fh, np.asarray(rows, dtype=float))


def write_atf_csv(path, transfer: Atf) -> None:
    """ATF grid with the x-frequency axis as the header row and the
    y frequency as the first column, lp/mm."""
    with open(path, "wb") as fh:
        fh.write(b"freq_y_lp_mm\\freq_x_lp_mm,")
        write_rows(fh, np.asarray([transfer.freq_x], dtype=float))
        rows = np.column_stack((transfer.freq_y, transfer.amplitude))
        write_rows(fh, np.asarray(rows, dtype=float))
