"""Fuzz the binary readers: any byte string parses or raises the reader's
format error, and the CLI maps a bad file to exit 3, never to another code
or an uncaught exception.  Each reader that a command runs, the TPXE file
source (``open_events``) and the SIC window (``read_window``), refuses
exactly the files that break README's layout, and reads the others as an
independent decoder of that layout (``tests/support.py``) does.

The corrupted inputs start from small valid TPXE and SIC files.  Besides
flipping random bits, they may rewrite one header field with any value of
its type, so zero or huge matrix sizes and record counts and NaN, infinite
or negative energy axes and pitches are all reached.
"""

import os
import re
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpoxrf import cli, events as ev, fileio, sic
from mpoxrf.sim import SpectralImage
from support import (
    decode_sic,
    decode_tpxe,
    detector_of,
    scan_data_ranges,
    window_image,
    write_events,
)

N_X, N_Y = 3, 2

VALID_TPXE = write_events(
    ev.EventList(
        n_x=N_X,
        n_y=N_Y,
        x=np.array([0, 2, 1, 2], np.uint16),
        y=np.array([0, 1, 1, 0], np.uint16),
        tot=np.array([8, 3, 24, 12], np.uint16),
        toa=np.arange(4, dtype=np.uint64),
    )
)


@pytest.fixture(scope="module")
def valid_sic(tmp_path_factory):
    path = tmp_path_factory.mktemp("sic") / "valid.sic"
    counts = np.arange(N_Y * N_X * 4, dtype=np.uint64).reshape(N_Y, N_X, 4)
    sic.write_sic(
        path,
        SpectralImage.from_counts(
            counts, detector_of(counts, e_min=5.0, e_bin_width=1.0, pitch=55.0)
        ),
    )
    return path.read_bytes()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Scratch directory plus an identity calibration for the N_X x N_Y matrix."""
    path = tmp_path_factory.mktemp("fuzz")
    ev.write_calibration_csv(
        path / "cal.csv",
        ev.CalibrationMap(
            gain=np.ones((N_Y, N_X)),
            offset=np.zeros((N_Y, N_X)),
            residual=np.zeros((N_Y, N_X)),
            dead=np.zeros((N_Y, N_X), dtype=bool),
        ),
    )
    return path


FIELD_VALUES = {
    "4s": st.binary(min_size=4, max_size=4),
    "I": st.integers(0, 2**32 - 1),
    "Q": st.integers(0, 2**64 - 1),
    "d": st.floats(),
}


@st.composite
def corrupted(draw, valid: bytes, header: struct.Struct) -> bytes:
    """``valid`` with one header field possibly rewritten, up to four bits
    flipped, then possibly truncated."""
    fields = list(header.unpack_from(valid))
    codes = re.findall(r"\d*[a-zA-Z]", header.format.lstrip("<"))
    k = draw(st.none() | st.integers(0, len(fields) - 1))
    if k is not None:
        fields[k] = draw(FIELD_VALUES[codes[k]])
    data = bytearray(header.pack(*fields) + valid[header.size :])
    for bit in draw(st.lists(st.integers(0, 8 * len(data) - 1), max_size=4)):
        data[bit // 8] ^= 1 << (bit % 8)
    cut = draw(st.one_of(st.just(len(data)), st.integers(0, len(data))))
    return bytes(data[:cut])


def arbitrary(magic: bytes):
    """Random bytes, half of them behind a correct magic number."""
    return st.binary(max_size=120) | st.binary(max_size=120).map(magic.__add__)


def tpxe_inputs():
    return arbitrary(ev.MAGIC) | corrupted(VALID_TPXE, ev.HEADER)


def sic_inputs(valid: bytes):
    return arbitrary(sic.MAGIC) | corrupted(valid, sic.HEADER)


FUZZ = settings(max_examples=150, deadline=None)


def check_event_file(path, data: bytes) -> None:
    """``open_events`` on the file ``path`` holding ``data`` raises an
    :class:`ev.EventFormatError` that names the file at an offset inside the
    data exactly when the decoder refuses ``data``; otherwise its slices
    hold the decoded records, and its ToT histograms are their bincount."""
    want = decode_tpxe(data)
    try:
        with ev.open_events(path) as source:
            got = [[getattr(part, name).copy() for name in ("x", "y", "tot", "toa")]
                   for part in source.slices()]
            n_pix = source.n_x * source.n_y
            # no histogram block of a huge matrix
            hists = ev.tot_histograms(source) if n_pix <= 4096 else None
    except ev.EventFormatError as exc:
        assert want is None, exc
        assert exc.message.startswith(f"{path}: ")
        assert 0 <= exc.offset <= len(data)
        return
    assert want is not None, "a file the layout refuses was read"
    assert (source.n_x, source.n_y) == (want.n_x, want.n_y)
    for k, name in enumerate(("x", "y", "tot", "toa")):
        column = np.concatenate([part[k] for part in got]) if got else []
        assert np.array_equal(column, getattr(want, name)), name
    if hists is not None:
        width = int(want.tot.max()) + 1 if want.tot.size else 1
        flat = (want.y.astype(np.int64) * want.n_x + want.x) * width + want.tot
        counts = np.bincount(flat, minlength=n_pix * width).reshape(n_pix, width)
        assert np.array_equal(hists, counts)


class TestParseEvents:
    @FUZZ
    @given(data=tpxe_inputs())
    def test_parses_or_raises_format_error(self, workdir, data):
        path = workdir / "events.tpxe"
        path.write_bytes(data)
        check_event_file(path, data)

    @FUZZ
    @given(data=tpxe_inputs())
    def test_apply_cal_exits_0_or_3(self, workdir, data):
        path = workdir / "run.tpxe"
        path.write_bytes(data)
        code = cli.main(
            ["apply-cal", "--events", str(path), "--cal", str(workdir / "cal.csv"),
             "--out", str(workdir / "run.sic")]
        )
        assert code in (cli.EXIT_OK, cli.EXIT_IO)

    @FUZZ
    @given(data=tpxe_inputs())
    def test_chunked_reader_agrees(self, workdir, data):
        # three records per slice: the valid file's four records take two
        path = workdir / "chunked.tpxe"
        path.write_bytes(data)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ev, "_READ_RECORDS", 3)
            check_event_file(path, data)


class TestReadSic:
    @FUZZ
    @given(data=st.data())
    def test_reads_or_raises_format_error(self, workdir, valid_sic, data):
        raw = data.draw(sic_inputs(valid_sic))
        lo, hi = data.draw(
            st.just((6.0, 9.0))
            | st.lists(st.floats(-10.0, 40.0), min_size=2, max_size=2,
                       unique=True).map(sorted)
        )
        path = workdir / "cube.sic"
        path.write_bytes(raw)
        want = decode_sic(raw)
        try:
            image = sic.read_window(path, lo, hi)
        except fileio.FileFormatError as exc:
            assert want is None, exc
            assert str(exc).startswith(f"{path}: ")
            return
        assert want is not None, "a file the layout refuses was read"
        n_bins = want.counts.shape[2]
        centers = want.e_min + (np.arange(n_bins) + 0.5) * want.e_bin_width
        sel = (centers >= lo) & (centers < hi)
        assert np.array_equal(
            image.values, want.counts[:, :, sel].sum(axis=2).astype(float)
        )
        assert image.pitch_um == want.pixel_pitch_um

    @FUZZ
    @given(data=st.data())
    def test_window_exits_0_or_3(self, workdir, valid_sic, data):
        raw = data.draw(sic_inputs(valid_sic))
        path = workdir / "cube.sic"
        path.write_bytes(raw)
        code = cli.main(
            ["window", "--cube", str(path), "--lo", "6.0", "--hi", "9.0",
             "--out-prefix", str(workdir / "img")]
        )
        assert code in (cli.EXIT_OK, cli.EXIT_IO)


@st.composite
def sparse_counts(draw, block: int):
    """Mostly-zero (n_y, n_x, n_bins) counts whose file holes fall in any
    place: 1 to 3 * block / 8 bins, so a pixel may straddle a ``block``-byte
    edge of the file, and up to eight counts (none, too) drawn anywhere, in
    the first and last bin and on both sides of each block edge, from 1 to
    2**64 - 1."""
    n_y, n_x = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n_bins = draw(st.integers(1, 3 * block // 8))
    size = n_y * n_x * n_bins
    edges = [i for k in range(1, (size * 8 + sic.HEADER.size) // block + 1)
             for i in ((k * block - sic.HEADER.size) // 8 + d for d in (-1, 0))
             if 0 <= i < size]
    index = st.integers(0, size - 1) | st.sampled_from([0, size - 1])
    if edges:
        index |= st.sampled_from(edges)
    count = st.integers(1, 2**64 - 1) | st.sampled_from([1, 2**64 - 1])
    cells = draw(st.dictionaries(index, count, max_size=8))
    counts = np.zeros((n_y, n_x, n_bins), np.uint64)
    counts.reshape(-1)[list(cells)] = list(cells.values())
    return counts


def write_scanned(path, data: bytes, block: int) -> None:
    """Write the SIC bytes ``data`` with the holes a scan of their dense body
    finds (:func:`support.scan_data_ranges`)."""
    body = np.frombuffer(data, np.uint8, offset=sic.HEADER.size)
    with open(path, "wb") as fh:
        fd = fh.fileno()
        os.pwrite(fd, data[: sic.HEADER.size], 0)
        for start, stop in scan_data_ranges(body, -sic.HEADER.size % block, block):
            os.pwrite(fd, body[start:stop], sic.HEADER.size + start)
        os.ftruncate(fd, len(data))


def extents(path) -> list:
    with open(path, "rb") as fh:
        return list(sic._data_extents(fh.fileno(), 0, os.fstat(fh.fileno()).st_size))


def read_from_fifo(path, write) -> bytes:
    """What ``write()`` writes into the FIFO ``path``, read by a thread."""
    got = []
    reader = threading.Thread(target=lambda: got.append(path.read_bytes()), daemon=True)
    reader.start()
    try:
        write()
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    return got[0]


class TestSicHoles:
    @FUZZ
    @given(data=st.data())
    def test_sparse_write_is_dense_bytes(self, workdir, data):
        # written from the non-zero bins, a file has the dense layout's bytes
        # and the data extents of a scan of the dense body; a FIFO gets the
        # dense layout as a stream
        block = os.stat(workdir).st_blksize
        counts = data.draw(sparse_counts(block))
        n_y, n_x, n_bins = counts.shape
        n_cells = np.count_nonzero(counts)
        cube = SpectralImage.from_counts(
            counts, detector_of(counts, e_min=1.5, e_bin_width=0.5, pitch=55.0),
            seed=7, photons=n_cells,
        )
        dense = sic.HEADER.pack(
            sic.MAGIC, n_x, n_y, n_bins, 1.5, 0.5, 55.0, 7, n_cells
        ) + counts.tobytes()
        path, scanned, fifo = (workdir / name
                               for name in ("holes.sic", "scanned.sic", "holes.fifo"))
        if not fifo.exists():
            os.mkfifo(fifo)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sic, "MIN_HOLE_BLOCKS",
                       data.draw(st.sampled_from([1, sic.MIN_HOLE_BLOCKS])))
            sic.write_sic(path, cube)
            write_scanned(scanned, dense, block)
            streamed = read_from_fifo(fifo, lambda: sic.write_sic(fifo, cube))
        assert path.read_bytes() == dense
        assert streamed == dense
        assert extents(path) == extents(scanned)
        back = decode_sic(path.read_bytes())
        assert np.array_equal(back.counts, counts)
        assert (back.seed, back.photons) == (7, n_cells)

    @FUZZ
    @given(data=st.data())
    def test_class_planes_write_their_sum(self, workdir, data):
        # each count split over one to five class planes, so a (pixel, bin)
        # repeats across planes: the file holds the planes' sum, the bytes
        # and the holes of the one-plane cube of the summed counts
        counts = data.draw(sparse_counts(os.stat(workdir).st_blksize))
        det = detector_of(counts, e_min=1.5, e_bin_width=0.5, pitch=55.0)
        summed = SpectralImage.from_counts(counts, det, seed=7, photons=3)
        bins, parts = [], []
        for index, total in zip(summed.bins.tolist(), summed.bin_counts.tolist()):
            planes = sorted(data.draw(
                st.sets(st.integers(0, 4), min_size=1, max_size=min(5, total))
            ))
            cuts = data.draw(st.sets(
                st.integers(1, max(total - 1, 1)),  # none are drawn for a 1
                min_size=len(planes) - 1, max_size=len(planes) - 1,
            ))
            bounds = [0, *sorted(cuts), total]
            for plane, lo, hi in zip(planes, bounds, bounds[1:]):
                bins.append(index * 5 + plane)
                parts.append(hi - lo)
        cube = SpectralImage(det, np.array(bins, np.int64), np.array(parts, np.uint64),
                             planes=5, seed=7, photons=3)
        path, want = workdir / "planes.sic", workdir / "summed.sic"
        sic.write_sic(path, cube)
        sic.write_sic(want, summed)
        assert path.read_bytes() == want.read_bytes()
        assert extents(path) == extents(want)

    @FUZZ
    @given(data=st.data())
    def test_data_runs_equal_the_scan_rule(self, data):
        # any block size a multiple of 8, the header's size among them
        block = data.draw(st.sampled_from([8, 16, 24, 56, 4096])
                          | st.integers(1, 64).map(lambda k: 8 * k))
        counts = data.draw(sparse_counts(block))
        cube = SpectralImage.from_counts(
            counts, detector_of(counts, e_min=1.5, e_bin_width=0.5, pitch=55.0)
        )
        body = counts.reshape(-1).view(np.uint8)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sic, "MIN_HOLE_BLOCKS",
                       data.draw(st.sampled_from([1, 2, sic.MIN_HOLE_BLOCKS])))
            want = scan_data_ranges(body, -sic.HEADER.size % block, block)
            assert sic._data_runs(cube.bins, body.size, block) == want

    @FUZZ
    @given(data=st.data())
    def test_window_sums_the_in_memory_window(self, workdir, data):
        counts = data.draw(sparse_counts(os.stat(workdir).st_blksize))
        cube = SpectralImage.from_counts(
            counts, detector_of(counts, e_min=1.5, e_bin_width=0.5, pitch=55.0)
        )
        centers = 1.5 + (np.arange(counts.shape[2]) + 0.5) * 0.5
        first, last = centers[[0, -1]]
        lo, hi = data.draw(
            st.sampled_from([
                (first - 0.25, first + 0.25),  # the first bin
                (last - 0.25, last + 0.25),  # the last bin
                (0.0, 1.5),  # no bin
                (first, last + 0.25),  # every bin
            ])
            | st.lists(st.floats(0.0, last + 1.0), min_size=2, max_size=2,
                       unique=True).map(sorted)
        )
        path = workdir / "window.sic"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sic, "MIN_HOLE_BLOCKS",
                       data.draw(st.sampled_from([1, sic.MIN_HOLE_BLOCKS])))
            sic.write_sic(path, cube)
        dense = workdir / "window_dense.sic"
        dense.write_bytes(path.read_bytes())
        want = window_image(cube, lo, hi)
        with pytest.MonkeyPatch.context() as mp:
            # one pixel a buffer, two, or the default
            pixel = 8 * counts.shape[2]
            mp.setattr(sic, "BUFFER_BYTES",
                       data.draw(st.sampled_from([1, 2 * pixel + 7, sic.BUFFER_BYTES])))
            for source in (path, dense):
                image = sic.read_window(source, lo, hi)
                assert np.array_equal(image.values, want)
                assert image.pitch_um == 55.0
            # a file system without SEEK_DATA: the whole file is one extent
            mp.setattr(sic, "_data_extents", lambda fd, start, stop: [(start, stop)])
            assert np.array_equal(sic.read_window(path, lo, hi).values, want)


VALID_IMAGE_CSV = b"# n_x=3 n_y=2 pitch_um=55.0\n0.0,1.5,2.0\n3.0,4.0,5.25\n"
VALID_CAL_CSV = (
    b"x,y,gain,offset,residual,dead\n"
    + b"".join(
        b"%d,%d,1.0,0.0,0.0,0\n" % (x, y) for y in range(N_Y) for x in range(N_X)
    )
)
#: Bytes that keep a mutated text file close to the CSV grammar.
CSV_ALPHABET = "0123456789.,+-eE# =\nnaifxyNIT_\t\xff"


@st.composite
def edited(draw, valid: bytes) -> bytes:
    """``valid`` with up to three splices of CSV-like text, up to four bits
    flipped, then possibly truncated."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 4))
        text = draw(st.text(CSV_ALPHABET, max_size=8)).encode("latin-1")
        data[at : at + cut] = text
    for bit in draw(st.lists(st.integers(0, 8 * max(len(data), 1) - 1), max_size=4)):
        if data:
            data[bit // 8] ^= 1 << (bit % 8)
    end = draw(st.one_of(st.just(len(data)), st.integers(0, len(data))))
    return bytes(data[:end])


def text_inputs(valid: bytes):
    """Random bytes, random CSV-like text, or an edited valid file."""
    return (
        st.binary(max_size=120)
        | st.text(CSV_ALPHABET, max_size=120).map(lambda t: t.encode("latin-1"))
        | edited(valid)
    )


class TestReadImageCsv:
    @FUZZ
    @given(data=text_inputs(VALID_IMAGE_CSV))
    def test_reads_or_raises_format_error(self, workdir, data):
        path = workdir / "img.csv"
        path.write_bytes(data)
        try:
            image = fileio.read_image_csv(path)
        except fileio.FileFormatError as exc:
            assert str(exc).startswith(str(path))
            return
        assert image.values.ndim == 2 and image.values.size > 0
        assert np.all(np.isfinite(image.values))
        assert 0 < image.pitch_um < np.inf

    @FUZZ
    @given(data=text_inputs(VALID_IMAGE_CSV))
    def test_atf_exits_0_or_3(self, workdir, data):
        path = workdir / "img.csv"
        path.write_bytes(data)
        code = cli.main(
            ["atf", "--image", str(path), "--out", str(workdir / "atf.csv")]
        )
        assert code in (cli.EXIT_OK, cli.EXIT_IO)


class TestReadCalibrationCsv:
    @FUZZ
    @given(data=text_inputs(VALID_CAL_CSV))
    def test_reads_or_raises_format_error(self, workdir, data):
        path = workdir / "fuzz_cal.csv"
        path.write_bytes(data)
        try:
            cal = ev.read_calibration_csv(path)
        except fileio.FileFormatError as exc:
            assert str(exc).startswith(str(path))
            return
        assert cal.gain.shape == cal.offset.shape == cal.dead.shape
        assert cal.gain.size <= data.count(b"\n") + 1

    @FUZZ
    @given(data=text_inputs(VALID_CAL_CSV))
    def test_apply_cal_exits_0_or_3(self, workdir, data):
        path = workdir / "fuzz_cal.csv"
        path.write_bytes(data)
        events = workdir / "fuzz_run.tpxe"
        events.write_bytes(VALID_TPXE)
        code = cli.main(
            ["apply-cal", "--events", str(events), "--cal", str(path),
             "--out", str(workdir / "fuzz_run.sic")]
        )
        assert code in (cli.EXIT_OK, cli.EXIT_IO)
