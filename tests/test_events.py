import os
import pickle
import stat
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpoxrf import events as ev, fileio
from mpoxrf.fileio import FileFormatError
from mpoxrf.sim import FWHM_PER_SIGMA, DetectorSpec
from support import (
    decode_tpxe,
    dense,
    read_events,
    same_bins,
    synthesize_line_events,
    write_events,
    write_events_file,
)


def make_events(n_x, n_y, x, y, tot, toa=None):
    x = np.asarray(x, np.uint16)
    if toa is None:
        toa = np.arange(x.size)
    return ev.EventList(
        n_x=n_x,
        n_y=n_y,
        x=x,
        y=np.asarray(y, np.uint16),
        tot=np.asarray(tot, np.uint16),
        toa=np.asarray(toa, np.uint64),
    )


def tpxe_file(directory, data: bytes):
    """The path of a TPXE file in ``directory`` holding ``data``."""
    path = directory / "events.tpxe"
    path.write_bytes(data)
    return path


def assert_same_events(back, el):
    assert (back.n_x, back.n_y) == (el.n_x, el.n_y)
    for f in ("x", "y", "tot", "toa"):
        assert np.array_equal(getattr(el, f), getattr(back, f)), f


class TestTpxeFormat:
    """The file reader of every command against the TPXE layout: records
    round-trip, and each broken rule is an error at its byte offset whose
    message names the file."""

    @staticmethod
    def _error(path):
        with pytest.raises(ev.EventFormatError) as err:
            read_events(path)
        assert err.value.message.startswith(f"{path}: ")
        return err.value

    def test_roundtrip_small(self, tmp_path):
        el = make_events(256, 256, [0, 255, 7], [255, 0, 9], [1, 65535, 160])
        assert_same_events(read_events(tpxe_file(tmp_path, write_events(el))), el)

    def test_roundtrip_large_random(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ev, "_READ_RECORDS", 4096)  # three slices
        rng = np.random.default_rng(8)
        n = 10_000
        el = make_events(
            256,
            256,
            rng.integers(0, 256, n),
            rng.integers(0, 256, n),
            rng.integers(0, 65536, n),
            rng.integers(0, 2**64, n, dtype=np.uint64),
        )
        data = write_events(el)
        assert_same_events(read_events(tpxe_file(tmp_path, data)), el)
        assert_same_events(decode_tpxe(data), el)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 255),
                st.integers(0, 255),
                st.integers(0, 65535),
                st.integers(0, 2**64 - 1),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=80)
    def test_roundtrip_property(self, records):
        el = make_events(
            256,
            256,
            [r[0] for r in records],
            [r[1] for r in records],
            [r[2] for r in records],
            np.array([r[3] for r in records], dtype=np.uint64),
        )
        with tempfile.TemporaryDirectory() as directory:
            back = read_events(tpxe_file(Path(directory), write_events(el)))
        assert_same_events(back, el)

    def test_empty_stream(self, tmp_path):
        el = make_events(64, 32, [], [], [])
        back = read_events(tpxe_file(tmp_path, write_events(el)))
        assert len(back) == 0
        assert (back.n_x, back.n_y) == (64, 32)

    def test_bad_magic_offset_zero(self, tmp_path):
        data = write_events(make_events(8, 8, [], [], []))
        path = tpxe_file(tmp_path, b"NOPE" + data[4:])
        err = self._error(path)
        assert err.offset == 0
        assert err.message == f"{path}: bad magic b'NOPE'"

    def test_version_mismatch_offset(self, tmp_path):
        data = bytearray(write_events(make_events(8, 8, [], [], [])))
        data[4:8] = (99).to_bytes(4, "little")
        path = tpxe_file(tmp_path, bytes(data))
        err = self._error(path)
        assert err.offset == 4
        assert err.message == f"{path}: unsupported version 99"

    def test_truncated_mid_record(self, tmp_path):
        el = make_events(8, 8, [1, 2, 3], [1, 2, 3], [10, 20, 30])
        path = tpxe_file(tmp_path, write_events(el)[:-5])  # cuts into the third record
        err = self._error(path)
        assert err.offset == ev.HEADER.size + 2 * 16
        assert err.message == f"{path}: stream ends after 2 of 3 records"

    def test_out_of_range_pixel_offset(self, tmp_path):
        el = make_events(8, 8, [1, 2], [1, 2], [10, 20])
        data = bytearray(write_events(el))
        # corrupt the second record's x to 300 (>= 8)
        rec2 = ev.HEADER.size + 16
        data[rec2 : rec2 + 2] = (300).to_bytes(2, "little")
        path = tpxe_file(tmp_path, bytes(data))
        err = self._error(path)
        assert err.offset == rec2
        assert err.message == f"{path}: record 1 pixel (300, 2) outside 8x8 matrix"

    def test_truncated_header(self, tmp_path):
        path = tpxe_file(tmp_path, b"TPXE\x01")
        err = self._error(path)
        assert (err.offset, err.message) == (5, f"{path}: truncated header")

    @pytest.mark.parametrize(
        "n_x, n_y, offset",
        [(0, 8, 8), (8, 0, 12), (0, 0, 8), (65537, 8, 8), (8, 2**20, 12),
         (2**20, 2**20, 8)],
    )
    def test_matrix_side_outside_u16_range(self, tmp_path, n_x, n_y, offset):
        # a u16 coordinate addresses sides of 1..65536
        path = tpxe_file(tmp_path, ev.HEADER.pack(ev.MAGIC, ev.VERSION, n_x, n_y, 0))
        err = self._error(path)
        assert err.offset == offset
        name, side = ("n_x", n_x) if offset == 8 else ("n_y", n_y)
        assert err.message == f"{path}: {name} {side} outside 1..65536"

    def test_largest_addressable_matrix(self, tmp_path):
        data = ev.HEADER.pack(ev.MAGIC, ev.VERSION, 65536, 65536, 0)
        back = read_events(tpxe_file(tmp_path, data))
        assert (back.n_x, back.n_y, len(back)) == (65536, 65536, 0)

    def test_format_error_is_file_format_error(self):
        # the CLI maps FileFormatError, and so every TPXE error, to exit 3
        assert issubclass(ev.EventFormatError, FileFormatError)

    def test_format_error_pickles(self):
        # a pool worker's error reaches the parent pickled: it must come back
        # whole, not as a TypeError that breaks the pool
        err = ev.EventFormatError(
            "run.tpxe: record 3 pixel (9, 0) outside 8x8 matrix", 72
        )
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is ev.EventFormatError
        assert (back.message, back.offset) == (err.message, err.offset)
        assert str(back) == str(err)

    def test_file_error_names_path(self, tmp_path):
        el = make_events(8, 8, [1, 2, 3], [1, 2, 3], [10, 20, 30])
        path = tmp_path / "cut.tpxe"
        path.write_bytes(write_events(el)[:-5])
        err = self._error(path)
        assert err.offset == ev.HEADER.size + 2 * 16
        assert str(err) == (
            f"{path}: stream ends after 2 of 3 records (byte offset 56)"
        )

    def test_file_roundtrip(self, tmp_path):
        el = make_events(16, 16, [3], [4], [500])
        path = tmp_path / "ev.tpxe"
        write_events_file(path, el)
        assert_same_events(read_events(path), el)


class TestSynthesize:
    def test_identity_calibration_no_noise(self):
        gain = np.ones((4, 4))
        offset = np.zeros((4, 4))
        el = synthesize_line_events(
            8.0, gain, offset, 10, np.random.default_rng(0), energy_fwhm=0.0
        )
        assert np.all(el.tot == 8)
        assert len(el) == 160

    def test_gain_offset_inversion(self):
        gain = np.full((2, 2), 0.02)
        offset = np.full((2, 2), 1.0)
        el = synthesize_line_events(
            8.0, gain, offset, 5, np.random.default_rng(0), energy_fwhm=0.0
        )
        assert np.all(el.tot == 350)  # (8 - 1) / 0.02

    def test_noise_width_propagates(self):
        gain = np.full((1, 1), 0.05)
        offset = np.zeros((1, 1))
        el = synthesize_line_events(
            8.0, gain, offset, 40_000, np.random.default_rng(4), energy_fwhm=1.12
        )
        expect = (1.12 / 2.3548) / 0.05
        assert el.tot.astype(float).std() == pytest.approx(expect, rel=0.03)

    def test_rejects_bad_gain(self):
        with pytest.raises(ValueError):
            synthesize_line_events(
                8.0, np.zeros((2, 2)), np.zeros((2, 2)), 5, np.random.default_rng(0)
            )

    @pytest.mark.parametrize("fwhm", [1.12, 0.0])
    def test_equals_repeat_and_gather_formula(self, fwhm):
        n_y, n_x, n = 3, 5, 7
        rng = np.random.default_rng(8)
        gain = rng.uniform(0.02, 0.06, (n_y, n_x))
        offset = rng.uniform(-0.5, 0.5, (n_y, n_x))
        offset[0, 1] = 9.0  # ToT below 0, clipped to 0
        gain[2, 3] = 1e-5  # ToT above the u16 range, clipped to 65535
        el = synthesize_line_events(
            8.0, gain, offset, n, np.random.default_rng(9), energy_fwhm=fwhm
        )
        # one flat pixel index per hit, the maps gathered through it
        pix = np.repeat(np.arange(n_y * n_x), n)
        e_meas = 8.0 + fwhm / FWHM_PER_SIGMA * np.random.default_rng(
            9
        ).standard_normal(pix.size)
        tot = np.round((e_meas - offset.reshape(-1)[pix]) / gain.reshape(-1)[pix])
        want = ev.EventList(
            n_x, n_y,
            x=(pix % n_x).astype(np.uint16),
            y=(pix // n_x).astype(np.uint16),
            tot=np.clip(tot, 0, 65535).astype(np.uint16),
            toa=np.arange(pix.size, dtype=np.uint64),
        )
        assert (el.n_x, el.n_y) == (n_x, n_y)
        for name in ("x", "y", "tot", "toa"):
            got, ref = getattr(el, name), getattr(want, name)
            assert got.dtype == ref.dtype, name
            assert got.tobytes() == ref.tobytes(), name
        assert {0, 65535} <= set(el.tot.tolist())


class TestTotHistograms:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_add_at_oracle(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        n_x, n_y, n = 5, 3, 400
        x = rng.integers(0, n_x, n)
        y = rng.integers(0, n_y, n)
        tot = rng.integers(0, 60, n)
        tot[:2] = [0, 60]  # the smallest and the largest ToT both occur
        want = np.zeros((n_y * n_x, 61), dtype=np.int64)
        np.add.at(want, (y * n_x + x, tot), 1)
        events = make_events(n_x, n_y, x, y, tot)
        whole = ev.tot_histograms(events)
        monkeypatch.setattr(ev, "_READ_RECORDS", 7)  # 58 slices, the last of 1
        assert len(list(events.slices())) == 58
        for hist in (whole, ev.tot_histograms(events)):
            assert hist.shape == (n_y * n_x, 61)
            assert np.array_equal(hist, want)
            assert hist[y[0] * n_x + x[0], 0] > 0
            assert hist[y[1] * n_x + x[1], -1] > 0

    def test_empty_events(self):
        hist = ev.tot_histograms(make_events(4, 3, [], [], []))
        assert hist.shape == (12, 1)
        assert not hist.any()

    @pytest.mark.parametrize("read_records", [None, 4096])
    @pytest.mark.parametrize("n", [0, 255, 256, 65_535, 65_536, 70_000])
    def test_narrow_counts_do_not_wrap(self, tmp_path, monkeypatch, n, read_records):
        # every hit in one pixel-ToT bin: the count type is the narrowest
        # that holds the record count, and the bin still counts all of them
        if read_records:
            monkeypatch.setattr(ev, "_READ_RECORDS", read_records)
        el = make_events(3, 2, [2] * n, [1] * n, [7] * n)
        path = tmp_path / "line.tpxe"
        write_events_file(path, el)
        with ev.open_events(path) as source:
            from_file = ev.tot_histograms(source)
        for hist in (ev.tot_histograms(el), from_file):
            assert hist.dtype == np.min_scalar_type(n)
            assert hist.shape == ((6, 8) if n else (6, 1))
            assert int(hist.sum(dtype=np.uint64)) == n
            if n:
                assert int(hist[1 * 3 + 2, 7]) == n


class TestOnePassCounts:
    """A source is read once into 16-bit counts, and once more only when
    a bin reached 65,536; the block widens as larger ToTs arrive."""

    @staticmethod
    def _sources(tmp_path, el):
        """``tot_histograms`` of ``el`` in memory and from a TPXE file, and
        the number of times the file was read."""
        path = tmp_path / "line.tpxe"
        write_events_file(path, el)
        real, reads = ev.EventFile.slices, []

        def slices(source):
            reads.append(source)
            return real(source)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ev.EventFile, "slices", slices)
            with ev.open_events(path) as source:
                from_file = ev.tot_histograms(source)
        return ev.tot_histograms(el), from_file, len(reads)

    @staticmethod
    def _oracle(el):
        want = np.zeros((el.n_x * el.n_y, int(el.tot.max()) + 1), np.int64)
        np.add.at(want, (el.y.astype(int) * el.n_x + el.x, el.tot), 1)
        return want

    def test_256x256_file_below_the_wrap_is_read_once_in_uint16(self, tmp_path):
        # 131,072 records, two per pixel: uint32 would hold the record
        # count, but no bin reaches 65,536
        n_x = n_y = 256
        pix = np.arange(2 * n_x * n_y) % (n_x * n_y)
        tot = np.arange(pix.size) % 37
        el = make_events(n_x, n_y, pix % n_x, pix // n_x, tot)
        memory, from_file, n_reads = self._sources(tmp_path, el)
        assert n_reads == 1
        for hists in (memory, from_file):
            assert hists.dtype == np.uint16
            assert np.array_equal(hists, self._oracle(el))

    @pytest.mark.parametrize(
        "in_bin, dtype, reads", [(65_535, np.uint16, 1), (65_536, np.uint32, 2)]
    )
    def test_a_full_bin_is_recounted_wide(self, tmp_path, in_bin, dtype, reads):
        # ``in_bin`` hits in pixel (1, 1) at ToT 9, and 1,000 in row y = 0
        x = np.r_[np.ones(in_bin, int), np.arange(1000) % 4]
        y = np.r_[np.ones(in_bin, int), np.zeros(1000, int)]
        tot = np.r_[np.full(in_bin, 9), np.arange(1000) % 20]
        el = make_events(4, 2, x, y, tot)
        memory, from_file, n_reads = self._sources(tmp_path, el)
        assert n_reads == reads
        for hists in (memory, from_file):
            assert hists.dtype == dtype
            assert int(hists[1 * 4 + 1, 9]) == in_bin
            assert np.array_equal(hists, self._oracle(el))

    @pytest.mark.parametrize(
        "tots",
        [
            [10, 12, 40],  # widened in the third slice, trimmed at the end
            [3, 4, 65535],  # widened to the cap, which the trim keeps
            [0, 0, 2],  # widened to exactly 3 columns, no trim
            [600, 7, 8],  # the largest ToT in the first slice
        ],
    )
    def test_largest_tot_in_a_later_slice(self, tmp_path, monkeypatch, tots):
        monkeypatch.setattr(ev, "_READ_RECORDS", 5)
        rng = np.random.default_rng(sum(tots))
        n_x, n_y = 3, 2
        # three slices of 5 records, each holding its largest ToT once
        tot = np.concatenate([rng.integers(0, t + 1, 5) for t in tots])
        tot[[2, 6, 14]] = tots
        el = make_events(
            n_x, n_y, rng.integers(0, n_x, 15), rng.integers(0, n_y, 15), tot
        )
        for hists in self._sources(tmp_path, el)[:2]:
            assert hists.shape == (n_x * n_y, max(tots) + 1)
            assert hists.dtype == np.uint8
            assert np.array_equal(hists, self._oracle(el))


class TestChunkedReader:
    """The file source of :func:`ev.open_events` against the in-memory
    chain, with slices of a few records so every file spans several reads."""

    CHUNK = 4

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(ev, "_READ_RECORDS", self.CHUNK)

    @staticmethod
    def _histograms(path):
        with ev.open_events(path) as source:
            return ev.tot_histograms(source)

    @staticmethod
    def _check(path):
        with ev.open_events(path) as source:
            for _ in source.slices():
                pass

    @pytest.mark.parametrize("n", [0, 1, 4, 8, 11])
    def test_equals_in_memory_histograms(self, tmp_path, n):
        rng = np.random.default_rng(n)
        n_x, n_y = 5, 3
        tot = rng.integers(0, 40, n)
        if n:
            tot[-1] = 90  # the largest ToT only in the last slice
        el = make_events(
            n_x, n_y, rng.integers(0, n_x, n), rng.integers(0, n_y, n), tot
        )
        path = tmp_path / "line.tpxe"
        write_events_file(path, el)
        with ev.open_events(path) as source:
            assert (source.n_x, source.n_y, len(source)) == (n_x, n_y, n)
            hists = ev.tot_histograms(source)
            peaks = ev.line_peaks(source)
        want = ev.tot_histograms(el)
        assert hists.dtype == want.dtype
        assert np.array_equal(hists, want)
        assert hists.shape == ((n_y * n_x, 91) if n else (n_y * n_x, 1))
        assert np.array_equal(peaks, ev.line_peaks(el), equal_nan=True)

    def test_apply_calibration_equals_in_memory(self, tmp_path):
        rng = np.random.default_rng(23)
        n = 4
        cal = ev.CalibrationMap(
            gain=rng.uniform(0.5, 1.5, (n, n)),
            offset=rng.uniform(-0.5, 0.5, (n, n)),
            residual=np.zeros((n, n)),
            dead=np.zeros((n, n), dtype=bool),
        )
        cal.dead[1, 2] = True
        det = DetectorSpec(n_x=n, n_y=n, e_min=1.0, n_bins=60)
        k = 30  # 8 slices, the last of 2
        el = make_events(
            n, n, rng.integers(0, n, k), rng.integers(0, n, k), rng.integers(0, 25, k)
        )
        path = tmp_path / "run.tpxe"
        write_events_file(path, el)
        with ev.open_events(path) as source:
            from_file = ev.apply_calibration(source, cal, det)
        in_memory = ev.apply_calibration(el, cal, det)
        assert same_bins(from_file, in_memory)
        assert vars(from_file.stats) == vars(in_memory.stats)
        assert from_file.stats.dead_pixel_drops > 0
        assert from_file.stats.n_photons == from_file.photons == k

    def _same_outcome(self, path, data):
        """Where the layout decoder refuses ``data``, both file readers raise
        the same error, which names the file; otherwise both read the
        decoded events.  Returns those events, or None."""
        want = decode_tpxe(data)
        if want is None:
            errors = set()
            for read in (self._histograms, self._check):
                with pytest.raises(ev.EventFormatError) as err:
                    read(path)
                assert err.value.message.startswith(f"{path}: ")
                errors.add((str(err.value), err.value.offset))
            assert len(errors) == 1, errors
            return None
        self._check(path)
        assert np.array_equal(
            self._histograms(path), ev.tot_histograms(ev.EventList(*want))
        )
        return want

    def _file(self, tmp_path, data):
        path = tmp_path / "line.tpxe"
        path.write_bytes(data)
        return path

    @staticmethod
    def _ten_records() -> bytes:
        """Ten records of pixel (1, 2) in an 8x8 matrix: slices 0-3, 4-7, 8-9."""
        return write_events(make_events(8, 8, [1] * 10, [2] * 10, range(10)))

    def test_bad_pixel_in_second_chunk(self, tmp_path):
        data = bytearray(self._ten_records())
        rec = ev.HEADER.size + 6 * 16  # record 6: the second slice's third
        data[rec + 2 : rec + 4] = (8).to_bytes(2, "little")
        path = self._file(tmp_path, bytes(data))
        self._same_outcome(path, bytes(data))
        with pytest.raises(ev.EventFormatError) as err:
            self._histograms(path)
        assert str(err.value) == (
            f"{path}: record 6 pixel (1, 8) outside 8x8 matrix (byte offset {rec})"
        )

    def test_cut_inside_a_chunk(self, tmp_path):
        data = self._ten_records()
        cut = data[: ev.HEADER.size + 6 * 16 + 5]
        path = self._file(tmp_path, cut)
        self._same_outcome(path, cut)
        with pytest.raises(ev.EventFormatError, match="stream ends after 6 of 10"):
            self._histograms(path)

    def test_file_shorter_than_its_size_says(self, tmp_path, monkeypatch):
        # a file that shrinks after its length is checked ends inside a read
        data = self._ten_records()
        path = self._file(tmp_path, data[: ev.HEADER.size + 6 * 16 + 5])
        # fields 0 and 6: mode and size
        full = os.stat_result((stat.S_IFREG,) + (0,) * 5 + (len(data),) + (0,) * 3)
        monkeypatch.setattr(fileio.os, "fstat", lambda fd: full)
        for read in (self._histograms, self._check):
            with pytest.raises(ev.EventFormatError) as err:
                read(path)
            assert err.value.offset == ev.HEADER.size + 6 * 16
            assert "stream ends after 6 of 10 records" in str(err.value)

    def test_file_changed_before_the_wide_recount(self, tmp_path, monkeypatch):
        # 65,536 hits in one bin wrap the 16-bit count, so the file is read
        # again in uint32; a writer changes it between the two reads
        monkeypatch.setattr(ev, "_READ_RECORDS", 4096)
        n = 1 << 16
        path = self._file(
            tmp_path, write_events(make_events(8, 8, [1] * n, [2] * n, [5] * n))
        )
        real, calls = ev.EventFile.slices, []

        def slices(source):
            calls.append(source)
            if len(calls) == 2:  # record 9 moves to pixel (3, 4), ToT 500
                with open(path, "r+b") as fh:
                    fh.seek(ev.HEADER.size + 9 * 16)
                    fh.write(np.array([3, 4, 500], "<u2").tobytes())
            return real(source)

        monkeypatch.setattr(ev.EventFile, "slices", slices)
        hists = self._histograms(path)
        assert len(calls) == 2
        # the histogram of the bytes the recount read, each hit in its row
        back = read_events(path)
        want = np.zeros((64, 501), np.int64)
        np.add.at(want, (back.y * 8 + back.x, back.tot), 1)
        assert hists.dtype == np.uint32
        assert np.array_equal(hists, want)
        assert (hists[2 * 8 + 1, 5], hists[4 * 8 + 3, 500]) == (n - 1, 1)

    def test_pipe_refused(self, tmp_path):
        # a pipe has no length to check the record count against
        path = tmp_path / "fifo.tpxe"
        os.mkfifo(path)
        writer = os.open(path, os.O_RDWR | os.O_NONBLOCK)  # keeps open() from blocking
        try:
            for read in (self._histograms, self._check):
                with pytest.raises(FileFormatError, match="not a regular file"):
                    read(path)
        finally:
            os.close(writer)

    @pytest.mark.parametrize("side", [0, 2**20])
    def test_unaddressable_matrix(self, tmp_path, side):
        # 0 records: the header alone decides, before any block is allocated
        data = ev.HEADER.pack(ev.MAGIC, ev.VERSION, side, side, 0)
        path = self._file(tmp_path, data)
        assert self._same_outcome(path, data) is None

    def test_trailing_bytes_accepted(self, tmp_path):
        data = self._ten_records()
        data += b"\xff" * 21
        path = self._file(tmp_path, data)
        assert self._same_outcome(path, data) is not None

    def test_peak_memory_below_in_memory_chain(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ev, "_READ_RECORDS", 4096)
        n = 64
        path = tmp_path / "cu.tpxe"
        write_events_file(
            path,
            synthesize_line_events(
                8.0, np.ones((n, n)), np.zeros((n, n)), 50,
                np.random.default_rng(2),
            ),
        )

        def from_file():
            with ev.open_events(path) as source:
                ev.line_peaks(source)

        peaks = {}
        for name, run in (
            ("file", from_file),
            ("memory", lambda: ev.line_peaks(read_events(path))),
        ):
            tracemalloc.start()
            try:
                run()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["file"] < peaks["memory"], peaks


def scalar_line_peak(histogram):
    """One histogram at a time, walking out from the argmax, in floats:
    the oracle for the vectorized pass of ``find_line_peaks``."""
    histogram = np.asarray(histogram, dtype=float)
    if histogram.size == 0 or histogram.max() <= 0:
        return None
    peak = int(np.argmax(histogram))
    half = histogram[peak] / 2.0
    lo = peak
    while lo > 0 and histogram[lo - 1] >= half:
        lo -= 1
    hi = peak
    while hi < histogram.size - 1 and histogram[hi + 1] >= half:
        hi += 1
    bins = np.arange(lo, hi + 1)
    weights = histogram[lo : hi + 1]
    return float(np.sum(bins * weights) / np.sum(weights))


def oracle_block(rows):
    return np.array(
        [np.nan if (loc := scalar_line_peak(r)) is None else loc for r in rows]
    )


@st.composite
def histogram_blocks(draw, elements):
    """A few distinct rows, repeated in random order to a row count of up
    to 3,073, so that a block can hold more than 1,024 rows."""
    n_bins = draw(st.integers(1, 12))
    row = st.one_of(
        st.lists(elements, min_size=n_bins, max_size=n_bins),
        st.just([0] * n_bins),
    )
    rows = draw(st.lists(row, min_size=1, max_size=8))
    n_rows = draw(
        st.one_of(st.integers(1, 20), st.integers(1, 3 * 1024 + 1))
    )
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
        0, len(rows), n_rows
    )
    return rows, order


def one_row_peak(histogram):
    """``find_line_peaks`` of one histogram, as a 1-row block."""
    (loc,) = ev.find_line_peaks(np.asarray(histogram)[None, :])
    return loc


class TestFindLinePeaks:
    def test_single_spike(self):
        h = np.zeros(300, np.int64)
        h[160] = 50
        assert one_row_peak(h) == 160.0

    def test_symmetric_gaussian(self):
        bins = np.arange(300)
        h = np.round(np.exp(-0.5 * ((bins - 160.0) / 9.0) ** 2) * 1000)
        assert one_row_peak(h.astype(np.int64)) == pytest.approx(160.0, abs=0.1)

    def test_bimodal_takes_taller_mode(self):
        h = np.zeros(300, np.int64)
        h[50:55] = [10, 30, 60, 30, 10]
        h[200:205] = [20, 50, 100, 50, 20]
        loc = one_row_peak(h)
        assert loc == pytest.approx(202.0, abs=0.5)

    def test_empty_histogram(self):
        assert np.isnan(one_row_peak(np.zeros(10, np.int64)))

    @pytest.mark.parametrize(
        "row",
        [
            [0, 5, 1, 5, 0],  # tie at the maximum: the first one wins
            [9, 8, 1, 0],  # run touching bin 0
            [0, 1, 8, 9],  # run touching the last bin
            [0, 4, 4, 4, 4, 0],  # plateau
            [1, 6, 1, 0, 2, 7, 2],  # bimodal: the taller mode
            [3, 2, 0, 3, 3],  # tied modes: the first one's run
            [0, 0, 0, 0],  # no hits: NaN
        ],
    )
    def test_block_rows_match_oracle(self, row):
        block = np.array([row, row[::-1], [0] * len(row)], dtype=np.int64)
        got = ev.find_line_peaks(block)
        assert np.array_equal(got, oracle_block(block), equal_nan=True)
        assert np.array_equal(
            ev.find_line_peaks(block[:1]), oracle_block([row]), equal_nan=True
        )

    def test_one_column_and_empty_blocks(self):
        got = ev.find_line_peaks(np.array([[3], [0], [1]]))
        assert np.array_equal(got, [0.0, np.nan, 0.0], equal_nan=True)
        assert ev.find_line_peaks(np.zeros((0, 7), np.uint8)).shape == (0,)

    @pytest.mark.parametrize(
        "dtype, large",
        [
            pytest.param(np.uint8, st.integers(0, 2**8 - 1), id="uint8"),
            pytest.param(np.uint16, st.integers(0, 2**16 - 1), id="uint16"),
            pytest.param(np.uint32, st.integers(0, 2**32 - 1), id="uint32"),
            # counts near 2**32: the int64 sums of a uint64 block stay exact
            pytest.param(np.uint64, st.integers(2**32 - 64, 2**32 + 64), id="uint64"),
            pytest.param(np.int64, st.integers(0, 2**31), id="int64"),
        ],
    )
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_integer_block_equals_scalar_oracle(self, dtype, large, data):
        rows, order = data.draw(histogram_blocks(st.one_of(st.integers(0, 3), large)))
        rows = np.array(rows, dtype=dtype)
        got = ev.find_line_peaks(rows[order])
        assert np.array_equal(got, oracle_block(rows)[order], equal_nan=True)
        for r in rows:
            assert np.array_equal(
                ev.find_line_peaks(r[None, :]), oracle_block([r]), equal_nan=True
            )

    @pytest.mark.parametrize("walk_bins", [1, 64, ev._WALK_BINS])
    def test_long_runs_match_oracle(self, monkeypatch, walk_bins):
        # half-max runs of up to 3,000 bins: windows of every width up to
        # the cap on the bins one step reads, and runs ending at either edge
        monkeypatch.setattr(ev, "_WALK_BINS", walk_bins)
        rng = np.random.default_rng(5)
        block = rng.integers(50, 100, (8, 3000)).astype(np.uint32)
        block[1, 1234] = 400  # a spike: a run of one bin
        block[2, 2000:] = 0  # a run from bin 0 to bin 1999
        block[3] = 0
        block[4, ::97] = 10  # runs of 96 bins
        block[5, 1500] = 190  # a run of the neighbours of at least 95
        got = ev.find_line_peaks(block)
        assert np.array_equal(got, oracle_block(block), equal_nan=True)

    def test_wide_tot_range_memory_bounded_by_block(self, tmp_path):
        # 255 records with ToTs 1 and 65535: a 256 x 65536 uint8 block of
        # 16 MiB, which the peak pass must not copy to a wider type
        n = 16
        pix = np.arange(255)
        tot = np.where(pix % 2 == 0, 1, 65535)
        path = tmp_path / "wide.tpxe"
        write_events_file(path, make_events(n, n, pix % n, pix // n, tot))
        block = n * n * 65536
        tracemalloc.start()
        try:
            with ev.open_events(path) as source:
                peaks = ev.line_peaks(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * block, (peak, block)
        want = np.full(n * n, np.nan)
        want[pix] = tot
        assert np.array_equal(peaks.reshape(-1), want, equal_nan=True)


class TestFitCalibration:
    def line_set(self):
        return ev.default_line_set()

    def test_exact_peaks_recover_machine_precision(self):
        ls = self.line_set()
        a, b = 0.05, 0.5
        peaks = np.array([[(e - b) / a] for e in ls.energies])[:, :, None]
        cal = ev.fit_calibration(peaks.reshape(-1, 1, 1), ls)
        assert cal.gain[0, 0] == pytest.approx(a, rel=1e-12)
        assert cal.offset[0, 0] == pytest.approx(b, rel=1e-12)
        assert cal.residual[0, 0] == pytest.approx(0.0, abs=1e-10)
        assert not cal.dead[0, 0]

    def test_single_peak_pixel_flagged_dead(self):
        ls = self.line_set()
        peaks = np.full((5, 1, 2), np.nan)
        peaks[:, 0, 0] = [(e - 0.5) / 0.05 for e in ls.energies]
        peaks[2, 0, 1] = 100.0  # only one line located
        cal = ev.fit_calibration(peaks, ls)
        assert not cal.dead[0, 0]
        assert cal.dead[0, 1]
        assert np.isnan(cal.gain[0, 1])

    def test_degenerate_tot_flagged_dead_not_fatal(self):
        ls = self.line_set()
        peaks = np.full((5, 1, 1), 123.0)  # identical ToT for every line
        cal = ev.fit_calibration(peaks, ls)
        assert cal.dead[0, 0]

    def test_line_count_mismatch(self):
        with pytest.raises(ValueError):
            ev.fit_calibration(np.zeros((3, 1, 1)), self.line_set())

    def test_scaling_invariance(self):
        # ToT * k with gains / k leaves recovered energies unchanged
        ls = self.line_set()
        a, b, k = 0.05, 0.3, 4.0
        base = np.array([(e - b) / a for e in ls.energies])
        cal1 = ev.fit_calibration(base.reshape(-1, 1, 1), ls)
        cal2 = ev.fit_calibration((base * k).reshape(-1, 1, 1), ls)
        tot = 200.0
        e1 = cal1.gain[0, 0] * tot + cal1.offset[0, 0]
        e2 = cal2.gain[0, 0] * (tot * k) + cal2.offset[0, 0]
        assert e1 == pytest.approx(e2, rel=1e-12)


class TestCalibrationClosure:
    def test_synthesize_fit_apply_chain(self):
        rng = np.random.default_rng(77)
        n_y = n_x = 16
        gain = rng.uniform(0.04, 0.06, (n_y, n_x))
        offset = rng.uniform(-0.2, 0.2, (n_y, n_x))
        ls = ev.default_line_set()
        per_line = {
            label: synthesize_line_events(e_kev, gain, offset, 2000, rng)
            for label, e_kev in ls.lines
        }
        peaks = np.stack([ev.line_peaks(per_line[label]) for label in ls.labels])
        cal = ev.fit_calibration(peaks, ls)
        assert cal.n_dead == 0
        rel = (cal.gain - gain) / gain
        assert np.sqrt((rel**2).mean()) < 0.01

        # recovered energies within 2 sigma of the statistical expectation
        det = DetectorSpec(
            n_x=n_x, n_y=n_y, e_min=0.0, e_bin_width=0.05, n_bins=500,
            threshold=2.0, energy_fwhm=0.0,
        )
        for label, e_kev in ls.lines:
            cube = ev.apply_calibration(per_line[label], cal, det)
            spectrum = dense(cube).sum(axis=(0, 1))
            (pk,) = ev.find_line_peaks(spectrum[None, :])
            e_peak = det.e_min + (pk + 0.5) * det.e_bin_width
            assert e_peak == pytest.approx(e_kev, abs=0.1), label


class TestApplyCalibration:
    def identity_cal(self, n=4):
        return ev.CalibrationMap(
            gain=np.ones((n, n)),
            offset=np.zeros((n, n)),
            residual=np.zeros((n, n)),
            dead=np.zeros((n, n), dtype=bool),
        )

    def test_identity_puts_counts_in_energy_bin(self):
        cal = self.identity_cal()
        det = DetectorSpec(
            n_x=4, n_y=4, e_min=0.0, e_bin_width=0.25, n_bins=100, threshold=2.0
        )
        el = make_events(4, 4, [0, 1, 2], [0, 1, 2], [8, 8, 8])
        cube = ev.apply_calibration(el, cal, det)
        b = int(8.0 / 0.25)
        assert dense(cube)[:, :, b].sum() == 3
        assert dense(cube).sum() == 3

    def test_dead_pixel_events_dropped_and_counted(self):
        cal = self.identity_cal()
        cal.dead[1, 1] = True
        det = DetectorSpec(n_x=4, n_y=4, threshold=2.0)
        el = make_events(4, 4, [1, 2, 1], [1, 2, 1], [8, 8, 9])
        cube = ev.apply_calibration(el, cal, det)
        assert cube.stats.dead_pixel_drops == 2
        assert dense(cube).sum() == 1

    def test_threshold_drops(self):
        cal = self.identity_cal()
        det = DetectorSpec(n_x=4, n_y=4, threshold=2.0)
        el = make_events(4, 4, [0, 1], [0, 1], [1, 8])  # 1 keV is below threshold
        cube = ev.apply_calibration(el, cal, det)
        assert cube.stats.below_threshold == 1
        assert dense(cube).sum() == 1

    def test_matrix_mismatch(self):
        cal = self.identity_cal(4)
        det = DetectorSpec(n_x=8, n_y=8)
        el = make_events(8, 8, [0], [0], [8])
        with pytest.raises(ValueError):
            ev.apply_calibration(el, cal, det)
        # events and calibration agree, the detector's matrix does not
        with pytest.raises(ValueError, match="detector"):
            ev.apply_calibration(el, self.identity_cal(8), DetectorSpec(n_x=4, n_y=4))

    def test_tallies_conserved(self):
        rng = np.random.default_rng(21)
        cal = self.identity_cal(4)
        cal.dead[0, 1] = cal.dead[3, 2] = True
        det = DetectorSpec(n_x=4, n_y=4, e_min=1.0, n_bins=60)  # band [1, 16) keV
        n = 5000
        el = make_events(
            4, 4, rng.integers(0, 4, n), rng.integers(0, 4, n), rng.integers(0, 25, n)
        )
        cube = ev.apply_calibration(el, cal, det)
        s = cube.stats
        assert min(s.dead_pixel_drops, s.below_threshold, s.out_of_band) > 0
        assert (
            s.dead_pixel_drops + s.below_threshold + s.out_of_band + s.detected
            == s.n_photons
            == n
        )
        assert dense(cube).sum() == s.detected
        assert dense(cube)[0, 1].sum() == dense(cube)[3, 2].sum() == 0

    def test_slices_equal_one_pass(self, monkeypatch):
        rng = np.random.default_rng(22)
        cal = self.identity_cal(4)
        cal.dead[2, 0] = True
        det = DetectorSpec(n_x=4, n_y=4, e_min=1.0, n_bins=60)
        n = 200
        el = make_events(
            4, 4, rng.integers(0, 4, n), rng.integers(0, 4, n), rng.integers(0, 25, n)
        )
        whole = ev.apply_calibration(el, cal, det)
        monkeypatch.setattr(ev, "_READ_RECORDS", 3)  # 67 slices, the last of 2
        sliced = ev.apply_calibration(el, cal, det)
        assert same_bins(sliced, whole)
        assert vars(sliced.stats) == vars(whole.stats)
        assert sliced.stats.n_photons == sliced.photons == n

    @staticmethod
    def unique_oracle(el, cal, det):
        """The cube and tallies of ``el`` by 2-D map gathers and a sorted
        ``np.unique`` of the flat cube indices, in one pass."""
        py, px = el.y.astype(np.int64), el.x.astype(np.int64)
        alive = np.nonzero(~cal.dead[py, px])[0]
        py, px = py[alive], px[alive]
        energy = cal.gain[py, px] * el.tot[alive].astype(float) + cal.offset[py, px]
        above = energy >= det.threshold
        e_bin = np.floor((energy - det.e_min) / det.e_bin_width).astype(np.int64)
        hit = above & (e_bin >= 0) & (e_bin < det.n_bins)
        flat = ((py[hit] * det.n_x) + px[hit]) * det.n_bins + e_bin[hit]
        idx, cnt = np.unique(flat, return_counts=True)
        counts = np.zeros((det.n_y, det.n_x, det.n_bins), np.uint64)
        counts.reshape(-1)[idx] += cnt.astype(np.uint64)
        tallies = {
            "dead_pixel_drops": len(el) - alive.size,
            "below_threshold": int(np.count_nonzero(~above)),
            "out_of_band": int(np.count_nonzero(above & ~hit)),
            "detected": int(np.count_nonzero(hit)),
        }
        return counts, tallies

    @pytest.mark.parametrize("read_records", [3, 4096, None])
    def test_equals_unique_oracle(self, tmp_path, monkeypatch, read_records):
        rng = np.random.default_rng(24)
        n_x, n_y, n = 5, 3, 9000
        cal = ev.CalibrationMap(
            gain=rng.uniform(0.04, 0.06, (n_y, n_x)),
            offset=rng.uniform(-0.2, 0.2, (n_y, n_x)),
            residual=np.zeros((n_y, n_x)),
            dead=np.zeros((n_y, n_x), dtype=bool),
        )
        cal.dead[0, 4] = cal.dead[2, 1] = True
        cal.gain[cal.dead] = cal.offset[cal.dead] = np.nan
        # band [1, 16) keV, threshold 2 keV; ToT 0..399 spans about 0..24 keV
        det = DetectorSpec(
            n_x=n_x, n_y=n_y, e_min=1.0, e_bin_width=0.05, n_bins=300, threshold=2.0
        )
        el = make_events(
            n_x, n_y,
            rng.integers(0, n_x, n), rng.integers(0, n_y, n), rng.integers(0, 400, n),
        )
        want, tallies = self.unique_oracle(el, cal, det)
        assert min(tallies.values()) > 0
        path = tmp_path / "run.tpxe"
        write_events_file(path, el)
        if read_records:
            monkeypatch.setattr(ev, "_READ_RECORDS", read_records)
        with ev.open_events(path) as source:
            from_file = ev.apply_calibration(source, cal, det)
        for cube in (ev.apply_calibration(el, cal, det), from_file):
            assert cube.bin_counts.dtype == want.dtype
            assert np.array_equal(dense(cube), want)
            assert {k: getattr(cube.stats, k) for k in tallies} == tallies
            assert cube.stats.n_photons == n

    def test_peak_memory_bounded_by_slice(self, tmp_path, monkeypatch):
        # binning holds the cube, one record buffer and temporaries of a
        # few bytes per event of one slice, whatever the run's length
        read_records = 1 << 14
        monkeypatch.setattr(ev, "_READ_RECORDS", read_records)
        rng = np.random.default_rng(25)
        n_x, n_y, n = 16, 12, 100_000
        cal = ev.CalibrationMap(
            gain=rng.uniform(0.04, 0.06, (n_y, n_x)),
            offset=rng.uniform(-0.2, 0.2, (n_y, n_x)),
            residual=np.zeros((n_y, n_x)),
            dead=rng.random((n_y, n_x)) < 0.1,
        )
        det = DetectorSpec(
            n_x=n_x, n_y=n_y, e_min=0.0, e_bin_width=0.05, n_bins=512, threshold=2.0
        )
        path = tmp_path / "run.tpxe"
        write_events_file(
            path,
            make_events(
                n_x, n_y,
                rng.integers(0, n_x, n), rng.integers(0, n_y, n),
                rng.integers(0, 600, n),
            ),
        )
        buffer = read_records * ev.RECORD_DTYPE.itemsize
        tracemalloc.start()
        try:
            with ev.open_events(path) as source:
                cube = ev.apply_calibration(source, cal, det)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cube.stats.detected > 0
        assert peak < dense(cube).nbytes + buffer + 3 * buffer, peak

    def test_band_edges(self):
        cal = self.identity_cal()
        det = DetectorSpec(
            n_x=4, n_y=4, threshold=2.0, e_min=0.0, e_bin_width=0.25, n_bins=100
        )
        # 2 keV sits exactly on the threshold, 25 keV exactly on the upper
        # band edge e_min + n_bins * e_bin_width
        el = make_events(4, 4, [0, 1, 2], [0, 0, 0], [2, 25, 24])
        cube = ev.apply_calibration(el, cal, det)
        assert (cube.stats.below_threshold, cube.stats.out_of_band) == (0, 1)
        assert cube.stats.detected == 2
        assert dense(cube)[0, 0, 8] == 1  # bin floor(2 / 0.25)
        assert dense(cube)[0, 2, 96] == 1
        assert dense(cube)[0, 1].sum() == 0


class TestLineSet:
    def test_default_is_increasing(self):
        ls = ev.default_line_set()
        assert list(ls.labels) == ["Ti", "Fe", "Cu", "Zr", "Ag"]
        assert np.all(np.diff(ls.energies) > 0)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            ev.LineSet((("A", 8.0), ("B", 4.0)))

    def test_rejects_single_line(self):
        with pytest.raises(ValueError):
            ev.LineSet((("A", 8.0),))

    def test_rejects_repeated_label(self):
        # each label names one event file, so a repeat fits one file twice
        with pytest.raises(ValueError, match="distinct"):
            ev.LineSet((("A", 4.5), ("A", 8.05)))

    @pytest.mark.parametrize(
        "lines",
        [
            (("A", 4.5), ("B", float("nan"))),
            (("A", 4.5), ("B", float("inf"))),
            (("A", -1.0), ("B", 8.0)),
            (("A", 0.0), ("B", 8.0)),
        ],
        ids=["nan", "inf", "negative", "zero"],
    )
    def test_rejects_energy_not_finite_and_positive(self, lines):
        # NaN passes the ordering test, as every comparison with it is false
        with pytest.raises(ValueError, match="finite and > 0"):
            ev.LineSet(lines)


class TestCalibrationCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        cal = ev.CalibrationMap(
            gain=rng.uniform(0.04, 0.06, (4, 4)),
            offset=rng.uniform(-0.2, 0.2, (4, 4)),
            residual=rng.uniform(0, 0.01, (4, 4)),
            dead=np.zeros((4, 4), dtype=bool),
        )
        cal.dead[2, 3] = True
        path = tmp_path / "cal.csv"
        ev.write_calibration_csv(path, cal)
        back = ev.read_calibration_csv(path)
        assert np.array_equal(back.dead, cal.dead)
        alive = ~cal.dead
        assert np.allclose(back.gain[alive], cal.gain[alive])
        assert np.allclose(back.offset[alive], cal.offset[alive])
        assert np.allclose(back.residual[alive], cal.residual[alive])

    @pytest.mark.parametrize("whole", [False, True])
    def test_text_is_repr(self, tmp_path, whole):
        # x, y and dead as integers and each fit value as its repr, the
        # fit values of a dead pixel as nan whatever the map holds; a map
        # of whole numbers takes the integer digits plus ".0"
        rng = np.random.default_rng(8)
        shape = (7, 700)
        if whole:
            maps = [np.ones(shape), np.zeros(shape), np.full(shape, 2.0**52)]
        else:
            maps = [rng.normal(0.05, 0.01, shape), rng.normal(0.0, 0.2, shape),
                    rng.exponential(1e-3, shape)]
            maps[0][0, :4] = [1.0, 0.0, -0.0, 2.0**53]
            maps[2][1, :3] = [1e-20, 1e16, 5e-324]
        dead = rng.random(shape) < 0.1
        dead[:, 0] = whole  # a pixel with its fit values, yet flagged
        cal = ev.CalibrationMap(*maps, dead=dead)
        path = tmp_path / "cal.csv"
        ev.write_calibration_csv(path, cal)
        rows = zip(*(a.ravel().tolist() for a in (*np.indices(shape)[::-1], *maps, dead)))
        want = "x,y,gain,offset,residual,dead\n" + "".join(
            f"{x},{y},nan,nan,nan,1\n" if d else f"{x},{y},{g!r},{o!r},{r!r},0\n"
            for x, y, g, o, r, d in rows
        )
        assert path.read_bytes() == want.encode()

    def test_one_row_per_pixel(self, tmp_path):
        # dead pixels keep their row, so a map whose edge pixels are all
        # dead still reads back at full size
        dead = np.ones((3, 5), dtype=bool)
        dead[0, 0] = False
        cal = ev.CalibrationMap(
            gain=np.where(dead, np.nan, 0.05),
            offset=np.where(dead, np.nan, 0.1),
            residual=np.where(dead, np.nan, 0.0),
            dead=dead,
        )
        path = tmp_path / "cal.csv"
        ev.write_calibration_csv(path, cal)
        assert len(path.read_text().splitlines()) == 1 + 3 * 5
        back = ev.read_calibration_csv(path)
        assert (back.n_y, back.n_x) == (3, 5)
        assert np.array_equal(back.dead, dead)
