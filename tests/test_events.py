import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpoxrf import events as ev
from mpoxrf.sim import DetectorSpec


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


class TestTpxeFormat:
    def test_roundtrip_small(self):
        el = make_events(256, 256, [0, 255, 7], [255, 0, 9], [1, 65535, 160])
        back = ev.parse_events(ev.write_events(el))
        for f in ("x", "y", "tot", "toa"):
            assert np.array_equal(getattr(el, f), getattr(back, f))
        assert (back.n_x, back.n_y) == (256, 256)

    def test_roundtrip_large_random(self):
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
        back = ev.parse_events(ev.write_events(el))
        for f in ("x", "y", "tot", "toa"):
            assert np.array_equal(getattr(el, f), getattr(back, f))

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
        back = ev.parse_events(ev.write_events(el))
        for f in ("x", "y", "tot", "toa"):
            assert np.array_equal(getattr(el, f), getattr(back, f))

    def test_empty_stream(self):
        el = ev.EventList.empty(64, 32)
        back = ev.parse_events(ev.write_events(el))
        assert len(back) == 0
        assert (back.n_x, back.n_y) == (64, 32)

    def test_bad_magic_offset_zero(self):
        data = ev.write_events(ev.EventList.empty(8, 8))
        with pytest.raises(ev.EventFormatError) as err:
            ev.parse_events(b"NOPE" + data[4:])
        assert err.value.offset == 0

    def test_version_mismatch_offset(self):
        data = bytearray(ev.write_events(ev.EventList.empty(8, 8)))
        data[4:8] = (99).to_bytes(4, "little")
        with pytest.raises(ev.EventFormatError) as err:
            ev.parse_events(bytes(data))
        assert err.value.offset == 4

    def test_truncated_mid_record(self):
        el = make_events(8, 8, [1, 2, 3], [1, 2, 3], [10, 20, 30])
        data = ev.write_events(el)
        with pytest.raises(ev.EventFormatError) as err:
            ev.parse_events(data[:-5])  # cuts into the third record
        assert err.value.offset == ev.HEADER.size + 2 * 16
        assert "2 of 3" in str(err.value)

    def test_out_of_range_pixel_offset(self):
        el = make_events(8, 8, [1, 2], [1, 2], [10, 20])
        data = bytearray(ev.write_events(el))
        # corrupt the second record's x to 300 (>= 8)
        rec2 = ev.HEADER.size + 16
        data[rec2 : rec2 + 2] = (300).to_bytes(2, "little")
        with pytest.raises(ev.EventFormatError) as err:
            ev.parse_events(bytes(data))
        assert err.value.offset == rec2

    def test_truncated_header(self):
        with pytest.raises(ev.EventFormatError):
            ev.parse_events(b"TPXE\x01")

    def test_file_error_names_path(self, tmp_path):
        el = make_events(8, 8, [1, 2, 3], [1, 2, 3], [10, 20, 30])
        path = tmp_path / "cut.tpxe"
        path.write_bytes(ev.write_events(el)[:-5])
        with pytest.raises(ev.EventFormatError) as err:
            ev.parse_events_file(path)
        assert err.value.offset == ev.HEADER.size + 2 * 16
        assert str(err.value) == (
            f"{path}: stream ends after 2 of 3 records (byte offset 56)"
        )

    def test_file_roundtrip(self, tmp_path):
        el = make_events(16, 16, [3], [4], [500])
        path = tmp_path / "ev.tpxe"
        ev.write_events_file(path, el)
        back = ev.parse_events_file(path)
        assert np.array_equal(back.tot, el.tot)


class TestSynthesize:
    def test_identity_calibration_no_noise(self):
        gain = np.ones((4, 4))
        offset = np.zeros((4, 4))
        el = ev.synthesize_line_events(
            8.0, gain, offset, 10, np.random.default_rng(0), energy_fwhm=0.0
        )
        assert np.all(el.tot == 8)
        assert len(el) == 160

    def test_gain_offset_inversion(self):
        gain = np.full((2, 2), 0.02)
        offset = np.full((2, 2), 1.0)
        el = ev.synthesize_line_events(
            8.0, gain, offset, 5, np.random.default_rng(0), energy_fwhm=0.0
        )
        assert np.all(el.tot == 350)  # (8 - 1) / 0.02

    def test_noise_width_propagates(self):
        gain = np.full((1, 1), 0.05)
        offset = np.zeros((1, 1))
        el = ev.synthesize_line_events(
            8.0, gain, offset, 40_000, np.random.default_rng(4), energy_fwhm=1.12
        )
        expect = (1.12 / 2.3548) / 0.05
        assert el.tot.astype(float).std() == pytest.approx(expect, rel=0.03)

    def test_rejects_bad_gain(self):
        with pytest.raises(ValueError):
            ev.synthesize_line_events(
                8.0, np.zeros((2, 2)), np.zeros((2, 2)), 5, np.random.default_rng(0)
            )


def scalar_line_peak(histogram):
    """One histogram at a time, walking out from the argmax: the oracle
    for the vectorized pass of ``find_line_peaks``."""
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
    """A few distinct rows, repeated in random order to a row count that
    straddles the peak pass's chunk boundaries."""
    n_bins = draw(st.integers(1, 12))
    row = st.one_of(
        st.lists(elements, min_size=n_bins, max_size=n_bins),
        st.just([0] * n_bins),
    )
    rows = draw(st.lists(row, min_size=1, max_size=8))
    n_rows = draw(
        st.one_of(st.integers(1, 20), st.integers(1, 3 * ev._PEAK_ROWS + 1))
    )
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
        0, len(rows), n_rows
    )
    return rows, order


class TestFindLinePeaks:
    def test_single_spike(self):
        h = np.zeros(300)
        h[160] = 50
        assert ev.find_line_peaks(h) == 160.0

    def test_symmetric_gaussian(self):
        bins = np.arange(300)
        h = np.exp(-0.5 * ((bins - 160.0) / 9.0) ** 2) * 1000
        assert ev.find_line_peaks(h) == pytest.approx(160.0, abs=0.1)

    def test_bimodal_takes_taller_mode(self):
        h = np.zeros(300)
        h[50:55] = [10, 30, 60, 30, 10]
        h[200:205] = [20, 50, 100, 50, 20]
        loc = ev.find_line_peaks(h)
        assert loc == pytest.approx(202.0, abs=0.5)

    def test_empty_histogram(self):
        assert ev.find_line_peaks(np.zeros(10)) is None
        assert ev.find_line_peaks(np.array([])) is None

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
        assert ev.find_line_peaks(np.array(row)) == scalar_line_peak(row)

    def test_one_column_and_empty_blocks(self):
        got = ev.find_line_peaks(np.array([[3], [0], [1]]))
        assert np.array_equal(got, [0.0, np.nan, 0.0], equal_nan=True)
        assert ev.find_line_peaks(np.zeros((4, 0))).shape == (4,)
        assert ev.find_line_peaks(np.zeros((0, 7))).shape == (0,)

    @given(histogram_blocks(st.one_of(st.integers(0, 3), st.integers(0, 2**31))))
    @settings(max_examples=150, deadline=None)
    def test_integer_block_equals_scalar_oracle(self, block):
        rows, order = block
        rows = np.array(rows, dtype=np.int64)
        got = ev.find_line_peaks(rows[order])
        assert np.array_equal(got, oracle_block(rows)[order], equal_nan=True)
        for r in rows:
            assert ev.find_line_peaks(r) == scalar_line_peak(r)

    @given(
        histogram_blocks(
            st.floats(0.0, 1e6, allow_nan=False, allow_subnormal=False)
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_float_block_matches_scalar_oracle(self, block):
        rows, order = block
        rows = np.array(rows, dtype=float)
        got = ev.find_line_peaks(rows[order])
        want = oracle_block(rows)[order]
        assert np.array_equal(np.isnan(got), np.isnan(want))
        ok = ~np.isnan(want)
        np.testing.assert_allclose(got[ok], want[ok], rtol=1e-12, atol=0)


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
            label: ev.synthesize_line_events(e_kev, gain, offset, 2000, rng)
            for label, e_kev in ls.lines
        }
        cal = ev.calibrate_from_events(per_line, ls)
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
            spectrum = cube.counts.sum(axis=(0, 1)).astype(float)
            pk = ev.find_line_peaks(spectrum)
            e_peak = det.e_min + (pk + 0.5) * det.e_bin_width
            assert e_peak == pytest.approx(e_kev, abs=0.1), label

    def test_missing_line_listed(self):
        ls = ev.default_line_set()
        with pytest.raises(ValueError, match="Zr"):
            ev.calibrate_from_events({"Ti": ev.EventList.empty(4, 4)}, ls)


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
        assert cube.counts[:, :, b].sum() == 3
        assert cube.counts.sum() == 3

    def test_dead_pixel_events_dropped_and_counted(self):
        cal = self.identity_cal()
        cal.dead[1, 1] = True
        det = DetectorSpec(n_x=4, n_y=4, threshold=2.0)
        el = make_events(4, 4, [1, 2, 1], [1, 2, 1], [8, 8, 9])
        cube = ev.apply_calibration(el, cal, det)
        assert cube.stats.dead_pixel_drops == 2
        assert cube.counts.sum() == 1

    def test_threshold_drops(self):
        cal = self.identity_cal()
        det = DetectorSpec(n_x=4, n_y=4, threshold=2.0)
        el = make_events(4, 4, [0, 1], [0, 1], [1, 8])  # 1 keV is below threshold
        cube = ev.apply_calibration(el, cal, det)
        assert cube.stats.below_threshold == 1
        assert cube.counts.sum() == 1

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
        assert cube.counts.sum() == s.detected
        assert cube.counts[0, 1].sum() == cube.counts[3, 2].sum() == 0

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
        assert cube.counts[0, 0, 8] == 1  # bin floor(2 / 0.25)
        assert cube.counts[0, 2, 96] == 1
        assert cube.counts[0, 1].sum() == 0


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
