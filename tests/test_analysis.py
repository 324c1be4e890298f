import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mpoxrf import analysis as an, sic
from mpoxrf.optics import IRIDIUM, MpoGeometry
from mpoxrf.sim import SpectralImage
from support import arm_extent, detector_of, window_image, window_of

GEOM = MpoGeometry(plate_side=20.0, thickness_t=1.2, pore_width_w=20.0, pitch_p=25.0)


def image(values, pitch_um=55.0):
    return an.Image2D(values=np.asarray(values, float), pitch_um=pitch_um)


def gaussian_image(n=128, sigma_mm=0.5, pitch_um=55.0, cx=None, cy=None):
    if cx is None:
        cx = n // 2
    if cy is None:
        cy = n // 2
    pitch = pitch_um * 1e-3
    ys, xs = np.mgrid[0:n, 0:n]
    r_sq = ((xs - cx) * pitch) ** 2 + ((ys - cy) * pitch) ** 2
    return image(np.exp(-r_sq / (2 * sigma_mm**2)), pitch_um)


def small_cube(counts, e_min=0.0, width=0.25, pitch=55.0):
    counts = np.asarray(counts, np.uint64)
    return SpectralImage.from_counts(
        counts, detector_of(counts, e_min=e_min, e_bin_width=width, pitch=pitch)
    )


class TestEnergyWindow:
    # the window of a cube is read from its file: sic.read_window is the one
    # way from a cube to an image
    def test_full_range_totals(self, tmp_path):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 5, (4, 4, 10)).astype(np.uint64)
        img = window_of(small_cube(counts), tmp_path / "c.sic", 0.0, 10.0)
        assert np.array_equal(img.values, counts.sum(axis=2).astype(float))

    def test_additivity_over_adjacent_windows(self, tmp_path):
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 7, (8, 8, 40)).astype(np.uint64)
        cube = small_cube(counts)
        path = tmp_path / "c.sic"
        sic.write_sic(path, cube)
        a = sic.read_window(path, 0.0, 3.25)
        b = sic.read_window(path, 3.25, 10.0)
        c = sic.read_window(path, 0.0, 10.0)
        assert np.array_equal(a.values + b.values, c.values)
        assert np.array_equal(a.values, window_image(cube, 0.0, 3.25))

    def test_empty_window_is_zero_image(self, tmp_path, caplog):
        cube = small_cube(np.ones((2, 2, 4), np.uint64))
        with caplog.at_level("WARNING"):
            img = window_of(cube, tmp_path / "c.sic", 50.0, 60.0)
        assert np.all(img.values == 0)
        assert any("covers no bin" in m for m in caplog.messages)

    def test_bad_bounds(self, tmp_path):
        path = tmp_path / "c.sic"
        sic.write_sic(path, small_cube(np.ones((2, 2, 4), np.uint64)))
        with pytest.raises(ValueError):
            sic.read_window(path, 5.0, 5.0)

    @given(
        e_min=st.floats(-50.0, 50.0),
        width=st.floats(1e-9, 10.0),
        n_bins=st.integers(1, 3000),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_window_bins_equal_searchsorted(self, e_min, width, n_bins, data):
        # the bisection picks the run that np.searchsorted picks on an array
        # of the bin centers, also at an exact center, its float neighbours
        # and the infinities
        centers = e_min + (np.arange(n_bins) + 0.5) * width
        near = st.sampled_from(centers.tolist()).flatmap(
            lambda c: st.sampled_from(
                [c, np.nextafter(c, -math.inf), np.nextafter(c, math.inf)]
            )
        )
        edge = near | st.floats(allow_nan=False)
        lo, hi = data.draw(edge), data.draw(edge)
        assume(lo < hi)
        want = slice(*np.searchsorted(centers, [lo, hi]).tolist())
        assert an.window_bins(e_min, width, n_bins, lo, hi) == want

    def test_window_bins_of_billions_of_bins(self):
        # found by bisection: no array of 2^32 - 1 centers is built
        assert an.window_bins(0.0, 0.1, 2**32 - 1, 6.0, 9.0) == slice(60, 90)


class TestFlatField:
    def test_self_division_is_unity(self):
        rng = np.random.default_rng(2)
        vals = rng.uniform(10, 50, (16, 16))
        vals_mean1 = vals / vals.mean()
        out, good = an.flat_field_correct(image(vals_mean1), image(vals_mean1))
        assert np.allclose(out.values[good], 1.0)
        assert good.all()
        # any identical pair comes out constant (sensitivity removed)
        out2, _ = an.flat_field_correct(image(vals), image(vals))
        assert np.allclose(out2.values, out2.values[0, 0])

    def test_uniform_flat_is_identity(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(0, 9, (8, 8))
        out, _ = an.flat_field_correct(image(vals), image(np.full((8, 8), 7.0)))
        assert np.allclose(out.values, vals)

    def test_zero_flat_pixel_masked_not_infinite(self):
        vals = np.full((4, 4), 5.0)
        flat = np.full((4, 4), 2.0)
        flat[1, 2] = 0.0
        out, good = an.flat_field_correct(image(vals), image(flat))
        assert out.values[1, 2] == 0.0
        assert not good[1, 2]
        assert good.sum() == 15
        assert np.all(np.isfinite(out.values))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            an.flat_field_correct(image(np.ones((4, 4))), image(np.ones((4, 5))))

    def test_non_positive_mean_flat_is_analysis_error(self):
        with pytest.raises(an.AnalysisError, match="non-positive mean"):
            an.flat_field_correct(image(np.ones((2, 2))), image(np.zeros((2, 2))))


class TestFindPsfCenter:
    def test_single_pixel(self):
        vals = np.zeros((256, 256))
        vals[120, 100] = 9.0  # row (y) 120, column (x) 100
        assert an.find_psf_center(image(vals)) == (100.0, 120.0)

    def test_symmetric_cross_subpixel(self):
        n = 256
        vals = np.zeros((n, n))
        # symmetric 2x2 plateau centered at (128.5, 128.5) plus arms
        vals[128:130, 128:130] = 50.0
        vals[128:130, 100:158] += 3.0
        vals[100:158, 128:130] += 3.0
        cx, cy = an.find_psf_center(image(vals))
        assert cx == pytest.approx(128.5, abs=0.5)
        assert cy == pytest.approx(128.5, abs=0.5)

    def test_tie_breaks_to_lowest_index(self):
        vals = np.zeros((64, 64))
        vals[10, 10] = 5.0
        vals[40, 40] = 5.0  # exact tie; lower (y, x) wins
        cx, cy = an.find_psf_center(image(vals))
        assert (cx, cy) == (10.0, 10.0)

    def test_all_zero_rejected(self):
        with pytest.raises(an.AnalysisError):
            an.find_psf_center(image(np.zeros((8, 8))))


class TestArmProfiles:
    def test_constant_image_flat_profiles(self):
        img = image(np.full((32, 32), 4.0))
        h, v = an.extract_arm_profiles(img, (16.0, 16.0))
        assert np.allclose(h.intensities, 4.0)
        assert np.allclose(v.intensities, 4.0)

    def test_synthetic_cross_three_row_average(self):
        vals = np.zeros((64, 64))
        vals[32, :] = 3.0
        vals[:, 32] = 3.0
        h, v = an.extract_arm_profiles(image(vals), (32.0, 32.0))
        off = np.abs(h.positions) > 0.1
        # one of the three averaged rows is the arm row
        assert np.allclose(h.intensities[off], 1.0)
        assert np.allclose(v.intensities[np.abs(v.positions) > 0.1], 1.0)
        assert h.intensities[32] == pytest.approx(3.0)

    def test_positions_span_image_width(self):
        img = image(np.ones((64, 64)), pitch_um=55.0)
        h, _ = an.extract_arm_profiles(img, (32.0, 32.0))
        assert h.positions.max() - h.positions.min() == pytest.approx(
            63 * 0.055, rel=1e-9
        )

    @pytest.mark.parametrize("rows", [0, 2, 4])
    def test_even_or_no_rows_refused(self, rows):
        # a profile centred on one row averages an odd count of rows; the
        # settings that feed extract_arm_profiles hold that rule
        rule = ">= 1" if rows < 1 else "odd"
        message = f"rows_averaged must be {rule}, got {rows}"
        with pytest.raises(ValueError, match=message):
            an.AnalysisParams(rows_averaged=rows)

    def test_center_near_edge_rejected(self):
        img = image(np.ones((16, 16)))
        with pytest.raises(an.AnalysisError):
            an.extract_arm_profiles(img, (0.0, 8.0))


class TestFwhm:
    def test_triangle(self):
        pos = np.linspace(-2.0, 2.0, 401)
        vals = np.clip(1.0 - np.abs(pos), 0.0, None)
        prof = an.PsfProfile(pos, vals)
        assert an.fwhm(prof) == pytest.approx(1.0, abs=1e-6)

    def test_gaussian(self):
        pos = np.linspace(-3.0, 3.0, 1201)
        vals = np.exp(-0.5 * (pos / 0.2) ** 2)
        prof = an.PsfProfile(pos, vals)
        assert an.fwhm(prof) == pytest.approx(0.471, abs=0.005)

    def test_gaussian_sigma_sweep_one_percent(self):
        # 2.3548 sigma within 1% whenever sigma covers >= 2 sample pitches
        pitch = 0.055
        pos = (np.arange(256) - 128) * pitch
        for sigma in (0.11, 0.2, 0.5, 1.0):
            vals = np.exp(-0.5 * (pos / sigma) ** 2)
            prof = an.PsfProfile(pos, vals)
            assert an.fwhm(prof) == pytest.approx(2.3548 * sigma, rel=0.01)

    def test_background_offset_handled(self):
        pos = np.linspace(-2.0, 2.0, 401)
        vals = 5.0 + np.clip(1.0 - np.abs(pos), 0.0, None)
        prof = an.PsfProfile(pos, vals)
        assert an.fwhm(prof) == pytest.approx(1.0, abs=1e-6)

    def test_flat_profile_rejected(self):
        pos = np.linspace(-1, 1, 100)
        prof = an.PsfProfile(pos, np.ones(100))
        with pytest.raises(an.AnalysisError):
            an.fwhm(prof)

    def test_one_sided_profile_rejected(self):
        pos = np.linspace(0.0, 1.0, 100)
        vals = np.linspace(1.0, 0.0, 100)  # peak at the left edge
        prof = an.PsfProfile(pos, vals)
        with pytest.raises(an.AnalysisError, match="left"):
            an.fwhm(prof)


class TestExpectedExtents:
    def test_copper_arm(self):
        assert an.expected_arm_half_length(8.0, IRIDIUM, 25, 25) == pytest.approx(
            0.54, abs=0.01
        )

    def test_titanium_arm(self):
        assert an.expected_arm_half_length(4.5, IRIDIUM, 25, 25) == pytest.approx(
            0.96, abs=0.01
        )

    def test_arm_ratio_is_energy_ratio(self):
        ti = an.expected_arm_half_length(4.5, IRIDIUM, 25, 25)
        cu = an.expected_arm_half_length(8.0, IRIDIUM, 25, 25)
        assert ti / cu == pytest.approx(8.0 / 4.5, rel=1e-3)  # tan() breaks it slightly

    def test_direct_width(self):
        assert an.expected_direct_half_width(GEOM, 25, 25) == pytest.approx(
            0.8333, abs=1e-3
        )

    def test_direct_width_energy_blind_and_thickness_limit(self):
        # no energy argument at all, by construction
        thick = MpoGeometry(
            plate_side=20.0, thickness_t=1200.0, pore_width_w=20.0, pitch_p=25.0
        )
        assert an.expected_direct_half_width(thick, 25, 25) < 1e-3


class TestGaussianWindow:
    def test_center_value_unchanged(self):
        img = gaussian_image()
        out = an.gaussian_window(img, 1.0, (64.0, 64.0))
        assert out.values[64, 64] == pytest.approx(img.values[64, 64])

    def test_value_at_sigma(self):
        img = image(np.ones((65, 65)), pitch_um=1000.0)  # 1 mm pixels
        out = an.gaussian_window(img, 3.0, (32.0, 32.0))
        assert out.values[32, 35] == pytest.approx(math.exp(-0.5), rel=1e-9)

    def test_huge_sigma_is_identity(self):
        img = gaussian_image(n=64)
        out = an.gaussian_window(img, 1e6, (32.0, 32.0))
        assert np.allclose(out.values, img.values, rtol=1e-6)

    def test_bad_sigma(self):
        # the settings that feed gaussian_window hold its sigma's range
        for sigma in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="window_sigma_mm must be positive"):
                an.AnalysisParams(window_sigma_mm=sigma)


def mirror(n):
    """The index of -k for each DFT index k of an n-long axis."""
    return -np.arange(n) % n


class TestAtf:
    @pytest.mark.parametrize(
        "shape", [(64, 64), (31, 45), (32, 17), (17, 32), (1, 40), (40, 1), (1, 1)])
    def test_exactly_mirror_symmetric(self, shape):
        rng = np.random.default_rng(11)
        values = rng.gamma(2.0, 5.0, shape)
        amp = an.atf(image(values)).amplitude
        n_y, n_x = shape
        assert np.array_equal(amp, amp[mirror(n_y)][:, mirror(n_x)])
        full = np.abs(np.fft.fft2(values))
        assert np.abs(amp - full).max() <= 1e-12 * full.max()

    def test_delta_image_flat_spectrum(self):
        vals = np.zeros((32, 32))
        vals[5, 9] = 3.0
        t = an.atf(image(vals))
        assert np.allclose(t.amplitude, 3.0)

    def test_translation_invariance(self):
        img = gaussian_image(n=64, sigma_mm=0.3)
        shifted = image(np.roll(img.values, (7, -11), axis=(0, 1)))
        t0 = an.atf(img)
        t1 = an.atf(shifted)
        assert np.allclose(t1.amplitude, t0.amplitude, rtol=1e-10, atol=1e-9)

    def test_constant_image_dc_only(self):
        t = an.atf(image(np.full((16, 16), 2.0)))
        assert t.dc == pytest.approx(2.0 * 256)
        rest = t.amplitude.copy()
        rest[0, 0] = 0.0
        assert np.allclose(rest, 0.0, atol=1e-9)

    def test_frequency_axes_in_lp_per_mm(self):
        t = an.atf(image(np.ones((64, 64)), pitch_um=55.0))
        assert t.freq_x[1] == pytest.approx(1.0 / (64 * 0.055))
        assert abs(t.freq_x).max() <= 1.0 / (2 * 0.055) + 1e-9


class TestAverageAtf:
    def test_average_of_identical_is_identity(self):
        t = an.atf(gaussian_image(n=32))
        avg = an.average_atf([t, t, t])
        assert np.allclose(avg.amplitude, t.amplitude)

    def test_variance_strictly_decreases(self):
        rng = np.random.default_rng(5)
        base = gaussian_image(n=64, sigma_mm=0.4)
        singles = []
        for _ in range(3):
            noisy = image(rng.poisson(base.values * 200).astype(float))
            singles.append(an.atf(noisy))
        avg = an.average_atf(singles)
        ref = an.atf(image(base.values * 200))
        err_single = [
            float(((s.amplitude - ref.amplitude) ** 2).mean()) for s in singles
        ]
        err_avg = float(((avg.amplitude - ref.amplitude) ** 2).mean())
        assert err_avg < min(err_single)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            an.average_atf([an.atf(gaussian_image(32)), an.atf(gaussian_image(64))])


class TestIdealizedPsf:
    def test_centered_positive_spectrum_psf_reproduced(self):
        # a Gaussian has a non-negative spectrum, so the zero-phase inverse
        # reproduces it exactly up to normalization
        img = gaussian_image(n=64, sigma_mm=0.3, cx=32, cy=32)
        ideal = an.idealized_psf(an.atf(img), img.pitch_um)
        # rectification of the truncated spectrum's ~1e-8 negative ripple
        # bounds the reconstruction error
        assert np.allclose(ideal.values, img.values / img.values.max(), atol=1e-6)

    def test_translated_input_recentered(self):
        img = gaussian_image(n=64, sigma_mm=0.3, cx=11, cy=50)
        ideal = an.idealized_psf(an.atf(img), img.pitch_um)
        peak = np.unravel_index(np.argmax(ideal.values), ideal.values.shape)
        assert peak == (32, 32)

    def test_constant_spectrum_gives_centered_delta(self):
        t = an.Atf(
            amplitude=np.ones((32, 32)),
            freq_x=np.fft.fftfreq(32, 0.055),
            freq_y=np.fft.fftfreq(32, 0.055),
        )
        ideal = an.idealized_psf(t, 55.0)
        assert ideal.values[16, 16] == pytest.approx(1.0)
        rest = ideal.values.copy()
        rest[16, 16] = 0.0
        assert np.abs(rest).max() < 1e-12

    def test_parseval_consistency(self):
        img = gaussian_image(n=64, sigma_mm=0.4)
        t = an.atf(img)
        raw = np.real(np.fft.ifft2(t.amplitude))
        even = np.fft.fftshift((raw + raw[mirror(64)][:, mirror(64)]) / 2)
        energy_spectrum = float((t.amplitude**2).sum()) / raw.size
        for inverse in (raw, even):
            energy_image = float((inverse**2).sum())
            assert energy_image == pytest.approx(energy_spectrum, rel=1e-9)
        # the idealized PSF is the even part of that inverse, recentered and
        # scaled to a peak of 1
        ideal = an.idealized_psf(t, img.pitch_um)
        assert np.array_equal(ideal.values, even / even.max())

    @pytest.mark.parametrize("shape", [(64, 64), (31, 45), (32, 17), (1, 40), (40, 1)])
    def test_exactly_symmetric_about_center(self, shape):
        rng = np.random.default_rng(12)
        t = an.atf(image(rng.gamma(2.0, 5.0, shape)))
        ideal = an.idealized_psf(t, 55.0)
        # recentered about pixel (n_y // 2, n_x // 2): undo the shift, mirror
        unshifted = np.fft.ifftshift(ideal.values)
        n_y, n_x = shape
        assert np.array_equal(unshifted, unshifted[mirror(n_y)][:, mirror(n_x)])
        assert ideal.values[n_y // 2, n_x // 2] == 1.0


class TestResolution:
    def test_delta_is_beyond_nyquist(self):
        vals = np.zeros((64, 64))
        vals[32, 32] = 1.0
        assert an.resolution_lp_per_mm(an.atf(image(vals))) is None

    def test_gaussian_closed_form(self):
        # amplitude exp(-2 pi^2 sigma^2 f^2) crosses 0.1 at
        # f = sqrt(ln 10 / (2 pi^2 sigma^2)) = 0.683 lp/mm for sigma = 0.5
        img = gaussian_image(n=512, sigma_mm=0.5, pitch_um=55.0)
        res = an.resolution_lp_per_mm(an.atf(img), 0.1)
        expect = math.sqrt(math.log(10.0) / (2 * math.pi**2 * 0.25))
        df = 1.0 / (512 * 0.055)
        assert res == pytest.approx(expect, abs=2 * df)

    def test_image_without_counts_is_analysis_error(self):
        # the DC is 0, so no amplitude can fall below a fraction of it
        with pytest.raises(an.AnalysisError, match=r"no counts \(ATF DC 0\.0\)"):
            an.resolution_lp_per_mm(an.atf(image(np.zeros((16, 16)))))

    def test_threshold_validated(self):
        # the settings that feed resolution_lp_per_mm hold its range
        for threshold in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match=r"threshold must be in \(0, 1\)"):
                an.AnalysisParams(resolution_threshold=threshold)


class TestBackgroundLevel:
    def test_constant_image(self):
        img = image(np.full((64, 64), 3.5))
        assert an.background_level(img, 0.5, (32, 32)) == pytest.approx(3.5)

    def test_cross_on_zero_background(self):
        vals = np.zeros((64, 64))
        vals[32, :] = 9.0
        vals[:, 32] = 9.0
        img = image(vals)
        assert an.background_level(img, 0.3, (32.0, 32.0)) == 0.0

    def test_oversized_exclusion_rejected(self):
        img = image(np.ones((32, 32)))
        with pytest.raises(an.AnalysisError, match="exclusion radius"):
            an.background_level(img, 10.0, (16, 16))


class TestArmExtent:
    def test_triangle_arm_extent(self):
        pos = np.linspace(-2.0, 2.0, 801)
        vals = np.clip(1.0 - np.abs(pos) / 1.0, 0.0, None)  # arm ends at 1 mm
        prof = an.PsfProfile(pos, vals)
        ext = arm_extent(prof, core_exclude_mm=0.2, frac=0.1)
        # 10% of the arm peak (at the exclusion edge, 0.8) crosses at 1 - 0.08
        assert ext == pytest.approx(0.92, abs=0.01)

    def test_no_arm_signal_rejected(self):
        pos = np.linspace(-2.0, 2.0, 101)
        prof = an.PsfProfile(pos, np.zeros(101))
        with pytest.raises(an.AnalysisError):
            arm_extent(prof)
