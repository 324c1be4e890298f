"""Acceptance criteria, one test per criterion, run at stated tolerances.

Each test prints a single `ACCEPTANCE <n> PASS: ...` line once its
assertions hold; the line bypasses pytest's capture so it shows up in any
invocation. A failing criterion surfaces as the pytest FAILED line.
"""

import math

import numpy as np
import pytest

from mpoxrf import analysis as an
from mpoxrf import cli, events as ev, sic
from mpoxrf.optics import IRIDIUM, MpoGeometry, _unfold_vec, critical_angle_deg
from mpoxrf.sim import DetectorSpec, Scene, Source, simulate
from support import arm_extent, march_plane, synthesize_line_events, write_events

REFERENCE_MPO = MpoGeometry(
    plate_side=20.0, thickness_t=1.2, pore_width_w=20.0, pitch_p=25.0
)
# plate on which the double-reflection (de-focusing) arms are resolvable
# for both lines: tan(theta_c) * t / w > 1 at 8 keV needs t > 1.85 mm
ARM_MPO = MpoGeometry(
    plate_side=20.0, thickness_t=2.4, pore_width_w=20.0, pitch_p=25.0
)


def point_scene(energy, L_s=25.0, L_i=25.0, x=0.0, z=0.0, label="src"):
    return Scene(
        sources=(Source(label, ((energy, 1.0),), (x, -L_s, z)),), L_s=L_s, L_i=L_i
    )


@pytest.fixture
def report(capsys):
    """Announce a passed criterion outside pytest's capture."""

    def _report(n, text):
        with capsys.disabled():
            print(f"\nACCEPTANCE {n} PASS: {text}", flush=True)

    return _report


def test_criterion_1_critical_angle_reproduction(report):
    ti = critical_angle_deg(4.5, IRIDIUM)
    cu = critical_angle_deg(8.0, IRIDIUM)
    assert ti == pytest.approx(1.10, abs=0.02)
    assert cu == pytest.approx(0.62, abs=0.02)
    report(1, f"critical angles {ti:.4f} deg (Ti, 1.10+-0.02) and "
              f"{cu:.4f} deg (Cu, 0.62+-0.02)")


def test_criterion_2_oracle_equivalence(report):
    rng = np.random.default_rng(424242)
    n = 100_000
    rays = np.empty((n, 4))  # w, t_um, u, s
    for k in range(n):
        w = rng.uniform(5.0, 50.0)
        t_um = rng.uniform(300.0, 3000.0)
        rays[k] = w, t_um, rng.uniform(0.0, w), rng.uniform(-0.1, 0.1)
    w, t_um, u, s = rays.T
    exit_a, slope_a, n_a = _unfold_vec(u, s, w, t_um)
    worst = 0.0
    for k in range(n):
        exit_m, slope_m, n_m = march_plane(u[k], s[k], w[k], t_um[k])
        assert n_a[k] == n_m, tuple(rays[k])
        err = abs(exit_a[k] - exit_m)
        worst = max(worst, err)
        assert err <= 1e-6  # 1e-9 mm expressed in micrometres
        assert slope_a[k] == pytest.approx(slope_m, rel=1e-12)
    # spot-check both planes of the reference plate's channels, unfolded as
    # one call, against the marcher
    entry, slopes = np.empty((2000, 2)), np.empty((2000, 2))
    for k in range(2000):
        entry[k] = rng.uniform(0.0, 20.0, 2)
        slopes[k] = rng.uniform(-0.05, 0.05, 2)
    t_ref = REFERENCE_MPO.thickness_t * 1e3
    exits, _, bounces = _unfold_vec(entry, slopes, REFERENCE_MPO.pore_width_w, t_ref)
    for (u, v), (sx, sz), (out_u, out_v), (nx, nz) in zip(
        entry, slopes, exits, bounces
    ):
        mx = march_plane(u, sx, 20.0, 1200.0)
        mz = march_plane(v, sz, 20.0, 1200.0)
        assert (nx, nz) == (mx[2], mz[2])
        assert out_u == pytest.approx(mx[0], abs=1e-6)
        assert out_v == pytest.approx(mz[0], abs=1e-6)
    report(2, f"analytic unfolding matches the wall-marching oracle on "
              f"{n} rays (counts exact, worst exit error {worst:.2e} um)")


def test_criterion_3_true_focusing_geometry(report):
    # 27.5 um pixels resolve the focused spot that 55 um pixels floor
    det = DetectorSpec(n_x=512, n_y=512, pitch=27.5)

    cube = simulate(point_scene(8.0), REFERENCE_MPO, det, 10_000_000, seed=33)
    img = an.energy_window(cube, 0.0, 25.0)
    center = an.find_psf_center(img)
    h, v = an.extract_arm_profiles(img, center)
    fwhm_sym = (an.fwhm(h) + an.fwhm(v)) / 2.0
    assert fwhm_sym <= 0.2

    cube_a = simulate(
        point_scene(8.0, L_s=50.0, L_i=20.0), REFERENCE_MPO, det,
        40_000_000, seed=33,
    )
    img_a = an.energy_window(cube_a, 0.0, 25.0)
    center_a = an.find_psf_center(img_a)
    h_a, v_a = an.extract_arm_profiles(img_a, center_a)
    fwhm_asym = (an.fwhm(h_a) + an.fwhm(v_a)) / 2.0
    assert fwhm_asym >= 3.0 * fwhm_sym
    report(3, f"focused FWHM {fwhm_sym:.4f} mm <= 0.2 mm at L_s=L_i=2.5 cm; "
              f"asymmetric (5 cm / 2 cm) FWHM {fwhm_asym:.4f} mm = "
              f"{fwhm_asym / fwhm_sym:.1f}x focused (>= 3x)")


def test_criterion_4_energy_dependent_arms(report):
    det = DetectorSpec()
    results = {}
    for label, energy, seed in (("Ti", 4.5, 91), ("Cu", 8.0, 92)):
        cube = simulate(
            point_scene(energy, label=label), ARM_MPO, det, 200_000_000,
            seed=seed,
        )
        img = an.energy_window(cube, 0.0, 25.0)
        center = an.find_psf_center(img)
        h, v = an.extract_arm_profiles(img, center)
        extent = (arm_extent(h, core_exclude_mm=0.25)
                  + arm_extent(v, core_exclude_mm=0.25)) / 2.0
        model = an.expected_arm_half_length(energy, ARM_MPO.coating, 25.0, 25.0)

        direct = cube.stats.class_images[
            next(k for k in cube.stats.class_images if k.value == "direct")
        ].astype(float)
        direct_img = an.Image2D(values=direct, pitch_um=det.pitch)
        dx, dy = an.find_psf_center(direct_img)
        # profiles pooled over every row and every column: the direct patch
        # is separable, so the pooled profiles keep its width while the peak
        # that sets the half level rests on all of its counts
        pitch = direct_img.pitch_mm
        dh = an.PsfProfile(an.ProfileAxis.HORIZONTAL,
                           (np.arange(direct_img.n_x) - dx) * pitch, direct.sum(axis=0))
        dv = an.PsfProfile(an.ProfileAxis.VERTICAL,
                           (np.arange(direct_img.n_y) - dy) * pitch, direct.sum(axis=1))
        direct_fwhm = (an.fwhm(dh) + an.fwhm(dv)) / 2.0
        results[label] = (extent, model, direct_fwhm)
        assert extent == pytest.approx(model, rel=0.30), label

    ratio = results["Ti"][0] / results["Cu"][0]
    assert ratio == pytest.approx(1.78, rel=0.30)

    direct_model = an.expected_direct_half_width(ARM_MPO, 25.0, 25.0)
    w_ti = results["Ti"][2]
    w_cu = results["Cu"][2]
    assert w_ti == pytest.approx(direct_model, rel=0.30)
    assert w_cu == pytest.approx(direct_model, rel=0.30)
    assert abs(w_ti - w_cu) <= 0.10 * (w_ti + w_cu) / 2.0
    report(4, f"arm extents Ti {results['Ti'][0]:.3f} mm (model "
              f"{results['Ti'][1]:.3f}), Cu {results['Cu'][0]:.3f} mm (model "
              f"{results['Cu'][1]:.3f}), ratio {ratio:.2f} (1.78+-30%); "
              f"direct widths {w_ti:.3f}/{w_cu:.3f} mm energy-independent "
              f"(model {direct_model:.3f})")


def site_counts(img, x_mm, z_mm, radius_mm=1.0):
    ys, xs = np.mgrid[0 : img.n_y, 0 : img.n_x]
    px = (xs - img.n_x / 2 + 0.5) * img.pitch_mm
    pz = (ys - img.n_y / 2 + 0.5) * img.pitch_mm
    return float(img.values[np.hypot(px - x_mm, pz - z_mm) <= radius_mm].sum())


def test_criterion_5_elemental_mapping(report):
    scene = Scene(
        sources=(
            Source("Ti", ((4.5, 1.0),), (-1.5, -25.0, -1.5)),
            Source("Cu", ((8.0, 1.0),), (1.5, -25.0, 1.5)),
        ),
        L_s=25.0,
        L_i=25.0,
    )
    cube = simulate(scene, REFERENCE_MPO, DetectorSpec(), 20_000_000, seed=44)
    ti_img = an.energy_window(cube, 2.5, 5.5)
    cu_img = an.energy_window(cube, 6.0, 9.0)

    ti_same = site_counts(ti_img, -1.5, -1.5)
    ti_cross = site_counts(ti_img, 1.5, 1.5)
    cu_same = site_counts(cu_img, 1.5, 1.5)
    cu_cross = site_counts(cu_img, -1.5, -1.5)
    assert ti_same > 1000 and cu_same > 1000
    assert ti_cross < 0.10 * ti_same
    assert cu_cross < 0.10 * cu_same
    report(5, f"window 2.5-5.5 keV: {ti_same:.0f} counts at the Ti site vs "
              f"{ti_cross:.0f} at the Cu site; window 6-9 keV: {cu_same:.0f} "
              f"at Cu vs {cu_cross:.0f} at Ti (cross-talk < 10%)")


def test_criterion_6_calibration_closure(report):
    rng = np.random.default_rng(20240601)
    n_y = n_x = 64
    n_per_pixel = 10_000
    gain = rng.uniform(0.04, 0.06, (n_y, n_x))
    offset = rng.uniform(-0.2, 0.2, (n_y, n_x))
    line_set = ev.default_line_set()

    peaks = np.empty((len(line_set.lines), n_y, n_x))
    for k, (label, e_kev) in enumerate(line_set.lines):
        for row0 in range(0, n_y, 8):  # stream in slabs to bound memory
            block = synthesize_line_events(
                e_kev, gain[row0 : row0 + 8], offset[row0 : row0 + 8],
                n_per_pixel, rng,
            )
            peaks[k, row0 : row0 + 8] = ev.line_peaks(block)
    cal = ev.fit_calibration(peaks, line_set)
    assert cal.n_dead == 0
    rel = (cal.gain - gain) / gain
    rms = float(np.sqrt((rel**2).mean()))
    assert rms < 0.01

    det = DetectorSpec(
        n_x=n_x, n_y=n_y, e_min=0.0, e_bin_width=0.05, n_bins=600,
        threshold=2.0, energy_fwhm=0.0,
    )
    worst = 0.0
    for label, e_kev in line_set.lines:
        fresh = synthesize_line_events(e_kev, gain, offset, 300, rng)
        cube = ev.apply_calibration(fresh, cal, det)
        spectrum = cube.counts.sum(axis=(0, 1)).astype(float)
        peak_bin = ev.find_line_peaks(spectrum)
        e_peak = det.e_min + (peak_bin + 0.5) * det.e_bin_width
        worst = max(worst, abs(e_peak - e_kev))
        assert e_peak == pytest.approx(e_kev, abs=0.1), label
    report(6, f"64x64 five-line closure: gain RMS error {rms * 100:.2f}% "
              f"(< 1%); applied calibration reproduces every line within "
              f"{worst:.3f} keV (<= 0.1)")


def test_criterion_7_fft_pipeline(report):
    det = DetectorSpec()
    scene = point_scene(8.0)
    sigma_mm = 0.5  # matched to the Cu PSF support (arms end at 0.54 mm)
    excl_mm, band_mm = 0.75, 0.3

    transfer_list, before = [], []
    for seed in (101, 202, 303):
        cube = simulate(scene, REFERENCE_MPO, det, 20_000_000, seed=seed)
        img = an.energy_window(cube, 0.0, 25.0)
        center = an.find_psf_center(img)
        before.append(
            an.background_level(img, excl_mm, center, arm_half_width_mm=band_mm)
            / float(img.values.max())
        )
        windowed = an.gaussian_window(img, sigma_mm, center)
        transfer_list.append(an.atf(windowed))

    averaged = an.average_atf(transfer_list)
    ideal = an.idealized_psf(averaged, det.pitch)
    ci = (ideal.n_x // 2, ideal.n_y // 2)
    after = an.background_level(ideal, excl_mm, ci, arm_half_width_mm=band_mm)
    ratio = after / float(np.mean(before))
    assert ratio < 0.25

    ys, xs = np.mgrid[0 : ideal.n_y, 0 : ideal.n_x]
    r = np.hypot((xs - ci[0]) * ideal.pitch_mm, (ys - ci[1]) * ideal.pitch_mm)
    outer = float(np.abs(ideal.values[r > 2.0]).mean())
    assert outer < 0.05  # idealized peak is normalized to 1

    resolution = an.resolution_lp_per_mm(averaged, threshold=0.1)
    nyquist = 1.0 / (2 * det.pitch * 1e-3)
    assert resolution is not None and 0.2 <= resolution <= nyquist
    report(7, f"background ratio idealized/raw {ratio:.3f} (< 0.25); mean "
              f"level outside the 2 mm disc {outer:.2e} of peak (< 5%); "
              f"resolution at the 0.1 threshold {resolution:.1f} lp/mm "
              f"(noise-free simulated bench; measured instruments report ~1)")


def test_criterion_8_cli_determinism(tmp_path, report):
    config = tmp_path / "run.ini"
    config.write_text(
        "[scene]\nl_s_mm = 25.0\nl_i_mm = 25.0\n\n"
        "[source.cu]\nkind = point\nlines = 8.0:1.0\n"
    )
    digests = []
    for jobs in (1, 4, 8):
        out = tmp_path / f"run_{jobs}.sic"
        code = cli.main(
            ["simulate", "--config", str(config), "--photons", "2000000",
             "--seed", "2718", "--jobs", str(jobs), "--out", str(out)]
        )
        assert code == 0
        digests.append(out.read_bytes())
    assert digests[0] == digests[1] == digests[2]
    assert len(digests[0]) == 56 + 8 * 256 * 256 * 100
    report(8, "cmd_simulate is byte-identical at 1, 4 and 8 workers "
              f"({len(digests[0])} byte cubes, seed 2718)")


def test_criterion_9_property_suites(report):
    rng = np.random.default_rng(11)

    # critical-angle scaling law
    for _ in range(500):
        e = rng.uniform(0.5, 40.0)
        k = rng.uniform(0.1, 25.0)
        assert critical_angle_deg(k * e, IRIDIUM) == pytest.approx(
            critical_angle_deg(e, IRIDIUM) / k, rel=1e-12
        )

    # specularity and the sign/parity law, both planes in one unfolding call
    entry, slopes = np.empty((3000, 2)), np.empty((3000, 2))
    for k in range(3000):
        entry[k] = rng.uniform(0.0, 20.0, 2)
        slopes[k] = rng.uniform(-0.08, 0.08, 2)
    _, exit_slopes, bounces = _unfold_vec(
        entry, slopes, REFERENCE_MPO.pore_width_w, REFERENCE_MPO.thickness_t * 1e3
    )
    for slope_in, slope_out, n_refl in zip(
        slopes.ravel().tolist(), exit_slopes.ravel().tolist(), bounces.ravel().tolist()
    ):
        assert abs(slope_out) == pytest.approx(abs(slope_in), rel=1e-12)
        if slope_in:
            assert math.copysign(1, slope_out) == math.copysign(1, slope_in) * (
                -1
            ) ** n_refl

    # format round-trips
    n = 5000
    el = ev.EventList(
        n_x=256, n_y=256,
        x=rng.integers(0, 256, n).astype(np.uint16),
        y=rng.integers(0, 256, n).astype(np.uint16),
        tot=rng.integers(0, 65536, n).astype(np.uint16),
        toa=rng.integers(0, 2**64, n, dtype=np.uint64),
    )
    back = ev.parse_events(write_events(el))
    assert all(
        np.array_equal(getattr(el, f), getattr(back, f))
        for f in ("x", "y", "tot", "toa")
    )
    import tempfile, os
    from mpoxrf.sim import SpectralImage

    cube = SpectralImage(
        counts=rng.integers(0, 50, (16, 16, 20)).astype(np.uint64),
        e_min=0.0, e_bin_width=0.5, pixel_pitch_um=55.0, seed=1, photons=2,
    )
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "c.sic")
        sic.write_sic(path, cube)
        cube_back = sic.read_sic(path)
    assert np.array_equal(cube_back.counts, cube.counts)

    # windowing additivity (exact integer counts)
    sci = SpectralImage(
        counts=rng.integers(0, 9, (8, 8, 40)).astype(np.uint64),
        e_min=0.0, e_bin_width=0.25, pixel_pitch_um=55.0,
    )
    a = an.energy_window(sci, 0.0, 4.0)
    b = an.energy_window(sci, 4.0, 10.0)
    c = an.energy_window(sci, 0.0, 10.0)
    assert np.array_equal(a.values + b.values, c.values)

    # ATF shift invariance
    ys, xs = np.mgrid[0:64, 0:64]
    base = np.exp(
        -(((xs - 32) * 0.055) ** 2 + ((ys - 32) * 0.055) ** 2) / (2 * 0.4**2)
    )
    img = an.Image2D(values=base, pitch_um=55.0)
    rolled = an.Image2D(values=np.roll(base, (9, -13), axis=(0, 1)), pitch_um=55.0)
    assert np.allclose(
        an.atf(img).amplitude, an.atf(rolled).amplitude, rtol=1e-10, atol=1e-9
    )

    # fwhm of a sampled Gaussian
    pos = (np.arange(256) - 128) * 0.055
    for sigma in (0.11, 0.3, 0.7):
        prof = an.PsfProfile(
            an.ProfileAxis.HORIZONTAL, pos, np.exp(-0.5 * (pos / sigma) ** 2)
        )
        assert an.fwhm(prof) == pytest.approx(2.3548 * sigma, rel=0.01)

    report(9, "scaling law, specularity/parity, TPXE and SIC round-trips, "
              "window additivity, ATF shift invariance, and "
              "fwhm(Gaussian)=2.3548 sigma all hold at stated tolerances")
