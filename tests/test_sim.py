import math
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mpoxrf.config import load_config
from mpoxrf.optics import (
    MpoGeometry,
    PathClass,
    ReflectivityModel,
    TraceOutcome,
    _class_codes,
    _pore_cells,
    _survives,
    _unfold_vec,
    critical_angle_deg,
    march_plane,
    trace_channel,
)
from mpoxrf.sim import (
    BATCH_SIZE,
    FWHM_PER_SIGMA,
    DetectorSpec,
    Scene,
    Source,
    SimStats,
    _acceptance_boxes,
    _batch_rng,
    _bin_hits,
    _sample_emission_arrays,
    batch_seed,
    run_tasks,
    simulate,
)

GEOM = MpoGeometry(plate_side=20.0, thickness_t=1.2, pore_width_w=20.0, pitch_p=25.0)


def cu_scene(L_s=25.0, L_i=25.0, x=0.0, z=0.0):
    return Scene(
        sources=(Source("Cu", ((8.0, 1.0),), (x, -L_s, z)),), L_s=L_s, L_i=L_i
    )


def replay_ray(x, z, slope_x, slope_z, energy, L_i, geometry=GEOM):
    """Independent scalar replay of one binary-model ray from its plate
    target to the detector plane: pitch-cell arithmetic, the wall-marching
    oracle, the critical-angle test and a straight throw of ``L_i``.

    Returns (fate, x_det, z_det, n_x, n_z) with fate "web", "wall" or
    "exit"; the landing fields are only meaningful for "exit".
    """
    p_mm = geometry.pitch_p * 1e-3
    w = geometry.pore_width_w
    i = math.floor(x / p_mm + 0.5)
    j = math.floor(z / p_mm + 0.5)
    du = (x - i * p_mm) * 1e3
    dv = (z - j * p_mm) * 1e3
    if abs(du) > w / 2 or abs(dv) > w / 2:
        return "web", math.nan, math.nan, 0, 0
    t_um = geometry.thickness_t * 1e3
    exit_u, exit_sx, n_x = march_plane(du + w / 2, slope_x, w, t_um)
    exit_v, exit_sz, n_z = march_plane(dv + w / 2, slope_z, w, t_um)
    theta_c = critical_angle_deg(energy, geometry.coating)
    for slope, n in ((slope_x, n_x), (slope_z, n_z)):
        if n and math.degrees(math.atan(abs(slope))) > theta_c:
            return "wall", math.nan, math.nan, n_x, n_z
    x_det = i * p_mm + (exit_u - w / 2) * 1e-3 + exit_sx * L_i
    z_det = j * p_mm + (exit_v - w / 2) * 1e-3 + exit_sz * L_i
    return "exit", x_det, z_det, n_x, n_z


def parity_class(n_x, n_z):
    if n_x == n_z == 0:
        return PathClass.DIRECT
    return {
        (1, 1): PathClass.CENTRAL_FOCUS,
        (0, 1): PathClass.ARM_ALONG_X,
        (1, 0): PathClass.ARM_ALONG_Z,
        (0, 0): PathClass.DIFFUSE,
    }[(n_x % 2, n_z % 2)]


class TestSourceValidation:
    def test_needs_lines(self):
        with pytest.raises(ValueError):
            Source("x", (), (0, -25, 0))

    def test_rejects_nonpositive_line(self):
        with pytest.raises(ValueError):
            Source("x", ((8.0, 0.0),), (0, -25, 0))
        with pytest.raises(ValueError):
            Source("x", ((-1.0, 1.0),), (0, -25, 0))

    def test_rect_needs_both_dimensions(self):
        with pytest.raises(ValueError):
            Source("x", ((8.0, 1.0),), (0, -25, 0), width=1.0, height=0.0)

    def test_scene_validation(self):
        src = Source("x", ((8.0, 1.0),), (0, -25, 0))
        with pytest.raises(ValueError):
            Scene(sources=(src,), L_s=0.0, L_i=25.0)
        with pytest.raises(ValueError):
            Scene(sources=(), L_s=25.0, L_i=25.0)

    def test_detector_validation(self):
        with pytest.raises(ValueError):
            DetectorSpec(n_x=0)
        with pytest.raises(ValueError):
            DetectorSpec(e_bin_width=0.0)


def in_box_draws(scene, n, seed, batch=0, geometry=GEOM):
    """The in-box emission arrays and out-of-box (web, wall) tallies of one
    batch's draws."""
    return _sample_emission_arrays(scene, geometry, n, _batch_rng(seed, batch))


class TestSampleEmission:
    def test_point_source_slope_envelope(self):
        # at 8 keV the straight-through limit w/t = 1/60 exceeds tan(theta_c)
        scene = cu_scene()
        n = 1_000_000
        s_max = GEOM.pore_width_w / (GEOM.thickness_t * 1e3)
        (_, _, _, tx, tz, sx, sz, energy), (web, wall) = in_box_draws(scene, n, 1)
        assert tx.size > 1000
        assert np.all(np.abs(sx) <= s_max * (1 + 1e-6))
        assert np.all(np.abs(sz) <= s_max * (1 + 1e-6))
        assert np.abs(sx).max() > 0.99 * s_max  # the box is not oversized
        # every target lies on the plate, so no photon misses it
        half = GEOM.plate_side / 2
        assert np.all(np.abs(tx) <= half) and np.all(np.abs(tz) <= half)
        assert np.all(energy == 8.0)
        # the certain losses are tallied, not dropped
        assert web + wall + tx.size == n
        assert web / (n - tx.size) == pytest.approx(0.36, abs=0.002)

    def test_line_intensity_fractions(self):
        src = Source("two", ((4.0, 1.0), (8.0, 3.0)), (0, -25, 0))
        scene = Scene(sources=(src,), L_s=25.0, L_i=25.0)
        (*_, energy), _ = in_box_draws(scene, 10_000_000, 17)
        assert energy.size > 20_000
        frac = np.mean(energy == 8.0)
        assert frac == pytest.approx(0.75, abs=0.01)

    def test_rect_source_uniform(self):
        src = Source("rect", ((8.0, 1.0),), (1.0, -25.0, -2.0), width=4.0, height=2.0)
        scene = Scene(sources=(src,), L_s=25.0, L_i=25.0)
        (ex, _, ez, *_), _ = in_box_draws(scene, 1_000_000, 3)
        n = ex.size
        assert n > 10_000
        # emission points do not depend on the target, so the in-box ones
        # stay uniform over the rectangle:
        # mean = center +- 3 sigma/sqrt(N)
        tol_x = 3 * (4.0 / math.sqrt(12)) / math.sqrt(n)
        tol_z = 3 * (2.0 / math.sqrt(12)) / math.sqrt(n)
        assert ex.mean() == pytest.approx(1.0, abs=tol_x)
        assert ez.mean() == pytest.approx(-2.0, abs=tol_z)
        assert ex.min() >= 1.0 - 2.0 and ex.max() <= 1.0 + 2.0

    def test_sources_behind_plate_rejected(self):
        good = Source("good", ((8.0, 1.0),), (0.0, -25.0, 0.0))
        bad = Source("bad", ((8.0, 1.0),), (0.0, 5.0, 0.0))
        with pytest.raises(ValueError, match="sample side"):
            _sample_emission_arrays(
                Scene(sources=(bad,), L_s=25.0, L_i=25.0), GEOM, 10,
                np.random.default_rng(0),
            )
        # checked per source, even when no photon of the batch reaches it
        faint = Source("bad", ((8.0, 1e-12),), (0.0, 5.0, 0.0))
        for scene, n in (
            (Scene(sources=(good, faint), L_s=25.0, L_i=25.0), 1000),
            (Scene(sources=(bad,), L_s=25.0, L_i=25.0), 0),
        ):
            with pytest.raises(ValueError, match="sample side"):
                _sample_emission_arrays(scene, GEOM, n, np.random.default_rng(0))


def open_area_by_cells(x_lo, x_hi, z_lo, z_hi, geometry=GEOM):
    """Open area (mm^2) of [x_lo, x_hi] x [z_lo, z_hi], one pitch cell at a
    time."""
    p = geometry.pitch_p * 1e-3
    h = geometry.pore_width_w * 1e-3 / 2
    total = 0.0
    for i in range(math.floor(x_lo / p) - 1, math.ceil(x_hi / p) + 2):
        dx = min(x_hi, i * p + h) - max(x_lo, i * p - h)
        if dx <= 0:
            continue
        for j in range(math.floor(z_lo / p) - 1, math.ceil(z_hi / p) + 2):
            dz = min(z_hi, j * p + h) - max(z_lo, j * p - h)
            if dz > 0:
                total += dx * dz
    return total


class TestAcceptanceBox:
    def scenes(self):
        ti_cu = ((4.5, 1.0), (8.0, 1.0))
        yield cu_scene()
        yield Scene(
            sources=(
                Source("ti", ((4.5, 1.0),), (-1.5, -25.0, -1.5)),
                Source("cu", ((8.0, 1.0),), (1.5, -25.0, 1.5)),
            ),
            L_s=25.0,
            L_i=25.0,
        )
        # clipped by the plate edge, and beyond it
        yield Scene(
            sources=(
                Source("edge", ti_cu, (9.3, -40.0, -3.21), width=1.7, height=0.9),
                Source("off", ti_cu, (14.0, -25.0, 0.0)),
            ),
            L_s=25.0,
            L_i=25.0,
        )

    def test_open_fraction_matches_cell_sum(self):
        half = GEOM.plate_side / 2
        plate_open = open_area_by_cells(-half, half, -half, half)
        assert plate_open == pytest.approx(0.64 * GEOM.plate_side**2, rel=1e-9)
        n_checked = 0
        for scene in self.scenes():
            box = _acceptance_boxes(scene, GEOM)
            for k in range(len(scene.sources)):
                x_lo, z_lo = box.x_lo[k], box.z_lo[k]
                x_hi, z_hi = x_lo + box.x_len[k], z_lo + box.z_len[k]
                box_area = box.x_len[k] * box.z_len[k]
                assert box.area_frac[k] == pytest.approx(
                    box_area / GEOM.plate_side**2, rel=1e-12
                )
                inside = open_area_by_cells(x_lo, x_hi, z_lo, z_hi) if box_area else 0
                q = (plate_open - inside) / (GEOM.plate_side**2 - box_area)
                assert box.open_frac[k] == pytest.approx(q, rel=1e-9)
                n_checked += 1
        assert n_checked == 5
        box = _acceptance_boxes(next(self.scenes()), GEOM)
        assert box.area_frac[0] == pytest.approx(1.74e-3, rel=0.01)

    def test_box_side_follows_lowest_line(self):
        # tan(theta_c) at 4.5 keV beats w/t; at 8 keV w/t sets the side
        cu = _acceptance_boxes(cu_scene(), GEOM)
        two = _acceptance_boxes(
            Scene(
                sources=(Source("x", ((8.0, 1.0), (4.5, 0.1)), (0, -25, 0)),),
                L_s=25.0,
                L_i=25.0,
            ),
            GEOM,
        )
        theta = math.radians(critical_angle_deg(4.5, GEOM.coating))
        assert cu.x_len[0] == pytest.approx(2 * 25.0 / 60.0, rel=1e-5)
        assert two.x_len[0] == pytest.approx(2 * 25.0 * math.tan(theta), rel=1e-5)

    def test_targets_outside_box_are_absorbed(self):
        # replay rays from the source extent's corners to plate targets
        # just outside the box (and anywhere outside it) through the
        # scalar oracle: none leaves the channel
        rng = np.random.default_rng(8)
        half = GEOM.plate_side / 2
        n_rays = 0
        for scene in self.scenes():
            box = _acceptance_boxes(scene, GEOM)
            for k, src in enumerate(scene.sources):
                x_lo, z_lo = box.x_lo[k], box.z_lo[k]
                x_hi, z_hi = x_lo + box.x_len[k], z_lo + box.z_len[k]
                px, py, pz = src.position
                corners = [
                    (px + a * src.width / 2, pz + b * src.height / 2)
                    for a in (-1, 0, 1) for b in (-1, 0, 1)
                ]
                targets = []
                for _ in range(300):
                    along = rng.uniform(-half, half)
                    eps = rng.uniform(1e-9, 2e-3)
                    targets += [
                        (x_hi + eps, along), (x_lo - eps, along),
                        (along, z_hi + eps), (along, z_lo - eps),
                        tuple(rng.uniform(-half, half, 2)),
                    ]
                for tx, tz in targets:
                    if not (abs(tx) <= half and abs(tz) <= half):
                        continue
                    if x_lo <= tx <= x_hi and z_lo <= tz <= z_hi:
                        continue
                    for ex, ez in corners:
                        for energy, _ in src.lines:
                            fate = replay_ray(
                                tx, tz, (tx - ex) / -py, (tz - ez) / -py,
                                energy, scene.L_i,
                            )[0]
                            assert fate in ("web", "wall"), (src, tx, tz, ex, ez)
                            n_rays += 1
        assert n_rays > 50_000


class TestProjectToDetector:
    """The batch projects exit states inline; the hand cases here pin the
    independent replay that test_matches_scalar_chain holds it to."""

    def test_axial_propagation(self):
        fate, x, z, n_x, n_z = replay_ray(1.0, 0.0, 0.0, 0.0, 8.0, 25.0)
        assert (fate, n_x, n_z) == ("exit", 0, 0)
        assert x == pytest.approx(1.0, abs=GEOM.pore_width_w * 1e-3)
        assert z == pytest.approx(0.0, abs=GEOM.pore_width_w * 1e-3)

    def test_linear_propagation(self):
        fate, x, _, n_x, _ = replay_ray(0.0, 0.0, 0.0072, 0.0, 8.0, 25.0)
        assert (fate, n_x) == ("exit", 0)
        # 0.0072 * 25 mm = 0.18 mm, plus in-channel drift below a pore width
        assert x == pytest.approx(0.0072 * 25.0, abs=GEOM.pore_width_w * 1e-3 * 2)

    def test_true_focusing_mirror_point(self):
        # one reflection in each plane lands at the source point when
        # L_s = L_i (unit magnification, erect image); at 8 keV no ray
        # bounces twice in a plane, so CENTRAL_FOCUS is exactly (1, 1)
        det = DetectorSpec()
        cube = simulate(
            cu_scene(x=0.6, z=-0.4), GEOM, det, 2_000_000, seed=11,
            class_images=True,
        )
        focus = cube.stats.class_images[PathClass.CENTRAL_FOCUS]
        assert focus.sum() > 20
        iy, ix = np.nonzero(focus)
        pitch_mm = det.pitch * 1e-3
        x = (ix + 0.5) * pitch_mm - det.n_x * pitch_mm / 2
        z = (iy + 0.5) * pitch_mm - det.n_y * pitch_mm / 2
        # in-channel drift and pore size bound the miss distance, plus
        # half a pixel of binning
        assert np.all(np.abs(x - 0.6) < 0.05 + pitch_mm / 2)
        assert np.all(np.abs(z + 0.4) < 0.05 + pitch_mm / 2)

    def test_absorbed_rays_rejected(self):
        # 0.05 is far above theta_c at 8 keV: the ray dies at the walls and
        # never reaches the projection
        slope = np.array([0.05])
        _, _, n_x = _unfold_vec(np.array([10.0]), slope, 20.0, 1200.0)
        assert n_x[0] > 0
        alive = _survives(
            slope, np.zeros(1), n_x, np.zeros_like(n_x), np.array([8.0]), GEOM
        )
        assert not alive[0]
        assert trace_channel(10.0, 10.0, 0.05, 0.0, 8.0, GEOM).outcome is (
            TraceOutcome.ABSORBED
        )
        assert replay_ray(0.0, 0.0, 0.05, 0.0, 8.0, 25.0)[0] == "wall"


class TestEnergyResponse:
    def test_zero_fwhm_is_identity(self):
        det = DetectorSpec(energy_fwhm=0.0)
        cube = simulate(cu_scene(), GEOM, det, 300_000, seed=12)
        line_bin = int((8.0 - det.e_min) / det.e_bin_width)
        assert cube.counts.sum() > 0
        assert cube.counts[:, :, line_bin].sum() == cube.counts.sum()

    def test_sigma_matches_fwhm(self):
        assert FWHM_PER_SIGMA == pytest.approx(
            2 * math.sqrt(2 * math.log(2)), rel=1e-15
        )
        # a distant source and wide pores: nearly every photon reaches
        # a coarse detector, binned at 0.01 keV
        geom = MpoGeometry(
            plate_side=20.0, thickness_t=1.2, pore_width_w=24.0, pitch_p=25.0
        )
        scene = cu_scene(L_s=2000.0)
        det = DetectorSpec(
            n_x=32, n_y=32, pitch=1000.0, energy_fwhm=1.12,
            e_bin_width=0.01, n_bins=2500,
        )
        cube = simulate(scene, geom, det, 400_000, seed=12)
        spectrum = cube.counts.sum(axis=(0, 1)).astype(float)
        assert spectrum.sum() > 300_000
        centers = cube.bin_centers()
        mean = (spectrum * centers).sum() / spectrum.sum()
        var = (spectrum * (centers - mean) ** 2).sum() / spectrum.sum()
        # Sheppard's correction removes the binning variance
        std = math.sqrt(var - det.e_bin_width**2 / 12)
        assert std == pytest.approx(1.12 / 2.3548, abs=0.002)
        assert mean == pytest.approx(8.0, abs=0.005)


class TestBatchSeeding:
    def test_mix_is_deterministic_and_spread(self):
        seeds = {batch_seed(42, b) for b in range(1000)}
        assert len(seeds) == 1000
        assert batch_seed(42, 0) == batch_seed(42, 0)
        assert batch_seed(42, 0) != batch_seed(43, 0)
        assert all(0 <= s < 2**64 for s in seeds)


def _fail_or_mark(task):
    """Raise for a task without a path; else sleep briefly and create it."""
    path, delay, message = task
    time.sleep(delay)
    if path is None:
        raise ValueError(message)
    path.touch()


class TestRunTasks:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_results_in_task_order(self, n_workers):
        assert list(run_tasks(abs, [-3, 1, -2, 0], n_workers)) == [3, 1, 2, 0]

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_first_failing_task_raises(self, n_workers):
        # the second task fails first; the serial loop meets the first one's
        # error, and so must the pool
        tasks = [(None, 0.3, "first"), (None, 0.0, "second")]
        with pytest.raises(ValueError, match="first"):
            list(run_tasks(_fail_or_mark, tasks, n_workers))

    def test_error_cancels_pending_tasks(self, tmp_path):
        tasks = [(None, 0.0, "fails")]
        tasks += [(tmp_path / f"{i}", 0.1, "") for i in range(40)]
        with pytest.raises(ValueError, match="fails"):
            list(run_tasks(_fail_or_mark, tasks, 2))
        # the running and already queued tasks end; the others never start
        assert len(list(tmp_path.iterdir())) < 20


class TestSimulate:
    def test_zero_photons_valid_empty_cube(self):
        cube = simulate(cu_scene(), GEOM, DetectorSpec(), 0, seed=1)
        assert cube.counts.sum() == 0
        assert cube.photons == 0

    def test_count_conservation(self):
        cube = simulate(cu_scene(), GEOM, DetectorSpec(), 300_000, seed=2)
        s = cube.stats
        assert int(cube.counts.sum()) == s.detected
        assert s.detected <= 300_000
        assert (
            s.web_absorbed
            + s.wall_absorbed
            + s.off_detector
            + s.below_threshold
            + s.out_of_band
            + s.detected
            == 300_000
        )

    def test_worker_count_invariance(self):
        kwargs = dict(scene=cu_scene(), mpo=GEOM, detector=DetectorSpec())
        c1 = simulate(n_photons=200_000, seed=9, n_workers=1, **kwargs)
        c3 = simulate(n_photons=200_000, seed=9, n_workers=3, **kwargs)
        assert np.array_equal(c1.counts, c3.counts)

    def test_seed_changes_stream(self):
        kwargs = dict(scene=cu_scene(), mpo=GEOM, detector=DetectorSpec())
        a = simulate(n_photons=100_000, seed=1, **kwargs)
        b = simulate(n_photons=100_000, seed=2, **kwargs)
        assert not np.array_equal(a.counts, b.counts)

    def test_matches_scalar_chain(self):
        # with FWHM=0 and the binary model, a batch is a deterministic
        # function of its in-box emission arrays; replay every batch ray by
        # ray through independent scalar arithmetic and compare cube,
        # tallies and class counts exactly.  The out-of-box photons are
        # certain losses, tallied without transport.
        det = DetectorSpec(energy_fwhm=0.0)
        scene = cu_scene()
        n = 20 * BATCH_SIZE + 1234
        cube = simulate(scene, GEOM, det, n, seed=31)

        expected = np.zeros((det.n_y, det.n_x, det.n_bins), dtype=np.uint64)
        fates = Counter()
        classes = Counter()
        web_out = wall_out = 0
        pitch_mm = det.pitch * 1e-3
        x0 = -det.n_x * pitch_mm / 2
        z0 = -det.n_y * pitch_mm / 2
        for b in range(21):
            n_b = min(BATCH_SIZE, n - b * BATCH_SIZE)
            (_, _, _, tx, tz, sx, sz, energy), (web, wall) = in_box_draws(
                scene, n_b, 31, batch=b
            )
            assert web + wall + tx.size == n_b
            web_out += web
            wall_out += wall
            for k in range(tx.size):
                fate, x, z, n_x, n_z = replay_ray(
                    tx[k], tz[k], sx[k], sz[k], energy[k], scene.L_i
                )
                fates[fate] += 1
                if fate != "exit":
                    continue
                ix = math.floor((x - x0) / pitch_mm)
                iy = math.floor((z - z0) / pitch_mm)
                if not (0 <= ix < det.n_x and 0 <= iy < det.n_y):
                    continue
                if energy[k] < det.threshold:
                    continue
                e_bin = math.floor((energy[k] - det.e_min) / det.e_bin_width)
                if 0 <= e_bin < det.n_bins:
                    expected[iy, ix, e_bin] += 1
                    classes[parity_class(n_x, n_z)] += 1
        s = cube.stats
        assert s.web_absorbed == fates["web"] + web_out
        assert s.wall_absorbed == fates["wall"] + wall_out
        assert fates["exit"] > 500
        assert s.detected == int(expected.sum()) > 500
        assert s.class_counts == {cls: classes[cls] for cls in PathClass}
        assert np.array_equal(cube.counts, expected)

    def test_mirror_symmetry_on_axis(self):
        det = DetectorSpec()
        cube = simulate(cu_scene(), GEOM, det, 3_000_000, seed=101)
        img = cube.counts.sum(axis=2).astype(np.int64)
        left = img[:, : det.n_x // 2]
        right = img[:, det.n_x // 2 :][:, ::-1]
        a = left + right
        mask = a > 0
        chi2 = float((((left - right) ** 2)[mask] / a[mask]).sum())
        dof = int(mask.sum())
        assert chi2 / dof < 1.5

    def test_cross_size_grows_with_working_distance(self):
        # projection magnification: arm reach scales with L_s + L_i
        from mpoxrf import analysis as an

        det = DetectorSpec()
        extents = {}
        for L in (25.0, 45.0):
            cube = simulate(cu_scene(L_s=L, L_i=L), GEOM, det, 10_000_000, seed=21)
            img = an.energy_window(cube, 0.0, 25.0)
            c = an.find_psf_center(img)
            h, v = an.extract_arm_profiles(img, c)
            extents[L] = (
                an.arm_extent(h, core_exclude_mm=0.25)
                + an.arm_extent(v, core_exclude_mm=0.25)
            ) / 2.0
        assert extents[45.0] > extents[25.0]
        assert extents[45.0] / extents[25.0] == pytest.approx(90.0 / 50.0, rel=0.2)

    def test_cross_arms_align_with_pore_axes(self):
        # focused spot plus arms along the channel axes, weak quadrants
        det = DetectorSpec()
        cube = simulate(cu_scene(), GEOM, det, 3_000_000, seed=55)
        img = cube.counts.sum(axis=2).astype(float)
        c = det.n_x // 2
        band = 2  # +-2 px about each axis
        arm_x = img[c - band : c + band + 1, :].sum()
        arm_z = img[:, c - band : c + band + 1].sum()
        total = img.sum()
        quadrant = total - arm_x - arm_z + img[
            c - band : c + band + 1, c - band : c + band + 1
        ].sum()
        peak = img[c - band : c + band + 1, c - band : c + band + 1].sum()
        assert peak > 0.05 * total  # bright central spot
        assert arm_x + arm_z - peak > quadrant  # arms beat the quadrants

    def test_class_images_cover_detected(self):
        cube = simulate(
            cu_scene(), GEOM, DetectorSpec(), 400_000, seed=6, class_images=True
        )
        per_class = {k: int(v.sum()) for k, v in cube.stats.class_images.items()}
        assert sum(per_class.values()) == cube.stats.detected
        assert per_class == {
            k: v for k, v in cube.stats.class_counts.items()
        }

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            simulate(cu_scene(), GEOM, DetectorSpec(), -1)
        with pytest.raises(ValueError):
            simulate(cu_scene(), GEOM, DetectorSpec(), 10, n_workers=0)

    def test_multi_batch_partition(self):
        # crossing a batch boundary must not disturb determinism
        n = BATCH_SIZE + 17
        kwargs = dict(scene=cu_scene(), mpo=GEOM, detector=DetectorSpec())
        a = simulate(n_photons=n, seed=4, n_workers=1, **kwargs)
        b = simulate(n_photons=n, seed=4, n_workers=2, **kwargs)
        assert np.array_equal(a.counts, b.counts)
        assert a.stats.n_photons == n


class TestConstantPerBounceRoulette:
    """The batch roulette: one draw per in-pore ray against r^(n_x + n_z).

    At FWHM=0 no draw follows the roulette, so every run below transports
    the same rays and only the roulette decides.
    """

    @staticmethod
    def run(model, reflectivity=1.0):
        geom = replace(GEOM, reflectivity_model=model, reflectivity=reflectivity)
        det = DetectorSpec(energy_fwhm=0.0)
        return simulate(cu_scene(), geom, det, 1_000_000, seed=13)

    def test_unit_reflectivity_matches_binary(self):
        binary = self.run(ReflectivityModel.BINARY)
        unit = self.run(ReflectivityModel.CONSTANT_PER_BOUNCE, 1.0)
        assert np.array_equal(unit.counts, binary.counts)
        assert unit.stats.class_counts == binary.stats.class_counts

    def test_half_reflectivity_thins_only_bouncing_rays(self):
        binary = self.run(ReflectivityModel.BINARY).stats
        half = self.run(ReflectivityModel.CONSTANT_PER_BOUNCE, 0.5).stats
        direct = PathClass.DIRECT
        assert half.class_counts[direct] == binary.class_counts[direct] > 0
        for cls in PathClass:
            assert half.class_counts[cls] <= binary.class_counts[cls]
        assert half.detected < binary.detected


def full_plate_oracle(scene, geometry, detector, n, seed, chunk=1 << 18):
    """The sampler the acceptance box replaced: every photon gets a uniform
    plate target and runs through the transport kernels and the detector
    stage.  Returns (stats, cube counts)."""
    rng = np.random.default_rng(seed)
    pairs = [(s, e, w) for s in scene.sources for e, w in s.lines]
    pair_p = np.array([w for *_, w in pairs]) / sum(w for *_, w in pairs)
    pos = np.array([s.position for s, *_ in pairs])
    size = np.array([(s.width, s.height) for s, *_ in pairs])
    line_e = np.array([e for _, e, _ in pairs])
    total = SimStats(n_photons=n, class_counts=dict.fromkeys(PathClass, 0))
    counts = np.zeros((detector.n_y, detector.n_x, detector.n_bins), np.uint64)
    w, t_um = geometry.pore_width_w, geometry.thickness_t * 1e3
    p_mm = geometry.pitch_p * 1e-3
    pitch_mm = detector.pitch * 1e-3
    for start in range(0, n, chunk):
        m = min(chunk, n - start)
        k = rng.choice(len(pairs), m, p=pair_p)
        ex, ez = pos[k, 0::2].T + (rng.random((2, m)) - 0.5) * size[k].T
        tx, tz = (rng.random((2, m)) - 0.5) * geometry.plate_side
        energy = line_e[k]
        sx, sz = (tx - ex) / -pos[k, 1], (tz - ez) / -pos[k, 1]
        ci, cj, u, v, in_pore = _pore_cells(tx, tz, geometry)
        exit_u, exit_sx, n_x = _unfold_vec(u, sx, w, t_um)
        exit_v, exit_sz, n_z = _unfold_vec(v, sz, w, t_um)
        alive = in_pore & _survives(sx, sz, n_x, n_z, energy, geometry, rng)
        x_det = ci * p_mm + (exit_u - w / 2) * 1e-3 + exit_sx * scene.L_i
        z_det = cj * p_mm + (exit_v - w / 2) * 1e-3 + exit_sz * scene.L_i
        e_meas = energy + detector.energy_fwhm / FWHM_PER_SIGMA * rng.standard_normal(m)
        ix = np.floor(x_det / pitch_mm + detector.n_x / 2).astype(np.int64)
        iy = np.floor(z_det / pitch_mm + detector.n_y / 2).astype(np.int64)
        on = alive & (ix >= 0) & (ix < detector.n_x) & (iy >= 0) & (iy < detector.n_y)
        stats = SimStats()
        hit, (idx, cnt) = _bin_hits(ix[on], iy[on], e_meas[on], detector, stats)
        counts.reshape(-1)[idx] += cnt.astype(np.uint64)
        codes = _class_codes(n_x[on][hit], n_z[on][hit])
        stats.class_counts = dict(zip(PathClass, np.bincount(codes, minlength=5)))
        stats.web_absorbed = int(m - in_pore.sum())
        stats.wall_absorbed = int(in_pore.sum() - alive.sum())
        stats.off_detector = int(alive.sum() - on.sum())
        total.add(stats)
    return total, counts


def chi2_sf(x, dof):
    """Upper tail of the chi-square distribution, integer ``dof``."""
    h = x / 2.0
    if dof % 2 == 0:
        term = tail = math.exp(-h)
        for i in range(1, dof // 2):
            term *= h / i
            tail += term
        return tail
    tail = math.erfc(math.sqrt(h))
    term = math.exp(-h) * 2.0 * math.sqrt(h / math.pi)
    for i in range(1, (dof + 1) // 2):
        tail += term
        term *= h / (i + 0.5)
    return tail


def homogeneity_p(a, b):
    """p-value of the chi-square test that count vectors ``a`` and ``b``
    come from one distribution (categories empty in both are dropped)."""
    table = np.array([a, b], dtype=float)
    table = table[:, table.sum(axis=0) > 0]
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
    chi2 = float(((table - expected) ** 2 / expected).sum())
    return chi2_sf(chi2, table.shape[1] - 1)


def two_proportion_p(k1, k2, n):
    """Two-sided p-value that k1/n and k2/n estimate one proportion."""
    pooled = (k1 + k2) / (2 * n)
    z = (k1 - k2) / n / math.sqrt(pooled * (1 - pooled) * 2 / n)
    return math.erfc(abs(z) / math.sqrt(2))


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
EQUIVALENCE_PHOTONS = 4_000_000
ALPHA = 1e-3


def equivalence_case(name):
    cfg = load_config(CONFIGS / "reference.ini")
    scene, geom = cfg.scene, cfg.mpo
    if name == "two-line-rect":
        lines = ((4.5, 1.0), (8.0, 2.0))
        scene = replace(
            scene,
            sources=(
                Source("ti_cu", lines, (0.3, -25.0, -0.2), width=2.0, height=1.5),
            ),
        )
    elif name == "constant-per-bounce":
        geom = replace(
            geom, reflectivity_model=ReflectivityModel.CONSTANT_PER_BOUNCE,
            reflectivity=0.8,
        )
    return scene, geom, cfg.detector


class TestFullPlateEquivalence:
    """The acceptance-box sampler against the full-plate sampler it
    replaced, at equal photon budgets: tallies, class counts and the
    [6, 9) keV image must be statistically indistinguishable."""

    @pytest.fixture(
        scope="class", params=["reference", "two-line-rect", "constant-per-bounce"]
    )
    def runs(self, request):
        scene, geom, det = equivalence_case(request.param)
        n = EQUIVALENCE_PHOTONS
        box = simulate(scene, geom, det, n, seed=5)
        full_stats, full_counts = full_plate_oracle(scene, geom, det, n, seed=6)
        lo, hi = 24, 36  # [6, 9) keV at 0.25 keV bins

        def image(counts):  # 4x4-pixel blocks
            img = counts[:, :, lo:hi].sum(axis=2)
            return img.reshape(det.n_y // 4, 4, det.n_x // 4, 4).sum(axis=(1, 3))

        return box.stats, image(box.counts), full_stats, image(full_counts)

    def test_web_and_wall_fractions(self, runs):
        box, _, full, _ = runs
        for tally in ("web_absorbed", "wall_absorbed"):
            p = two_proportion_p(
                getattr(box, tally), getattr(full, tally), EQUIVALENCE_PHOTONS
            )
            assert p > ALPHA, tally

    def test_class_counts_and_detected(self, runs):
        box, _, full, _ = runs
        assert full.detected > 1500
        cells = []
        for stats in (box, full):
            per_class = [stats.class_counts[cls] for cls in PathClass]
            cells.append(per_class + [EQUIVALENCE_PHOTONS - stats.detected])
        assert homogeneity_p(*cells) > ALPHA

    def test_windowed_image(self, runs):
        _, box_img, _, full_img = runs
        # blocks with fewer than 10 counts in both images are pooled
        big = (box_img + full_img) >= 10
        assert big.sum() >= 10
        a = np.append(box_img[big], box_img[~big].sum())
        b = np.append(full_img[big], full_img[~big].sum())
        assert homogeneity_p(a, b) > ALPHA
