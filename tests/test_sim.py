import hashlib
import math
import time
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from mpoxrf.config import load_config
from mpoxrf.optics import (
    MpoGeometry,
    PathClass,
    _class_codes,
    _pore_cells,
    _survives,
    _unfold_vec,
    critical_angle_deg,
)
from mpoxrf.sim import (
    BATCH_SIZE,
    FWHM_PER_SIGMA,
    DetectorSpec,
    Scene,
    Source,
    SimStats,
    _acceptance_windows,
    _axis_window,
    _batch_rng,
    _cube_index,
    _sample_emission_arrays,
    _window,
    batch_seed,
    run_tasks,
    simulate,
)
from support import arm_extent, march_plane

GEOM = MpoGeometry(plate_side=20.0, thickness_t=1.2, pore_width_w=20.0, pitch_p=25.0)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def cu_scene(L_s=25.0, L_i=25.0, x=0.0, z=0.0):
    return Scene(
        sources=(Source("Cu", ((8.0, 1.0),), (x, -L_s, z)),), L_s=L_s, L_i=L_i
    )


def replay_ray(x, z, slope_x, slope_z, energy, L_i, geometry=GEOM):
    """Independent scalar replay of one lossless-wall ray from its plate
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


def in_window_draws(scene, n, seed, batch=0, geometry=GEOM):
    """The in-window emission arrays and out-of-window (web, wall) tallies
    of one batch's draws."""
    windows = _acceptance_windows(scene, geometry)
    return _sample_emission_arrays(scene, windows, n, _batch_rng(seed, batch))


class TestSampleEmission:
    def test_point_source_slope_envelope(self):
        # at 8 keV the straight-through limit w/t = 1/60 exceeds tan(theta_c)
        scene = cu_scene()
        n = 1_000_000
        s_max = GEOM.pore_width_w / (GEOM.thickness_t * 1e3)
        (_, _, _, tx, tz, sx, sz, energy), (web, wall) = in_window_draws(scene, n, 1)
        assert tx.size > 1000
        assert np.all(np.abs(sx) <= s_max * (1 + 1e-6))
        assert np.all(np.abs(sz) <= s_max * (1 + 1e-6))
        assert np.abs(sx).max() > 0.99 * s_max  # the window is not oversized
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
        (*_, energy), _ = in_window_draws(scene, 10_000_000, 17)
        assert energy.size > 20_000
        frac = np.mean(energy == 8.0)
        assert frac == pytest.approx(0.75, abs=0.01)

    def test_rect_source_uniform(self):
        src = Source("rect", ((8.0, 1.0),), (1.0, -25.0, -2.0), width=4.0, height=2.0)
        scene = Scene(sources=(src,), L_s=25.0, L_i=25.0)
        (ex, _, ez, *_), _ = in_window_draws(scene, 10_000_000, 3)
        n = ex.size
        assert n > 10_000
        # no window meets a plate edge, so every window has the same
        # length and the in-window emission points stay uniform over the
        # rectangle: mean = center +- 3 sigma/sqrt(N)
        tol_x = 3 * (4.0 / math.sqrt(12)) / math.sqrt(n)
        tol_z = 3 * (2.0 / math.sqrt(12)) / math.sqrt(n)
        assert ex.mean() == pytest.approx(1.0, abs=tol_x)
        assert ez.mean() == pytest.approx(-2.0, abs=tol_z)
        assert ex.min() >= 1.0 - 2.0 and ex.max() <= 1.0 + 2.0

    def test_sources_behind_plate_rejected(self):
        good = Source("good", ((8.0, 1.0),), (0.0, -25.0, 0.0))
        bad = Source("bad", ((8.0, 1.0),), (0.0, 5.0, 0.0))
        with pytest.raises(ValueError, match="sample side"):
            _acceptance_windows(Scene(sources=(bad,), L_s=25.0, L_i=25.0), GEOM)
        # checked per source before any photon is drawn, even when no photon
        # of the run would reach it
        faint = Source("bad", ((8.0, 1e-12),), (0.0, 5.0, 0.0))
        for scene, n in (
            (Scene(sources=(good, faint), L_s=25.0, L_i=25.0), 1000),
            (Scene(sources=(bad,), L_s=25.0, L_i=25.0), 0),
        ):
            with pytest.raises(ValueError, match="sample side"):
                simulate(scene, GEOM, DetectorSpec(), n, seed=0)

    @pytest.mark.parametrize(
        "src",
        [
            # straddles the +x plate edge: the window shrinks toward it
            Source("edge", ((8.0, 1.0),), (9.3, -25.0, 0.0), width=1.7, height=0.9),
            # wider than the plate: nothing is emitted in-window beyond
            # half + reach
            Source("wide", ((8.0, 1.0),), (0.0, -25.0, 0.0), width=24.0, height=0.9),
        ],
        ids=["edge", "wide"],
    )
    def test_in_window_emission_density_follows_window_length(self, src):
        # the full-plate photons that land in their own window have emission
        # density proportional to the window length; their targets are
        # uniform in the window
        scene = Scene(sources=(src,), L_s=25.0, L_i=25.0)
        (ex, _, _, tx, *_), _ = in_window_draws(scene, 40_000_000, 23)
        assert ex.size > 20_000
        reach = _acceptance_windows(scene, GEOM).reach[0]
        half = GEOM.plate_side / 2
        edges = np.linspace(-src.width / 2, src.width / 2, 41) + src.position[0]
        fine = np.linspace(edges[0], edges[-1], 40 * 1000 + 1)
        fine = (fine[1:] + fine[:-1]) / 2  # midpoints, 1000 per bin
        length = np.maximum(
            np.minimum(fine + reach, half) - np.maximum(fine - reach, -half), 0
        )
        expected = length.reshape(40, 1000).sum(axis=1)
        expected = expected / expected.sum() * ex.size
        observed = np.histogram(ex, edges)[0]
        assert observed[expected == 0].sum() == 0
        assert ex.max() <= half + reach
        assert goodness_p(observed, expected) > ALPHA
        lo, width = _window(ex, reach, half)
        share = np.histogram((tx - lo) / width, np.linspace(0, 1, 21))[0]
        assert goodness_p(share, np.full(20, ex.size / 20)) > ALPHA


def open_area_by_cells(x_lo, x_hi, z_lo, z_hi, geometry=GEOM):
    """Open area (mm^2) of [x_lo, x_hi] x [z_lo, z_hi], one pitch cell at a
    time."""
    p = geometry.pitch_p * 1e-3
    h = geometry.pore_width_w * 1e-3 / 2

    def overlaps(lo, hi):  # of [lo, hi] with each cell's opening
        centers = np.arange(math.floor(lo / p) - 1, math.ceil(hi / p) + 2) * p
        return np.minimum(hi, centers + h) - np.maximum(lo, centers - h)

    dx, dz = overlaps(x_lo, x_hi), overlaps(z_lo, z_hi)
    both = (dx[:, None] > 0) & (dz[None, :] > 0)
    return float((dx[:, None] * dz[None, :])[both].sum())


def window_scenes():
    """Scenes whose windows meet the plate edges in every way: a point
    source, two points of different reach, a rect straddling an edge and a
    point beyond it, a rect wider than the plate, a 1e-6 mm rect and the
    shipped flat emitter."""
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
    yield Scene(
        sources=(
            Source("edge", ti_cu, (9.3, -40.0, -3.21), width=1.7, height=0.9),
            Source("off", ti_cu, (14.0, -25.0, 0.0)),
        ),
        L_s=25.0,
        L_i=25.0,
    )
    yield Scene(
        sources=(
            Source("wide", ti_cu, (0.7, -25.0, 9.8), width=23.0, height=1.5),
            Source("tiny", ((8.0, 1.0),), (-4.2, -30.0, 2.1), width=1e-6, height=1e-6),
        ),
        L_s=25.0,
        L_i=25.0,
    )
    yield load_config(CONFIGS / "flatfield.ini").scene


class TestAcceptanceWindow:
    @staticmethod
    def brute_axis_means(center, extent, reach, n_grid=2400):
        """Mean window length and open length over a midpoint grid of
        emission coordinates; the open length is the open area of the
        window times one pore-high strip, cell by cell, over the strip's
        height."""
        half = GEOM.plate_side / 2
        w = GEOM.pore_width_w * 1e-3
        grid = center + extent * ((np.arange(n_grid) + 0.5) / n_grid - 0.5)
        lengths, opened = [], []
        for e in grid[:1] if extent == 0 else grid:
            lo, hi = max(e - reach, -half), min(e + reach, half)
            lengths.append(max(hi - lo, 0.0))
            strip = open_area_by_cells(lo, hi, -w / 2, w / 2) if hi > lo else 0.0
            opened.append(strip / w)
        return np.mean(lengths), np.mean(opened)

    def test_mean_lengths_match_cell_sums(self):
        half = GEOM.plate_side / 2
        plate_area = GEOM.plate_side**2
        plate_open = open_area_by_cells(-half, half, -half, half)
        assert plate_open == pytest.approx(0.64 * plate_area, rel=1e-9)
        n_checked = 0
        for scene in window_scenes():
            windows = _acceptance_windows(scene, GEOM)
            for k, src in enumerate(scene.sources):
                px, _, pz = src.position
                r = windows.reach[k]
                means = []
                for center, extent in ((px, src.width), (pz, src.height)):
                    *_, mean_len, mean_open = _axis_window(
                        center, extent, r, half, GEOM
                    )
                    brute_len, brute_open = self.brute_axis_means(center, extent, r)
                    assert mean_len == pytest.approx(brute_len, rel=1e-5, abs=1e-12)
                    assert mean_open == pytest.approx(brute_open, rel=1e-5, abs=1e-12)
                    means.append((brute_len, brute_open))
                (len_x, open_x), (len_z, open_z) = means
                in_area = len_x * len_z
                assert windows.in_frac[k] == pytest.approx(
                    in_area / plate_area, rel=1e-6, abs=1e-15
                )
                q = (plate_open - open_x * open_z) / (plate_area - in_area)
                assert windows.open_frac[k] == pytest.approx(q, rel=1e-6)
                n_checked += 1
        assert n_checked == 8
        cu = _acceptance_windows(cu_scene(), GEOM)
        assert cu.in_frac[0] == pytest.approx(1.74e-3, rel=0.01)
        # the flat emitter: about as small a share as a point source
        flat = _acceptance_windows(load_config(CONFIGS / "flatfield.ini").scene, GEOM)
        assert flat.in_frac[0] == pytest.approx(1.7e-3, rel=0.05)

    def test_reach_follows_lowest_line(self):
        # tan(theta_c) at 4.5 keV beats w/t; at 8 keV w/t sets the reach
        cu = _acceptance_windows(cu_scene(), GEOM)
        two = _acceptance_windows(
            Scene(
                sources=(Source("x", ((8.0, 1.0), (4.5, 0.1)), (0, -25, 0)),),
                L_s=25.0,
                L_i=25.0,
            ),
            GEOM,
        )
        theta = math.radians(critical_angle_deg(4.5, GEOM.coating))
        assert cu.reach[0] == pytest.approx(25.0 / 60.0, rel=1e-5)
        assert two.reach[0] == pytest.approx(25.0 * math.tan(theta), rel=1e-5)
        # a point source's window is the full 2 * reach square on the plate
        (_, len_x), (_, len_z) = cu.knots[0]
        assert len_x[0] == len_z[0] == pytest.approx(2 * 25.0 / 60.0, rel=1e-5)

    def test_targets_outside_window_are_absorbed(self):
        # replay in-window photons' emission points to plate targets just
        # outside their own window (and anywhere outside it), at every line
        # of their source, through the scalar oracle: none leaves the channel
        rng = np.random.default_rng(8)
        half = GEOM.plate_side / 2
        n_rays = 0
        for scene in window_scenes():
            windows = _acceptance_windows(scene, GEOM)
            (ex, ey, ez, tx, tz, *_), _ = in_window_draws(scene, 6_000_000, 2)
            for k, src in enumerate(scene.sources):
                px, py, pz = src.position
                mine = np.nonzero(
                    (ey == py)
                    & (np.abs(ex - px) <= src.width / 2)
                    & (np.abs(ez - pz) <= src.height / 2)
                )[0]
                if src.width == 0:
                    mine = mine[:1]  # every photon of a point has one window
                r = windows.reach[k]
                # every drawn target lies in its own window
                assert np.all(np.abs(tx[mine] - ex[mine]) <= r)
                assert np.all(np.abs(tz[mine] - ez[mine]) <= r)
                for i in mine[:60]:
                    (x_lo,), (x_len,) = _window(np.array([ex[i]]), r, half)
                    (z_lo,), (z_len,) = _window(np.array([ez[i]]), r, half)
                    x_hi, z_hi = x_lo + x_len, z_lo + z_len
                    targets = []
                    for _ in range(40):
                        along = rng.uniform(-half, half)
                        eps = rng.uniform(1e-9, 2e-3)
                        targets += [
                            (x_hi + eps, along), (x_lo - eps, along),
                            (along, z_hi + eps), (along, z_lo - eps),
                            tuple(rng.uniform(-half, half, 2)),
                        ]
                    for t_x, t_z in targets:
                        if not (abs(t_x) <= half and abs(t_z) <= half):
                            continue
                        if x_lo <= t_x <= x_hi and z_lo <= t_z <= z_hi:
                            continue
                        for energy, _ in src.lines:
                            fate = replay_ray(
                                t_x, t_z, (t_x - ex[i]) / -py, (t_z - ez[i]) / -py,
                                energy, scene.L_i,
                            )[0]
                            assert fate in ("web", "wall"), (src, t_x, t_z, i)
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
        cube = simulate(cu_scene(x=0.6, z=-0.4), GEOM, det, 2_000_000, seed=11)
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

    def test_pool_capped_at_task_count(self, monkeypatch):
        # a pool starts all its workers at the first submit under fork, so
        # asking for more workers than tasks must not start them
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr("mpoxrf.sim.ProcessPoolExecutor", Recorder)
        assert list(run_tasks(abs, [-1, 2], 64)) == [1, 2]
        assert list(run_tasks(abs, [-1, 2, -3], 2)) == [1, 2, 3]
        assert list(run_tasks(abs, [-1], 64)) == [1]  # one task: no pool
        assert sizes == [2, 2]

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

    @pytest.mark.parametrize(
        "name, digest",
        [
            (
                "reference",
                "0eaa2b417b030579720c9a592bbe4e8e5044773d01e44bab930fb266bf4b1973",
            ),
            (
                "elemental",
                "b807b75cda62ef1dbfa12f4fa2bfee8da104aa7c411d01290c2b4e6bc8cd266f",
            ),
        ],
    )
    def test_point_source_streams_pinned(self, name, digest):
        # sha256 of the cube that the per-source acceptance-box sampler made:
        # a point source is the zero-extent case of the acceptance window,
        # so its draws, and the cube, stay byte-identical
        cfg = load_config(CONFIGS / f"{name}.ini")
        cube = simulate(cfg.scene, cfg.mpo, cfg.detector, 300_000, seed=5)
        assert hashlib.sha256(cube.counts.tobytes()).hexdigest() == digest

    def test_rect_source_stream_pinned(self):
        # the flat emitter's window lengths bend at the plate's pore edges,
        # so its cube pins the lattice that the sampler integrates over
        cfg = load_config(CONFIGS / "flatfield.ini")
        cube = simulate(cfg.scene, cfg.mpo, cfg.detector, 300_000, seed=5)
        assert hashlib.sha256(cube.counts.tobytes()).hexdigest() == (
            "ddc2f24b42c439b11b75db9518535db205ecc8f3ee4bdcc776037e0d15ca9941"
        )

    def test_seed_changes_stream(self):
        kwargs = dict(scene=cu_scene(), mpo=GEOM, detector=DetectorSpec())
        a = simulate(n_photons=100_000, seed=1, **kwargs)
        b = simulate(n_photons=100_000, seed=2, **kwargs)
        assert not np.array_equal(a.counts, b.counts)

    def test_matches_scalar_chain(self):
        # with FWHM=0 and lossless walls, a batch is a deterministic
        # function of its in-window emission arrays; replay every batch ray by
        # ray through independent scalar arithmetic and compare cube,
        # tallies and class counts exactly.  The out-of-window photons are
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
            (_, _, _, tx, tz, sx, sz, energy), (web, wall) = in_window_draws(
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
                arm_extent(h, core_exclude_mm=0.25)
                + arm_extent(v, core_exclude_mm=0.25)
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
        cube = simulate(cu_scene(), GEOM, DetectorSpec(), 400_000, seed=6)
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
        # the pool results merge into the same class images and counts
        for cls in PathClass:
            assert np.array_equal(a.stats.class_images[cls], b.stats.class_images[cls])
        assert a.stats.class_counts == b.stats.class_counts
        assert sum(a.stats.class_counts.values()) == a.stats.detected > 0

    @pytest.mark.parametrize(
        "n_photons, chunk, workers",
        [
            (4 * BATCH_SIZE + 17, 2, 2),  # 5 batches: 4 chunks, the last partial
            (6 * BATCH_SIZE + 5, 1, 3),  # 7 one-batch chunks on 3 processes
            (10 * BATCH_SIZE, 3, 4),  # 4 chunks of 2 or 3 full batches
            (4 * BATCH_SIZE + 17, 2, 1),  # 3 chunks, one after another
            (0, 1, 2),
        ],
    )
    def test_chunks_match_one_chunk(self, monkeypatch, n_photons, chunk, workers):
        # short chunks put these small runs through real pools; each must
        # match the one-chunk run of one worker in every output
        kwargs = dict(scene=cu_scene(), mpo=GEOM, detector=DetectorSpec(), seed=12)
        a = simulate(n_photons=n_photons, n_workers=1, **kwargs)
        monkeypatch.setattr("mpoxrf.sim.CHUNK_BATCHES", chunk)
        monkeypatch.setattr("mpoxrf.sim._available_cpus", lambda: 4)
        b = simulate(n_photons=n_photons, n_workers=workers, **kwargs)
        assert (a.stats.processes, b.stats.processes) == (1, workers if n_photons else 1)
        assert np.array_equal(a.counts, b.counts)
        for f in fields(SimStats):
            if f.name not in ("class_images", "processes"):
                assert getattr(a.stats, f.name) == getattr(b.stats, f.name), f.name
        for cls in PathClass:
            assert np.array_equal(a.stats.class_images[cls], b.stats.class_images[cls])
        assert a.stats.n_photons == n_photons
        assert (a.stats.detected > 0) == (n_photons > 0)

    def test_pool_sized_by_workers_chunks_and_cpus(self, monkeypatch):
        # a pool only for more than one chunk, of min(workers, chunks, CPUs)
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr("mpoxrf.sim.ProcessPoolExecutor", Recorder)
        monkeypatch.setattr("mpoxrf.sim._available_cpus", lambda: 3)
        kwargs = dict(scene=cu_scene(), mpo=GEOM, detector=DetectorSpec(), seed=1)

        def processes(n_batches, n_workers):
            image = simulate(
                n_photons=n_batches * BATCH_SIZE, n_workers=n_workers, **kwargs
            )
            return image.stats.processes

        assert processes(5, 2) == 1  # one chunk: in this process
        monkeypatch.setattr("mpoxrf.sim.CHUNK_BATCHES", 2)
        assert processes(1, 8) == 1  # one chunk
        assert processes(3, 8) == 2  # two chunks
        assert processes(5, 2) == 2  # three chunks, two workers
        assert processes(9, 8) == 3  # five chunks, three CPUs
        assert processes(9, 1) == 1  # five chunks, one worker
        assert sizes == [2, 2, 3]


class TestConstantPerBounceRoulette:
    """The batch roulette: one draw per in-pore ray against r^(n_x + n_z).

    At FWHM=0 no draw follows the roulette, so every run below transports
    the same rays and only the roulette decides.
    """

    @staticmethod
    def run(reflectivity=1.0):
        geom = replace(GEOM, reflectivity=reflectivity)
        det = DetectorSpec(energy_fwhm=0.0)
        return simulate(cu_scene(), geom, det, 1_000_000, seed=13)

    def test_half_reflectivity_thins_only_bouncing_rays(self):
        lossless = self.run().stats
        half = self.run(0.5).stats
        direct = PathClass.DIRECT
        assert half.class_counts[direct] == lossless.class_counts[direct] > 0
        for cls in PathClass:
            assert half.class_counts[cls] <= lossless.class_counts[cls]
        assert half.detected < lossless.detected


def full_plate_oracle(scene, geometry, detector, n, seed, chunk=1 << 18):
    """The sampler the acceptance windows replaced: every photon gets a uniform
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
    pitch_mm = detector.pitch * 1e-3
    for start in range(0, n, chunk):
        m = min(chunk, n - start)
        k = rng.choice(len(pairs), m, p=pair_p)
        ex, ez = pos[k, 0::2].T + (rng.random((2, m)) - 0.5) * size[k].T
        tx, tz = (rng.random((2, m)) - 0.5) * geometry.plate_side
        energy = line_e[k]
        sx, sz = (tx - ex) / -pos[k, 1], (tz - ez) / -pos[k, 1]
        x0, z0, u, v, in_pore = _pore_cells(tx, tz, geometry)
        exit_u, exit_sx, n_x = _unfold_vec(u, sx, w, t_um)
        exit_v, exit_sz, n_z = _unfold_vec(v, sz, w, t_um)
        alive = in_pore & _survives(sx, sz, n_x, n_z, energy, geometry, rng)
        x_det = x0 + exit_u * 1e-3 + exit_sx * scene.L_i
        z_det = z0 + exit_v * 1e-3 + exit_sz * scene.L_i
        e_meas = energy + detector.energy_fwhm / FWHM_PER_SIGMA * rng.standard_normal(m)
        ix = np.floor(x_det / pitch_mm + detector.n_x / 2).astype(np.int64)
        iy = np.floor(z_det / pitch_mm + detector.n_y / 2).astype(np.int64)
        on = alive & (ix >= 0) & (ix < detector.n_x) & (iy >= 0) & (iy < detector.n_y)
        stats = SimStats()
        pix = iy[on] * detector.n_x + ix[on]
        hit, flat = _cube_index(pix, e_meas[on], detector, stats)
        np.add.at(counts.reshape(-1), flat, np.uint64(1))
        codes = _class_codes(n_x[on][hit], n_z[on][hit])
        for cls, count in zip(PathClass, np.bincount(codes, minlength=5)):
            total.class_counts[cls] += count
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


def goodness_p(observed, expected):
    """p-value of the chi-square test that counts ``observed`` follow the
    expected counts ``expected`` (categories expected empty are dropped)."""
    seen = expected > 0
    chi2 = float(((observed - expected)[seen] ** 2 / expected[seen]).sum())
    return chi2_sf(chi2, int(seen.sum()) - 1)


def two_proportion_p(k1, k2, n):
    """Two-sided p-value that k1/n and k2/n estimate one proportion."""
    pooled = (k1 + k2) / (2 * n)
    z = (k1 - k2) / n / math.sqrt(pooled * (1 - pooled) * 2 / n)
    return math.erfc(abs(z) / math.sqrt(2))


EQUIVALENCE_PHOTONS = 4_000_000
ALPHA = 1e-3


def equivalence_case(name):
    """(scene, geometry, detector, photon budget, image block side) of one
    case of :class:`TestFullPlateEquivalence`."""
    config = "flatfield.ini" if name == "flatfield" else "reference.ini"
    cfg = load_config(CONFIGS / config)
    scene, geom = cfg.scene, cfg.mpo
    n, block = EQUIVALENCE_PHOTONS, 4
    if name == "two-line-rect":
        lines = ((4.5, 1.0), (8.0, 2.0))
        scene = replace(
            scene,
            sources=(
                Source("ti_cu", lines, (0.3, -25.0, -0.2), width=2.0, height=1.5),
            ),
        )
    elif name == "constant-per-bounce":
        geom = replace(geom, reflectivity=0.8)
    elif name == "flatfield":
        block = 32  # the flat spreads its counts: no 4x4 block holds 10
    elif name == "plate-edge":
        # one rect straddling the +z plate edge, one wider than the plate
        scene = replace(
            scene,
            sources=(
                Source(
                    "edge", ((8.0, 1.0),), (-6.5, -25.0, 9.4), width=2.0, height=1.6
                ),
                Source(
                    "wide", ((4.5, 1.0), (8.0, 1.0)), (0.5, -25.0, -2.0),
                    width=26.0, height=3.0,
                ),
            ),
        )
        n, block = 6_000_000, 32
    return scene, geom, cfg.detector, n, block


class TestFullPlateEquivalence:
    """The acceptance-window sampler against the full-plate sampler it
    replaced, at equal photon budgets: tallies, class counts and the
    [6, 9) keV image must be statistically indistinguishable."""

    @pytest.fixture(
        scope="class",
        params=[
            "reference", "two-line-rect", "constant-per-bounce", "flatfield",
            "plate-edge",
        ],
    )
    def runs(self, request):
        scene, geom, det, n, block = equivalence_case(request.param)
        windowed = simulate(scene, geom, det, n, seed=5)
        full_stats, full_counts = full_plate_oracle(scene, geom, det, n, seed=6)
        lo, hi = 24, 36  # [6, 9) keV at 0.25 keV bins

        def image(counts):  # block x block pixels
            img = counts[:, :, lo:hi].sum(axis=2)
            shape = (det.n_y // block, block, det.n_x // block, block)
            return img.reshape(shape).sum(axis=(1, 3))

        return n, windowed.stats, image(windowed.counts), full_stats, image(full_counts)

    def test_web_and_wall_fractions(self, runs):
        n, windowed, _, full, _ = runs
        for tally in ("web_absorbed", "wall_absorbed"):
            p = two_proportion_p(getattr(windowed, tally), getattr(full, tally), n)
            assert p > ALPHA, tally

    def test_class_counts_and_detected(self, runs):
        n, windowed, _, full, _ = runs
        assert full.detected > 1500
        cells = []
        for stats in (windowed, full):
            per_class = [stats.class_counts[cls] for cls in PathClass]
            cells.append(per_class + [n - stats.detected])
        assert homogeneity_p(*cells) > ALPHA

    def test_windowed_image(self, runs):
        _, _, sampled, _, full_img = runs
        # blocks with fewer than 10 counts in both images are pooled
        big = (sampled + full_img) >= 10
        assert big.sum() >= 10
        a = np.append(sampled[big], sampled[~big].sum())
        b = np.append(full_img[big], full_img[~big].sum())
        assert homogeneity_p(a, b) > ALPHA
