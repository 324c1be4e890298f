import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpoxrf.optics import (
    IRIDIUM,
    Material,
    MpoGeometry,
    PathClass,
    _class_codes,
    _pore_cells,
    _survives,
    _unfold_vec,
    critical_angle_deg,
)
from support import march_plane

REFERENCE = MpoGeometry(plate_side=20.0, thickness_t=1.2, pore_width_w=20.0, pitch_p=25.0)
CONSTANT_07 = MpoGeometry(
    plate_side=20.0,
    thickness_t=1.2,
    pore_width_w=20.0,
    pitch_p=25.0,
    reflectivity=0.7,
)


def survives(slope, energy, geometry=REFERENCE, n=1, rng=None):
    """Wall-survival kernel on one ray that bounces ``n`` times in x only."""
    mask = _survives(
        np.array([slope]), np.array([0.0]), np.array([n]), np.array([0]),
        np.array([energy]), geometry, rng,
    )
    return bool(mask[0])


def unfold(u, v, slope_x, slope_z, geometry=REFERENCE):
    """Unfolding kernel on the two planes of one ray, as one call:
    ((exit_u, exit_v), (exit_slope_x, exit_slope_z), (n_x, n_z))."""
    exit_pos, exit_slopes, n = _unfold_vec(
        np.array([u, v], dtype=float), np.array([slope_x, slope_z], dtype=float),
        geometry.pore_width_w, geometry.thickness_t * 1e3,
    )
    return tuple(exit_pos.tolist()), tuple(exit_slopes.tolist()), tuple(n.tolist())


def pore_cell(x, z):
    """Pitch-cell kernel on one plate position: (x0, z0, u, v, in_pore)."""
    x0, z0, u, v, in_pore = _pore_cells(np.array([x]), np.array([z]), REFERENCE)
    return float(x0[0]), float(z0[0]), float(u[0]), float(v[0]), bool(in_pore[0])


def path_class(nx, nz):
    """Parity kernel on one ray, mapped back to its PathClass."""
    return tuple(PathClass)[_class_codes(np.array([nx]), np.array([nz]))[0]]


class TestMaterial:
    def test_iridium_constants(self):
        assert IRIDIUM.Z == 77
        assert IRIDIUM.A == pytest.approx(192.217)
        assert IRIDIUM.rho == pytest.approx(22.56)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name="x", Z=0, A=1.0, rho=1.0),
            dict(name="x", Z=1, A=-1.0, rho=1.0),
            dict(name="x", Z=1, A=1.0, rho=0.0),
            dict(name="x", Z=30, A=20.0, rho=1.0),  # Z/A > 1
        ],
    )
    def test_invalid_materials_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Material(**kwargs)


class TestCriticalAngle:
    def test_titanium_line_value(self):
        # quoted ~1.10 deg for 4.5 keV on iridium
        assert critical_angle_deg(4.5, IRIDIUM) == pytest.approx(1.10, abs=0.02)

    def test_copper_line_value(self):
        # quoted ~0.62 deg for 8.0 keV
        assert critical_angle_deg(8.0, IRIDIUM) == pytest.approx(0.62, abs=0.02)

    def test_inverse_energy_scaling_exact(self):
        assert critical_angle_deg(9.0, IRIDIUM) == pytest.approx(
            critical_angle_deg(4.5, IRIDIUM) / 2.0, rel=1e-15
        )

    def test_vanishes_at_high_energy(self):
        assert critical_angle_deg(1e9, IRIDIUM) < 1e-8

    def test_strictly_decreasing(self):
        es = np.linspace(1.0, 30.0, 50)
        thetas = [critical_angle_deg(e, IRIDIUM) for e in es]
        assert all(b < a for a, b in zip(thetas, thetas[1:]))

    @pytest.mark.parametrize("energy", [0.0, -4.5])
    def test_nonpositive_energy_rejected(self, energy):
        with pytest.raises(ValueError):
            critical_angle_deg(energy, IRIDIUM)

    @given(
        energy=st.floats(0.5, 50.0),
        k=st.floats(0.1, 20.0),
    )
    def test_scaling_law_property(self, energy, k):
        a = critical_angle_deg(k * energy, IRIDIUM)
        b = critical_angle_deg(energy, IRIDIUM) / k
        assert a == pytest.approx(b, rel=1e-12)


class TestGrazingReflectivity:
    """The wall-survival kernel, one bounce at a time."""

    def test_below_critical_reflects(self):
        assert survives(math.tan(math.radians(0.5)), 8.0)

    def test_above_critical_absorbs(self):
        assert not survives(math.tan(math.radians(1.0)), 8.0)

    def test_zero_angle_always_reflects(self):
        for energy in (0.5, 4.5, 8.0, 30.0):
            assert survives(0.0, energy)

    def test_critical_angle_inclusive(self):
        # step the energy to where theta_c = theta_c(1 keV) / E equals the
        # ray's grazing angle to the last bit: the tie reflects, and the
        # first representable energy with a smaller theta_c absorbs
        slope = 0.01
        angle = np.degrees(np.arctan(slope))
        theta_c_1kev = critical_angle_deg(1.0, REFERENCE.coating)
        energy = theta_c_1kev / angle
        for _ in range(16):
            if theta_c_1kev / energy == angle:
                break
            up = theta_c_1kev / energy > angle
            energy = np.nextafter(energy, np.inf if up else -np.inf)
        assert theta_c_1kev / energy == angle
        assert survives(slope, energy)
        above = np.nextafter(energy, np.inf)
        while theta_c_1kev / above == angle:
            above = np.nextafter(above, np.inf)
        assert not survives(slope, above)

    def test_constant_per_bounce_value(self):
        n = 200_000
        tol = 4 * math.sqrt(0.25 / n)
        rng = np.random.default_rng(7)
        below = np.full(n, math.tan(math.radians(0.3)))
        above = np.full(n, math.tan(math.radians(1.0)))
        one, zero = np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        energy = np.full(n, 8.0)
        single = _survives(below, below, one, zero, energy, CONSTANT_07, rng)
        assert single.mean() == pytest.approx(0.7, abs=tol)
        # one draw per ray against r^(n_x + n_z)
        double = _survives(below, below, one, one, energy, CONSTANT_07, rng)
        assert double.mean() == pytest.approx(0.49, abs=tol)
        dead = _survives(above, below, one, zero, energy, CONSTANT_07, rng)
        assert not dead.any()


class TestPoreEntry:
    """The pitch-cell kernel."""

    def test_cell_center_is_pore_center(self):
        x0, z0, u, v, in_pore = pore_cell(0.0, 0.0)
        assert in_pore
        assert (u, v) == (10.0, 10.0)
        assert (x0, z0) == (-0.01, -0.01)

    def test_corner_plus_entry_is_position(self):
        rng = np.random.default_rng(31)
        xs, zs = (rng.random((2, 10_000)) - 0.5) * REFERENCE.plate_side
        x0, z0, u, v, in_pore = _pore_cells(xs, zs, REFERENCE)
        assert in_pore.any() and not in_pore.all()
        # corners sit half an opening below the cell centers, on the pitch grid
        p_mm, half_w_mm = REFERENCE.pitch_p * 1e-3, REFERENCE.pore_width_w * 5e-4
        cells = (x0 + half_w_mm) / p_mm
        assert np.allclose(cells, np.round(cells), atol=1e-9)
        assert np.allclose(x0 + u * 1e-3, xs, atol=1e-12)
        assert np.allclose(z0 + v * 1e-3, zs, atol=1e-12)

    def test_web_absorption(self):
        # 12.4 um from the cell center exceeds the 10 um half-opening
        assert not pore_cell(12.4e-3, 0.0)[4]

    def test_boundary_counts_as_inside(self):
        # exactly half an opening from the cell center
        _, _, u, _, in_pore = pore_cell(10.0e-3, 0.0)
        assert in_pore
        assert u == pytest.approx(20.0)

    def test_open_area_fraction_monte_carlo(self):
        rng = np.random.default_rng(2024)
        n = 1_000_000
        xs = (rng.random(n) - 0.5) * REFERENCE.plate_side
        zs = (rng.random(n) - 0.5) * REFERENCE.plate_side
        # independent check of the cell arithmetic
        p_mm = REFERENCE.pitch_p * 1e-3
        du = np.abs(xs - np.round(xs / p_mm) * p_mm) * 1e3
        dv = np.abs(zs - np.round(zs / p_mm) * p_mm) * 1e3
        expect = (du <= 10.0) & (dv <= 10.0)
        assert expect.mean() == pytest.approx(0.64, abs=0.005)
        _, _, u, v, in_pore = _pore_cells(xs, zs, REFERENCE)
        assert np.array_equal(in_pore, expect)
        assert u[in_pore].min() >= 0.0 and u[in_pore].max() <= 20.0
        assert v[in_pore].min() >= 0.0 and v[in_pore].max() <= 20.0


class TestTraceChannel:
    """The unfolding and wall-survival kernels on single rays."""

    def test_axial_ray_passes_untouched(self):
        exit_pos, exit_slopes, n = unfold(5.0, 5.0, 0.0, 0.0)
        assert exit_pos == (5.0, 5.0)
        assert n == (0, 0)
        assert exit_slopes == (0.0, 0.0)
        assert survives(0.0, 8.0, n=0)

    def test_hand_unfolded_single_bounce(self):
        slope = math.tan(math.radians(1.0))
        (exit_u, _), (exit_sx, _), (n_x, _) = unfold(5.0, 5.0, slope, 0.0)
        assert survives(slope, 4.5, n=n_x)  # 1.0 deg < 1.10 deg
        assert n_x == 1
        assert exit_u == pytest.approx(2 * 20 - (5 + 1200 * slope), abs=1e-9)
        assert exit_sx == pytest.approx(-slope)

    def test_same_ray_absorbed_at_copper_energy(self):
        slope = math.tan(math.radians(1.0))
        n_x = unfold(5.0, 5.0, slope, 0.0)[2][0]
        assert not survives(slope, 8.0, n=n_x)  # 1.0 deg > 0.62 deg

    def test_direct_ray_survives_any_energy(self):
        n_x = unfold(1.0, 1.0, 0.001, 0.0)[2][0]
        assert n_x == 0
        assert survives(0.001, 100.0, n=n_x)

    def test_constant_per_bounce_roulette(self):
        geom_half = MpoGeometry(
            plate_side=20.0,
            thickness_t=1.2,
            pore_width_w=20.0,
            pitch_p=25.0,
            reflectivity=0.5,
        )
        slope = math.tan(math.radians(0.8))  # below theta_c at 4.5 keV, one bounce
        assert unfold(5.0, 5.0, slope, 0.0)[2] == (1, 0)
        rng = np.random.default_rng(9)
        outcomes = [survives(slope, 4.5, geom_half, rng=rng) for _ in range(4000)]
        assert sum(outcomes) / len(outcomes) == pytest.approx(0.5, abs=0.03)

    def test_constant_per_bounce_needs_rng(self):
        geom = MpoGeometry(
            plate_side=20.0,
            thickness_t=1.2,
            pore_width_w=20.0,
            pitch_p=25.0,
            reflectivity=0.5,
        )
        with pytest.raises(ValueError):
            # slope 0.018 bounces once and stays below theta_c at 4.5 keV
            survives(0.018, 4.5, geom)

    def test_binary_monotonic_in_energy(self):
        # a surviving ray keeps surviving as the energy drops
        rng = np.random.default_rng(5)
        for _ in range(300):
            u = rng.uniform(0, 20)
            s = rng.uniform(-0.03, 0.03)
            n_x = unfold(u, 10.0, s, 0.0)[2][0]
            energies = [2.0, 4.5, 8.0, 12.0]
            survived = [survives(s, e, n=n_x) for e in energies]
            # survival can only be lost as the energy rises
            for lower, higher in zip(survived, survived[1:]):
                assert lower or not higher


class TestPlaneIndependence:
    @given(
        u=st.floats(0.0, 20.0),
        v=st.floats(0.0, 20.0),
        slope=st.floats(-0.05, 0.05),
    )
    @settings(max_examples=200)
    def test_zero_z_slope_never_touches_z(self, u, v, slope):
        (_, exit_v), (_, exit_sz), (_, n_z) = unfold(u, v, slope, 0.0)
        assert exit_v == v
        assert n_z == 0
        assert exit_sz == 0.0


class TestSpecularityAndParity:
    @given(
        u=st.floats(0.0, 20.0),
        sx=st.floats(-0.08, 0.08),
        sz=st.floats(-0.08, 0.08),
    )
    @settings(max_examples=300)
    def test_slope_magnitude_and_sign_law(self, u, sx, sz):
        exit_pos, (exit_sx, exit_sz), (n_x, n_z) = unfold(u, 10.0, sx, sz)
        assert abs(exit_sx) == pytest.approx(abs(sx), rel=1e-12)
        assert abs(exit_sz) == pytest.approx(abs(sz), rel=1e-12)
        if sx != 0:
            assert math.copysign(1, exit_sx) == math.copysign(1, sx) * (-1) ** n_x
        if sz != 0:
            assert math.copysign(1, exit_sz) == math.copysign(1, sz) * (-1) ** n_z
        # the exit fold lands in the opening whatever the walls absorb
        assert all(0.0 <= e <= 20.0 for e in exit_pos)


class TestClassifyPath:
    """The parity kernel."""

    @pytest.mark.parametrize(
        "nx, nz, expected",
        [
            (1, 1, PathClass.CENTRAL_FOCUS),
            (3, 5, PathClass.CENTRAL_FOCUS),
            (0, 0, PathClass.DIRECT),
            (2, 1, PathClass.ARM_ALONG_X),
            (0, 3, PathClass.ARM_ALONG_X),
            (1, 2, PathClass.ARM_ALONG_Z),
            (1, 0, PathClass.ARM_ALONG_Z),
            (2, 2, PathClass.DIFFUSE),
            (0, 2, PathClass.DIFFUSE),
            (4, 0, PathClass.DIFFUSE),
        ],
    )
    def test_taxonomy(self, nx, nz, expected):
        assert path_class(nx, nz) is expected

    @given(nx=st.integers(0, 40), nz=st.integers(0, 40))
    def test_pure_parity_function(self, nx, nz):
        cls = path_class(nx, nz)
        if nx % 2 and nz % 2:
            assert cls is PathClass.CENTRAL_FOCUS
        elif (nx + nz) % 2 == 1:
            assert cls in (PathClass.ARM_ALONG_X, PathClass.ARM_ALONG_Z)
        elif nx == nz == 0:
            assert cls is PathClass.DIRECT
        else:
            assert cls is PathClass.DIFFUSE


class TestMarchingOracle:
    def test_unfold_matches_marcher(self):
        rng = np.random.default_rng(20240817)
        for _ in range(20_000):
            w = rng.uniform(5.0, 50.0)
            t_um = rng.uniform(300.0, 3000.0)
            u = rng.uniform(0.0, w)
            s = rng.uniform(-0.1, 0.1)
            exit_u, exit_s, n = _unfold_vec(np.array([u]), np.array([s]), w, t_um)
            got = (exit_u[0], exit_s[0], n[0])
            want = march_plane(u, s, w, t_um)
            assert got[2] == want[2], (u, s, w, t_um)
            assert got[0] == pytest.approx(want[0], abs=1e-6)  # 1e-9 mm in um
            assert got[1] == pytest.approx(want[1], rel=1e-12)


class TestGeometryValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(pore_width_w=25.0, pitch_p=25.0),
            dict(pore_width_w=30.0, pitch_p=25.0),
            dict(thickness_t=0.0),
            dict(plate_side=-1.0),
            dict(reflectivity=0.0),
        ],
    )
    def test_bad_geometry_rejected(self, kwargs):
        base = dict(plate_side=20.0, thickness_t=1.2, pore_width_w=20.0, pitch_p=25.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            MpoGeometry(**base)
