import configparser
import hashlib
import io
import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpoxrf import cli, events as ev, fileio, sic, sim
from mpoxrf.analysis import Atf, Image2D, ProfileAxis, PsfProfile
from mpoxrf.config import AnalysisParams, ConfigError, load_config
from mpoxrf.optics import MpoGeometry, PathClass
from mpoxrf.sim import DetectorSpec, Scene
from support import synthesize_line_events, write_events, write_events_file

MINIMAL = """
[mpo]
plate_side_mm = 20.0
thickness_mm = 1.2
pore_width_um = 20.0
pitch_um = 25.0

[detector]
n_x = 64
n_y = 64
pitch_um = 110.0
energy_fwhm_kev = 1.12
threshold_kev = 2.0

[scene]
l_s_mm = 25.0
l_i_mm = 25.0

[source.cu]
kind = point
x_mm = 0.0
z_mm = 0.0
lines = 8.0:1.0

[sim]
photons = 200000
seed = 3
"""


def write_spot(path):
    """Write a 32x32 image of a Gaussian spot, which ``psf`` can measure."""
    yy, xx = np.mgrid[:32, :32]
    values = np.exp(-((xx - 16.0) ** 2 + (yy - 16.0) ** 2) / 8.0)
    fileio.write_image_csv(path, Image2D(values=values, pitch_um=55.0))
    return path


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL)
    return path


class TestConfig:
    def test_minimal_loads(self, config_path):
        cfg = load_config(config_path)
        assert cfg.mpo.pore_width_w == 20.0
        assert cfg.detector.n_x == 64
        # absent [detector] keys keep the DetectorSpec defaults
        assert cfg.detector == DetectorSpec(n_x=64, n_y=64, pitch=110.0)
        assert cfg.scene.L_s == 25.0
        assert cfg.scene.sources[0].label == "cu"
        assert cfg.scene.sources[0].position == (0.0, -25.0, 0.0)
        assert cfg.photons == 200000
        assert cfg.mpo.reflectivity == 1.0
        assert cfg.analysis.window_sigma_mm == 1.5

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(MINIMAL.replace("pitch_um = 25.0", "pich_um = 25.0"))
        with pytest.raises(ConfigError, match=r"bad\.ini:\d+.*pich_um"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(MINIMAL + "\n[telescope]\nfocal = 2\n")
        with pytest.raises(ConfigError, match="telescope"):
            load_config(path)

    def test_unparseable_value(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(MINIMAL.replace("l_s_mm = 25.0", "l_s_mm = far"))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_sources(self, tmp_path):
        text = MINIMAL.split("[source.cu]")[0]
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match="source"):
            load_config(path)

    def test_bad_line_list(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(MINIMAL.replace("lines = 8.0:1.0", "lines = copper"))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_rect_source(self, tmp_path):
        text = MINIMAL.replace(
            "kind = point", "kind = rect\nwidth_mm = 4.0\nheight_mm = 2.0"
        )
        path = tmp_path / "run.ini"
        path.write_text(text)
        cfg = load_config(path)
        assert cfg.scene.sources[0].width == 4.0
        assert cfg.scene.sources[0].height == 2.0

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(MINIMAL.replace("seed = 3", "seed = 3\nseed = 4"))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_reference_configs_ship_valid(self):
        for name in (
            "reference",
            "distance_35",
            "distance_45",
            "asymmetric",
            "elemental",
            "flatfield",
        ):
            cfg = load_config(f"configs/{name}.ini")
            assert cfg.mpo.plate_side == 20.0

    #: sha256 of ``repr(load_config(...))`` per shipped config; a deliberate
    #: change to a shipped config or to a config dataclass updates it
    SHIPPED_CONFIG_SHA256 = {
        "asymmetric": "2df9c87c94fedac4591052812814693378999c48642f20a3c5797556bbec5b34",
        "distance_35": "9a8bb058afa204abdd301979ff5b27da63acea51a3a4cbded2b0ef2ae82a2879",
        "distance_45": "652c616e657c2fea0e1ff71aede07be95376a8da2414e99a0ea79590577d1b1e",
        "elemental": "b05c3c35604d89bfb772c6b8a65284d80f18de5b75d7af0ad84d418ab4e59a68",
        "flatfield": "2f67d8f6fd22ff67751dbfb28020e02ea26f2c4a2076b6808f4ab0cf1cfa02a4",
        "reference": "2aee17fbd3ebbc28481581dbda388c08dcf106aa31b0c03d37ab1da26e3603ae",
    }

    @pytest.mark.parametrize("name", sorted(SHIPPED_CONFIG_SHA256))
    def test_shipped_configs_load_unchanged(self, name):
        cfg = load_config(f"configs/{name}.ini")
        digest = hashlib.sha256(repr(cfg).encode()).hexdigest()
        assert digest == self.SHIPPED_CONFIG_SHA256[name]

    def test_coating_keys_without_name(self, tmp_path):
        # like every other key, an absent coating_name keeps its default
        # and leaves the other coating keys in force
        path = tmp_path / "gold.ini"
        gold = "coating_z = 79\ncoating_a = 196.97\ncoating_rho_g_cm3 = 19.32\n"
        path.write_text(MINIMAL.replace("[detector]", gold + "\n[detector]"))
        coating = load_config(path).mpo.coating
        assert (coating.Z, coating.A, coating.rho) == (79, 196.97, 19.32)

    def test_absent_sim_and_analysis_take_defaults(self, tmp_path):
        path = tmp_path / "bare.ini"
        path.write_text(MINIMAL.split("[sim]")[0])
        cfg = load_config(path)
        assert (cfg.photons, cfg.seed, cfg.jobs) == (1_000_000, 1, 1)
        assert cfg.analysis == AnalysisParams(
            window_sigma_mm=1.5,
            background_exclusion_mm=0.5,
            arm_half_width_mm=0.3,
            resolution_threshold=0.1,
            rows_averaged=3,
        )

    def test_empty_mpo_and_scene_take_defaults(self, tmp_path):
        path = tmp_path / "bare.ini"
        path.write_text("[mpo]\n[scene]\n[source.cu]\nlines = 8.0:1.0\n")
        cfg = load_config(path)
        assert cfg.mpo == MpoGeometry()
        assert (cfg.scene.L_s, cfg.scene.L_i) == (Scene.L_s, Scene.L_i)
        assert cfg.scene.sources[0].position == (0.0, -Scene.L_s, 0.0)

    def test_bad_reflectivity_model_exits_2(self, tmp_path, capsys):
        # reflectivity alone sets the wall loss; the old model key is unknown
        path = tmp_path / "bad.ini"
        path.write_text(MINIMAL.replace(
            "[detector]", "reflectivity_model = constant_per_bounce\n\n[detector]"
        ))
        out = tmp_path / "x.sic"
        code = cli.main(["simulate", "--config", str(path), "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert f"{path}:8: unknown key 'reflectivity_model' in [mpo]" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_reflectivity_alone_thins_bouncing_rays(self, config_path, tmp_path):
        # no other key is needed: a wall reflectivity below 1 thins every
        # path class but direct transmission, which touches no wall (8 keV
        # is 12 sigma above the threshold, so the energy draws that the
        # roulette shifts cannot move a direct ray out of the band)
        lossy = tmp_path / "lossy.ini"
        lossy.write_text(
            MINIMAL.replace("[detector]", "reflectivity = 0.5\n\n[detector]")
        )
        plain, half = (
            sim.simulate(c.scene, c.mpo, c.detector, 1_000_000, seed=c.seed).stats
            for c in map(load_config, (config_path, lossy))
        )
        direct = PathClass.DIRECT
        assert half.class_counts[direct] == plain.class_counts[direct] > 0
        assert half.detected < plain.detected

    @pytest.mark.parametrize("key", ["width_mm", "height_mm"])
    def test_point_source_with_size_exits_2(self, tmp_path, capsys, key):
        path = tmp_path / "point.ini"
        path.write_text(MINIMAL.replace("kind = point", f"kind = point\n{key} = 4.0"))
        out = tmp_path / "x.sic"
        code = cli.main(["simulate", "--config", str(path), "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "[source.cu] width_mm/height_mm need kind = rect" in (
            capsys.readouterr().err
        )
        assert not out.exists()


#: Commands of test_bad_physical_parameter_exits_2, which runs each on valid
#: inputs in "{in}" (MINIMAL as run.ini), writing to an empty "{out}".
SIMULATE = ["simulate", "--config", "{in}/run.ini", "--out", "{out}/c.sic"]
WINDOW = ["window", "--cube", "{in}/c.sic", "--hi", "9", "--out-prefix", "{out}/w"]
PSF = ["psf", "--image", "{in}/spot.csv", "--config", "{in}/run.ini",
       "--out-prefix", "{out}/psf"]
APPLY_CAL = ["apply-cal", "--events", "{in}/run.tpxe", "--cal", "{in}/cal.csv",
             "--out", "{out}/run.sic"]
ATF = ["atf", "--image", "{in}/spot.csv", "--out", "{out}/atf.csv"]
CLEAN = ["clean", "{in}/spot.csv", "--config", "{in}/run.ini",
         "--out-prefix", "{out}/clean"]

#: (config edit or None, argv, message naming the parameter): NaN and
#: infinite values, and a zero energy that ``psf`` used to skip
BAD_PARAMETERS = [
    *(
        (("mpo", key, value), SIMULATE, message)
        for key, value, message in [
            ("thickness_mm", "nan", "plate thickness must be positive and finite"),
            ("thickness_mm", "inf", "plate thickness must be positive and finite"),
            ("plate_side_mm", "nan", "plate side must be positive and finite"),
            ("pitch_um", "inf", "< pitch (inf) < inf"),
            ("coating_rho_g_cm3", "nan", "density must be positive and finite"),
            ("coating_rho_g_cm3", "inf", "density must be positive and finite"),
        ]
    ),
    *(
        (("detector", key, value), SIMULATE, message)
        for key, value, message in [
            ("pitch_um", "nan", "pixel pitch must be positive and finite, got nan"),
            ("pitch_um", "inf", "pixel pitch must be positive and finite, got inf"),
            ("threshold_kev", "nan", "threshold must be finite, got nan"),
            ("e_min_kev", "nan", "e_min must be finite, got nan"),
            ("e_min_kev", "inf", "e_min must be finite, got inf"),
            ("energy_fwhm_kev", "nan", "energy FWHM must be >= 0 and finite, got nan"),
            ("e_bin_width_kev", "inf", "energy bin width must be positive and finite"),
        ]
    ),
    # without y_mm a source sits at y = -l_s_mm
    (("scene", "l_s_mm", "nan"), SIMULATE, "position (0.0, nan, 0.0) mm is not finite"),
    (("scene", "l_i_mm", "nan"), SIMULATE, "L_i must be positive and finite, got nan"),
    (("scene", "l_i_mm", "inf"), SIMULATE, "L_i must be positive and finite, got inf"),
    *(
        (("source.cu", key, value), SIMULATE, message)
        for key, value, message in [
            ("x_mm", "nan", "position (nan, -25.0, 0.0) mm is not finite"),
            ("x_mm", "inf", "position (inf, -25.0, 0.0) mm is not finite"),
            ("lines", "nan:1.0", "line (nan, 1.0) needs positive, finite"),
            ("lines", "inf:1.0", "line (inf, 1.0) needs positive, finite"),
            ("lines", "8.0:nan", "line (8.0, nan) needs positive, finite"),
            ("lines", "8.0:inf", "line (8.0, inf) needs positive, finite"),
        ]
    ),
    (None, WINDOW + ["--lo", "nan"], "need e_lo < e_hi, got [nan, 9.0)"),
    (None, PSF + ["--energy", "nan"], "energy must be positive and finite, got nan"),
    (None, PSF + ["--energy", "inf"], "energy must be positive and finite, got inf"),
    (None, PSF + ["--energy", "0"], "energy must be positive and finite, got 0.0"),
    (None, APPLY_CAL + ["--bin-width", "nan"], "bin width must be positive and finite"),
    (None, APPLY_CAL + ["--threshold", "nan"], "threshold must be finite, got nan"),
    (None, APPLY_CAL + ["--e-min", "inf"], "e_min must be finite, got inf"),
    (None, APPLY_CAL + ["--pitch-um", "nan"], "pixel pitch must be positive"),
    # a config error names the file and the key, not an analysis step
    *(
        (("analysis", key, value), CLEAN, f"run.ini: {key} must be {rule}, got {got}")
        for key, value, rule, got in [
            ("window_sigma_mm", "nan", "positive and finite", "nan"),
            ("window_sigma_mm", "0", "positive and finite", "0.0"),
            ("arm_half_width_mm", "inf", "positive and finite", "inf"),
            ("background_exclusion_mm", "nan", ">= 0 and finite", "nan"),
            ("background_exclusion_mm", "-0.5", ">= 0 and finite", "-0.5"),
            ("resolution_threshold", "1", "in (0, 1)", "1.0"),
            ("resolution_threshold", "nan", "in (0, 1)", "nan"),
            ("rows_averaged", "0", ">= 1", "0"),
        ]
    ),
    # the range is checked before the ATF CSV is written
    (None, ATF + ["--threshold", "nan"], "threshold must be in (0, 1)"),
    (None, ATF + ["--threshold", "2"], "threshold must be in (0, 1)"),
]


def _bad_parameter_id(case):
    edit, argv, _ = case
    if edit:
        return "[{}] {}={}".format(*edit)
    return f"{argv[0]} {argv[-2]}={argv[-1]}"


@pytest.mark.parametrize(
    "edit, argv, message", BAD_PARAMETERS, ids=map(_bad_parameter_id, BAD_PARAMETERS)
)
def test_bad_physical_parameter_exits_2(tmp_path, capsys, edit, argv, message):
    # each command refuses the parameter before it writes anything; before,
    # most of these ran to exit 0 with nothing detected or a wrong cube
    inp, out = tmp_path / "in", tmp_path / "out"
    inp.mkdir()
    out.mkdir()
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(MINIMAL)
    if edit:
        section, key, value = edit
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][key] = value
    with open(inp / "run.ini", "w") as fh:
        parser.write(fh)
    sic.write_sic(inp / "c.sic", sim.SpectralImage.empty(DetectorSpec(n_x=4, n_y=4)))
    write_spot(inp / "spot.csv")
    ones, zeros = np.ones((2, 2)), np.zeros((2, 2))
    rng = np.random.default_rng(3)
    write_events_file(
        inp / "run.tpxe", synthesize_line_events(8.0, ones, zeros, 5, rng)
    )
    (inp / "cal.csv").write_text(
        "x,y,gain,offset,residual,dead\n"
        + "".join(f"{x},{y},1.0,0.0,0.0,0\n" for y in range(2) for x in range(2))
    )

    code = cli.main([arg.format(**{"in": inp, "out": out}) for arg in argv])
    assert code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


class TestCliSimulate:
    def test_simulate_writes_cube_and_summary(self, config_path, tmp_path, capsys):
        out = tmp_path / "run.sic"
        code = cli.main(
            ["simulate", "--config", str(config_path), "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "simulated 200000 photons" in text
        assert "central_focus" in text
        cube = sic.read_sic(out)
        assert cube.photons == 200000
        assert cube.seed == 3

    def test_zero_photons_valid(self, config_path, tmp_path):
        out = tmp_path / "zero.sic"
        code = cli.main(
            ["simulate", "--config", str(config_path), "--photons", "0",
             "--out", str(out)]
        )
        assert code == 0
        assert sic.read_sic(out).counts.sum() == 0

    def test_same_seed_byte_identical(self, config_path, tmp_path):
        a = tmp_path / "a.sic"
        b = tmp_path / "b.sic"
        for out in (a, b):
            assert cli.main(
                ["simulate", "--config", str(config_path), "--photons", "100000",
                 "--out", str(out)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_byte_identical(self, config_path, tmp_path):
        a = tmp_path / "a.sic"
        b = tmp_path / "b.sic"
        cli.main(["simulate", "--config", str(config_path), "--photons", "150000",
                  "--jobs", "1", "--out", str(a)])
        cli.main(["simulate", "--config", str(config_path), "--photons", "150000",
                  "--jobs", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_first_line_names_processes_used(
        self, config_path, tmp_path, capsys, monkeypatch
    ):
        # 200,000 photons are four batches: one chunk, run in this process
        # whatever --jobs asks for; as one-batch chunks on two CPUs, two
        monkeypatch.setattr(sim, "_available_cpus", lambda: 2)
        argv = ["simulate", "--config", str(config_path), "--jobs", "8",
                "--out", str(tmp_path / "run.sic")]
        for chunk, used in ((sim.CHUNK_BATCHES, 1), (1, 2)):
            monkeypatch.setattr(sim, "CHUNK_BATCHES", chunk)
            assert cli.main(argv) == 0
            first = capsys.readouterr().out.splitlines()[0]
            assert first == f"simulated 200000 photons (seed 3, {used} process(es))"

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_jobs_below_one_exits_2(self, config_path, tmp_path, capsys, where):
        out = tmp_path / "x.sic"
        argv = ["simulate", "--config", str(config_path), "--out", str(out)]
        if where == "flag":
            argv += ["--jobs", "0"]
            named = "--jobs 0: must be >= 1"
        else:
            config_path.write_text(MINIMAL + "jobs = 0\n")
            named = "[sim] jobs = 0: must be >= 1"
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_photons_exits_2(self, config_path, tmp_path, capsys, where):
        out = tmp_path / "x.sic"
        argv = ["simulate", "--config", str(config_path), "--out", str(out)]
        if where == "flag":
            argv += ["--photons", "-1"]
            named = "config error: --photons -1: must be >= 0"
        else:
            config_path.write_text(MINIMAL.replace("photons = 200000", "photons = -1"))
            named = f"config error: {config_path}: [sim] photons = -1: must be >= 0"
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_seed_out_of_range_exits_2(
        self, config_path, tmp_path, capsys, where, seed
    ):
        # the cube header holds the seed as a u64
        out = tmp_path / "x.sic"
        argv = ["simulate", "--config", str(config_path), "--out", str(out)]
        if where == "flag":
            argv += ["--seed", str(seed)]
            named = f"config error: --seed {seed}: must be in 0..2**64-1"
        else:
            config_path.write_text(MINIMAL.replace("seed = 3", f"seed = {seed}"))
            named = (
                f"config error: {config_path}: [sim] seed = {seed}: "
                "must be in 0..2**64-1"
            )
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_seed_at_bounds_written(self, config_path, tmp_path, where, seed):
        out = tmp_path / "x.sic"
        argv = ["simulate", "--config", str(config_path), "--photons", "1000",
                "--out", str(out)]
        if where == "flag":
            argv += ["--seed", str(seed)]
        else:
            config_path.write_text(MINIMAL.replace("seed = 3", f"seed = {seed}"))
        assert cli.main(argv) == 0
        assert sic.read_sic(out).seed == seed

    def test_unallocatable_cube_exits_2(
        self, config_path, tmp_path, capsys, monkeypatch
    ):
        # a 3.1 TiB cube is refused before the acceptance windows or any photon
        config_path.write_text(
            MINIMAL.replace("n_x = 64\nn_y = 64", "n_x = 65536\nn_y = 65536")
        )

        def transport(*args):
            raise AssertionError("the transport started")

        monkeypatch.setattr(sim, "_acceptance_windows", transport)
        out = tmp_path / "x.sic"
        argv = ["simulate", "--config", str(config_path), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: cannot allocate the 65536x65536x100 cube (3200.00 GiB)\n"
        )
        assert not out.exists()

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[mpo]\nwat = 1\n")
        assert cli.main(
            ["simulate", "--config", str(path), "--out", str(tmp_path / "x.sic")]
        ) == cli.EXIT_CONFIG

    def test_missing_config_exit_code(self, tmp_path):
        assert cli.main(
            ["simulate", "--config", str(tmp_path / "none.ini"),
             "--out", str(tmp_path / "x.sic")]
        ) == cli.EXIT_CONFIG


class TestCliAnalysisChain:
    @pytest.fixture
    def cube_path(self, config_path, tmp_path):
        out = tmp_path / "run.sic"
        cli.main(["simulate", "--config", str(config_path), "--photons", "2000000",
                  "--out", str(out)])
        return out

    def test_window_psf_atf_clean(self, cube_path, config_path, tmp_path, capsys):
        prefix = tmp_path / "img"
        assert cli.main(
            ["window", "--cube", str(cube_path), "--lo", "6.0", "--hi", "9.0",
             "--out-prefix", str(prefix)]
        ) == 0
        assert (tmp_path / "img.csv").exists()
        assert (tmp_path / "img.pgm").read_text().startswith("P2")

        assert cli.main(
            ["psf", "--image", f"{prefix}.csv", "--config", str(config_path),
             "--energy", "8.0", "--out-prefix", str(tmp_path / "psf")]
        ) == 0
        out = capsys.readouterr().out
        assert "center:" in out
        assert "FWHM" in out
        assert "expected arm half-length" in out
        assert (tmp_path / "psf_horizontal.csv").read_text().startswith(
            "position_mm,intensity"
        )
        assert (tmp_path / "psf_vertical.csv").exists()

        assert cli.main(
            ["atf", "--image", f"{prefix}.csv", "--out", str(tmp_path / "a.csv")]
        ) == 0
        assert "resolution" in capsys.readouterr().out

        assert cli.main(
            ["clean", f"{prefix}.csv", f"{prefix}.csv", "--config",
             str(config_path), "--out-prefix", str(tmp_path / "clean")]
        ) == 0
        out = capsys.readouterr().out
        assert "background before" in out
        assert "background after" in out
        assert (tmp_path / "clean_idealized.csv").exists()
        assert (tmp_path / "clean_atf.csv").exists()

    def test_flatfield_command(self, cube_path, tmp_path):
        prefix = tmp_path / "img"
        cli.main(["window", "--cube", str(cube_path), "--lo", "0.0", "--hi", "25.0",
                  "--out-prefix", str(prefix)])
        flat = tmp_path / "flat.csv"
        img = fileio.read_image_csv(f"{prefix}.csv")
        fileio.write_image_csv(
            flat, Image2D(values=np.full_like(img.values, 2.0),
                          pitch_um=img.pitch_um)
        )
        assert cli.main(
            ["flatfield", "--image", f"{prefix}.csv", "--flat", str(flat),
             "--out-prefix", str(tmp_path / "corr")]
        ) == 0
        corr = fileio.read_image_csv(tmp_path / "corr.csv")
        assert np.allclose(corr.values, img.values)

    def test_psf_on_empty_image_analysis_exit(self, tmp_path):
        empty = tmp_path / "empty.csv"
        fileio.write_image_csv(
            empty, Image2D(values=np.zeros((32, 32)), pitch_um=55.0)
        )
        code = cli.main(
            ["psf", "--image", str(empty), "--out-prefix", str(tmp_path / "x")]
        )
        assert code == cli.EXIT_ANALYSIS

    @pytest.mark.parametrize("energy", ["8.0", "0"])
    def test_psf_energy_without_config_exits_2(self, tmp_path, capsys, energy):
        # the model extents need the plate and distances of a config
        spot = write_spot(tmp_path / "spot.csv")
        code = cli.main(["psf", "--image", str(spot), "--energy", energy,
                         "--out-prefix", str(tmp_path / "psf")])
        assert code == cli.EXIT_CONFIG
        assert "psf --energy needs --config" in capsys.readouterr().err
        assert not (tmp_path / "psf_horizontal.csv").exists()

    def test_missing_cube_io_exit(self, tmp_path):
        assert cli.main(
            ["window", "--cube", str(tmp_path / "none.sic"), "--lo", "0",
             "--hi", "1", "--out-prefix", str(tmp_path / "x")]
        ) == cli.EXIT_IO

    def test_corrupt_cube_io_exit(self, tmp_path):
        bad = tmp_path / "bad.sic"
        bad.write_bytes(b"NOTSIC" + b"\x00" * 64)
        assert cli.main(
            ["window", "--cube", str(bad), "--lo", "0", "--hi", "1",
             "--out-prefix", str(tmp_path / "x")]
        ) == cli.EXIT_IO

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# n_x=3 n_y=2 pitch_um=55.0\n1,2,3\n4,5\n", ":3: 2 values, expected 3"),
            ("# pitch_um=wide\n1,2\n", ": pitch_um=wide is not a positive number"),
            ("# pitch_um=-55.0\n1,2\n", ": pitch_um=-55.0 is not a positive number"),
            ("# pitch_um=55.0\n1,nan\n", ": image CSV holds a NaN or infinite"),
            ("# pitch_um=55.0\n1,2\n-inf,4\n", ": image CSV holds a NaN or infinite"),
            ("# n_x=2 n_y=0 pitch_um=55.0\n", ": image CSV has no data rows"),
            (b"# pitch_um=55.0\n1,2\xff\n", ": image CSV is not UTF-8 text"),
        ],
        ids=[
            "ragged", "pitch-text", "pitch-negative", "nan", "inf", "no-rows",
            "non-utf8",
        ],
    )
    def test_ragged_image_csv_io_exit(self, tmp_path, capsys, text, message):
        path = tmp_path / "img.csv"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns on a file without rows
            code = cli.main(
                ["psf", "--image", str(path), "--out-prefix", str(tmp_path / "x")]
            )
        assert code == cli.EXIT_IO
        assert f"{path}{message}" in capsys.readouterr().err


class TestCliCalibration:
    CAL_CSV_SHA256 = "466668a04a99e0e0f448d3fd4707112c61563c493610fa38a2d4d927d787b582"
    CU_SIC_SHA256 = "70f6ef9c2db177f728f0a2a66697a47c39fcec69cdfd3326d49225cba9c7735b"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_calibrate_and_apply(self, tmp_path, capsys, monkeypatch, workers):
        monkeypatch.setattr(sim, "_available_cpus", lambda: workers)
        rng = np.random.default_rng(12)
        n = 8
        gain = rng.uniform(0.04, 0.06, (n, n))
        offset = rng.uniform(-0.1, 0.1, (n, n))
        ls = ev.default_line_set()
        args = ["calibrate", "--out", str(tmp_path / "cal.csv")]
        for label, e_kev in ls.lines:
            path = tmp_path / f"{label}.tpxe"
            write_events_file(
                path, synthesize_line_events(e_kev, gain, offset, 3000, rng)
            )
            args += ["--events", f"{label}={path}"]
        assert cli.main(args) == 0
        assert "calibrated 64 pixel(s), 0 dead" in capsys.readouterr().out

        cal = ev.read_calibration_csv(tmp_path / "cal.csv")
        rel = (cal.gain - gain) / gain
        assert np.sqrt((rel**2).mean()) < 0.01

        cu = tmp_path / "Cu.tpxe"
        out = tmp_path / "cu.sic"
        assert cli.main(
            ["apply-cal", "--events", str(cu), "--cal", str(tmp_path / "cal.csv"),
             "--out", str(out), "--bin-width", "0.05", "--n-bins", "500"]
        ) == 0
        cube = sic.read_sic(out)
        spectrum = cube.counts.sum(axis=(0, 1)).astype(float)
        peak_bin = ev.find_line_peaks(spectrum)
        assert 0.05 * (peak_bin + 0.5) == pytest.approx(8.05, abs=0.1)

        # the outputs of the per-pixel loop this chain replaced, byte for byte
        for path, digest in (
            (tmp_path / "cal.csv", self.CAL_CSV_SHA256),
            (out, self.CU_SIC_SHA256),
        ):
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, path.name

    def test_identity_gain_fixture(self, tmp_path):
        n = 4
        gain = np.ones((n, n))
        offset = np.zeros((n, n))
        rng = np.random.default_rng(0)
        # integer line energies keep the integer ToT quantization exact
        ls = ev.LineSet((("Ti", 4.0), ("Cu", 8.0), ("Ag", 22.0)))
        args = ["calibrate", "--lines", "Ti:4.0,Cu:8.0,Ag:22.0",
                "--out", str(tmp_path / "cal.csv")]
        for label, e_kev in ls.lines:
            path = tmp_path / f"{label}.tpxe"
            write_events_file(
                path,
                synthesize_line_events(
                    e_kev, gain, offset, 400, rng, energy_fwhm=0.0
                ),
            )
            args += ["--events", f"{label}={path}"]
        assert cli.main(args) == 0
        cal = ev.read_calibration_csv(tmp_path / "cal.csv")
        assert np.allclose(cal.gain, 1.0, atol=1e-6)
        assert np.allclose(cal.offset, 0.0, atol=1e-6)

    def test_missing_element_file_listed(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path = tmp_path / "ti.tpxe"
        write_events_file(
            path,
            synthesize_line_events(
                4.51, np.ones((2, 2)), np.zeros((2, 2)), 10, rng
            ),
        )
        code = cli.main(
            ["calibrate", "--events", f"Ti={path}",
             "--out", str(tmp_path / "cal.csv")]
        )
        assert code == cli.EXIT_CONFIG
        assert "Fe" in capsys.readouterr().err

    def test_missing_line_exits_before_reading(self, tmp_path, capsys):
        # the given file does not exist: opening it would be exit 3
        code = cli.main(
            ["calibrate", "--events", f"Ti={tmp_path / 'absent.tpxe'}",
             "--events", f"Cu={tmp_path / 'absent.tpxe'}",
             "--out", str(tmp_path / "cal.csv")]
        )
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "calibration line(s): Fe, Zr, Ag" in err
        assert "absent.tpxe" not in err

    def test_repeated_label_exits_before_reading(self, tmp_path, capsys):
        # every line has a file, none of which exists: opening one would be
        # exit 3, and keeping the later Cu file would fit Ag events as Cu
        args = ["calibrate", "--out", str(tmp_path / "cal.csv")]
        for label in ev.default_line_set().labels:
            args += ["--events", f"{label}={tmp_path / 'absent.tpxe'}"]
        args += ["--events", f"Cu={tmp_path / 'absent.tpxe'}"]
        assert cli.main(args) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--events label(s) given more than once: Cu" in err
        assert "absent.tpxe" not in err

    def test_label_not_a_line_exits_before_reading(self, tmp_path, capsys):
        # every line file is valid; the Mn file does not exist, so opening
        # it would be exit 3
        rng = np.random.default_rng(3)
        args = ["calibrate", "--out", str(tmp_path / "cal.csv")]
        for label, e_kev in ev.default_line_set().lines:
            path = tmp_path / f"{label}.tpxe"
            write_events_file(path, synthesize_line_events(
                e_kev, np.full((2, 2), 0.05), np.zeros((2, 2)), 10, rng
            ))
            args += ["--events", f"{label}={path}"]
        args += ["--events", f"Mn={tmp_path / 'absent.tpxe'}"]
        assert cli.main(args) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--events label(s) not a calibration line: Mn" in err
        assert "absent.tpxe" not in err
        assert not (tmp_path / "cal.csv").exists()

    def test_repeated_line_label_exits_before_writing(self, tmp_path, capsys):
        # both lines would be fitted from the one A file: every pixel dead
        path = tmp_path / "a.tpxe"
        rng = np.random.default_rng(5)
        write_events_file(
            path,
            synthesize_line_events(
                8.05, np.full((4, 4), 0.05), np.zeros((4, 4)), 50, rng
            ),
        )
        out = tmp_path / "cal.csv"
        code = cli.main(
            ["calibrate", "--lines", "A:4.5,A:8.05", "--events", f"A={path}",
             "--out", str(out)]
        )
        assert code == cli.EXIT_CONFIG
        assert "line labels must be distinct" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines, named",
        [
            ("Ti:4.51,Fe:nan", "line energies must be finite and > 0 keV"),
            ("Ti:4.51,Fe:inf", "line energies must be finite and > 0 keV"),
            ("Ti:-1,Fe:6.40", "line energies must be finite and > 0 keV"),
            ("Ti:0,Fe:6.40", "line energies must be finite and > 0 keV"),
            ("Ti:4.51,Fe:abc", "--lines entry 'Fe:abc' is not LABEL:keV"),
        ],
        ids=["nan", "inf", "negative", "zero", "text"],
    )
    def test_bad_line_energy_exits_before_reading(
        self, tmp_path, capsys, lines, named
    ):
        # the event files do not exist, which would be exit 3
        out = tmp_path / "cal.csv"
        code = cli.main(
            ["calibrate", "--lines", lines, "--events", f"Ti={tmp_path / 'no'}",
             "--events", f"Fe={tmp_path / 'no'}", "--out", str(out)]
        )
        assert code == cli.EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_unallocatable_tot_block_io_exit(self, tmp_path):
        # two 300-record 256x256 line files, each with one ToT of 65535: an
        # 8 GiB uint16 block per file, which a 3 GiB address space refuses;
        # the worker's error must reach the parent whole, as exit 3
        args = ["calibrate", "--lines", "A:5,B:8", "--out", str(tmp_path / "cal.csv")]
        pix = np.arange(300)
        for label, base in (("A", 50), ("B", 80)):
            tot = np.full(300, base)
            tot[299] = 65535
            path = tmp_path / f"{label}.tpxe"
            write_events_file(path, ev.EventList(
                256, 256, (pix % 256).astype(np.uint16), (pix // 256).astype(np.uint16),
                tot.astype(np.uint16), pix.astype(np.uint64),
            ))
            args += ["--events", f"{label}={path}"]
        limit = 3 << 30
        run = subprocess.run(
            [sys.executable, "-c",
             "import resource, sys\n"
             f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
             "from mpoxrf.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n",
             *args],
            # one BLAS thread: its buffers then take little of the address space
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
                     OPENBLAS_NUM_THREADS="1"),
            capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == cli.EXIT_IO, run.stderr
        offset = ev.HEADER.size + 299 * ev.RECORD_DTYPE.itemsize
        assert run.stderr == (
            f"input format error: {tmp_path / 'A.tpxe'}: largest ToT 65535 needs a "
            "65536x65536 uint16 histogram block (8.00 GiB), which could not be "
            f"allocated (byte offset {offset})\n"
        )
        assert not (tmp_path / "cal.csv").exists()

    def test_one_line_file_in_memory(self, tmp_path, monkeypatch):
        # one worker: the histogram blocks live in this process, where
        # tracemalloc sees them
        monkeypatch.setattr(sim, "_available_cpus", lambda: 1)
        rng = np.random.default_rng(31)
        n = 64
        gain = rng.uniform(0.10, 0.15, (n, n))
        offset = rng.uniform(-0.2, 0.2, (n, n))
        args = ["calibrate", "--out", str(tmp_path / "cal.csv")]
        all_events_bytes = 0
        for label, e_kev in ev.default_line_set().lines:
            path = tmp_path / f"{label}.tpxe"
            write_events_file(
                path, synthesize_line_events(e_kev, gain, offset, 200, rng)
            )
            parsed = ev.parse_events_file(path)
            all_events_bytes += sum(
                a.nbytes for a in (parsed.x, parsed.y, parsed.tot, parsed.toa)
            )
            args += ["--events", f"{label}={path}"]
        del parsed
        tracemalloc.start()
        try:
            assert cli.main(args) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # holding the five parsed line files at once would exceed this
        assert peak < all_events_bytes, (peak, all_events_bytes)

    @pytest.mark.parametrize("side", [0, 2**20])
    def test_unaddressable_matrix_io_exit(self, tmp_path, capsys, side):
        # 2**20 squared would ask for a terabyte-sized histogram block; a 0x0
        # matrix would give a calibration without rows
        path = tmp_path / "Ti.tpxe"
        path.write_bytes(ev.HEADER.pack(ev.MAGIC, ev.VERSION, side, side, 0))
        out = tmp_path / "cal.csv"
        assert cli.main(
            ["calibrate", "--lines", "Ti:4.5,Fe:6.4", "--events", f"Ti={path}",
             "--events", f"Fe={path}", "--out", str(out)]
        ) == cli.EXIT_IO
        assert capsys.readouterr().err == (
            f"input format error: {path}: n_x {side} outside 1..65536 "
            "(byte offset 8)\n"
        )
        assert not out.exists()

    def test_line_files_of_different_matrices_io_exit(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        args = ["calibrate", "--out", str(tmp_path / "cal.csv")]
        for label, e_kev in ev.default_line_set().lines:
            shape = (4, 8) if label == "Cu" else (4, 4)  # (n_y, n_x)
            path = tmp_path / f"{label}.tpxe"
            write_events_file(
                path,
                synthesize_line_events(
                    e_kev, np.full(shape, 0.05), np.zeros(shape), 20, rng
                ),
            )
            args += ["--events", f"{label}={path}"]
        assert cli.main(args) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert (
            f"{tmp_path / 'Cu.tpxe'}: 8x4 pixel matrix does not match the 4x4 "
            f"matrix of line file {tmp_path / 'Ti.tpxe'}"
        ) in err
        assert not (tmp_path / "cal.csv").exists()

    def test_corrupt_events_io_exit(self, tmp_path):
        bad = tmp_path / "bad.tpxe"
        bad.write_bytes(b"JUNKJUNKJUNK")
        # a complete line set: a missing line is a usage error (exit 2)
        # reported before any file is read
        assert cli.main(
            ["calibrate", "--lines", "Ti:4.51,Fe:6.40", "--events", f"Ti={bad}",
             "--events", f"Fe={bad}", "--out", str(tmp_path / "cal.csv")]
        ) == cli.EXIT_IO

    def test_truncated_line_file_named(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        gain, offset = np.full((2, 2), 0.05), np.zeros((2, 2))
        args = ["calibrate", "--out", str(tmp_path / "cal.csv")]
        for label, e_kev in ev.default_line_set().lines:
            path = tmp_path / f"{label}.tpxe"
            data = write_events(
                synthesize_line_events(e_kev, gain, offset, 50, rng)
            )
            path.write_bytes(data[:-7] if label == "Zr" else data)
            args += ["--events", f"{label}={path}"]
        assert cli.main(args) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert f"{tmp_path / 'Zr.tpxe'}: stream ends after 199 of 200 records" in err
        assert "Cu.tpxe" not in err
        assert not (tmp_path / "cal.csv").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_record_in_worker_io_exit(self, tmp_path, capsys, monkeypatch, workers):
        # the Cu file's header is valid; record 21, in its second 16-record
        # slice, is outside the matrix, so the worker reading it raises
        monkeypatch.setattr(sim, "_available_cpus", lambda: workers)
        monkeypatch.setattr(ev, "_READ_RECORDS", 16)
        rng = np.random.default_rng(8)
        gain, offset = np.full((2, 2), 0.05), np.zeros((2, 2))
        out = tmp_path / "cal.csv"
        args = ["calibrate", "--out", str(out)]
        for label, e_kev in ev.default_line_set().lines:
            events = synthesize_line_events(e_kev, gain, offset, 10, rng)
            if label == "Cu":
                events.x[21] = 2
            path = tmp_path / f"{label}.tpxe"
            write_events_file(path, events)
            args += ["--events", f"{label}={path}"]
        assert cli.main(args) == cli.EXIT_IO
        assert capsys.readouterr().err == (
            f"input format error: {tmp_path / 'Cu.tpxe'}: record 21 pixel (2, 1) "
            f"outside 2x2 matrix (byte offset {ev.HEADER.size + 21 * 16})\n"
        )
        assert not out.exists()

    def test_headers_checked_before_records(self, tmp_path, capsys):
        # Ti, the first line file, has a bad record; Fe, the second, a bad
        # magic: the header error is found first, before any record is read
        rng = np.random.default_rng(4)
        gain, offset = np.full((2, 2), 0.05), np.zeros((2, 2))
        out = tmp_path / "cal.csv"
        args = ["calibrate", "--out", str(out)]
        for label, e_kev in ev.default_line_set().lines:
            events = synthesize_line_events(e_kev, gain, offset, 10, rng)
            if label == "Ti":
                events.y[3] = 7
            data = write_events(events)
            if label == "Fe":
                data = b"XXXX" + data[4:]
            path = tmp_path / f"{label}.tpxe"
            path.write_bytes(data)
            args += ["--events", f"{label}={path}"]
        assert cli.main(args) == cli.EXIT_IO
        assert capsys.readouterr().err == (
            f"input format error: {tmp_path / 'Fe.tpxe'}: bad magic b'XXXX' "
            "(byte offset 0)\n"
        )
        assert not out.exists()

    def test_apply_cal_matrix_checked_before_records(self, tmp_path, capsys):
        # a 4x4 run against a 2x2 calibration; its second record is outside
        # even the 4x4 matrix, and is never read
        run = tmp_path / "run.tpxe"
        write_events_file(
            run,
            ev.EventList(
                n_x=4,
                n_y=4,
                x=np.array([1, 9], np.uint16),
                y=np.array([1, 0], np.uint16),
                tot=np.array([8, 8], np.uint16),
                toa=np.arange(2, dtype=np.uint64),
            ),
        )
        cal = tmp_path / "cal.csv"
        ev.write_calibration_csv(
            cal,
            ev.CalibrationMap(
                gain=np.ones((2, 2)),
                offset=np.zeros((2, 2)),
                residual=np.zeros((2, 2)),
                dead=np.zeros((2, 2), dtype=bool),
            ),
        )
        out = tmp_path / "run.sic"
        assert cli.main(
            ["apply-cal", "--events", str(run), "--cal", str(cal), "--out", str(out)]
        ) == cli.EXIT_IO
        assert capsys.readouterr().err == (
            f"input format error: {run}: 4x4 pixel matrix does not match the "
            f"2x2 calibration {cal}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "n_bins, gib",
        # past the machine's memory, and past what numpy can index at all
        [(2**40, "32768.00"), (2**60, "34359738368.00")],
    )
    def test_apply_cal_unallocatable_cube_exits_2(
        self, tmp_path, capsys, n_bins, gib
    ):
        # the run's second record is outside its 2x2 matrix: reading it
        # would be exit 3, so exit 2 shows the cube is refused first
        run = tmp_path / "run.tpxe"
        write_events_file(
            run,
            ev.EventList(
                n_x=2,
                n_y=2,
                x=np.array([1, 9], np.uint16),
                y=np.array([1, 0], np.uint16),
                tot=np.array([8, 8], np.uint16),
                toa=np.arange(2, dtype=np.uint64),
            ),
        )
        cal = tmp_path / "cal.csv"
        ones, zeros = np.ones((2, 2)), np.zeros((2, 2))
        ev.write_calibration_csv(
            cal, ev.CalibrationMap(ones, zeros, zeros, zeros.astype(bool))
        )
        out = tmp_path / "run.sic"
        assert cli.main(
            ["apply-cal", "--events", str(run), "--cal", str(cal), "--out", str(out),
             "--n-bins", str(n_bins)]
        ) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: cannot allocate the 2x2x{n_bins} cube ({gib} GiB)\n"
        )
        assert not out.exists()

    def test_apply_cal_holds_one_buffer(self, tmp_path, monkeypatch):
        n = 64
        run = tmp_path / "run.tpxe"
        write_events_file(
            run,
            synthesize_line_events(
                8.0, np.ones((n, n)), np.zeros((n, n)), 50, np.random.default_rng(6)
            ),
        )
        cal = tmp_path / "cal.csv"
        ev.write_calibration_csv(
            cal,
            ev.CalibrationMap(
                gain=np.ones((n, n)),
                offset=np.zeros((n, n)),
                residual=np.zeros((n, n)),
                dead=np.zeros((n, n), dtype=bool),
            ),
        )
        monkeypatch.setattr(ev, "_READ_RECORDS", 4096)
        records_bytes = run.stat().st_size - ev.HEADER.size  # 3.2 MB
        tracemalloc.start()
        try:
            assert cli.main(
                ["apply-cal", "--events", str(run), "--cal", str(cal),
                 "--out", str(tmp_path / "run.sic"), "--n-bins", "10"]
            ) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 0.3 MB cube, the calibration maps and one 64 kB record buffer
        # with its temporaries; holding the run file's records would exceed it
        assert peak < records_bytes, (peak, records_bytes)

    def test_calibration_missing_column_io_exit(self, tmp_path, capsys):
        run = tmp_path / "run.tpxe"
        ones, zeros = np.ones((2, 2)), np.zeros((2, 2))
        rng = np.random.default_rng(3)
        write_events_file(run, synthesize_line_events(8.0, ones, zeros, 5, rng))
        cal = tmp_path / "cal.csv"
        cal.write_text("x,y,gain,residual,dead\n0,0,1.0,0.0,0\n")
        assert cli.main(
            ["apply-cal", "--events", str(run), "--cal", str(cal),
             "--out", str(tmp_path / "run.sic")]
        ) == cli.EXIT_IO
        assert f"{cal}: calibration CSV lacks column(s) offset" in (
            capsys.readouterr().err
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["", "   \n\n", "#\n"],
                             ids=["empty", "blank", "comment-only"])
    def test_empty_calibration_csv_io_exit(self, tmp_path, capsys, text):
        run = tmp_path / "run.tpxe"
        ones, zeros = np.ones((2, 2)), np.zeros((2, 2))
        rng = np.random.default_rng(3)
        write_events_file(run, synthesize_line_events(8.0, ones, zeros, 5, rng))
        cal = tmp_path / "cal.csv"
        cal.write_text(text)
        assert cli.main(
            ["apply-cal", "--events", str(run), "--cal", str(cal),
             "--out", str(tmp_path / "run.sic")]
        ) == cli.EXIT_IO
        assert capsys.readouterr().err.splitlines() == [
            f"input format error: {cal}: empty calibration CSV"
        ]

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("-3,0,1.0,0.0,0.0,0\n", "column x must hold non-negative integer"),
            ("nan,0,1.0,0.0,0.0,0\n", "column x must hold non-negative integer"),
            ("0,1.5,1.0,0.0,0.0,0\n", "column y must hold non-negative integer"),
            ("", "calibration CSV has no data rows"),
            ("0,0,1.0,0.0,0.0,0\n", "2x2 pixel matrix does not match the 1x1"),
            (
                "0,0,1.0,0.0,0.0,0\n4000000000,0,1.0,0.0,0.0,0\n",
                "pixel indices span a 4000000001x1 matrix but the calibration CSV "
                "has 2 data rows",
            ),
            (
                "0,0,1.0,0.0,0.0,0\n1,0,1.0,0.0,0.0,0\n0,1,1.0,0.0,0.0,0\n",
                "pixel indices span a 2x2 matrix but the calibration CSV has "
                "3 data rows",
            ),
            ("0,0,inf,0.0,0.0,0\n", "a live pixel has a non-finite gain or offset"),
        ],
        ids=[
            "negative-x", "nan-x", "fractional-y", "no-rows", "matrix-mismatch",
            "huge-x", "missing-row", "inf-gain",
        ],
    )
    def test_malformed_calibration_io_exit(self, tmp_path, capsys, rows, message):
        run = tmp_path / "run.tpxe"
        ones, zeros = np.ones((2, 2)), np.zeros((2, 2))
        rng = np.random.default_rng(3)
        write_events_file(run, synthesize_line_events(8.0, ones, zeros, 5, rng))
        cal = tmp_path / "cal.csv"
        cal.write_text("x,y,gain,offset,residual,dead\n" + rows)
        assert cli.main(
            ["apply-cal", "--events", str(run), "--cal", str(cal),
             "--out", str(tmp_path / "run.sic")]
        ) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert message in err
        assert str(cal) in err


class TestSicFormat:
    def test_header_and_roundtrip(self, tmp_path):
        from mpoxrf.sim import SpectralImage

        rng = np.random.default_rng(9)
        cube = SpectralImage(
            counts=rng.integers(0, 9, (8, 4, 16)).astype(np.uint64),
            e_min=0.5,
            e_bin_width=0.125,
            pixel_pitch_um=82.5,
            seed=777,
            photons=12345,
        )
        path = tmp_path / "c.sic"
        sic.write_sic(path, cube)
        assert path.stat().st_size == 56 + 8 * 8 * 4 * 16
        back = sic.read_sic(path)
        assert np.array_equal(back.counts, cube.counts)
        assert (back.n_y, back.n_x, back.n_bins) == (8, 4, 16)
        assert back.e_min == 0.5
        assert back.e_bin_width == 0.125
        assert back.pixel_pitch_um == 82.5
        assert back.seed == 777
        assert back.photons == 12345

    def test_length_mismatch_rejected(self, tmp_path):
        from mpoxrf.sim import SpectralImage

        cube = SpectralImage(
            counts=np.zeros((2, 2, 2), np.uint64),
            e_min=0.0,
            e_bin_width=1.0,
            pixel_pitch_um=55.0,
        )
        path = tmp_path / "c.sic"
        sic.write_sic(path, cube)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(fileio.FileFormatError, match="length"):
            sic.read_sic(path)

    @staticmethod
    def _cube(shape):
        from mpoxrf.sim import SpectralImage

        return SpectralImage(
            counts=np.zeros(shape, np.uint64),
            e_min=0.0,
            e_bin_width=0.25,
            pixel_pitch_um=55.0,
        )

    @staticmethod
    def _dense_bytes(cube):
        return sic.HEADER.pack(
            sic.MAGIC, cube.n_x, cube.n_y, cube.n_bins, cube.e_min,
            cube.e_bin_width, cube.pixel_pitch_um, cube.seed, cube.photons,
        ) + cube.counts.tobytes()

    @pytest.mark.parametrize("kind", ["zero", "last", "dense", "odd"])
    def test_bytes_on_disk_are_dense_layout(self, tmp_path, kind):
        # holes read back as zeros: the file's bytes are the v1 layout
        shape = (255, 3, 99) if kind == "odd" else (64, 64, 10)
        cube = self._cube(shape)
        if kind == "last":
            cube.counts[-1, -1, -1] = 1
        elif kind == "dense":
            cube.counts[:] = np.random.default_rng(3).integers(0, 2**63, shape)
        elif kind == "odd":
            cube.counts[::7, :, ::5] = 11  # a 605,880-byte body: no whole blocks
        path = tmp_path / "c.sic"
        sic.write_sic(path, cube)
        assert path.read_bytes() == self._dense_bytes(cube)
        assert np.array_equal(sic.read_sic(path).counts, cube.counts)

    def test_file_without_holes_reads_back(self, tmp_path):
        cube = self._cube((40, 30, 50))
        cube.counts[3, 4, 5] = 6
        cube.counts[-1, -1, -1] = 2**64 - 1
        path = tmp_path / "c.sic"
        path.write_bytes(self._dense_bytes(cube))
        assert np.array_equal(sic.read_sic(path).counts, cube.counts)

    @staticmethod
    def _fs_reports_holes(tmp_path):
        probe = tmp_path / "probe"
        with open(probe, "wb") as fh:
            fh.write(b"x")
            fh.truncate(1 << 20)
        info = probe.stat()
        probe.unlink()
        return info.st_blocks * 512 < info.st_size

    def test_zero_blocks_are_holes(self, tmp_path):
        if not self._fs_reports_holes(tmp_path):
            pytest.skip("the file system here allocates holes")
        cube = self._cube((256, 256, 100))
        cube.counts[5, 7, 9] = 3
        path = tmp_path / "c.sic"
        sic.write_sic(path, cube)
        info = path.stat()
        assert info.st_size == 56 + cube.counts.nbytes
        assert info.st_blocks * 512 < info.st_size / 10, info.st_blocks

    def test_write_to_pipe_is_dense(self, tmp_path):
        cube = self._cube((16, 16, 40))
        cube.counts[2, 3, 4] = 5
        path = tmp_path / "out.fifo"
        os.mkfifo(path)
        got = []
        reader = threading.Thread(target=lambda: got.append(path.read_bytes()),
                                  daemon=True)
        reader.start()
        try:
            sic.write_sic(path, cube)
        finally:
            reader.join(timeout=30)
        assert got == [self._dense_bytes(cube)]

    def test_write_copies_no_cube(self, tmp_path):
        # the odd shape's body is no whole number of blocks: no padded copy
        for shape in [(256, 256, 100), (255, 256, 99)]:
            cube = self._cube(shape)  # 50 MiB of counts
            tracemalloc.start()
            try:
                sic.write_sic(tmp_path / "c.sic", cube)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (shape, peak)

    def test_read_holds_one_cube(self, tmp_path):
        cube = self._cube((256, 256, 100))
        cube.counts[5, 7, 9] = 3
        path = tmp_path / "c.sic"
        sic.write_sic(path, cube)
        tracemalloc.start()
        try:
            back = sic.read_sic(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= cube.counts.nbytes + (1 << 20), peak
        assert np.array_equal(back.counts, cube.counts)

    def test_pipe_io_exit(self, tmp_path, capsys):
        # a pipe has no length to check the header against
        path = tmp_path / "fifo.sic"
        os.mkfifo(path)
        writer = os.open(path, os.O_RDWR | os.O_NONBLOCK)  # keeps open() from blocking
        try:
            assert cli.main(
                ["window", "--cube", str(path), "--lo", "0", "--hi", "1",
                 "--out-prefix", str(tmp_path / "x")]
            ) == cli.EXIT_IO
        finally:
            os.close(writer)
        assert capsys.readouterr().err == (
            f"input format error: {path}: not a regular file\n"
        )

    def test_file_shorter_than_its_size_says(self, tmp_path, monkeypatch):
        # a file that shrinks after its length is checked ends inside the read
        path = tmp_path / "c.sic"
        sic.write_sic(path, self._cube((2, 3, 4)))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        # fields 0 and 6: mode and size
        full = os.stat_result((stat.S_IFREG,) + (0,) * 5 + (len(data),) + (0,) * 3)
        monkeypatch.setattr(fileio.os, "fstat", lambda fd: full)
        with pytest.raises(fileio.FileFormatError) as err:
            sic.read_sic(path)
        assert str(err.value) == (
            f"{path}: file ends after {len(data) - 8} of {len(data)} bytes"
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_x", 0),
            ("n_y", 0),
            ("n_bins", 0),
            ("e_min", math.nan),
            ("e_bin_width", 0.0),
            ("e_bin_width", math.inf),
            ("pitch", -55.0),
        ],
    )
    def test_invalid_header_io_exit(self, tmp_path, capsys, field, value):
        head = dict(n_x=2, n_y=3, n_bins=4, e_min=0.0, e_bin_width=0.25, pitch=55.0)
        head[field] = value
        n_counts = head["n_x"] * head["n_y"] * head["n_bins"]
        path = tmp_path / "c.sic"
        path.write_bytes(sic.HEADER.pack(sic.MAGIC, *head.values(), 0, 0)
                         + bytes(8 * n_counts))
        assert cli.main(
            ["window", "--cube", str(path), "--lo", "0", "--hi", "1",
             "--out-prefix", str(tmp_path / "x")]
        ) == cli.EXIT_IO
        assert f"input format error: {path}: " in capsys.readouterr().err


def repr_rows(rows) -> bytes:
    """The text of ``_write_rows`` as one ``repr`` per value: its oracle."""
    return "".join(
        ",".join(map(repr, row)) + "\n" for row in np.asarray(rows, float).tolist()
    ).encode()


#: values whose text is at an edge of the whole-number path: the largest
#: digit counts, 2**53 (whole, but left to ``repr``), 1e16 (``repr`` is
#: "1e+16"), negative zero ("-0.0") and the non-finite values
EDGE_VALUES = [0.0, 9.0, 10.0, 2.0**53 - 1, 2.0**53, 1e16, -3.0, -0.0,
               math.nan, math.inf, -math.inf, 0.5, 2.0**52 + 0.5, 1e-300]


@st.composite
def mixed_rows(draw):
    """A float array, 1 x N, N x 1 or small, whose rows are whole numbers
    or mixed with the edge values and any float."""
    n_rows, n_cols = draw(st.one_of(
        st.tuples(st.just(1), st.integers(1, 40)),
        st.tuples(st.integers(1, 40), st.just(1)),
        st.tuples(st.integers(1, 8), st.integers(1, 8)),
    ))
    whole = st.integers(0, 2**53 + 2).map(float)
    mixed = st.one_of(
        whole,
        st.sampled_from(EDGE_VALUES),
        st.integers(-(2**53), -1).map(float),
        st.floats(),
    )
    return np.array([
        draw(st.lists(draw(st.sampled_from([whole, mixed])),
                      min_size=n_cols, max_size=n_cols))
        for _ in range(n_rows)
    ])


class TestIntText:
    def test_every_uint16_value(self):
        values = np.arange(65536).reshape(-1, 16)
        want = "".join(" ".join(map(str, row)) + "\n" for row in values.tolist())
        assert fileio._int_text(values, b"", b" ") == want.encode()

    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
               st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n),
               min_size=1, max_size=6)),
           st.sampled_from([b"", b".0"]), st.sampled_from([b" ", b","]))
    @settings(max_examples=200, deadline=None)
    def test_int64_values_equal_str(self, rows, tail, sep):
        want = "".join(
            sep.decode().join(str(v) + tail.decode() for v in row) + "\n"
            for row in rows
        )
        assert fileio._int_text(np.array(rows, np.int64), tail, sep) == want.encode()

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty(self, shape):
        assert fileio._int_text(np.zeros(shape, int), b".0", b",") == b"\n" * shape[0]

    @given(mixed_rows())
    @settings(max_examples=300, deadline=None)
    def test_write_rows_equals_repr(self, rows):
        fh = io.BytesIO()
        fileio._write_rows(fh, rows)
        assert fh.getvalue() == repr_rows(rows)


class TestImageCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        img = Image2D(values=rng.uniform(0, 100, (12, 7)), pitch_um=55.0)
        path = tmp_path / "img.csv"
        fileio.write_image_csv(path, img)
        back = fileio.read_image_csv(path)
        assert np.array_equal(back.values, img.values)
        assert back.pitch_um == 55.0

    def test_writers_exact_text(self, tmp_path):
        # each value is written as the repr of its Python float
        values = np.array([[1e-17, 123456.789], [0.0, 2.5]])
        fileio.write_image_csv(tmp_path / "img.csv", Image2D(values, pitch_um=55.0))
        assert (tmp_path / "img.csv").read_text() == (
            "# n_x=2 n_y=2 pitch_um=55.0\n1e-17,123456.789\n0.0,2.5\n"
        )
        fileio.write_atf_csv(
            tmp_path / "atf.csv",
            Atf(amplitude=values, freq_x=np.array([0.0, -9.0]),
                freq_y=np.array([0.0, 1e-17])),
        )
        assert (tmp_path / "atf.csv").read_text() == (
            "freq_y_lp_mm\\freq_x_lp_mm,0.0,-9.0\n"
            "0.0,1e-17,123456.789\n1e-17,0.0,2.5\n"
        )
        fileio.write_profile_csv(
            tmp_path / "profile.csv",
            PsfProfile(ProfileAxis.HORIZONTAL, positions=np.array([-0.5, 0.5]),
                       intensities=np.array([123456.789, 1e-17])),
        )
        assert (tmp_path / "profile.csv").read_text() == (
            "position_mm,intensity\n-0.5,123456.789\n0.5,1e-17\n"
        )

    @staticmethod
    def pgm_text(values) -> str:
        """The PGM of ``values`` with each numpy pixel formatted on its own."""
        n_y, n_x = values.shape
        if np.abs(values).max() > np.finfo(float).max / 2.0:
            values = values / 2.0  # the same scale, without overflow
        lo, hi = np.percentile(values, 1.0), np.percentile(values, 99.0)
        if hi <= lo:
            hi = max(lo + 1.0, np.nextafter(lo, np.inf))
        with np.errstate(over="ignore"):
            pixels = np.round(np.clip((values - lo) / (hi - lo), 0.0, 1.0) * 65535)
        rows = "".join(" ".join(str(v) for v in row) + "\n"
                       for row in pixels.astype(int))
        return f"P2\n# pitch_um=55.0\n{n_x} {n_y}\n65535\n" + rows

    @pytest.mark.parametrize("constant", [False, True])
    def test_pgm_text(self, tmp_path, constant):
        # a constant image takes the hi <= lo branch
        rng = np.random.default_rng(8)
        values = np.full((9, 13), 4.25) if constant else rng.gamma(2.0, 50.0, (9, 13))
        img = Image2D(values=values, pitch_um=55.0)
        fileio.write_pgm(tmp_path / "img.pgm", img)
        assert (tmp_path / "img.pgm").read_text() == self.pgm_text(values)

    @pytest.mark.parametrize(
        "values",
        [
            np.zeros((4, 6)),
            # most pixels clip to 0 or 65535
            np.repeat([[0.0, 1.0, 2.0, 1e9]], 50, axis=0),
            np.array([[7.5]]),
            # differences overflow the float range unless halved first
            np.array([[1.7e308, -1.7e308], [0.0, 1.0]]),
            # lo + 1 rounds back to lo
            np.full((2, 3), 1e20),
            # a 1e-300 span: the outliers scale past the float range, then clip
            np.repeat([0.0, 1e-300, 1e10], [500, 495, 5]).reshape(10, 100),
        ],
        ids=["zero", "saturated", "one_pixel", "overflow", "huge_constant",
             "tiny_span"],
    )
    @pytest.mark.filterwarnings("error")
    def test_pgm_text_edge_images(self, tmp_path, values):
        fileio.write_pgm(tmp_path / "img.pgm", Image2D(values, pitch_um=55.0))
        text = (tmp_path / "img.pgm").read_text()
        assert text == self.pgm_text(values)
        pixels = np.array(text.split()[6:], dtype=np.int64)
        assert pixels.size == values.size
        assert pixels.min() >= 0 and pixels.max() <= 65535

    def test_pgm_overflow_pixels(self, tmp_path):
        values = np.array([[1.7e308, -1.7e308], [0.0, 1.0]])
        fileio.write_pgm(tmp_path / "img.pgm", Image2D(values, pitch_um=55.0))
        assert (tmp_path / "img.pgm").read_text().splitlines()[4:] == [
            "65535 0", "32768 32768"
        ]

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "img.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(fileio.FileFormatError):
            fileio.read_image_csv(path)
