import configparser
import hashlib
import io
import math
import os
import re
import stat
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpoxrf import analysis, cli, events as ev, fileio, sic, sim
from mpoxrf.analysis import AnalysisParams, Atf, Image2D, PsfProfile
from mpoxrf.config import ConfigError, load_config
from mpoxrf.optics import MpoGeometry, PathClass
from mpoxrf.sim import DetectorSpec, Scene
from support import (
    decode_sic,
    dense,
    detector_of,
    read_events,
    synthesize_line_events,
    write_events,
    write_events_file,
)

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


def run_in_3_gib(argv) -> subprocess.CompletedProcess:
    """Run ``mpoxrf argv`` in a child process whose address space is limited
    to 3 GiB."""
    limit = 3 << 30
    return subprocess.run(
        [sys.executable, "-c",
         "import resource, sys\n"
         f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
         "from mpoxrf.cli import main\n"
         "sys.exit(main(sys.argv[1:]))\n",
         *argv],
        # one BLAS thread: its buffers then take little of the address space
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
                 OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=120,
    )


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
            # theta_c is 124 deg: its tangent, the steepest slope a wall
            # reflects, would be negative
            ("lines", "0.04:1.0", "critical angle 124.1 deg of Ir at 0.04 keV"),
        ]
    ),
    (None, WINDOW + ["--lo", "nan"], "need e_lo < e_hi, got [nan, 9.0)"),
    (None, PSF + ["--energy", "nan"], "energy must be positive and finite, got nan"),
    (None, PSF + ["--energy", "inf"], "energy must be positive and finite, got inf"),
    (None, PSF + ["--energy", "0"], "energy must be positive and finite, got 0.0"),
    # theta_c is far past 90 deg: its tangent would give a negative arm
    (None, PSF + ["--energy", "1e-300"], "critical angle 4.963e+300 deg of Ir"),
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
            ("rows_averaged", "2", "odd", "2"),
            ("rows_averaged", "4", "odd", "4"),
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
    sic.write_sic(inp / "c.sic", sim.SpectralImage(DetectorSpec(n_x=4, n_y=4)))
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


@pytest.mark.parametrize("command", ["flatfield", "clean"])
@pytest.mark.parametrize(
    "shape, pitch, other",
    [((40, 60), 55.0, "60x40 image at 55.0 um pitch"),
     ((40, 50), 110.0, "50x40 image at 110.0 um pitch")],
    ids=["shape", "pitch"],
)
def test_image_grid_mismatch_io_exit(tmp_path, capsys, command, shape, pitch, other):
    # an image of another shape or pitch is refused, naming both files,
    # before any output is written
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    rng = np.random.default_rng(5)
    fileio.write_image_csv(first, Image2D(rng.uniform(1, 2, (40, 50)), 55.0))
    fileio.write_image_csv(second, Image2D(rng.uniform(1, 2, shape), pitch))
    out = tmp_path / "out"
    out.mkdir()
    if command == "flatfield":
        argv = ["flatfield", "--image", str(first), "--flat", str(second)]
    else:
        argv = ["clean", str(first), str(first), str(second)]
    assert cli.main(argv + ["--out-prefix", str(out / "x")]) == cli.EXIT_IO
    assert capsys.readouterr().err == (
        f"input format error: {second}: {other} does not match the 50x40 image "
        f"at 55.0 um pitch of {first}\n"
    )
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
        cube = decode_sic(out.read_bytes())
        assert cube.photons == 200000
        assert cube.seed == 3

    def test_line_above_the_90_deg_energy_simulates(self, tmp_path, capsys):
        # at 0.06 keV theta_c is 82.7 deg on iridium: every wall reflects
        path = tmp_path / "soft.ini"
        path.write_text(
            MINIMAL.replace("lines = 8.0:1.0", "lines = 0.06:1.0")
            .replace("threshold_kev = 2.0", "threshold_kev = 0.001")
        )
        out = tmp_path / "soft.sic"
        code = cli.main(["simulate", "--config", str(path), "--photons", "100000",
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        text = capsys.readouterr().out
        assert re.search(r"^  wall absorbed +0$", text, re.M)
        assert int(re.search(r"^  detected +(\d+)$", text, re.M).group(1)) > 0
        assert decode_sic(out.read_bytes()).counts.sum() > 0

    def test_zero_photons_valid(self, config_path, tmp_path):
        out = tmp_path / "zero.sic"
        code = cli.main(
            ["simulate", "--config", str(config_path), "--photons", "0",
             "--out", str(out)]
        )
        assert code == 0
        assert decode_sic(out.read_bytes()).counts.sum() == 0

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
        assert decode_sic(out.read_bytes()).seed == seed

    def test_wide_sparse_grid_simulates_in_3_gib(self, config_path, tmp_path):
        # a 65536x65536x1 detector: simulate holds nothing of the detector's
        # size, so it runs in a 3 GiB address space and writes a 32 GiB cube
        # that is almost all holes; only window's 64 GiB image is refused
        config_path.write_text(MINIMAL.replace(
            "n_x = 64\nn_y = 64",
            "n_x = 65536\nn_y = 65536\nn_bins = 1\ne_bin_width_kev = 25.0",
        ))
        path = tmp_path / "wide.sic"
        run = run_in_3_gib(["simulate", "--config", str(config_path),
                            "--out", str(path)])
        assert run.returncode == cli.EXIT_OK, run.stderr
        detected = int(re.search(r"^  detected +(\d+)$", run.stdout, re.M).group(1))
        assert detected > 0
        info = path.stat()
        assert info.st_size == sic.HEADER.size + 8 * 65536 * 65536
        assert info.st_blocks * 512 < info.st_size / 1000
        run = run_in_3_gib(["window", "--cube", str(path), "--lo", "0", "--hi", "25",
                            "--out-prefix", str(tmp_path / "w")])
        assert run.returncode == cli.EXIT_IO, run.stderr
        assert run.stderr == (
            f"input format error: {path}: a 65536x65536x1 cube needs a 64.00 GiB "
            "window image, which could not be allocated\n"
        )
        assert sorted(tmp_path.iterdir()) == [config_path, path]

    @pytest.mark.parametrize(
        "key, grid",
        [("n_x", "4294967296x64x100"), ("n_y", "64x4294967296x100"),
         ("n_bins", "64x64x4294967296")],
    )
    def test_grid_past_the_header_exits_2(
        self, config_path, tmp_path, capsys, monkeypatch, key, grid
    ):
        # a side above the header's u32 is refused when the config loads,
        # before the acceptance windows or any photon
        config_path.write_text(MINIMAL.replace(
            "[detector]\n", f"[detector]\n{key} = 4294967296\n"
        ).replace(f"\n{key} = 64\n", "\n"))

        def transport(*args):
            raise AssertionError("the transport started")

        monkeypatch.setattr(sim, "_acceptance_windows", transport)
        out = tmp_path / "x.sic"
        argv = ["simulate", "--config", str(config_path), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {config_path}: a {grid} grid is too large: a side is "
            "at most 4294967295 (a u32 of the SIC header), a grid 2**59 bins\n"
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

    def test_flatfield_counts_the_pixels_it_zeroes(self, tmp_path, capsys):
        # flat pixels below FLAT_EPSILON of the flat's mean are zeroed, not
        # divided, and counted in the summary line
        image, flat = tmp_path / "image.csv", tmp_path / "flat.csv"
        values = np.full((4, 4), 2.0)
        values[0, :3] = 0.0
        fileio.write_image_csv(image, Image2D(values=np.ones((4, 4)), pitch_um=55.0))
        fileio.write_image_csv(flat, Image2D(values=values, pitch_um=55.0))
        assert cli.main(["flatfield", "--image", str(image), "--flat", str(flat),
                         "--out-prefix", str(tmp_path / "ff")]) == 0
        assert capsys.readouterr().out == (
            "flat-field corrected; 3 pixel(s) masked invalid\n"
        )
        corr = fileio.read_image_csv(tmp_path / "ff.csv").values
        assert np.array_equal(corr[0, :3], np.zeros(3))
        assert np.all(corr[values > 0] > 0)

    def test_flatfield_with_non_positive_mean_flat_exits_4(self, tmp_path, capsys):
        # an all-zero flat cannot be normalised: an analysis error, not a
        # usage error, and nothing is written
        image, flat = tmp_path / "image.csv", tmp_path / "flat.csv"
        fileio.write_image_csv(image, Image2D(values=np.ones((2, 2)), pitch_um=55.0))
        fileio.write_image_csv(flat, Image2D(values=np.zeros((2, 2)), pitch_um=55.0))
        code = cli.main(["flatfield", "--image", str(image), "--flat", str(flat),
                         "--out-prefix", str(tmp_path / "ff")])
        assert code == cli.EXIT_ANALYSIS
        assert "flat image has non-positive mean" in capsys.readouterr().err
        assert not (tmp_path / "ff.csv").exists()
        assert not (tmp_path / "ff.pgm").exists()

    @pytest.mark.parametrize(
        "side, analysis, rule",
        [
            # the default 1 mm exclusion disc reaches half a 16x16 image
            (16, "", "exclusion radius must be smaller than half the image"),
            # 5 mm arm bands cover every pixel of a 40x40 image
            (40, "[analysis]\narm_half_width_mm = 5\n", "background region is empty"),
        ],
    )
    def test_clean_without_background_pixels_exits_4(
        self, tmp_path, capsys, side, analysis, rule
    ):
        # no pixel is left to measure the background on: one analysis error,
        # before any output is written
        yy, xx = np.mgrid[:side, :side]
        values = np.exp(-((xx - side / 2) ** 2 + (yy - side / 2) ** 2) / 8.0)
        image = tmp_path / "spot.csv"
        fileio.write_image_csv(image, Image2D(values=values, pitch_um=55.0))
        config = tmp_path / "run.ini"
        config.write_text(MINIMAL + analysis)
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(
            ["clean", str(image), "--config", str(config),
             "--out-prefix", str(out / "c")]
        ) == cli.EXIT_ANALYSIS
        assert capsys.readouterr().err == f"analysis error: {rule}\n"
        assert list(out.iterdir()) == []

    def test_psf_on_empty_image_analysis_exit(self, tmp_path):
        empty = tmp_path / "empty.csv"
        fileio.write_image_csv(
            empty, Image2D(values=np.zeros((32, 32)), pitch_um=55.0)
        )
        code = cli.main(
            ["psf", "--image", str(empty), "--out-prefix", str(tmp_path / "x")]
        )
        assert code == cli.EXIT_ANALYSIS

    @pytest.mark.parametrize("command", ["atf", "psf", "clean"])
    def test_window_without_counts_exits_4(self, tmp_path, capsys, command):
        # a window above every count of the cube is an all-zero image: no
        # peak for psf and clean, and no DC to measure atf's resolution by
        counts = np.zeros((32, 32, 100), np.uint64)
        counts[16, 16, 32] = 5  # 8.0-8.25 keV
        cube = sim.SpectralImage.from_counts(counts, DetectorSpec(n_x=32, n_y=32))
        sic.write_sic(tmp_path / "c.sic", cube)
        image = tmp_path / "img.csv"
        assert cli.main(["window", "--cube", str(tmp_path / "c.sic"), "--lo", "30",
                         "--hi", "40", "--out-prefix", str(tmp_path / "img")]) == 0
        out = tmp_path / "out"
        out.mkdir()
        argv = {
            "atf": ["atf", "--image", str(image), "--out", str(out / "atf.csv")],
            "psf": ["psf", "--image", str(image), "--out-prefix", str(out / "psf")],
            "clean": ["clean", str(image), "--out-prefix", str(out / "clean")],
        }[command]
        assert cli.main(argv) == cli.EXIT_ANALYSIS
        want = "no counts (ATF DC 0.0)" if command == "atf" else "no peak"
        assert f"analysis error: image has {want}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

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

    @pytest.mark.parametrize("lo, hi", [("9", "6"), ("6", "6"), ("nan", "9"),
                                        ("6", "nan")])
    @pytest.mark.parametrize("cube", [None, b"NOTSIC" + bytes(64)],
                             ids=["missing", "malformed"])
    def test_bad_window_exits_2_before_the_cube_is_opened(
        self, tmp_path, capsys, lo, hi, cube
    ):
        # a usage error whatever the cube: refused before the file is opened
        path = tmp_path / "c.sic"
        if cube is not None:
            path.write_bytes(cube)
        assert cli.main(
            ["window", "--cube", str(path), "--lo", lo, "--hi", hi,
             "--out-prefix", str(tmp_path / "w")]
        ) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: need e_lo < e_hi, got [{float(lo)}, {float(hi)})\n"
        )
        assert not (tmp_path / "w.csv").exists()

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
            (
                "# n_x=3 n_y=3 pitch_um=55.0\n1,2,3\n4,5,6\n",
                ": header names n_x=3 n_y=3, but the data is n_x=3 n_y=2",
            ),
            ("# n_x=2 pitch_um=55.0\n1,2,3\n", ": header names n_x=2, but the data"),
            ("# n_x=3.0 n_y=1 pitch_um=55.0\n1,2,3\n", ": n_x=3.0 is not an integer"),
        ],
        ids=[
            "ragged", "pitch-text", "pitch-negative", "nan", "inf", "no-rows",
            "non-utf8", "header-shape", "header-n-x-only", "header-not-integer",
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


    def test_cut_image_csv_atf_exits_3(self, tmp_path, capsys):
        # a 256x256 export cut to 100 rows is refused, not read as 100x256
        path = tmp_path / "img1.csv"
        fileio.write_image_csv(path, Image2D(np.ones((256, 256)), pitch_um=55.0))
        path.write_text("".join(path.read_text().splitlines(True)[:101]))
        out = tmp_path / "atf.csv"
        assert cli.main(["atf", "--image", str(path), "--out", str(out)]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "header names n_x=256 n_y=256, but the data is n_x=256 n_y=100" in err
        assert not out.exists()

    def test_atf_bad_threshold_exits_2_before_reading(self, tmp_path, capsys):
        # --threshold is refused as an [analysis] resolution_threshold, before
        # the image is opened: a missing image cannot turn it into exit 3
        out = tmp_path / "atf.csv"
        code = cli.main(["atf", "--image", str(tmp_path / "no-such.csv"),
                         "--threshold", "nan", "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: --threshold nan: resolution_threshold must be in "
            "(0, 1), got nan\n"
        )
        assert not out.exists()


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
        cube = decode_sic(out.read_bytes())
        spectrum = cube.counts.sum(axis=(0, 1))
        (peak_bin,) = ev.find_line_peaks(spectrum[None, :])
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
        run = run_in_3_gib(args)
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
            parsed = read_events(path)
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

    @staticmethod
    def _bad_second_record(tmp_path):
        """A 2x2 run file whose second record is outside its matrix, so
        that reading the records is exit 3, and an identity calibration;
        returns the apply-cal argv for them."""
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
        return ["apply-cal", "--events", str(run), "--cal", str(cal),
                "--out", str(tmp_path / "run.sic")]

    # past the header's u32, past the machine's memory, and past what numpy
    # can index at all
    @pytest.mark.parametrize("n_bins", [2**32, 2**40, 2**60])
    def test_apply_cal_grid_past_the_header_exits_2(self, tmp_path, capsys, n_bins):
        # exit 2, not 3: the detector is refused before any record is read
        argv = self._bad_second_record(tmp_path)
        assert cli.main(argv + ["--n-bins", str(n_bins)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: a 2x2x{n_bins} grid is too large: a side is at most "
            "4294967295 (a u32 of the SIC header), a grid 2**59 bins\n"
        )
        assert not (tmp_path / "run.sic").exists()

    def test_apply_cal_unallocatable_cube_exits_2(self, tmp_path):
        # the largest header side: a 2x2x(2^32-1) dense cube, 128 GiB, does
        # not fit a 3 GiB address space, and is refused before any record
        argv = self._bad_second_record(tmp_path)
        run = run_in_3_gib(argv + ["--n-bins", str(2**32 - 1)])
        assert run.returncode == cli.EXIT_CONFIG, run.stderr
        assert run.stderr == (
            "error: cannot allocate the 2x2x4294967295 cube (128.00 GiB)\n"
        )
        assert not (tmp_path / "run.sic").exists()

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

    def test_apply_cal_binning_flags_set_the_axes(self, tmp_path, capsys):
        # the cube's grid, energy axis and pitch are the detector that the
        # flags build; the header is read with the test decoder
        n = 4
        run = tmp_path / "run.tpxe"
        events = synthesize_line_events(
            2.25, np.full((n, n), 0.1), np.zeros((n, n)), 40,
            np.random.default_rng(8), energy_fwhm=0.3,
        )
        write_events_file(run, events)
        cal = tmp_path / "cal.csv"
        ev.write_calibration_csv(
            cal,
            ev.CalibrationMap(
                gain=np.full((n, n), 0.1),
                offset=np.zeros((n, n)),
                residual=np.zeros((n, n)),
                dead=np.zeros((n, n), dtype=bool),
            ),
        )
        out = tmp_path / "run.sic"
        assert cli.main(
            ["apply-cal", "--events", str(run), "--cal", str(cal), "--out", str(out),
             "--pitch-um", "82.5", "--e-min", "0.5", "--bin-width", "0.125",
             "--n-bins", "16"]
        ) == 0
        back = decode_sic(out.read_bytes())
        assert back is not None
        assert out.stat().st_size == 56 + 8 * n * n * 16
        assert (back.e_min, back.e_bin_width, back.pixel_pitch_um) == (0.5, 0.125, 82.5)
        assert (back.seed, back.photons) == (0, len(events))
        assert back.counts.shape == (n, n, 16)
        # each event at 0.1 keV per ToT unit, above the 2 keV threshold and
        # inside [0.5, 2.5) keV, in its bin
        energy = 0.1 * events.tot
        kept = (energy >= 2.0) & (energy < 2.5)
        want = np.zeros((n, n, 16), np.uint64)
        k = np.floor((energy[kept] - 0.5) / 0.125).astype(int)
        np.add.at(want, (events.y[kept], events.x[kept], k), np.uint64(1))
        assert want.sum() > 0
        assert np.array_equal(back.counts, want)
        assert f"binned {want.sum()} of {len(events)} events" in capsys.readouterr().out

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
            (
                # two live rows for pixel (0, 0), gains 0.1 and 0.5: neither
                # is the pixel's; a comment line is not a data row
                "0,0,0.1,0.0,0.0,0\n# comment\n1,0,1.0,0.0,0.0,0\n"
                "0,1,1.0,0.0,0.0,0\n1,1,1.0,0.0,0.0,0\n0,0,0.5,0.0,0.0,0\n",
                "pixel (0, 0) has more than one row: data rows 1 and 5",
            ),
        ],
        ids=[
            "negative-x", "nan-x", "fractional-y", "no-rows", "matrix-mismatch",
            "huge-x", "missing-row", "inf-gain", "repeated-row",
        ],
    )
    def test_malformed_calibration_io_exit(self, tmp_path, capsys, rows, message):
        run = tmp_path / "run.tpxe"
        ones, zeros = np.ones((2, 2)), np.zeros((2, 2))
        rng = np.random.default_rng(3)
        write_events_file(run, synthesize_line_events(8.0, ones, zeros, 5, rng))
        cal = tmp_path / "cal.csv"
        cal.write_text("x,y,gain,offset,residual,dead\n" + rows)
        out = tmp_path / "run.sic"
        assert cli.main(
            ["apply-cal", "--events", str(run), "--cal", str(cal), "--out", str(out)]
        ) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert message in err
        assert str(cal) in err
        assert not out.exists()


class TestSicFormat:
    def test_header_and_roundtrip(self, tmp_path):
        from mpoxrf.sim import SpectralImage

        rng = np.random.default_rng(9)
        cube = SpectralImage.from_counts(
            rng.integers(0, 9, (8, 4, 16)).astype(np.uint64),
            DetectorSpec(n_x=4, n_y=8, n_bins=16, e_min=0.5, e_bin_width=0.125,
                         pitch=82.5),
            seed=777,
            photons=12345,
        )
        path = tmp_path / "c.sic"
        sic.write_sic(path, cube)
        assert path.stat().st_size == 56 + 8 * 8 * 4 * 16
        back = decode_sic(path.read_bytes())
        assert np.array_equal(back.counts, dense(cube))
        assert back.counts.shape == (8, 4, 16)
        assert back.e_min == 0.5
        assert back.e_bin_width == 0.125
        assert back.pixel_pitch_um == 82.5
        assert back.seed == 777
        assert back.photons == 12345

    def test_length_mismatch_rejected(self, tmp_path):
        from mpoxrf.sim import SpectralImage

        cube = SpectralImage.from_counts(
            np.zeros((2, 2, 2), np.uint64),
            DetectorSpec(n_x=2, n_y=2, n_bins=2, e_min=0.0, e_bin_width=1.0,
                         pitch=55.0),
        )
        path = tmp_path / "c.sic"
        sic.write_sic(path, cube)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(fileio.FileFormatError, match="length"):
            sic.read_window(path, 0.0, 2.0)

    @staticmethod
    def _cube(counts):
        from mpoxrf.sim import SpectralImage

        return SpectralImage.from_counts(
            counts, detector_of(counts, e_min=0.0, e_bin_width=0.25, pitch=55.0)
        )

    @staticmethod
    def _bin_images(path, cube):
        """The cube in the SIC file ``path``, as ``read_window`` reads it: one
        window about each bin center, as floats."""
        det = cube.detector
        width = det.e_bin_width
        return np.stack([
            sic.read_window(path, center - width / 4, center + width / 4).values
            for center in det.e_min + (np.arange(det.n_bins) + 0.5) * width
        ], axis=2)

    @staticmethod
    def _dense_bytes(cube):
        det = cube.detector
        return sic.HEADER.pack(
            sic.MAGIC, det.n_x, det.n_y, det.n_bins, det.e_min,
            det.e_bin_width, det.pitch, cube.seed, cube.photons,
        ) + dense(cube).tobytes()

    @pytest.mark.parametrize("kind", ["zero", "last", "dense", "odd"])
    def test_bytes_on_disk_are_dense_layout(self, tmp_path, kind):
        # holes read back as zeros: the file's bytes are the v1 layout
        shape = (255, 3, 99) if kind == "odd" else (64, 64, 10)
        counts = np.zeros(shape, np.uint64)
        if kind == "last":
            counts[-1, -1, -1] = 1
        elif kind == "dense":
            counts[:] = np.random.default_rng(3).integers(0, 2**63, shape)
        elif kind == "odd":
            counts[::7, :, ::5] = 11  # a 605,880-byte body: no whole blocks
        cube = self._cube(counts)
        path = tmp_path / "c.sic"
        sic.write_sic(path, cube)
        assert path.read_bytes() == self._dense_bytes(cube)
        assert np.array_equal(self._bin_images(path, cube), dense(cube).astype(float))

    def test_file_without_holes_reads_back(self, tmp_path):
        counts = np.zeros((40, 30, 50), np.uint64)
        counts[3, 4, 5] = 6
        counts[-1, -1, -1] = 2**64 - 1
        cube = self._cube(counts)
        path = tmp_path / "c.sic"
        path.write_bytes(self._dense_bytes(cube))
        assert np.array_equal(self._bin_images(path, cube), dense(cube).astype(float))

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
        counts = np.zeros((256, 256, 100), np.uint64)
        counts[5, 7, 9] = 3
        cube = self._cube(counts)
        path = tmp_path / "c.sic"
        sic.write_sic(path, cube)
        info = path.stat()
        assert info.st_size == 56 + counts.nbytes
        assert info.st_blocks * 512 < info.st_size / 10, info.st_blocks

    def test_write_to_pipe_is_dense(self, tmp_path):
        counts = np.zeros((16, 16, 40), np.uint64)
        counts[2, 3, 4] = 5
        cube = self._cube(counts)
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
            cube = self._cube(np.zeros(shape, np.uint64))  # 50 MiB of counts
            tracemalloc.start()
            try:
                sic.write_sic(tmp_path / "c.sic", cube)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (shape, peak)

    @pytest.mark.parametrize("holes", [True, False], ids=["sparse", "dense"])
    def test_window_holds_no_cube(self, tmp_path, holes):
        # one uint64 image, its float copy and one read buffer: 1.5 MiB for
        # a 50 MiB cube, with or without holes
        counts = np.zeros((256, 256, 100), np.uint64)
        counts[5, 7, 30] = 3
        counts[200, :, 2] = 1
        cube = self._cube(counts)
        path = tmp_path / "c.sic"
        if holes:
            sic.write_sic(path, cube)
        else:
            path.write_bytes(self._dense_bytes(cube))
        tracemalloc.start()
        try:
            image = sic.read_window(path, 6.0, 9.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak
        want = np.zeros((256, 256))
        want[5, 7] = 3
        assert np.array_equal(image.values, want)
        assert image.pitch_um == cube.detector.pitch

    def test_window_of_a_cube_larger_than_memory(self, tmp_path):
        # a 1024x1024x400 cube is 3.1 GiB long and allocates one block; its
        # window fits a 3 GiB address space, where the cube itself does not
        n_x = n_y = 1024
        n_bins = 400
        path = tmp_path / "big.sic"
        with open(path, "wb") as fh:
            fh.write(sic.HEADER.pack(sic.MAGIC, n_x, n_y, n_bins, 0.0, 0.1, 55.0, 0, 3))
            # one count of 3 in bin 75 (7.55 keV) of pixel (512, 512)
            fh.seek(sic.HEADER.size + 8 * ((512 * n_x + 512) * n_bins + 75))
            fh.write(np.uint64(3).tobytes())
            fh.truncate(sic.HEADER.size + 8 * n_x * n_y * n_bins)
        run = run_in_3_gib(["window", "--cube", str(path), "--lo", "6", "--hi", "9",
                            "--out-prefix", str(tmp_path / "w")])
        assert run.returncode == cli.EXIT_OK, run.stderr
        assert run.stdout.startswith("window [6.0, 9.0) keV: 3 counts -> ")
        image = fileio.read_image_csv(tmp_path / "w.csv")
        assert image.values.shape == (n_y, n_x)
        assert image.values[512, 512] == 3 and image.values.sum() == 3

    def test_unallocatable_read_buffer_io_exit(self, tmp_path):
        # a 1x1x(2^32-1) cube, 32 GiB long, holding one count in bin 75: its
        # window bins are found without an array of bin centers, and its
        # one-pixel read buffer, 32 GiB, does not fit a 3 GiB address space.
        # Run only under that limit: the read would touch 32 GiB.
        n_bins = 2**32 - 1
        path = tmp_path / "deep.sic"
        with open(path, "wb") as fh:
            fh.write(sic.HEADER.pack(sic.MAGIC, 1, 1, n_bins, 0.0, 0.1, 55.0, 0, 1))
            fh.seek(sic.HEADER.size + 8 * 75)
            fh.write(np.uint64(1).tobytes())
            fh.truncate(sic.HEADER.size + 8 * n_bins)
        run = run_in_3_gib(["window", "--cube", str(path), "--lo", "6", "--hi", "9",
                            "--out-prefix", str(tmp_path / "w")])
        assert run.returncode == cli.EXIT_IO, run.stderr
        assert run.stderr == (
            f"input format error: {path}: a 1x1x{n_bins} cube needs a 32.00 GiB "
            "read buffer, which could not be allocated\n"
        )
        assert list(tmp_path.iterdir()) == [path]

    def test_unallocatable_window_image_io_exit(self, tmp_path):
        # a 65536x65536x1 cube, 32 GiB long, holding one count: its window
        # image, a u64 sum and a float a pixel, is 64 GiB, which does not fit
        # a 3 GiB address space; it is refused before any count is read.
        # Run only under that limit.
        side = 65536
        path = tmp_path / "wide.sic"
        with open(path, "wb") as fh:
            fh.write(sic.HEADER.pack(sic.MAGIC, side, side, 1, 7.0, 0.1, 55.0, 0, 1))
            fh.seek(sic.HEADER.size + 8 * (side * side // 2))
            fh.write(np.uint64(1).tobytes())
            fh.truncate(sic.HEADER.size + 8 * side * side)
        run = run_in_3_gib(["window", "--cube", str(path), "--lo", "6", "--hi", "9",
                            "--out-prefix", str(tmp_path / "w")])
        assert run.returncode == cli.EXIT_IO, run.stderr
        assert run.stderr == (
            f"input format error: {path}: a {side}x{side}x1 cube needs a 64.00 GiB "
            "window image, which could not be allocated\n"
        )
        assert list(tmp_path.iterdir()) == [path]

    def test_simulate_a_cube_larger_than_memory(self, config_path, tmp_path):
        # a 1024x1024x400 detector's cube is 3.1 GiB dense; held as its
        # non-zero bins, it is simulated, written and windowed in a 3 GiB
        # address space
        config_path.write_text(
            MINIMAL.replace("n_x = 64\nn_y = 64",
                            "n_x = 1024\nn_y = 1024\nn_bins = 400")
        )
        path = tmp_path / "big.sic"
        run = run_in_3_gib(["simulate", "--config", str(config_path),
                            "--out", str(path)])
        assert run.returncode == cli.EXIT_OK, run.stderr
        detected = int(re.search(r"^  detected +(\d+)$", run.stdout, re.M).group(1))
        assert detected > 0
        assert path.stat().st_size == sic.HEADER.size + 8 * 1024 * 1024 * 400
        # every bin: 400 bins of 0.25 keV from 0 keV
        run = run_in_3_gib(["window", "--cube", str(path), "--lo", "0", "--hi", "100",
                            "--out-prefix", str(tmp_path / "w")])
        assert run.returncode == cli.EXIT_OK, run.stderr
        assert run.stdout.startswith(f"window [0.0, 100.0) keV: {detected} counts -> ")

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
        sic.write_sic(path, self._cube(np.zeros((2, 3, 4), np.uint64)))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        # fields 0 and 6: mode and size
        full = os.stat_result((stat.S_IFREG,) + (0,) * 5 + (len(data),) + (0,) * 3)
        monkeypatch.setattr(fileio.os, "fstat", lambda fd: full)
        with pytest.raises(fileio.FileFormatError) as err:
            sic.read_window(path, 0.0, 1.0)
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
            ("e_min", math.inf),
            ("e_min", -math.inf),
            ("e_bin_width", 0.0),
            ("e_bin_width", -1.0),
            ("e_bin_width", math.nan),
            ("e_bin_width", math.inf),
            ("pitch", -55.0),
            ("pitch", 0.0),
            ("pitch", math.nan),
            ("pitch", math.inf),
            ("grid", 2**32 - 1),  # every side at the u32 limit
        ],
    )
    def test_invalid_header_io_exit(self, tmp_path, capsys, field, value):
        # a header is read as a DetectorSpec: refused by the rule of the
        # [detector] key, naming the file, before any output is written
        head = dict(n_x=2, n_y=3, n_bins=4, e_min=0.0, e_bin_width=0.25, pitch=55.0)
        if field == "grid":
            head.update(n_x=value, n_y=value, n_bins=value)
        else:
            head[field] = value
        n_counts = head["n_x"] * head["n_y"] * head["n_bins"]
        path = tmp_path / "c.sic"
        # the rule is checked before the length: the grid's body, 2**99
        # bytes, is left out
        path.write_bytes(struct.pack("<4sIIIdddQQ", b"SIC1", *head.values(), 0, 0)
                         + bytes(8 * n_counts if n_counts < 2**20 else 0))
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(
            ["window", "--cube", str(path), "--lo", "0", "--hi", "1",
             "--out-prefix", str(out / "x")]
        ) == cli.EXIT_IO
        rule = {
            "e_min": f"e_min must be finite, got {value}",
            "e_bin_width": f"energy bin width must be positive and finite, got {value}",
            "pitch": f"pixel pitch must be positive and finite, got {value}",
            "grid": f"a {value}x{value}x{value} grid is too large: a side is at "
                    "most 4294967295 (a u32 of the SIC header), a grid 2**59 bins",
        }.get(field, "pixel and energy bin counts must be positive")
        assert capsys.readouterr().err == f"input format error: {path}: {rule}\n"
        assert list(out.iterdir()) == []

    @settings(max_examples=50, deadline=None)
    @given(
        det=st.builds(
            DetectorSpec,
            n_x=st.integers(1, 5),
            n_y=st.integers(1, 5),
            pitch=st.floats(0.0, exclude_min=True, allow_infinity=False),
            energy_fwhm=st.floats(0.0, 10.0),
            threshold=st.floats(-10.0, 10.0),
            e_min=st.floats(allow_nan=False, allow_infinity=False),
            e_bin_width=st.floats(0.0, exclude_min=True, allow_infinity=False),
            n_bins=st.integers(1, 40),
        ),
        data=st.data(),
    )
    def test_header_reads_as_the_detector(self, tmp_path_factory, det, data):
        # the six grid fields round-trip; the file holds no energy response,
        # so the FWHM and threshold read back as DetectorSpec's defaults
        size = det.n_y * det.n_x * det.n_bins
        cells = data.draw(st.dictionaries(
            st.integers(0, size - 1), st.integers(1, 2**64 - 1), max_size=6
        ))
        counts = np.zeros((det.n_y, det.n_x, det.n_bins), np.uint64)
        counts.reshape(-1)[list(cells)] = list(cells.values())
        path = tmp_path_factory.getbasetemp() / "header.sic"
        sic.write_sic(path, sim.SpectralImage.from_counts(counts, det))
        with sic._open_sic(path) as (_, back):
            assert type(back) is DetectorSpec
            assert back == DetectorSpec(
                n_x=det.n_x,
                n_y=det.n_y,
                pitch=det.pitch,
                e_min=det.e_min,
                e_bin_width=det.e_bin_width,
                n_bins=det.n_bins,
            )


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

#: NaNs of either sign with a payload: distinct bit patterns, one text
NAN_PAYLOADS = st.builds(
    lambda sign, payload: np.array(sign << 63 | 0x7FF << 52 | payload, np.uint64)
    .view(float).item(),
    st.integers(0, 1), st.integers(1, 2**52 - 1),
)


@st.composite
def mixed_rows(draw):
    """A float array, 1 x N, N x 1 or small, whose rows are whole numbers,
    mixed with the edge values, NaN payloads and any float, or drawn from a
    few such values, so that most values repeat."""
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
        NAN_PAYLOADS,
        st.floats(),
    )
    repeats = st.sampled_from(draw(st.lists(mixed, min_size=1, max_size=3)))
    return np.array([
        draw(st.lists(draw(st.sampled_from([whole, mixed, repeats])),
                      min_size=n_cols, max_size=n_cols))
        for _ in range(n_rows)
    ])


class TestIntText:
    def test_every_uint16_value(self):
        values = np.arange(65536).reshape(-1, 16)
        want = "".join(" ".join(map(str, row)) + "\n" for row in values.tolist())
        assert fileio._int_text(values, b"", b" ") == want.encode()

    # the callers pass no negative value: PGM pixels are in 0..65535, and
    # CSV rows are whole, non-negative uint64
    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
               st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n),
               min_size=1, max_size=6)),
           st.sampled_from([b"", b".0"]), st.sampled_from([b" ", b","]))
    @settings(max_examples=200, deadline=None)
    def test_int64_values_equal_str(self, rows, tail, sep):
        want = "".join(
            sep.decode().join(str(v) + tail.decode() for v in row) + "\n"
            for row in rows
        )
        assert fileio._int_text(np.array(rows, np.uint64), tail, sep) == want.encode()

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty(self, shape):
        assert fileio._int_text(np.zeros(shape, int), b".0", b",") == b"\n" * shape[0]

    @given(mixed_rows())
    @settings(max_examples=300, deadline=None)
    @example(np.array([[0.0, -0.0, 0.0, -0.0], [2.0, 3.0, 4.0, 5.0],
                       [math.nan, -math.nan, math.inf, -math.inf],
                       [0.1, 0.1, 0.1, -0.1]]))
    @example(np.array([0x7FF8000000000001, 0x7FF8000000000000, 0xFFF0000000000002,
                       0, 1 << 63], np.uint64).view(float).reshape(1, -1))
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
            PsfProfile(positions=np.array([-0.5, 0.5]),
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


#: sample values for the order statistics: ties, both zeros, whole numbers,
#: and any finite float short of the overflow of a difference
ORDER_VALUES = (
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5])
    | st.integers(-3, 3).map(float)
    | st.floats(-1e300, 1e300)
)


class TestWithoutNumpyMa:
    """The sort and partition forms that stand in for ``np.unique``,
    ``np.percentile`` and ``np.median``, whose first call in a process
    imports ``numpy.ma``, return what those functions return."""

    @staticmethod
    def same(got, want, values) -> bool:
        # equal floats, with equal zero signs; where the input ties +0.0 with
        # -0.0, a partition may place either at a rank
        mixed = np.any((values == 0) & np.signbit(values)) and np.any(
            (values == 0) & ~np.signbit(values))
        return got == want and (mixed or np.signbit(got) == np.signbit(want))

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(ORDER_VALUES, min_size=1, max_size=40),
           rows=st.sampled_from([None, 1, 2]),
           q=st.sampled_from([0.0, 1.0, 50.0, 99.0, 100.0]) | st.floats(0.0, 100.0))
    def test_percentile(self, values, rows, q):
        values = np.array(values)
        if rows is not None and values.size % rows == 0:
            values = values.reshape(rows, -1)  # write_pgm passes an image
        got = fileio._percentile(values, q)
        assert self.same(got, np.percentile(values, q), values)

    @pytest.mark.parametrize("values", [[-0.0], [5.0], [-0.0, -0.0], [3.0, 3.0],
                                        [-0.0, 0.0, 7.0], [1.0, 2.0]])
    def test_percentile_of_one_or_two_values(self, values):
        values = np.array(values)
        for q in (1.0, 99.0):
            assert self.same(fileio._percentile(values, q), np.percentile(values, q), values)

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(ORDER_VALUES, min_size=1, max_size=40))
    def test_median(self, values):
        values = np.array(values)
        got = analysis._median(values)
        assert got == np.median(values)
        assert np.signbit(got) == np.signbit(np.median(values))

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(ORDER_VALUES, min_size=0, max_size=40))
    def test_sorted_unique(self, values):
        values = np.array(values, dtype=float)
        got, want = sim._sorted_unique(values), np.unique(values)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_commands_do_not_import_numpy_ma(self, tmp_path):
        # a fresh interpreter, as each command runs; the flat field's
        # rectangle source takes the acceptance-window knots, and psf the
        # profile background
        configs = Path(__file__).resolve().parents[1] / "configs"
        rng = np.random.default_rng(4)
        lines = []
        for label, kev in ev.default_line_set().lines:
            write_events_file(tmp_path / f"{label}.tpxe", synthesize_line_events(
                kev, np.full((4, 4), 0.05), np.zeros((4, 4)), 200, rng))
            lines += ["--events", f"{label}={label}.tpxe"]
        # numpy 1.x imports numpy.ma with numpy itself; only what the commands
        # add can be checked, so the script exits 77 where it is already there
        script = f"""
import sys
from mpoxrf.cli import main
if "numpy.ma" in sys.modules:
    sys.exit(77)
for argv in (
    ["simulate", "--config", {str(configs / "flatfield.ini")!r},
     "--photons", "200000", "--out", "flat.sic"],
    ["simulate", "--config", {str(configs / "reference.ini")!r},
     "--photons", "2000000", "--out", "cu.sic"],
    ["window", "--cube", "flat.sic", "--lo", "6", "--hi", "9", "--out-prefix", "flat"],
    ["window", "--cube", "cu.sic", "--lo", "6", "--hi", "9", "--out-prefix", "cu"],
    ["psf", "--image", "cu.csv", "--out-prefix", "psf"],
    ["clean", "cu.csv", "cu.csv", "--out-prefix", "clean"],
    ["atf", "--image", "cu.csv", "--out", "atf.csv"],
    ["flatfield", "--image", "cu.csv", "--flat", "flat.csv", "--out-prefix", "ff"],
    ["calibrate", *{lines!r}, "--out", "cal.csv"],
    ["apply-cal", "--events", "Cu.tpxe", "--cal", "cal.csv", "--out", "run.sic"],
):
    assert main(argv) == 0, argv
    assert "numpy.ma" not in sys.modules, argv
"""
        run = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
            capture_output=True, text=True, timeout=120,
        )
        if run.returncode == 77:
            pytest.skip("this numpy imports numpy.ma with numpy itself")
        assert run.returncode == 0, run.stderr

    def test_commands_do_not_import_a_process_pool(self, tmp_path):
        # a fresh interpreter, as each command runs: concurrent.futures
        # brings multiprocessing and socket with it, and only a pool of
        # workers needs it; a 2 M-photon simulate is one chunk, so --jobs 2
        # runs it in-process
        configs = Path(__file__).resolve().parents[1] / "configs"
        script = f"""
import sys
from mpoxrf.cli import main
from mpoxrf.sim import run_tasks
pool = ("concurrent.futures", "multiprocessing")
for argv in (
    ["simulate", "--config", {str(configs / "flatfield.ini")!r},
     "--photons", "200000", "--out", "flat.sic"],
    ["simulate", "--config", {str(configs / "reference.ini")!r},
     "--photons", "2000000", "--jobs", "2", "--out", "cu.sic"],
    ["window", "--cube", "flat.sic", "--lo", "6", "--hi", "9", "--out-prefix", "flat"],
    ["window", "--cube", "cu.sic", "--lo", "6", "--hi", "9", "--out-prefix", "cu"],
    ["psf", "--image", "cu.csv", "--out-prefix", "psf"],
    ["atf", "--image", "cu.csv", "--out", "atf.csv"],
    ["clean", "cu.csv", "cu.csv", "--out-prefix", "clean"],
    ["flatfield", "--image", "cu.csv", "--flat", "flat.csv", "--out-prefix", "ff"],
):
    assert main(argv) == 0, argv
    assert not [name for name in pool if name in sys.modules], argv
# two tasks on two workers do start a pool, and the check sees its import
assert list(run_tasks(abs, [1, -2], 2)) == [1, 2]
assert all(name in sys.modules for name in pool)
"""
        run = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
            capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr

    @staticmethod
    def _import_in_fresh_interpreter(script, **env):
        # this process has already set OPENBLAS_NUM_THREADS by importing
        # mpoxrf, so the child starts from an environment without it
        child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        child_env.update(env, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-c", "import mpoxrf\n" + script], env=child_env,
            capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 0, run.stderr
        return run.stdout.split()

    def test_import_runs_one_blas_thread(self):
        # numpy's OpenBLAS would start a worker per extra CPU, each spinning
        # for 0.05-0.15 s of CPU; the package calls no BLAS routine, so it
        # asks for one thread when the user chose no count
        threads, value, idle_ms = self._import_in_fresh_interpreter("""
import os, resource, time
try:
    with open("/proc/self/status") as fh:
        threads = [line.split()[1] for line in fh if line.startswith("Threads:")][0]
except OSError:
    threads = "unknown"
def cpu():
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime
start = cpu()
time.sleep(0.3)
print(threads, os.environ.get("OPENBLAS_NUM_THREADS", "unset"), 1000 * (cpu() - start))
""")
        assert float(idle_ms) < 20.0, f"{idle_ms} ms of CPU over a 0.3 s sleep"
        assert value == "1"
        if threads == "unknown":
            pytest.skip("no /proc/self/status to count threads in")
        assert threads == "1"

    def test_import_keeps_a_chosen_blas_thread_count(self):
        (value,) = self._import_in_fresh_interpreter(
            "import os\nprint(os.environ['OPENBLAS_NUM_THREADS'])",
            OPENBLAS_NUM_THREADS="2",
        )
        assert value == "2"
