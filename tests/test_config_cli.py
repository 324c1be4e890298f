import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mpoxrf import cli, events as ev, fileio, sic
from mpoxrf.analysis import Image2D
from mpoxrf.config import ConfigError, load_config
from mpoxrf.optics import ReflectivityModel
from mpoxrf.sim import DetectorSpec

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
        assert cfg.mpo.reflectivity_model is ReflectivityModel.BINARY
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
        assert cfg.scene.sources[0].is_rect
        assert cfg.scene.sources[0].width == 4.0

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

    def test_calibrate_and_apply(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        n = 8
        gain = rng.uniform(0.04, 0.06, (n, n))
        offset = rng.uniform(-0.1, 0.1, (n, n))
        ls = ev.default_line_set()
        args = ["calibrate", "--out", str(tmp_path / "cal.csv")]
        for label, e_kev in ls.lines:
            path = tmp_path / f"{label}.tpxe"
            ev.write_events_file(
                path, ev.synthesize_line_events(e_kev, gain, offset, 3000, rng)
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
            ev.write_events_file(
                path,
                ev.synthesize_line_events(
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
        ev.write_events_file(
            path,
            ev.synthesize_line_events(
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

    def test_one_line_file_in_memory(self, tmp_path):
        rng = np.random.default_rng(31)
        n = 64
        gain = rng.uniform(0.10, 0.15, (n, n))
        offset = rng.uniform(-0.2, 0.2, (n, n))
        args = ["calibrate", "--out", str(tmp_path / "cal.csv")]
        all_events_bytes = 0
        for label, e_kev in ev.default_line_set().lines:
            path = tmp_path / f"{label}.tpxe"
            ev.write_events_file(
                path, ev.synthesize_line_events(e_kev, gain, offset, 200, rng)
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
            data = ev.write_events(
                ev.synthesize_line_events(e_kev, gain, offset, 50, rng)
            )
            path.write_bytes(data[:-7] if label == "Zr" else data)
            args += ["--events", f"{label}={path}"]
        assert cli.main(args) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert f"{tmp_path / 'Zr.tpxe'}: stream ends after 199 of 200 records" in err
        assert "Cu.tpxe" not in err
        assert not (tmp_path / "cal.csv").exists()

    def test_calibration_missing_column_io_exit(self, tmp_path, capsys):
        run = tmp_path / "run.tpxe"
        ones, zeros = np.ones((2, 2)), np.zeros((2, 2))
        rng = np.random.default_rng(3)
        ev.write_events_file(run, ev.synthesize_line_events(8.0, ones, zeros, 5, rng))
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
        ev.write_events_file(run, ev.synthesize_line_events(8.0, ones, zeros, 5, rng))
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
        ev.write_events_file(run, ev.synthesize_line_events(8.0, ones, zeros, 5, rng))
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
        with pytest.raises(sic.SicFormatError, match="length"):
            sic.read_sic(path)

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


class TestImageCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        img = Image2D(values=rng.uniform(0, 100, (12, 7)), pitch_um=55.0)
        path = tmp_path / "img.csv"
        fileio.write_image_csv(path, img)
        back = fileio.read_image_csv(path)
        assert np.array_equal(back.values, img.values)
        assert back.pitch_um == 55.0

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "img.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(fileio.FileFormatError):
            fileio.read_image_csv(path)
