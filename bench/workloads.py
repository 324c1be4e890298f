"""The three benchmark workloads: their CLI steps, output checks and counters.

Checks are statistical or exact bookkeeping identities, never byte hashes
of outputs, so a change that alters random-number consumption but keeps
every distribution still passes them.  Every check is attached to the step
whose output it inspects; a step fails when it exits non-zero or any of
its checks fails.  Output files are read with the benchmark's own readers
of the documented formats.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import LINES_KEV, N_X, N_Y, generate_calibration_inputs

SIC_HEADER = struct.Struct("<4sIIIdddQQ")
CLASS_NAMES = ("central_focus", "arm_along_x", "arm_along_z", "diffuse", "direct")
#: Photon losses printed by ``simulate``; a tally it stops printing counts 0.
LOSS_TALLIES = ("missed_plate", "web_absorbed", "wall_absorbed", "off_detector",
                "below_threshold", "outside_band")
MIB = float(1 << 20)

FOCUS_FWHM_MAX_MM = 0.2  # acceptance criterion 3
CROSS_TALK_MAX = 0.10  # acceptance criterion 5
GAIN_RMS_MAX = 0.01  # acceptance criterion 6
LINE_ERROR_MAX_KEV = 0.1  # acceptance criterion 6


@dataclass
class Outcome:
    """Check results and exact counters of one pipeline run."""

    failures: dict[int, list[str]] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)

    def check(self, step: int, ok: bool, message: str) -> None:
        if not ok:
            self.failures.setdefault(step, []).append(message)

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


def read_sic(path: Path):
    """(counts (n_y, n_x, n_bins) uint64, bin centers keV) of a SIC file."""
    data = path.read_bytes()
    _, n_x, n_y, n_bins, e_min, width, *_ = SIC_HEADER.unpack_from(data, 0)
    counts = np.frombuffer(data, dtype="<u8", offset=SIC_HEADER.size)
    centers = e_min + (np.arange(n_bins) + 0.5) * width
    return counts.reshape(n_y, n_x, n_bins), centers


def read_image_csv(path: Path) -> tuple[np.ndarray, float]:
    """(values, pixel pitch mm) of an image CSV export."""
    with open(path) as fh:
        header = fh.readline()
        pitch_um = float(re.search(r"pitch_um=(\S+)", header).group(1))
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    return values, pitch_um * 1e-3


def parse_simulate(stdout: str) -> dict[str, int]:
    """Emitted count, tallies and per-class counts printed by ``simulate``."""
    out = {"emitted": int(re.search(r"simulated (\d+) photons", stdout).group(1))}
    for label, value in re.findall(r"^  (\S+(?: \S+)*?)\s+(\d+)$", stdout, re.M):
        out[label.replace(" ", "_")] = int(value)
    return out


class Workload:
    """Base: subclasses set name/why/configs and implement steps/check."""

    name = ""
    why = ""
    config_names: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()  # printed with the per-layer metrics

    def __init__(self, root: Path, input_dir: Path, seed: int):
        self.root = root
        self.input_dir = input_dir
        self.seed = seed

    @property
    def configs(self) -> list[str]:
        return [str(self.root / "configs" / name) for name in self.config_names]

    def steps(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self, out_dir: Path, stdouts: list[str]) -> Outcome:
        raise NotImplementedError

    # shared checks -------------------------------------------------------

    def _check_simulate(self, outcome, step, stdout, cube_path, photons):
        tallies = parse_simulate(stdout)
        emitted, detected = tallies["emitted"], tallies["detected"]
        losses = sum(tallies.get(k, 0) for k in LOSS_TALLIES)
        outcome.check(step, emitted == photons,
                      f"simulate emitted {emitted}, asked for {photons}")
        outcome.check(step, losses + detected == emitted,
                      f"tallies not conserved: losses {losses} + detected "
                      f"{detected} != emitted {emitted}")
        classes = sum(tallies.get(c, 0) for c in CLASS_NAMES)
        outcome.check(step, classes == detected,
                      f"class counts sum {classes} != detected {detected}")
        counts, centers = read_sic(cube_path)
        total = int(counts.sum(dtype=np.uint64))
        outcome.check(step, total == detected,
                      f"{cube_path.name} total {total} != detected {detected}")
        for key, value in tallies.items():
            outcome.add(f"sim.{key}", value)
        self._count_cube(outcome, cube_path, counts)
        return counts, centers

    @staticmethod
    def _count_cube(outcome, path, counts):
        outcome.add("sic.bytes", path.stat().st_size)
        outcome.add("sic.nonzero", np.count_nonzero(counts))
        outcome.add("sic.bins", counts.size)

    def _check_window(self, outcome, step, cube, lo, hi, image_path):
        values, pitch_mm = read_image_csv(image_path)
        counts, centers = cube
        want = float(counts[:, :, (centers >= lo) & (centers < hi)].sum())
        outcome.check(step, values.sum() == want,
                      f"{image_path.name} total {values.sum()} != cube "
                      f"[{lo}, {hi}) keV total {want}")
        return values, pitch_mm


class PointPsf(Workload):
    name = "point_psf"
    why = ("reference Cu point source, --jobs 1: serial transport, three "
           "52 MB cubes written and read, then the PSF and background chain")
    config_names = ("reference.ini",)
    photons = 4_000_000

    def _seeds(self):
        return [self.seed * 1000 + k for k in (1, 2, 3)]

    def steps(self):
        cfg = self.configs[0]
        out = []
        for k, s in enumerate(self._seeds(), 1):
            out.append(["simulate", "--config", cfg, "--photons", str(self.photons),
                        "--seed", str(s), "--jobs", "1", "--out", f"cube{k}.sic"])
        for k in (1, 2, 3):
            out.append(["window", "--cube", f"cube{k}.sic", "--lo", "6.0",
                        "--hi", "9.0", "--out-prefix", f"img{k}"])
        out.append(["psf", "--image", "img1.csv", "--config", cfg,
                    "--energy", "8.0", "--out-prefix", "psf"])
        out.append(["atf", "--image", "img1.csv", "--out", "atf.csv"])
        out.append(["clean", "img1.csv", "img2.csv", "img3.csv", "--config", cfg,
                    "--out-prefix", "clean"])
        return out

    def check(self, out_dir, stdouts):
        outcome = Outcome()
        for k in range(3):
            cube = self._check_simulate(outcome, k, stdouts[k],
                                        out_dir / f"cube{k + 1}.sic", self.photons)
            self._check_window(outcome, 3 + k, cube, 6.0, 9.0,
                               out_dir / f"img{k + 1}.csv")
        widths = [float(w) for w in
                  re.findall(r"(?:horizontal|vertical) FWHM: ([\d.]+) mm", stdouts[6])]
        outcome.check(6, len(widths) == 2, "psf printed no FWHM pair")
        if len(widths) == 2:
            outcome.check(6, sum(widths) / 2 <= FOCUS_FWHM_MAX_MM,
                          f"focused FWHM {sum(widths) / 2:.4f} mm > "
                          f"{FOCUS_FWHM_MAX_MM} mm")
        atf_rows = np.loadtxt(out_dir / "atf.csv", delimiter=",", skiprows=1)
        outcome.check(7, atf_rows.shape == (N_Y, N_X + 1),
                      f"atf.csv has shape {atf_rows.shape}")
        ideal, _ = read_image_csv(out_dir / "clean_idealized.csv")
        outcome.check(8, math.isclose(float(ideal.max()), 1.0),
                      f"idealized PSF peak {ideal.max()} is not normalized to 1")
        return outcome


def site_counts(values, pitch_mm, x_mm, z_mm, radius_mm=1.0) -> float:
    """Counts within ``radius_mm`` of a detector position (acceptance 5)."""
    n_y, n_x = values.shape
    ys, xs = np.mgrid[0:n_y, 0:n_x]
    px = (xs - n_x / 2 + 0.5) * pitch_mm
    pz = (ys - n_y / 2 + 0.5) * pitch_mm
    return float(values[np.hypot(px - x_mm, pz - z_mm) <= radius_mm].sum())


class ExtendedMap(Workload):
    name = "extended_map"
    why = ("Ti+Cu points and a 16 mm flat emitter, --jobs 2: multi-source "
           "emission, the process-pool and merge path, flat-field correction")
    config_names = ("elemental.ini", "flatfield.ini")
    photons = 4_000_000
    ti_site = (-1.5, -1.5)  # source positions in elemental.ini, mm
    cu_site = (1.5, 1.5)
    min_site_counts = 300
    notes = ("simulate runs --jobs 2, so batch transport happens in pool "
             "workers whose spans are not visible from the traced process: "
             "sim.batch*, sim.emission_s and sim.unfold_s read 0 here and "
             "sim.merge_s holds all of simulate",)

    def steps(self):
        elemental, flat = self.configs
        sim = ["--photons", str(self.photons), "--jobs", "2"]
        return [
            ["simulate", "--config", elemental, *sim,
             "--seed", str(self.seed * 1000 + 1), "--out", "elemental.sic"],
            ["simulate", "--config", flat, *sim,
             "--seed", str(self.seed * 1000 + 2), "--out", "flat.sic"],
            ["window", "--cube", "elemental.sic", "--lo", "2.5", "--hi", "5.5",
             "--out-prefix", "ti"],
            ["window", "--cube", "elemental.sic", "--lo", "6.0", "--hi", "9.0",
             "--out-prefix", "cu"],
            ["window", "--cube", "flat.sic", "--lo", "6.0", "--hi", "9.0",
             "--out-prefix", "flat"],
            ["flatfield", "--image", "cu.csv", "--flat", "flat.csv",
             "--out-prefix", "cu_flat"],
        ]

    def check(self, out_dir, stdouts):
        outcome = Outcome()
        elem = self._check_simulate(outcome, 0, stdouts[0],
                                    out_dir / "elemental.sic", self.photons)
        flat = self._check_simulate(outcome, 1, stdouts[1],
                                    out_dir / "flat.sic", self.photons)
        ti, pitch = self._check_window(outcome, 2, elem, 2.5, 5.5, out_dir / "ti.csv")
        cu, _ = self._check_window(outcome, 3, elem, 6.0, 9.0, out_dir / "cu.csv")
        self._check_window(outcome, 4, flat, 6.0, 9.0, out_dir / "flat.csv")
        for label, img, same, cross in (("Ti", ti, self.ti_site, self.cu_site),
                                        ("Cu", cu, self.cu_site, self.ti_site)):
            n_same = site_counts(img, pitch, *same)
            n_cross = site_counts(img, pitch, *cross)
            outcome.check(3, n_same >= self.min_site_counts,
                          f"{label} map has only {n_same:.0f} counts at its site")
            outcome.check(3, n_cross < CROSS_TALK_MAX * n_same,
                          f"{label} cross-talk {n_cross:.0f} >= "
                          f"{CROSS_TALK_MAX:.0%} of {n_same:.0f}")
        corrected, _ = read_image_csv(out_dir / "cu_flat.csv")
        outcome.check(5, corrected.shape == cu.shape and np.isfinite(corrected).all(),
                      "flat-field output has the wrong shape or non-finite values")
        return outcome


def _line_peak_kev(spectrum, centers, line_kev, half_window_kev=0.6):
    """Line position from a parabola fitted to log counts around the
    local maximum nearest ``line_kev``."""
    near = np.nonzero(np.abs(centers - line_kev) <= 0.5)[0]
    top = near[np.argmax(spectrum[near])]
    win = (np.abs(centers - centers[top]) <= half_window_kev) & (spectrum > 0)
    a, b, _ = np.polyfit(centers[win] - centers[top], np.log(spectrum[win]), 2)
    return float(centers[top] - b / (2 * a))


class CalibrateFull(Workload):
    name = "calibrate_full"
    why = ("256x256 detector, five TPXE line fixtures and a run file: bypasses "
           "sim; dense ToT histograms and the per-pixel peak loop dominate")

    def __init__(self, root, input_dir, seed):
        super().__init__(root, input_dir, seed)
        self.inputs = generate_calibration_inputs(input_dir, seed)

    def steps(self):
        events = []
        for label, path in self.inputs.line_files.items():
            events += ["--events", f"{label}={path}"]
        return [
            ["calibrate", *events, "--out", "cal.csv"],
            ["apply-cal", "--events", str(self.inputs.run_file), "--cal", "cal.csv",
             "--out", "run.sic"],
            ["window", "--cube", "run.sic", "--lo", "6.0", "--hi", "9.0",
             "--out-prefix", "run_cu"],
        ]

    def check(self, out_dir, stdouts):
        outcome = Outcome()
        inp = self.inputs
        cal = np.loadtxt(out_dir / "cal.csv", delimiter=",", skiprows=1)
        gain = np.full((N_Y, N_X), np.nan)
        gain[cal[:, 1].astype(int), cal[:, 0].astype(int)] = cal[:, 2]
        n_dead = int(np.count_nonzero(cal[:, 5])) + N_X * N_Y - cal.shape[0]
        outcome.check(0, n_dead == 0, f"{n_dead} dead pixel(s)")
        rms = float(np.sqrt(np.mean(((gain - inp.gain) / inp.gain) ** 2)))
        outcome.check(0, rms < GAIN_RMS_MAX,
                      f"gain RMS error {rms:.4%} >= {GAIN_RMS_MAX:.0%}")

        n_run = inp.events[inp.run_file.name]
        binned = re.search(r"binned (\d+) of (\d+) events", stdouts[1])
        counts, centers = read_sic(out_dir / "run.sic")
        total = int(counts.sum(dtype=np.uint64))
        outcome.check(1, binned is not None and int(binned.group(2)) == n_run,
                      f"apply-cal did not report {n_run} input events")
        outcome.check(1, binned is not None and int(binned.group(1)) == total,
                      f"run.sic total {total} != binned count")
        spectrum = counts.sum(axis=(0, 1)).astype(float)
        for label, line_kev in LINES_KEV.items():
            found = _line_peak_kev(spectrum, centers, line_kev)
            outcome.check(1, abs(found - line_kev) <= LINE_ERROR_MAX_KEV,
                          f"{label} line at {found:.3f} keV, expected {line_kev}")
        self._count_cube(outcome, out_dir / "run.sic", counts)
        self._check_window(outcome, 2, (counts, centers), 6.0, 9.0,
                           out_dir / "run_cu.csv")

        outcome.add("events.consumed", sum(inp.events.values()))
        outcome.add("events.binned", total)
        biggest = max(inp.max_tot.values())
        outcome.add("events.hist_mb", N_X * N_Y * (biggest + 1) * 8 / MIB)
        return outcome


WORKLOADS = {w.name: w for w in (PointPsf, ExtendedMap, CalibrateFull)}
