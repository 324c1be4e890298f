"""Command-line pipelines: simulate, window, psf, atf, clean, calibrate.

Exit codes: 0 success, 2 configuration/usage error, 3 file I/O or input
format error, 4 analysis error (no peak, empty region, ...).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import analysis, events, fileio, sic, sim
from .analysis import AnalysisError, AnalysisParams
from .config import ConfigError, load_config
from .events import LineSet, default_line_set
from .fileio import FileFormatError
from .optics import PathClass
from .sim import DetectorSpec, run_tasks, simulate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_ANALYSIS = 4


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    photons = args.photons if args.photons is not None else cfg.photons
    seed = args.seed if args.seed is not None else cfg.seed
    jobs = args.jobs if args.jobs is not None else cfg.jobs
    # checked before any photon is traced; the cube header holds a u64 seed
    for key, value, flag_value, ok, rule in (
        ("photons", photons, args.photons, photons >= 0, ">= 0"),
        ("jobs", jobs, args.jobs, jobs >= 1, ">= 1"),
        ("seed", seed, args.seed, 0 <= seed < 1 << 64, "in 0..2**64-1"),
    ):
        if not ok:
            setting = (
                f"--{key} {value}" if flag_value is not None
                else f"{args.config}: [sim] {key} = {value}"
            )
            raise ConfigError(f"{setting}: must be {rule}")
    cube = simulate(
        cfg.scene, cfg.mpo, cfg.detector, photons, seed=seed, n_workers=jobs
    )
    sic.write_sic(args.out, cube)
    s = cube.stats
    print(f"simulated {s.n_photons} photons (seed {seed}, {s.processes} process(es))")
    print(f"  web absorbed      {s.web_absorbed}")
    print(f"  wall absorbed     {s.wall_absorbed}")
    print(f"  off detector      {s.off_detector}")
    print(f"  below threshold   {s.below_threshold}")
    print(f"  outside band      {s.out_of_band}")
    print(f"  detected          {s.detected}")
    for cls in PathClass:
        print(f"  {cls.value:<17} {s.class_counts.get(cls, 0)}")
    print(f"wrote {args.out} (scene digest {cube.scene_digest})")
    return EXIT_OK


def _cmd_window(args) -> int:
    image = sic.read_window(args.cube, args.lo, args.hi)
    fileio.write_image_csv(f"{args.out_prefix}.csv", image)
    fileio.write_pgm(f"{args.out_prefix}.pgm", image)
    print(
        f"window [{args.lo}, {args.hi}) keV: {image.values.sum():.0f} counts -> "
        f"{args.out_prefix}.csv / .pgm"
    )
    return EXIT_OK


def _read_images(paths) -> list:
    """The image CSVs at ``paths``; raises :class:`FileFormatError`, naming
    both files, where an image's shape or pixel pitch differs from the
    first one's."""
    images = [fileio.read_image_csv(path) for path in paths]
    ref = images[0]
    for path, img in zip(paths[1:], images[1:]):
        if (img.values.shape, img.pitch_um) != (ref.values.shape, ref.pitch_um):
            raise FileFormatError(
                f"{path}: {img.n_x}x{img.n_y} image at {img.pitch_um} um pitch "
                f"does not match the {ref.n_x}x{ref.n_y} image at {ref.pitch_um} "
                f"um pitch of {paths[0]}"
            )
    return images


def _cmd_flatfield(args) -> int:
    image, flat = _read_images([args.image, args.flat])
    corrected, good = analysis.flat_field_correct(image, flat)
    fileio.write_image_csv(f"{args.out_prefix}.csv", corrected)
    fileio.write_pgm(f"{args.out_prefix}.pgm", corrected)
    masked = good.size - int(good.sum())
    print(f"flat-field corrected; {masked} pixel(s) masked invalid")
    return EXIT_OK


def _cmd_psf(args) -> int:
    cfg = load_config(args.config) if args.config else None
    if args.energy is not None:
        # checked before the image is read or any profile written
        if cfg is None:
            raise ConfigError("psf --energy needs --config for the model extents")
        arm = analysis.expected_arm_half_length(
            args.energy, cfg.mpo.coating, cfg.scene.L_s, cfg.scene.L_i
        )
    image = fileio.read_image_csv(args.image)
    rows = (cfg.analysis if cfg else AnalysisParams()).rows_averaged
    center = analysis.find_psf_center(image)
    horiz, vert = analysis.extract_arm_profiles(image, center, rows_averaged=rows)
    fileio.write_profile_csv(f"{args.out_prefix}_horizontal.csv", horiz)
    fileio.write_profile_csv(f"{args.out_prefix}_vertical.csv", vert)
    print(f"center: x={center[0]:.2f} px, y={center[1]:.2f} px")
    for name, prof in (("horizontal", horiz), ("vertical", vert)):
        try:
            width = analysis.fwhm(prof)
            print(f"{name} FWHM: {width:.4f} mm")
        except AnalysisError as exc:
            print(f"{name} FWHM: {exc}")
    if args.energy is not None:
        direct = analysis.expected_direct_half_width(
            cfg.mpo, cfg.scene.L_s, cfg.scene.L_i
        )
        print(f"expected arm half-length at {args.energy} keV: {arm:.4f} mm")
        print(f"expected direct half-width: {direct:.4f} mm")
    return EXIT_OK


def _cmd_atf(args) -> int:
    # checked before the image is read or the CSV written
    try:
        params = AnalysisParams(resolution_threshold=args.threshold)
    except ValueError as exc:
        raise ConfigError(f"--threshold {args.threshold}: {exc}") from None
    transfer = analysis.atf(fileio.read_image_csv(args.image))
    # an image with no counts is an AnalysisError here, before the CSV
    resolution = _resolution_line(transfer, params.resolution_threshold)
    fileio.write_atf_csv(args.out, transfer)
    print(resolution)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_clean(args) -> int:
    cfg = load_config(args.config) if args.config else None
    params = cfg.analysis if cfg else AnalysisParams()
    images = _read_images(args.images)
    transfer_list = []
    bg_before = []
    for img in images:
        center = analysis.find_psf_center(img)
        peak = float(img.values.max())
        bg_before.append(
            analysis.background_level(
                img,
                params.background_exclusion_mm,
                center,
                arm_half_width_mm=params.arm_half_width_mm,
            )
            / peak
        )
        windowed = analysis.gaussian_window(img, params.window_sigma_mm, center)
        transfer_list.append(analysis.atf(windowed))
    averaged = analysis.average_atf(transfer_list)
    ideal = analysis.idealized_psf(averaged, images[0].pitch_um)
    fileio.write_image_csv(f"{args.out_prefix}_idealized.csv", ideal)
    fileio.write_pgm(f"{args.out_prefix}_idealized.pgm", ideal)
    fileio.write_atf_csv(f"{args.out_prefix}_atf.csv", averaged)

    center_ideal = (ideal.n_x // 2, ideal.n_y // 2)
    bg_after = analysis.background_level(
        ideal,
        params.background_exclusion_mm,
        center_ideal,
        arm_half_width_mm=params.arm_half_width_mm,
    )
    before = sum(bg_before) / len(bg_before)
    print(f"background before (mean of {len(images)} inputs, peak-normalized): "
          f"{before:.6f}")
    print(f"background after (idealized, peak-normalized): {bg_after:.6f}")
    if before > 0:
        print(f"background ratio after/before: {bg_after / before:.4f}")
    print(_resolution_line(averaged, params.resolution_threshold))
    return EXIT_OK


def _resolution_line(transfer, threshold: float) -> str:
    """The line that reports ``transfer``'s resolution at ``threshold``
    times DC, an :class:`AnalysisParams` resolution threshold."""
    res = analysis.resolution_lp_per_mm(transfer, threshold=threshold)
    at = "beyond Nyquist" if res is None else f"{res:.3f} lp/mm"
    return f"resolution at {threshold:.2f} of DC: {at}"


def _parse_line_list(raw: str) -> LineSet:
    pairs = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        label, _, energy = item.partition(":")
        try:
            pairs.append((label.strip(), float(energy)))
        except ValueError:
            raise ConfigError(f"--lines entry {item!r} is not LABEL:keV") from None
    pairs.sort(key=lambda kv: kv[1])
    return LineSet(tuple(pairs))


def _file_peaks(path: str) -> np.ndarray:
    """Peak map of the line file ``path``."""
    with events.open_events(path) as source:
        return events.line_peaks(source)


def _cmd_calibrate(args) -> int:
    line_set = _parse_line_list(args.lines) if args.lines else default_line_set()
    given = []
    for spec_item in args.events:
        label, _, path = spec_item.partition("=")
        if not path:
            raise ConfigError(f"--events entry {spec_item!r} is not LABEL=PATH")
        given.append((label.strip(), path))
    given_labels = [label for label, _ in given]
    repeated = sorted({lbl for lbl in given_labels if given_labels.count(lbl) > 1})
    if repeated:
        raise ConfigError(
            f"--events label(s) given more than once: {', '.join(repeated)}"
        )
    extra = [lbl for lbl in given_labels if lbl not in line_set.labels]
    if extra:
        raise ConfigError(
            f"--events label(s) not a calibration line: {', '.join(extra)}"
        )
    missing = [lbl for lbl in line_set.labels if lbl not in given_labels]
    if missing:
        raise ConfigError(
            f"no event file given for calibration line(s): {', '.join(missing)}"
        )
    # headers first: every file is opened in argument order, and each one's
    # matrix is compared with the first one's, before any record is read or
    # any histogram block is allocated
    paths = [path for _, path in given]
    first = None
    for path in paths:
        with events.open_events(path) as source:
            if first is None:
                first = (path, source.n_x, source.n_y)
            elif (source.n_x, source.n_y) != first[1:]:
                raise FileFormatError(
                    f"{path}: {source.n_x}x{source.n_y} pixel matrix does not "
                    f"match the {first[1]}x{first[2]} matrix of line file {first[0]}"
                )
    # each worker reduces one file at a time to its peak map, so a process
    # holds at most one histogram block; errors are raised in argument
    # order, and list() drains the pool before the maps are used
    results = run_tasks(_file_peaks, paths, min(len(paths), sim._available_cpus()))
    peaks = dict(zip(given_labels, list(results)))
    cal = events.fit_calibration(
        np.stack([peaks[label] for label in line_set.labels]), line_set
    )
    events.write_calibration_csv(args.out, cal)
    alive = cal.gain.size - cal.n_dead
    print(f"calibrated {alive} pixel(s), {cal.n_dead} dead -> {args.out}")
    return EXIT_OK


def _cmd_apply_cal(args) -> int:
    # the matrices are compared before any record is read
    with events.open_events(args.events) as source:
        cal = events.read_calibration_csv(args.cal)
        if (cal.n_x, cal.n_y) != (source.n_x, source.n_y):
            raise FileFormatError(
                f"{args.events}: {source.n_x}x{source.n_y} pixel matrix does not "
                f"match the {cal.n_x}x{cal.n_y} calibration {args.cal}"
            )
        detector = DetectorSpec(
            n_x=source.n_x,
            n_y=source.n_y,
            pitch=args.pitch_um,
            energy_fwhm=0.0,
            threshold=args.threshold,
            e_min=args.e_min,
            e_bin_width=args.bin_width,
            n_bins=args.n_bins,
        )
        cube = events.apply_calibration(source, cal, detector)
    sic.write_sic(args.out, cube)
    s = cube.stats
    print(
        f"binned {s.detected} of {s.n_photons} events "
        f"({s.dead_pixel_drops} on dead pixels, {s.below_threshold} below "
        f"threshold, {s.out_of_band} outside the energy band)"
    )
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpoxrf",
        description="Square-pore optic XRF imaging: simulation and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the Monte Carlo and write a SIC cube")
    p.add_argument("--config", required=True)
    p.add_argument("--photons", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("window", help="energy-window a cube into an image")
    p.add_argument("--cube", required=True)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_window)

    p = sub.add_parser("flatfield", help="flat-field correct an image")
    p.add_argument("--image", required=True)
    p.add_argument("--flat", required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_flatfield)

    p = sub.add_parser("psf", help="PSF center, arm profiles, FWHM, model extents")
    p.add_argument("--image", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--energy", type=float, default=None,
                   help="line energy (keV) for the model extents")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_psf)

    p = sub.add_parser("atf", help="amplitude transfer function of an image")
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--threshold", type=float, default=AnalysisParams.resolution_threshold
    )
    p.set_defaults(func=_cmd_atf)

    p = sub.add_parser(
        "clean",
        help="window + FFT + average + zero-phase inverse background cleanup",
    )
    p.add_argument("images", nargs="+")
    p.add_argument("--config", default=None)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_clean)

    p = sub.add_parser("calibrate", help="fit per-pixel ToT->energy calibration")
    p.add_argument("--events", action="append", required=True,
                   metavar="LABEL=PATH")
    p.add_argument("--lines", default=None,
                   help="comma list LABEL:keV (default: Ti, Fe, Cu, Zr, Ag)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("apply-cal", help="histogram calibrated events into a cube")
    p.add_argument("--events", required=True)
    p.add_argument("--cal", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pitch-um", type=float, default=DetectorSpec.pitch)
    p.add_argument("--threshold", type=float, default=DetectorSpec.threshold)
    p.add_argument("--e-min", type=float, default=DetectorSpec.e_min)
    p.add_argument("--bin-width", type=float, default=DetectorSpec.e_bin_width)
    p.add_argument("--n-bins", type=int, default=DetectorSpec.n_bins)
    p.set_defaults(func=_cmd_apply_cal)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileFormatError as exc:
        print(f"input format error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
