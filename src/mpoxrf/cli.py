"""Command-line pipelines: simulate, window, psf, atf, clean, calibrate.

Exit codes: 0 success, 2 configuration/usage error, 3 file I/O or input
format error, 4 analysis error (no peak, empty region, ...).
"""

from __future__ import annotations

import argparse
import sys

from . import analysis, events, fileio, sic
from .analysis import AnalysisError
from .config import AnalysisParams, ConfigError, load_config
from .events import EventFormatError, LineSet, default_line_set
from .fileio import FileFormatError
from .optics import PathClass
from .sim import DetectorSpec, simulate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_ANALYSIS = 4


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    photons = args.photons if args.photons is not None else cfg.photons
    seed = args.seed if args.seed is not None else cfg.seed
    jobs = args.jobs if args.jobs is not None else cfg.jobs
    cube = simulate(
        cfg.scene, cfg.mpo, cfg.detector, photons, seed=seed, n_workers=jobs
    )
    sic.write_sic(args.out, cube)
    s = cube.stats
    print(f"simulated {s.n_photons} photons (seed {seed}, {jobs} worker(s))")
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
    cube = sic.read_sic(args.cube)
    image = analysis.energy_window(cube, args.lo, args.hi)
    fileio.write_image_csv(f"{args.out_prefix}.csv", image)
    fileio.write_pgm(f"{args.out_prefix}.pgm", image)
    print(
        f"window [{args.lo}, {args.hi}) keV: {image.values.sum():.0f} counts -> "
        f"{args.out_prefix}.csv / .pgm"
    )
    return EXIT_OK


def _cmd_flatfield(args) -> int:
    image = fileio.read_image_csv(args.image)
    flat = fileio.read_image_csv(args.flat)
    corrected = analysis.flat_field_correct(image, flat)
    fileio.write_image_csv(f"{args.out_prefix}.csv", corrected)
    fileio.write_pgm(f"{args.out_prefix}.pgm", corrected)
    masked = corrected.valid.size - int(corrected.valid.sum())
    print(f"flat-field corrected; {masked} pixel(s) masked invalid")
    return EXIT_OK


def _cmd_psf(args) -> int:
    image = fileio.read_image_csv(args.image)
    cfg = load_config(args.config) if args.config else None
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
    if cfg and args.energy:
        arm = analysis.expected_arm_half_length(
            args.energy, cfg.mpo.coating, cfg.scene.L_s, cfg.scene.L_i
        )
        direct = analysis.expected_direct_half_width(
            cfg.mpo, cfg.scene.L_s, cfg.scene.L_i
        )
        print(f"expected arm half-length at {args.energy} keV: {arm:.4f} mm")
        print(f"expected direct half-width: {direct:.4f} mm")
    return EXIT_OK


def _cmd_atf(args) -> int:
    image = fileio.read_image_csv(args.image)
    transfer = analysis.atf(image)
    fileio.write_atf_csv(args.out, transfer)
    res = analysis.resolution_lp_per_mm(transfer, threshold=args.threshold)
    if res is None:
        print(f"resolution at {args.threshold:.2f} of DC: beyond Nyquist")
    else:
        print(f"resolution at {args.threshold:.2f} of DC: {res:.3f} lp/mm")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_clean(args) -> int:
    cfg = load_config(args.config) if args.config else None
    params = cfg.analysis if cfg else AnalysisParams()
    images = [fileio.read_image_csv(path) for path in args.images]
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
    res = analysis.resolution_lp_per_mm(
        averaged, threshold=params.resolution_threshold
    )
    if res is None:
        print(f"resolution at {params.resolution_threshold:.2f} of DC: beyond Nyquist")
    else:
        print(
            f"resolution at {params.resolution_threshold:.2f} of DC: {res:.3f} lp/mm"
        )
    return EXIT_OK


def _parse_line_list(raw: str) -> LineSet:
    pairs = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        label, _, energy = item.partition(":")
        if not energy:
            raise ConfigError(f"--lines entry {item!r} is not LABEL:keV")
        pairs.append((label.strip(), float(energy)))
    pairs.sort(key=lambda kv: kv[1])
    return LineSet(tuple(pairs))


def _cmd_calibrate(args) -> int:
    line_set = _parse_line_list(args.lines) if args.lines else default_line_set()
    given = []
    for spec_item in args.events:
        label, _, path = spec_item.partition("=")
        if not path:
            raise ConfigError(f"--events entry {spec_item!r} is not LABEL=PATH")
        given.append((label.strip(), path))
    given_labels = {label for label, _ in given}
    missing = [lbl for lbl in line_set.labels if lbl not in given_labels]
    if missing:
        raise ConfigError(
            f"no event file given for calibration line(s): {', '.join(missing)}"
        )
    # every file is parsed (and so validated) in turn, and reduced to its
    # peak map at once: one file's events are alive at a time
    peaks = {}
    for label, path in given:
        if label in line_set.labels:
            peaks[label] = events.line_peaks(events.parse_events_file(path))
        else:
            events.parse_events_file(path)
    cal = events.fit_calibration(events.stack_line_peaks(peaks, line_set), line_set)
    events.write_calibration_csv(args.out, cal)
    alive = cal.gain.size - cal.n_dead
    print(f"calibrated {alive} pixel(s), {cal.n_dead} dead -> {args.out}")
    return EXIT_OK


def _cmd_apply_cal(args) -> int:
    ev = events.parse_events_file(args.events)
    cal = events.read_calibration_csv(args.cal)
    if (cal.n_x, cal.n_y) != (ev.n_x, ev.n_y):
        raise FileFormatError(
            f"{args.events}: {ev.n_x}x{ev.n_y} pixel matrix does not match the "
            f"{cal.n_x}x{cal.n_y} calibration {args.cal}"
        )
    detector = DetectorSpec(
        n_x=ev.n_x,
        n_y=ev.n_y,
        pitch=args.pitch_um,
        energy_fwhm=0.0,
        threshold=args.threshold,
        e_min=args.e_min,
        e_bin_width=args.bin_width,
        n_bins=args.n_bins,
    )
    cube = events.apply_calibration(ev, cal, detector)
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
    p.add_argument("--threshold", type=float, default=0.1)
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
    except (EventFormatError, sic.SicFormatError, FileFormatError) as exc:
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
