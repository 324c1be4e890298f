"""Run configuration: INI files with strict, unit-suffixed keys.

Sections and keys (all lengths/energies carry their unit in the key name):

    [mpo]       plate_side_mm, thickness_mm, pore_width_um, pitch_um,
                coating_name, coating_z, coating_a, coating_rho_g_cm3,
                reflectivity (per wall bounce; 1, the default, is lossless)
    [detector]  n_x, n_y, pitch_um, energy_fwhm_kev, threshold_kev,
                e_min_kev, e_bin_width_kev, n_bins
    [scene]     l_s_mm, l_i_mm
    [source.X]  kind (point | rect), x_mm, y_mm, z_mm, width_mm,
                height_mm (rect only), lines (comma list of energy_kev:weight)
    [sim]       photons, seed, jobs
    [analysis]  window_sigma_mm, background_exclusion_mm,
                arm_half_width_mm, resolution_threshold, rows_averaged

Unknown sections or keys are errors (reported with their line number);
every key has a default except the source line list.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .analysis import AnalysisParams
from .optics import IRIDIUM, Material, MpoGeometry
from .sim import DetectorSpec, Scene, Source


class ConfigError(ValueError):
    pass


#: [mpo] key -> (MpoGeometry field, type); an absent key keeps the field's
#: MpoGeometry default.
_MPO_KEYS = {
    "plate_side_mm": ("plate_side", float),
    "thickness_mm": ("thickness_t", float),
    "pore_width_um": ("pore_width_w", float),
    "pitch_um": ("pitch_p", float),
    "reflectivity": ("reflectivity", float),
}

#: [mpo] coating key -> (Material field, type); an absent key keeps the
#: field's value in IRIDIUM.
_COATING_KEYS = {
    "coating_name": ("name", str),
    "coating_z": ("Z", int),
    "coating_a": ("A", float),
    "coating_rho_g_cm3": ("rho", float),
}

#: [detector] key -> (DetectorSpec field, type); an absent key keeps the
#: field's DetectorSpec default.
_DETECTOR_KEYS = {
    "n_x": ("n_x", int),
    "n_y": ("n_y", int),
    "pitch_um": ("pitch", float),
    "energy_fwhm_kev": ("energy_fwhm", float),
    "threshold_kev": ("threshold", float),
    "e_min_kev": ("e_min", float),
    "e_bin_width_kev": ("e_bin_width", float),
    "n_bins": ("n_bins", int),
}

#: [scene] key -> (Scene field, type); an absent key keeps the field's
#: Scene default.
_SCENE_KEYS = {
    "l_s_mm": ("L_s", float),
    "l_i_mm": ("L_i", float),
}

#: [analysis] key -> (AnalysisParams field, type); an absent key keeps the
#: field's AnalysisParams default.
_ANALYSIS_KEYS = {
    "window_sigma_mm": ("window_sigma_mm", float),
    "background_exclusion_mm": ("background_exclusion_mm", float),
    "arm_half_width_mm": ("arm_half_width_mm", float),
    "resolution_threshold": ("resolution_threshold", float),
    "rows_averaged": ("rows_averaged", int),
}

#: [sim] key -> (RunConfig field, type); an absent key keeps the field's
#: RunConfig default.
_SIM_KEYS = {
    "photons": ("photons", int),
    "seed": ("seed", int),
    "jobs": ("jobs", int),
}

_KNOWN = {
    "mpo": {*_MPO_KEYS, *_COATING_KEYS},
    "detector": set(_DETECTOR_KEYS),
    "scene": set(_SCENE_KEYS),
    "source": {"kind", "x_mm", "y_mm", "z_mm", "width_mm", "height_mm", "lines"},
    "sim": set(_SIM_KEYS),
    "analysis": set(_ANALYSIS_KEYS),
}


@dataclass
class RunConfig:
    mpo: MpoGeometry
    detector: DetectorSpec
    scene: Scene
    photons: int = 1_000_000
    seed: int = 1
    jobs: int = 1
    analysis: AnalysisParams = field(default_factory=AnalysisParams)


def _key_lines(text: str) -> dict[tuple[str, str], int]:
    """Map (section, key) -> 1-based line number, for error reporting."""
    table = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            table[(section, None)] = lineno
            continue
        if section is not None and ("=" in line or ":" in line):
            sep = min(
                (line.index(c) for c in "=:" if c in line), default=len(line)
            )
            key = line[:sep].strip().lower()
            table.setdefault((section, key), lineno)
    return table


def _check_keys(parser: configparser.ConfigParser, lines, path) -> None:
    for section in parser.sections():
        base = "source" if section.startswith("source.") else section
        if base not in _KNOWN:
            lineno = lines.get((section, None), 0)
            raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN[base]:
                lineno = lines.get((section, key), 0)
                raise ConfigError(
                    f"{path}:{lineno}: unknown key {key!r} in [{section}]"
                )


def _get(parser, section, key, cast, default):
    if section not in parser or key not in parser[section]:
        return default
    raw = parser[section][key]
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _fields(parser, section, keys, cls) -> dict:
    """Typed field values of a section's keys; an absent key keeps the
    field's default in ``cls``."""
    return {
        name: _get(parser, section, key, cast, getattr(cls, name))
        for key, (name, cast) in keys.items()
    }


def _parse_lines(raw: str, section: str) -> tuple[tuple[float, float], ...]:
    lines = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            energy, _, weight = item.partition(":")
            lines.append((float(energy), float(weight) if weight else 1.0))
        except ValueError as exc:
            raise ConfigError(
                f"[{section}] lines entry {item!r} is not energy_kev:weight"
            ) from exc
    if not lines:
        raise ConfigError(f"[{section}] needs at least one emission line")
    return tuple(lines)


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    parser = configparser.ConfigParser(strict=True, interpolation=None)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    _check_keys(parser, _key_lines(text), path)

    try:
        mpo = MpoGeometry(
            coating=Material(**_fields(parser, "mpo", _COATING_KEYS, IRIDIUM)),
            **_fields(parser, "mpo", _MPO_KEYS, MpoGeometry),
        )
        detector = DetectorSpec(
            **_fields(parser, "detector", _DETECTOR_KEYS, DetectorSpec)
        )
        distances = _fields(parser, "scene", _SCENE_KEYS, Scene)

        sources = []
        for section in parser.sections():
            if not section.startswith("source."):
                continue
            label = section.split(".", 1)[1]
            kind = _get(parser, section, "kind", str, "point").lower()
            if kind not in ("point", "rect"):
                raise ConfigError(f"[{section}] kind must be point or rect")
            width = _get(parser, section, "width_mm", float, 0.0)
            height = _get(parser, section, "height_mm", float, 0.0)
            if kind == "point" and {"width_mm", "height_mm"} & set(parser[section]):
                raise ConfigError(f"[{section}] width_mm/height_mm need kind = rect")
            if kind == "rect" and not (width > 0 and height > 0):
                raise ConfigError(f"[{section}] rect sources need width and height")
            if "lines" not in parser[section]:
                raise ConfigError(f"[{section}] is missing its lines key")
            sources.append(
                Source(
                    label=label,
                    lines=_parse_lines(parser[section]["lines"], section),
                    position=(
                        _get(parser, section, "x_mm", float, 0.0),
                        _get(parser, section, "y_mm", float, -distances["L_s"]),
                        _get(parser, section, "z_mm", float, 0.0),
                    ),
                    width=width,
                    height=height,
                )
            )
        if not sources:
            raise ConfigError(f"{path}: no [source.*] sections")
        scene = Scene(sources=tuple(sources), **distances)

        analysis = AnalysisParams(
            **_fields(parser, "analysis", _ANALYSIS_KEYS, AnalysisParams)
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    return RunConfig(
        mpo=mpo,
        detector=detector,
        scene=scene,
        analysis=analysis,
        **_fields(parser, "sim", _SIM_KEYS, RunConfig),
    )
