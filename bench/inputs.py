"""Seeded input generator for the calibrate_full workload.

Writes TPXE event dumps with numpy straight from the documented layout
(24-byte header, then 16-byte records ``u16 x, u16 y, u16 tot, u16
reserved=0, u64 toa``), so the program under test only ever sees files and
the calibration check does not depend on the program's own fixture code.
The true per-pixel gain and offset maps stay with the caller for the checks.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HEADER = struct.Struct("<4sIIIQ")
RECORD = np.dtype(
    [("x", "<u2"), ("y", "<u2"), ("tot", "<u2"), ("reserved", "<u2"), ("toa", "<u8")]
)

#: K-alpha energies (keV) of the five default calibration lines of the CLI.
LINES_KEV = {"Ti": 4.51, "Fe": 6.40, "Cu": 8.05, "Zr": 15.78, "Ag": 22.16}

N_X = N_Y = 256
#: Hits per pixel in each line fixture.  At the 1.12 keV detector FWHM and
#: gains of 0.10-0.15 keV per ToT unit, this keeps the fitted gain RMS error
#: near 0.7%, inside the 1% acceptance limit with margin.
FIXTURE_HITS_PER_PIXEL = 200
#: Hits per pixel in the mixed-line run file that apply-cal bins.
RUN_HITS_PER_PIXEL = 40
GAIN_RANGE = (0.10, 0.15)  # keV per ToT unit
OFFSET_RANGE = (-0.2, 0.2)  # keV
ENERGY_FWHM_KEV = 1.12
_FWHM_PER_SIGMA = 2.3548200450309493
_CHUNK = 1 << 20  # records generated per write, bounds generator memory


@dataclass
class CalibrationInputs:
    """Paths of the generated files plus the truth the checks compare to."""

    line_files: dict[str, Path]
    run_file: Path
    gain: np.ndarray  # (N_Y, N_X) keV per ToT unit
    offset: np.ndarray  # (N_Y, N_X) keV
    max_tot: dict[str, int]  # largest ToT written per line fixture
    events: dict[str, int]  # record count per file name


def _write_tpxe(path: Path, n_records: int, chunks) -> int:
    """Write a TPXE file from an iterator of record arrays; returns max ToT."""
    max_tot = 0
    written = 0
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(b"TPXE", 1, N_X, N_Y, n_records))
        for records in chunks:
            fh.write(records.tobytes())
            written += records.size
            max_tot = max(max_tot, int(records["tot"].max(initial=0)))
        fh.flush()
        os.fsync(fh.fileno())  # write back now, not while the pipeline is timed
    if written != n_records:
        raise RuntimeError(f"{path}: wrote {written} of {n_records} records")
    return max_tot


def _line_chunks(rng, n_records, energies_kev, gain, offset):
    """Events in arrival order: uniformly random pixel per hit, energy
    smeared with the detector FWHM, ToT inverted through the true map,
    ToA a running counter."""
    sigma = ENERGY_FWHM_KEV / _FWHM_PER_SIGMA
    toa = 0
    for start in range(0, n_records, _CHUNK):
        n = min(_CHUNK, n_records - start)
        pix = rng.integers(0, N_X * N_Y, n)
        energy = energies_kev[rng.integers(0, energies_kev.size, n)]
        e_meas = energy + sigma * rng.standard_normal(n)
        tot = np.round((e_meas - offset.ravel()[pix]) / gain.ravel()[pix])
        records = np.zeros(n, dtype=RECORD)
        records["x"] = pix % N_X
        records["y"] = pix // N_X
        records["tot"] = np.clip(tot, 0, np.iinfo(np.uint16).max)
        records["toa"] = np.arange(toa, toa + n)
        toa += n
        yield records


def generate_calibration_inputs(out_dir: Path, seed: int) -> CalibrationInputs:
    """Five single-line fixtures and one mixed-line run file for ``seed``."""
    rng = np.random.default_rng([seed, 0x7E5E])
    gain = rng.uniform(*GAIN_RANGE, (N_Y, N_X))
    offset = rng.uniform(*OFFSET_RANGE, (N_Y, N_X))
    line_files, max_tot, counts = {}, {}, {}
    n_line = N_X * N_Y * FIXTURE_HITS_PER_PIXEL
    for label, e_kev in LINES_KEV.items():
        path = out_dir / f"{label.lower()}.tpxe"
        max_tot[label] = _write_tpxe(
            path, n_line, _line_chunks(rng, n_line, np.array([e_kev]), gain, offset)
        )
        line_files[label] = path
        counts[path.name] = n_line
    run_file = out_dir / "run.tpxe"
    n_run = N_X * N_Y * RUN_HITS_PER_PIXEL
    energies = np.array(list(LINES_KEV.values()))
    _write_tpxe(run_file, n_run, _line_chunks(rng, n_run, energies, gain, offset))
    counts[run_file.name] = n_run
    return CalibrationInputs(line_files, run_file, gain, offset, max_tot, counts)
