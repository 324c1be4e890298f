"""Outside-in layer spans: wrap program functions from the benchmark's side.

Each wrapper replaces every module attribute of the ``mpoxrf`` package
that refers to the wrapped function, so calls through module globals and
through ``from .x import f`` names are both caught.  A span records name,
start, end and parent; spans stay in memory and are written once, when the
traced process ends.  A layer's self time is its spans' duration minus
that of their direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

#: Layer metric name -> the ``module.function`` names whose spans it sums.
#: A name the program no longer defines is reported as absent, so renaming
#: a function costs one line here.
SPAN_TABLE = {
    "config.load_s": ("mpoxrf.config.load_config",),
    "sim.simulate_s": ("mpoxrf.sim.simulate",),
    "sim.batch_s": ("mpoxrf.sim._run_batch",),
    "sim.emission_s": ("mpoxrf.sim._sample_emission_arrays",),
    "sim.unfold_s": ("mpoxrf.sim._unfold_vec",),
    "sic.write_s": ("mpoxrf.sic.write_sic",),
    "sic.read_s": ("mpoxrf.sic.read_sic",),
    "fileio.write_s": (
        "mpoxrf.fileio.write_image_csv",
        "mpoxrf.fileio.write_pgm",
        "mpoxrf.fileio.write_profile_csv",
        "mpoxrf.fileio.write_atf_csv",
    ),
    "fileio.read_s": ("mpoxrf.fileio.read_image_csv",),
    "analysis.window_s": ("mpoxrf.analysis.energy_window",),
    "analysis.psf_s": (
        "mpoxrf.analysis.find_psf_center",
        "mpoxrf.analysis.extract_arm_profiles",
        "mpoxrf.analysis.fwhm",
    ),
    "analysis.atf_s": ("mpoxrf.analysis.atf",),
    "analysis.clean_s": (
        "mpoxrf.analysis.gaussian_window",
        "mpoxrf.analysis.average_atf",
        "mpoxrf.analysis.idealized_psf",
        "mpoxrf.analysis.background_level",
    ),
    "analysis.flatfield_s": ("mpoxrf.analysis.flat_field_correct",),
    "events.parse_s": ("mpoxrf.events.parse_events_file",),
    "events.hist_s": ("mpoxrf.events.tot_histograms",),
    "events.peak_s": ("mpoxrf.events.find_line_peaks",),
    "events.fit_s": ("mpoxrf.events.fit_calibration",),
    "events.apply_s": ("mpoxrf.events.apply_calibration",),
    "events.cal_csv_write_s": ("mpoxrf.events.write_calibration_csv",),
    "events.cal_csv_read_s": ("mpoxrf.events.read_calibration_csv",),
}

SIMULATE = "mpoxrf.sim.simulate"
BATCH = "mpoxrf.sim._run_batch"
PEAK = "mpoxrf.events.find_line_peaks"


class SpanRecorder:
    """In-memory span store for one process.

    A pool worker forked from the traced process records into its own copy
    of the store, which is discarded with the worker.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def install(self) -> list[str]:
        """Wrap every function named in SPAN_TABLE; returns absent names."""
        absent = []
        modules = [m for k, m in sys.modules.items()
                   if k == "mpoxrf" or k.startswith("mpoxrf.")]
        for targets in SPAN_TABLE.values():
            for target in targets:
                mod_name, _, func_name = target.rpartition(".")
                try:
                    fn = getattr(importlib.import_module(mod_name), func_name)
                except (ImportError, AttributeError):
                    absent.append(target)
                    continue
                wrapper = self.wrap(target, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
        return absent

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.array(self.name_id, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
        )


def summarize(path) -> dict:
    """Per-name totals from a saved span file.

    Returns ``{name: {"count", "total_s", "self_s", "durations"}}`` where
    ``self_s`` subtracts the durations of each span's direct children.
    """
    data = np.load(path)
    names = list(data["names"])
    name_id = data["name_id"]
    dur = data["end"] - data["start"]
    parent = data["parent"]
    child_time = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time
    out = {}
    for nid, name in enumerate(names):
        sel = name_id == nid
        out[name] = {
            "count": int(np.count_nonzero(sel)),
            "total_s": float(dur[sel].sum()),
            "self_s": float(self_time[sel].sum()),
            "durations": dur[sel],
        }
    return out
