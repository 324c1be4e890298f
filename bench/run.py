"""FF-XRF benchmark: runs real CLI pipelines and reports end-to-end and
per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload point_psf --seed 1 --seconds 30 --trace 0

Each pipeline run happens in a fresh process (``child.py``) that imports the
package from ``src/``, builds the CLI parser, loads the workload's configs
(set-up), then calls ``mpoxrf.cli.main`` once per step.  New runs start
until ``--seconds`` have passed; metrics are medians over runs.  With ``--trace 0``
the last stdout line is a JSON object with the end-to-end metrics; with
``--trace 1`` the runs alternate between untraced and traced, and the JSON
carries the per-layer metrics from the traced runs.  Inputs are made from
``--seed`` before timing starts.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from child import EXIT_NO_PROGRAM
from spans import BATCH, PEAK, SIMULATE, SPAN_TABLE, summarize
from workloads import CLASS_NAMES, LOSS_TALLIES, MIB, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
CHILD_TIMEOUT_S = 120
SETUP_PROBES = 5  # extra set-up-only processes per run, for a steady median
COMMANDS = ("simulate", "window", "psf", "atf", "clean", "flatfield",
            "calibrate", "apply-cal")
TALLIES = (*LOSS_TALLIES, "detected", "emitted")

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "detected_per_s": "1/s",
    "events_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "output_mb": "MiB",
    "setup_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in SPAN_TABLE}
    units.update({
        "sim.batch_self_s": "s",
        "sim.merge_s": "s",
        "sim.batch_ms_p50": "ms",
        "sim.batch_ms_p90": "ms",
        "sim.batches": "count",
        "sim.detected_per_emitted": "ratio",
        "sim.web_frac": "ratio",
        "sim.wall_frac": "ratio",
        "sic.bytes": "bytes",
        "sic.nonzero_frac": "ratio",
        "fileio.bytes": "bytes",
        "events.peak_calls": "count",
        "events.hist_mb": "computed_MiB",
        "events.consumed": "count",
        "trace.overhead_s": "s",
        "trace.spans": "count",
    })
    units.update({f"sim.{t}": "count" for t in TALLIES})
    units.update({f"sim.class.{c}": "count" for c in CLASS_NAMES})
    units.update({f"cli.{c}_s": "s" for c in COMMANDS})
    return units


class ProgramMissing(RuntimeError):
    """The package under test cannot be imported from this checkout."""


def run_child(plan: dict, cwd: Path, work: Path) -> dict:
    """Run one plan in a fresh process in ``cwd``; returns its result JSON.

    The plan, result and span files go to ``work``, not among the outputs.
    """
    plan_path = work / "plan.json"
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    plan = dict(plan, src=str(SRC), result=str(result_path),
                spans=str(work / "spans.npz"))
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(plan_path)], cwd=cwd,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    finally:
        if proc.poll() is None:  # timed out or interrupted
            os.killpg(proc.pid, signal.SIGKILL)  # also ends its pool workers
            proc.communicate()
    if proc.returncode == EXIT_NO_PROGRAM:
        raise ProgramMissing(err.strip())
    if proc.returncode != 0 or not result_path.exists():
        return {"error": f"child exited {proc.returncode}: {err.strip()[-2000:]}"}
    return json.loads(result_path.read_text())


def dir_bytes(path: Path) -> tuple[int, int]:
    """(all bytes, bytes of fileio exports) of the files under ``path``."""
    total = exports = 0
    for f in path.iterdir():
        size = f.stat().st_size
        total += size
        if f.suffix in (".csv", ".pgm") and f.name != "cal.csv":
            exports += size
    return total, exports


def one_run(workload, work: Path, trace: bool) -> dict:
    """One pipeline run plus its output checks.

    Returns the end-to-end sample, exact counters, step failures and,
    when traced, the span summary.
    """
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    steps = workload.steps()
    res = run_child({"configs": workload.configs, "steps": steps, "trace": trace},
                    out_dir, work)
    sample = {"steps": len(steps), "failures": {}, "counters": {}}
    if "error" in res:
        sample["failures"] = {0: [res["error"]]}
        return sample
    ran = res["steps"]
    for k, step in enumerate(ran):
        if step["rc"] != 0:
            sample["failures"][k] = [f"{step['argv'][0]} exited {step['rc']}: "
                                     f"{step['stderr'].strip()[-500:]}"]
    for k in range(len(ran), len(steps)):
        sample["failures"][k] = ["not run: an earlier step failed"]
    if not sample["failures"]:
        try:
            outcome = workload.check(out_dir, [s["stdout"] for s in ran])
            sample["failures"] = outcome.failures
            sample["counters"] = outcome.counters
        except Exception as exc:  # a broken output must not stop the benchmark
            sample["failures"] = {k: [f"output check raised {exc!r}"]
                                  for k in range(len(steps))}
    c = sample["counters"]
    wall = res["wall_s"]
    total_bytes, export_bytes = dir_bytes(out_dir)
    c["fileio.bytes"] = export_bytes
    sample["e2e"] = {
        "wall_s": wall,
        "detected_per_s": (c.get("sim.detected", 0) + c.get("events.binned", 0)) / wall,
        "events_per_s": (c.get("sim.emitted", 0) + c.get("events.consumed", 0)) / wall,
        "cpu_s": res["cpu_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "output_mb": total_bytes / MIB,
        "setup_s": res["setup_s"],
    }
    sample["absent"] = res["absent"]
    if trace:
        sample["spans"] = summarize(work / "spans.npz")
    shutil.rmtree(out_dir, ignore_errors=True)
    return sample


def layer_metrics(sample: dict) -> dict[str, float]:
    """Per-layer values of one traced run."""
    spans = sample["spans"]
    c = sample["counters"]

    def total(names):
        return sum(spans[n]["total_s"] for n in names if n in spans)

    out = {name: total(fns) for name, fns in SPAN_TABLE.items()}
    batch = spans.get(BATCH, {"count": 0, "self_s": 0.0, "durations": np.zeros(0)})
    out["sim.batch_self_s"] = batch["self_s"]
    out["sim.merge_s"] = spans[SIMULATE]["self_s"] if SIMULATE in spans else 0.0
    pct = np.percentile(batch["durations"], [50, 90]) * 1e3 if batch["count"] else (0, 0)
    out["sim.batch_ms_p50"], out["sim.batch_ms_p90"] = (float(p) for p in pct)
    out["sim.batches"] = batch["count"]
    out["events.peak_calls"] = spans[PEAK]["count"] if PEAK in spans else 0
    for cmd in COMMANDS:
        out[f"cli.{cmd}_s"] = total([f"cli.{cmd}"])
    for t in TALLIES:
        out[f"sim.{t}"] = c.get(f"sim.{t}", 0)
    for cls in CLASS_NAMES:
        out[f"sim.class.{cls}"] = c.get(f"sim.{cls}", 0)
    emitted = c.get("sim.emitted", 0)
    out["sim.detected_per_emitted"] = c.get("sim.detected", 0) / emitted if emitted else 0.0
    out["sim.web_frac"] = c.get("sim.web_absorbed", 0) / emitted if emitted else 0.0
    out["sim.wall_frac"] = c.get("sim.wall_absorbed", 0) / emitted if emitted else 0.0
    out["sic.bytes"] = c.get("sic.bytes", 0)
    bins = c.get("sic.bins", 0)
    out["sic.nonzero_frac"] = c.get("sic.nonzero", 0) / bins if bins else 0.0
    out["fileio.bytes"] = c.get("fileio.bytes", 0)
    out["events.hist_mb"] = c.get("events.hist_mb", 0.0)
    out["events.consumed"] = c.get("events.consumed", 0)
    out["trace.spans"] = sum(s["count"] for s in spans.values())
    return out


def measure(workload, work: Path, seconds: float, trace: bool):
    """Warm up, probe set-up, then start runs until ``seconds`` have passed."""
    probe = work / "probe"
    probe.mkdir()
    setup_samples = []
    for k in range(SETUP_PROBES + 1):  # the first fills caches, untimed
        res = run_child({"configs": workload.configs, "steps": [], "trace": False},
                        probe, work)
        if k and "setup_s" in res:
            setup_samples.append(res["setup_s"])
    plain, traced = [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        plain.append(one_run(workload, work, trace=False))
        if trace:
            traced.append(one_run(workload, work, trace=True))
    return setup_samples, plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # end like an interrupt, so the child processes and work files go too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "mpoxrf" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no mpoxrf sources under {SRC} or configs under {ROOT}",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](ROOT, work / "inputs", args.seed)
        setup_samples, plain, traced = measure(
            workload, work, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    samples = plain + traced
    attempted = sum(s["steps"] for s in samples)
    failed = sum(len(s["failures"]) for s in samples)
    print(f"workload {args.workload}: seed {args.seed}, {len(plain)} untraced and "
          f"{len(traced)} traced pipeline run(s) in fresh processes")
    for s in samples:
        for step, messages in sorted(s["failures"].items()):
            for m in messages:
                print(f"FAILED step {step}: {m}")
    print(f"error_rate {failed / attempted:.4f} ratio ({failed} of {attempted} "
          f"operations failed)")

    ok = [s for s in plain if "e2e" in s]
    e2e = {}
    for name, unit in END_TO_END.items():
        if name == "setup_s":
            values = setup_samples + [s["e2e"]["setup_s"] for s in ok]
        else:
            values = [s["e2e"][name] for s in ok]
        if not values:
            continue
        e2e[name] = {"value": statistics.median(values), "unit": unit}
        print(f"{name:<16} {statistics.median(values):14.6g} {unit:<6} "
              f"(median of {len(values)}, range {min(values):.6g}..{max(values):.6g})")

    metrics = {} if args.trace else e2e
    traced_ok = [s for s in traced if "spans" in s]
    if traced_ok and ok:
        rows = [layer_metrics(s) for s in traced_ok]
        overhead = (statistics.median(s["e2e"]["wall_s"] for s in traced_ok)
                    - statistics.median(s["e2e"]["wall_s"] for s in ok))
        for name, unit in per_layer_units().items():
            value = (overhead if name == "trace.overhead_s"
                     else statistics.median(r[name] for r in rows))
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<28} {value:14.6g} {unit}")
        absent = sorted({a for s in traced_ok for a in s["absent"]})
        for name, fns in SPAN_TABLE.items():
            missing = [f for f in fns if f in absent]
            if missing:
                state = "absent" if len(missing) == len(fns) else "partly absent"
                print(f"{name}: {state} ({', '.join(missing)} not found)")
        for note in workload.notes:
            print(f"note: {note}")
        b = metrics["sim.batch_s"]["value"]
        if b > 0:
            print(f"batch split: emission {metrics['sim.emission_s']['value'] / b:.1%}, "
                  f"unfold {metrics['sim.unfold_s']['value'] / b:.1%}, "
                  f"binning and class codes {metrics['sim.batch_self_s']['value'] / b:.1%}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
