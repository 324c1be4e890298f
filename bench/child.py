"""One pipeline run in a fresh process: set up, run the CLI steps, report.

Usage: ``python3 child.py PLAN.json`` with a plan written by ``run.py``.
The plan names the package source directory, the configs that set-up
loads, the CLI argument lists to run in order, whether to trace, and
where to write the result JSON (and, when tracing, the span file).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

EXIT_NO_PROGRAM = 3


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    src = Path(plan["src"]).resolve()

    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    try:
        from mpoxrf import cli, config
    except ImportError as exc:
        print(f"cannot import mpoxrf from {src}: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"mpoxrf imported from {cli.__file__}, not {src}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    import_s = time.perf_counter() - t0

    recorder = None
    absent: list[str] = []
    if plan["trace"]:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        absent = recorder.install()

    t1 = time.perf_counter()
    cli.build_parser()
    for path in plan["configs"]:
        config.load_config(path)
    setup_s = import_s + time.perf_counter() - t1

    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    steps = []
    t_start = time.perf_counter()
    for argv in plan["steps"]:
        run = cli.main
        if recorder is not None:
            run = recorder.wrap(f"cli.{argv[0]}", cli.main)
        out, err = io.StringIO(), io.StringIO()
        ts = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = run(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed step, not a failed run
                traceback.print_exc()
                rc = 1
        steps.append({
            "argv": argv,
            "rc": rc,
            "seconds": time.perf_counter() - ts,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
        })
        if rc != 0:
            break
    wall_s = time.perf_counter() - t_start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)

    if recorder is not None:
        recorder.save(plan["spans"])
    Path(plan["result"]).write_text(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": _cpu_s(usage1) - _cpu_s(usage0) + _cpu_s(children),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": max(usage1.ru_maxrss, children.ru_maxrss) / 1024.0,
        "absent": absent,
        "steps": steps,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
