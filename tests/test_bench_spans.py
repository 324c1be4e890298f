"""Every span target of the benchmark resolves to a program function.

``bench/spans.py`` reports a target the program no longer defines as
absent, which silently zeroes its layer metric; this test turns a rename
into a failure instead.  The targets in ``RETIRED`` name functions that
were deleted on purpose; they stay in the span table, reported absent,
until the benchmark's next change takes them out.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


#: Span targets whose function was deleted on purpose -> their metric.
RETIRED = {
    # no command read a whole TPXE file: the commands read it with
    # events.open_events, a slice at a time
    "mpoxrf.events.parse_events_file": "events.parse_s",
    # no command read a dense cube: ``window`` sums the file with
    # sic.read_window
    "mpoxrf.sic.read_sic": "sic.read_s",
    # no command summed an in-memory cube: ``window`` sums the file with
    # sic.read_window, the one way from a cube to an image
    "mpoxrf.analysis.energy_window": "analysis.window_s",
}


def _span_table():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPAN_TABLE


def _span_targets():
    return sorted({t for targets in _span_table().values() for t in targets})


def _defined(target) -> bool:
    mod_name, _, func_name = target.rpartition(".")
    return callable(getattr(importlib.import_module(mod_name), func_name, None))


@pytest.mark.parametrize("target", [t for t in _span_targets() if t not in RETIRED])
def test_span_target_resolves(target):
    assert _defined(target), f"{target} is not defined"


@pytest.mark.parametrize("target", sorted(RETIRED))
def test_retired_span_target_is_gone(target):
    # an entry whose function is back, or that left the table, is stale
    assert not _defined(target), f"{target} is defined again"
    assert target in _span_table()[RETIRED[target]]
