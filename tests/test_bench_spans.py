"""Every span target of the benchmark resolves to a program function.

``bench/spans.py`` reports a target the program no longer defines as
absent, which silently zeroes its layer metric; this test turns a rename
into a failure instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _span_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted({t for targets in module.SPAN_TABLE.values() for t in targets})


@pytest.mark.parametrize("target", _span_targets())
def test_span_target_resolves(target):
    mod_name, _, func_name = target.rpartition(".")
    fn = getattr(importlib.import_module(mod_name), func_name, None)
    assert callable(fn), f"{target} is not defined"
