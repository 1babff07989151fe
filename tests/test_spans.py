"""The benchmark's tracer wraps cf3 functions where their callers look them
up; a refactor that stops importing a traced name must fail here, not only
in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_the_callers_attribute():
    broken = []
    for _, home, attr, callers, _ in _spans_module().POINTS:
        original = getattr(importlib.import_module("cf3." + home), attr)
        for caller in callers:
            if getattr(importlib.import_module("cf3." + caller), attr, None) is not original:
                broken.append("cf3.%s.%s" % (caller, attr))
    assert broken == []
