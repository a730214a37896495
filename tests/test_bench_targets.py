"""The benchmark (perfbench/) wraps library functions by module and name; a
deleted or renamed name would break it only when its multi-minute self-test
runs.  This reads its target list and checks that every name resolves."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        f"{module}.{name}"
        for _, module, name in tracing.TARGETS
        if not hasattr(importlib.import_module(f"isomlab.{module}"), name)
    ]
    assert missing == []
