"""The benchmark's workloads call the library by name with fixed
arguments; a changed signature would break them only when the
multi-minute benchmark self-test runs.  This loads the workload table and
runs every workload's small warm-up calls, whose output checks must pass."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up in sys.modules
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name].WORKLOADS


@pytest.mark.parametrize("workload", sorted(_workloads()))
def test_every_warmup_call_passes_its_checks(workload):
    calls = _workloads()[workload].warmup(0)
    assert calls
    failed = []
    for call in calls:
        try:
            out = call()
        except Exception as exc:  # the workload's check judges a raised error
            out = exc
        checks = call.check(out)
        assert checks, call.label
        failed += [check_id for check_id, passed in checks if not passed]
    assert failed == []
