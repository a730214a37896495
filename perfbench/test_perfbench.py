"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench

They start the benchmark as a subprocess, as a user would, so they take a
few minutes (two traced runs per workload).
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from run import E2E_UNITS, fingerprint, pass_refs
from tracing import LAYER_UNITS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(workload, trace, seed=0, seconds=1):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    *_, detail, result = out.stdout.strip().splitlines()
    return json.loads(detail)["detail"], json.loads(result)


def test_declared_metrics_match_the_code():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for name in [*E2E_UNITS, *LAYER_UNITS, *WORKLOADS]:
        assert NAME.fullmatch(name), name


def test_fingerprint_sees_a_changed_output():
    import numpy as np

    a = [np.eye(3), ValueError("x"), 1.0]
    b = [np.eye(3), ValueError("x"), 1.0]
    assert fingerprint(a) == fingerprint(b)
    b[0][1, 2] = 1e-300
    assert fingerprint(a) != fingerprint(b)


def test_pass_refs_takes_each_calls_median_ratio():
    latencies = [[2.0, 10.0], [4.0, 30.0], [3.0, 12.0]]
    refs = [[1.0, 1.0], [2.0, 3.0], [1.0, 2.0]]
    # call 0: ratios 2, 2, 3 -> 2; call 1: ratios 10, 10, 6 -> 10
    assert pass_refs(latencies, refs) == 12.0


def test_untraced_run_emits_every_end_to_end_metric():
    detail, result = bench("decompose_stream", trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["failed_ids"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == E2E_UNITS
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] > 0, name
    assert detail["machine"]["nproc"] >= 1 and detail["machine"]["blas"]["name"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_runs_keep_outputs_and_repeat_counts(workload):
    """Each traced run checks that its traced pass gives the same records and
    outputs as the untraced pass before it; two traced runs give the same
    counts."""
    runs = [bench(workload, trace=1) for _ in range(2)]
    for detail, result in runs:
        assert result["correct"], detail["failed_ids"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == LAYER_UNITS
        assert detail["missing_targets"] == []
    counts = [
        {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
        for _, result in runs
    ]
    assert counts[0] == counts[1]
